"""Vary-way vary-shot sampling, synthetic pools, and the two file formats."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kerndep.tasks import (
    FORMAT_VERSION,
    LOG_HALF,
    LOG_TWO,
    MAGIC,
    EmbeddingDataset,
    EmbeddingFormatError,
    SamplerConfig,
    TaskProvenance,
    compute_query_size,
    compute_shots,
    compute_support_size,
    flatten_dataset,
    load_embeddings,
    sample_task,
    sample_way_count,
    save_embeddings,
    synth_dataset,
    synth_task,
)


class StubRng:
    """Plays back scripted draws so formula tests control the stream."""

    def __init__(self, integers=(), randoms=(), uniforms=()):
        self._integers = list(integers)
        self._randoms = list(randoms)
        self._uniforms = list(uniforms)

    def integers(self, low, high):
        return self._integers.pop(0)

    def random(self):
        return self._randoms.pop(0)

    def uniform(self, low, high, size=None):
        assert low == LOG_HALF and high == LOG_TWO
        return np.asarray(self._uniforms.pop(0), dtype=np.float64)


def make_pool(seed=5150, n_classes=12, d=4, min_size=2, max_size=80):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(min_size, max_size + 1, size=n_classes)
    classes = [rng.normal(size=(int(s), d)) for s in sizes]
    return EmbeddingDataset(classes=classes, d=d, name="pool")


# ---------------------------------------------------------------- datasets


def test_dataset_stores_rows_as_float32():
    ds = EmbeddingDataset(classes=[np.ones((2, 3), dtype=np.float64)], d=3)
    assert ds.classes[0].dtype == np.float32
    assert ds.n_classes == 1
    assert ds.sizes == [2]
    assert ds.name == "dataset"


def test_dataset_validation():
    with pytest.raises(ValueError):
        EmbeddingDataset(classes=[], d=3)
    with pytest.raises(ValueError):
        EmbeddingDataset(classes=[np.ones(3)], d=3)
    with pytest.raises(ValueError):
        EmbeddingDataset(classes=[np.ones((2, 2))], d=3)
    with pytest.raises(ValueError):
        EmbeddingDataset(classes=[np.ones((2, 0))], d=0)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(n_max=4)
    with pytest.raises(ValueError):
        SamplerConfig(max_support=0)
    with pytest.raises(ValueError):
        SamplerConfig(max_query_per_class=0)
    with pytest.raises(ValueError):
        SamplerConfig(max_shots_per_class=-1)
    with pytest.raises(ValueError):
        SamplerConfig(seed=-1)


# ------------------------------------------------------- sampler formulas


def test_way_count_passes_inclusive_bounds_to_the_stream():
    assert sample_way_count(StubRng(integers=[7]), 20, 9) == 7
    rng = np.random.default_rng(0)
    draws = {sample_way_count(rng, 8, 50) for _ in range(500)}
    assert draws == {5, 6, 7, 8}


def test_way_count_requires_five_classes():
    with pytest.raises(ValueError):
        sample_way_count(np.random.default_rng(0), 4, 50)
    with pytest.raises(ValueError):
        sample_way_count(np.random.default_rng(0), 100, 4)


def test_query_size_hand_cases():
    assert compute_query_size([30, 20, 7]) == 3
    assert compute_query_size([200] * 5) == 10
    assert compute_query_size([2, 100]) == 1
    with pytest.raises(ValueError):
        compute_query_size([1, 10])


def test_support_budget_at_beta_one_sums_capped_class_sizes():
    # scripted uniform draw 0.0 turns into beta = 1.0 exactly
    assert compute_support_size(StubRng(randoms=[0.0]), [300] * 5, 10) == 500
    assert compute_support_size(StubRng(randoms=[0.0]), [20] * 5, 10) == 50


def test_support_budget_rounds_each_class_up():
    # beta = 0.35 on five classes of 13 minus one query row: ceil(4.2) = 5
    s = compute_support_size(StubRng(randoms=[0.65]), [13] * 5, 1)
    assert s == 25


def test_support_budget_requires_leftover_rows():
    with pytest.raises(ValueError):
        compute_support_size(StubRng(randoms=[0.0]), [10, 4], 4)


def test_shots_with_equal_weights_split_the_budget_evenly():
    shots = compute_shots(StubRng(uniforms=[np.zeros(5)]), [50] * 5, 10, 100)
    assert shots == [20] * 5


def test_shots_with_equal_alphas_follow_class_sizes():
    shots = compute_shots(StubRng(uniforms=[np.zeros(3)]), [100, 50, 50], 10, 60)
    # ratios (0.5, 0.25, 0.25) of 57: floor gives 28, 14, 14, plus one each
    assert shots == [29, 15, 15]


def test_shots_are_capped_by_rows_left_after_queries():
    # ratio 6/406 of budget 298 floors to 4, plus one is 5, cap is 6 - 2
    shots = compute_shots(StubRng(uniforms=[np.zeros(2)]), [6, 400], 2, 300)
    assert shots[0] == 4
    assert shots[1] <= 398


def test_shots_reject_budget_below_class_count():
    with pytest.raises(ValueError):
        compute_shots(StubRng(uniforms=[np.zeros(5)]), [50] * 5, 10, 4)


# ------------------------------------------------------------ sample_task


def transcribe_task(dataset, cfg, rng):
    """Straight-line replay of the documented draw order."""
    sizes_all = dataset.sizes
    eligible = [i for i, s in enumerate(sizes_all) if s >= 2]
    while True:
        upper = min(cfg.n_max, len(eligible))
        n_way = int(rng.integers(5, upper + 1))
        chosen = rng.choice(len(eligible), size=n_way, replace=False)
        class_ids = [eligible[i] for i in chosen]
        sizes = [sizes_all[c] for c in class_ids]
        q = min(cfg.max_query_per_class, min(s // 2 for s in sizes))
        beta = 1.0 - float(rng.random())
        s = min(
            cfg.max_support,
            sum(math.ceil(beta * min(cfg.max_shots_per_class, c - q)) for c in sizes),
        )
        alphas = rng.uniform(LOG_HALF, LOG_TWO, size=n_way)
        weights = np.exp(alphas) * np.asarray(sizes, dtype=np.float64)
        ratios = weights / weights.sum()
        shots = [
            int(min(math.floor(r * (s - n_way)) + 1, c - q))
            for r, c in zip(ratios, sizes)
        ]
        if sum(shots) < 4 or n_way < 2:
            continue
        support_parts, query_parts = [], []
        for class_id, k in zip(class_ids, shots):
            mat = dataset.classes[class_id]
            idx = rng.choice(mat.shape[0], size=k + q, replace=False)
            support_parts.append(mat[idx[:k]])
            query_parts.append(mat[idx[k:]])
        support_x = np.concatenate(support_parts).astype(np.float64)
        query_x = np.concatenate(query_parts).astype(np.float64)
        support_y = np.repeat(np.arange(n_way, dtype=np.int64), shots)
        query_y = np.repeat(np.arange(n_way, dtype=np.int64), q)
        return support_x, support_y, query_x, query_y


def test_sample_task_matches_straightline_transcription():
    pool = make_pool()
    cfg = SamplerConfig(n_max=9, max_support=120)
    rng_real = np.random.default_rng(33)
    rng_replay = np.random.default_rng(33)
    for _ in range(200):
        task = sample_task(pool, cfg, rng_real)
        sx, sy, qx, qy = transcribe_task(pool, cfg, rng_replay)
        assert np.array_equal(task.support_x, sx)
        assert np.array_equal(task.support_y, sy)
        assert np.array_equal(task.query_x, qx)
        assert np.array_equal(task.query_y, qy)


def test_sample_task_satisfies_protocol_invariants():
    pool = make_pool(seed=77, n_classes=20, max_size=200)
    cfg = SamplerConfig()
    rng = np.random.default_rng(4)
    for _ in range(300):
        task = sample_task(pool, cfg, rng)
        n_way = int(task.support_y.max()) + 1
        assert 5 <= n_way <= cfg.n_max
        counts = np.bincount(task.support_y, minlength=n_way)
        assert (counts >= 1).all()
        assert counts.sum() <= cfg.max_support
        q_counts = np.bincount(task.query_y, minlength=n_way)
        assert (q_counts == q_counts[0]).all()
        assert q_counts[0] <= cfg.max_query_per_class
        for c in range(n_way):
            support_rows = {r.tobytes() for r in task.support_x[task.support_y == c]}
            query_rows = {r.tobytes() for r in task.query_x[task.query_y == c]}
            assert not support_rows & query_rows


def test_sample_task_is_deterministic_in_the_stream():
    pool = make_pool()
    cfg = SamplerConfig()
    t1 = sample_task(pool, cfg, np.random.default_rng(12))
    t2 = sample_task(pool, cfg, np.random.default_rng(12))
    assert np.array_equal(t1.support_x, t2.support_x)
    assert np.array_equal(t1.query_x, t2.query_x)


def test_sample_task_provenance():
    pool = make_pool()
    cfg = SamplerConfig(seed=9)
    task = sample_task(pool, cfg, np.random.default_rng(0), episode=17)
    assert task.provenance == TaskProvenance(dataset="pool", seed=9, episode=17)
    explicit = sample_task(pool, cfg, np.random.default_rng(0), seed=123, episode=2)
    assert explicit.provenance.seed == 123


def test_sample_task_needs_five_eligible_classes():
    thin = EmbeddingDataset(
        classes=[np.ones((5, 2), dtype=np.float32)] * 4 + [np.ones((1, 2), dtype=np.float32)],
        d=2,
    )
    with pytest.raises(ValueError, match="at least 5"):
        sample_task(thin, SamplerConfig(), np.random.default_rng(0))


def test_smallest_pool_always_meets_the_episode_preconditions():
    # five 2-row classes: one query row each leaves exactly one support row
    # per class, the fewest any task can have
    pool = EmbeddingDataset(
        classes=[np.full((2, 3), c, dtype=np.float32) for c in range(5)], d=3)
    for seed in range(200):
        task = sample_task(pool, SamplerConfig(), np.random.default_rng(seed))
        assert task.support_y.size >= 5
        assert np.array_equal(np.unique(task.support_y), np.arange(5))
        assert np.array_equal(np.bincount(task.query_y), np.ones(5))


# --------------------------------------------------------- synthetic data


def test_synth_dataset_shapes_and_determinism():
    a = synth_dataset(6, 10, 8, 4.0, 1.0, np.random.default_rng(3))
    b = synth_dataset(6, 10, 8, 4.0, 1.0, np.random.default_rng(3))
    assert a.n_classes == 6
    assert all(mat.shape == (10, 8) for mat in a.classes)
    for ma, mb in zip(a.classes, b.classes):
        assert np.array_equal(ma, mb)


def test_synth_dataset_centers_sit_at_separation_radius():
    ds = synth_dataset(4, 50, 16, 6.0, 0.0, np.random.default_rng(1))
    for mat in ds.classes:
        # zero noise collapses every row onto the class center
        assert np.allclose(mat, mat[0], atol=1e-6)
        assert np.linalg.norm(mat[0]) == pytest.approx(6.0, rel=1e-6)


def test_synth_dataset_handles_more_classes_than_dimensions():
    ds = synth_dataset(10, 4, 3, 5.0, 0.5, np.random.default_rng(2))
    assert ds.n_classes == 10
    assert ds.d == 3


def test_synth_dataset_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        synth_dataset(1, 10, 4, 1.0, 1.0, rng)
    with pytest.raises(ValueError):
        synth_dataset(3, 1, 4, 1.0, 1.0, rng)
    with pytest.raises(ValueError):
        synth_dataset(3, 10, 0, 1.0, 1.0, rng)
    with pytest.raises(ValueError):
        synth_dataset(3, 10, 4, -1.0, 1.0, rng)


def test_synth_task_layout():
    task = synth_task(5, 7, 3, 6, 5.0, 0.5, np.random.default_rng(8))
    assert task.support_x.shape == (35, 6)
    assert task.query_x.shape == (15, 6)
    assert np.array_equal(task.support_y, np.repeat(np.arange(5), 7))
    assert np.array_equal(task.query_y, np.repeat(np.arange(5), 3))


def test_synth_task_validation():
    with pytest.raises(ValueError):
        synth_task(5, 0, 3, 6, 5.0, 0.5, np.random.default_rng(0))


def test_flatten_dataset_compacts_ids_and_skips_empty_classes():
    classes = [
        np.ones((2, 3), dtype=np.float32),
        np.zeros((0, 3), dtype=np.float32),
        np.full((3, 3), 2.0, dtype=np.float32),
    ]
    ds = EmbeddingDataset(classes=classes, d=3)
    z, y = flatten_dataset(ds)
    assert z.shape == (5, 3)
    assert y.tolist() == [0, 0, 1, 1, 1]


# ------------------------------------------------------------ file formats


def small_dataset(seed=0, n_classes=3, rows=4, d=3):
    rng = np.random.default_rng(seed)
    classes = [rng.normal(size=(rows, d)).astype(np.float32) for _ in range(n_classes)]
    return EmbeddingDataset(classes=classes, d=d, name="small")


def test_emb1_round_trip_is_bit_identical(tmp_path):
    ds = small_dataset()
    p1 = tmp_path / "a.emb"
    p2 = tmp_path / "b.emb"
    save_embeddings(ds, p1)
    loaded = load_embeddings(p1)
    for orig, back in zip(ds.classes, loaded.classes):
        assert np.array_equal(orig, back)
        assert back.dtype == np.float32
    save_embeddings(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emb1_hand_assembled_layout(tmp_path):
    values = [1.5, -2.0, 0.25, 3.0, 4.5, -0.125]
    blob = (
        MAGIC
        + struct.pack("B", FORMAT_VERSION)
        + struct.pack("<I", 1)
        + struct.pack("<II", 2, 3)
        + struct.pack("<6f", *values)
    )
    path = tmp_path / "hand.emb"
    path.write_bytes(blob)
    ds = load_embeddings(path)
    assert ds.n_classes == 1
    assert ds.d == 3
    assert np.array_equal(
        ds.classes[0], np.array(values, dtype=np.float32).reshape(2, 3)
    )


def test_binary_garbage_is_reported_as_format_error(tmp_path):
    # wrong magic falls back to the CSV reader, which must translate its
    # failure instead of leaking parser internals
    path = tmp_path / "bad.emb"
    path.write_bytes(b"EMBX" + bytes(20))
    with pytest.raises(EmbeddingFormatError):
        load_embeddings(path)
    short = tmp_path / "short.emb"
    short.write_bytes(MAGIC[:3])
    with pytest.raises(EmbeddingFormatError):
        load_embeddings(short)


def test_emb1_bad_magic_reports_offset_zero(tmp_path):
    from kerndep.tasks import _read_emb1

    path = tmp_path / "bad.emb"
    path.write_bytes(b"EMBX" + bytes(20))
    with pytest.raises(EmbeddingFormatError) as err:
        _read_emb1(path)
    assert err.value.offset == 0
    assert "(byte offset 0)" in str(err.value)


def test_emb1_bad_version_reports_offset_four(tmp_path):
    path = tmp_path / "v9.emb"
    path.write_bytes(MAGIC + struct.pack("B", 9) + struct.pack("<I", 1))
    with pytest.raises(EmbeddingFormatError) as err:
        load_embeddings(path)
    assert err.value.offset == 4
    assert "(byte offset 4)" in str(err.value)


def test_emb1_truncated_payload_reports_read_position(tmp_path):
    blob = (
        MAGIC
        + struct.pack("B", FORMAT_VERSION)
        + struct.pack("<I", 1)
        + struct.pack("<II", 2, 3)
        + struct.pack("<3f", 1.0, 2.0, 3.0)  # 12 of 24 payload bytes
    )
    path = tmp_path / "cut.emb"
    path.write_bytes(blob)
    with pytest.raises(EmbeddingFormatError) as err:
        load_embeddings(path)
    assert err.value.offset == len(blob)
    assert "payload" in str(err.value)


def test_emb1_trailing_data_rejected(tmp_path):
    ds = small_dataset()
    path = tmp_path / "trail.emb"
    save_embeddings(ds, path)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(EmbeddingFormatError, match="trailing data"):
        load_embeddings(path)


def test_emb1_inconsistent_dimension_rejected(tmp_path):
    blob = (
        MAGIC
        + struct.pack("B", FORMAT_VERSION)
        + struct.pack("<I", 2)
        + struct.pack("<II", 1, 3)
        + struct.pack("<3f", 1.0, 2.0, 3.0)
        + struct.pack("<II", 1, 2)
        + struct.pack("<2f", 1.0, 2.0)
    )
    path = tmp_path / "mixed.emb"
    path.write_bytes(blob)
    with pytest.raises(EmbeddingFormatError, match="disagrees"):
        load_embeddings(path)


def test_emb1_rejects_zero_classes_and_zero_dimension(tmp_path):
    no_classes = MAGIC + struct.pack("B", FORMAT_VERSION) + struct.pack("<I", 0)
    path = tmp_path / "none.emb"
    path.write_bytes(no_classes)
    with pytest.raises(EmbeddingFormatError, match="no classes"):
        load_embeddings(path)
    zero_d = (
        MAGIC
        + struct.pack("B", FORMAT_VERSION)
        + struct.pack("<I", 1)
        + struct.pack("<II", 2, 0)
    )
    path2 = tmp_path / "zerod.emb"
    path2.write_bytes(zero_d)
    with pytest.raises(EmbeddingFormatError, match="dimension 0"):
        load_embeddings(path2)


def test_csv_round_trip_is_text_identical(tmp_path):
    ds = small_dataset(seed=5)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    save_embeddings(ds, p1)
    loaded = load_embeddings(p1)
    for orig, back in zip(ds.classes, loaded.classes):
        assert np.array_equal(orig, back)
    save_embeddings(loaded, p2)
    assert p1.read_text() == p2.read_text()


def test_csv_header_and_shortest_float_repr(tmp_path):
    ds = EmbeddingDataset(
        classes=[np.array([[0.1, 2.0]], dtype=np.float32)], d=2, name="t"
    )
    path = tmp_path / "t.csv"
    save_embeddings(ds, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "label,f0,f1"
    assert lines[1] == "0,0.1,2.0"


def test_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("id,f0\n0,1.0\n")
    with pytest.raises(EmbeddingFormatError, match="header"):
        load_embeddings(path)
    path.write_text("label,f0,f2\n0,1.0,2.0\n")
    with pytest.raises(EmbeddingFormatError, match="header"):
        load_embeddings(path)


def test_csv_non_contiguous_labels_rejected(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("label,f0\n0,1.0\n2,2.0\n")
    with pytest.raises(EmbeddingFormatError, match="contiguous"):
        load_embeddings(path)


def test_csv_bad_values_carry_line_numbers(tmp_path):
    path = tmp_path / "badval.csv"
    path.write_text("label,f0\n0,1.0\n0,zebra\n")
    with pytest.raises(EmbeddingFormatError, match="line 3"):
        load_embeddings(path)
    path.write_text("label,f0\n0,1.0\nx,1.0\n")
    with pytest.raises(EmbeddingFormatError, match="line 3"):
        load_embeddings(path)
    path.write_text("label,f0\n0,1.0,9.0\n")
    with pytest.raises(EmbeddingFormatError, match="line 2"):
        load_embeddings(path)


def test_csv_empty_and_headerless_files_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(EmbeddingFormatError, match="empty"):
        load_embeddings(path)
    path.write_text("label,f0\n")
    with pytest.raises(EmbeddingFormatError, match="no data rows"):
        load_embeddings(path)


def test_load_dispatch_sniffs_magic_over_suffix(tmp_path):
    ds = small_dataset(seed=9)
    binary_with_csv_name = tmp_path / "disguised.csv"
    # write binary bytes under a .csv name: the magic must win
    save_embeddings(ds, tmp_path / "real.emb")
    binary_with_csv_name.write_bytes((tmp_path / "real.emb").read_bytes())
    loaded = load_embeddings(binary_with_csv_name)
    assert loaded.n_classes == ds.n_classes
    for orig, back in zip(ds.classes, loaded.classes):
        assert np.array_equal(orig, back)


def test_save_dispatch_by_suffix(tmp_path):
    ds = small_dataset(seed=11)
    save_embeddings(ds, tmp_path / "x.csv")
    assert (tmp_path / "x.csv").read_text().startswith("label,")
    save_embeddings(ds, tmp_path / "x.emb")
    assert (tmp_path / "x.emb").read_bytes()[:4] == MAGIC


@given(
    seed=st.integers(0, 2**31 - 1),
    n_classes=st.integers(1, 4),
    d=st.integers(1, 5),
)
def test_formats_round_trip_property(tmp_path_factory, seed, n_classes, d):
    rng = np.random.default_rng(seed)
    classes = [
        rng.normal(size=(int(rng.integers(1, 5)), d)).astype(np.float32)
        for _ in range(n_classes)
    ]
    ds = EmbeddingDataset(classes=classes, d=d, name="prop")
    root = tmp_path_factory.mktemp("fmt")
    for name in ("p.emb", "p.csv"):
        path = root / name
        save_embeddings(ds, path)
        loaded = load_embeddings(path)
        assert loaded.n_classes == n_classes
        for orig, back in zip(ds.classes, loaded.classes):
            assert np.array_equal(orig, back)
