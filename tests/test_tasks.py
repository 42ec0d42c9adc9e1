"""Vary-way vary-shot sampling, synthetic pools, and the two file formats."""

import io
import math
import struct
from dataclasses import FrozenInstanceError, fields, replace

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
    _first_non_utf8,
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
    return EmbeddingDataset(classes=classes, d=d)


# ---------------------------------------------------------------- datasets


def test_dataset_stores_rows_as_float32():
    ds = EmbeddingDataset(classes=[np.ones((2, 3), dtype=np.float64)], d=3)
    assert ds.classes[0].dtype == np.float32
    assert ds.n_classes == 1
    assert ds.sizes == [2]
    assert [f.name for f in fields(ds)] == ["classes", "d"]


def test_dataset_validation():
    with pytest.raises(ValueError):
        EmbeddingDataset(classes=[], d=3)
    with pytest.raises(ValueError):
        EmbeddingDataset(classes=[np.ones(3)], d=3)
    with pytest.raises(ValueError):
        EmbeddingDataset(classes=[np.ones((2, 2))], d=3)
    with pytest.raises(ValueError):
        EmbeddingDataset(classes=[np.ones((2, 0))], d=0)
    for d in (2.0, True, "2"):  # 2.0 passes the shape comparison; a bool is no integer here
        with pytest.raises(ValueError, match="d must be an integer"):
            EmbeddingDataset(classes=[np.ones((2, 2))], d=d)


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


def test_sampler_config_rejects_a_support_budget_below_five_classes():
    # every task has at least 5 classes, each with at least one support row
    for max_support in (0, 4):
        message = f"^max_support must be at least 5, got {max_support}$"
        with pytest.raises(ValueError, match=message):
            SamplerConfig(max_support=max_support)
    assert SamplerConfig(max_support=5).max_support == 5


def test_sampler_config_is_frozen():
    cfg = SamplerConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.max_support = 4
    with pytest.raises(ValueError, match="max_support must be at least 5"):
        replace(cfg, max_support=4)


@pytest.mark.parametrize("field", ["n_max", "max_support", "max_query_per_class",
                                   "max_shots_per_class", "seed"])
@pytest.mark.parametrize("value", [7.5, True, np.float64(7.0), "7"])
def test_sampler_config_rejects_non_integer_settings(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SamplerConfig(**{field: value})


def test_sampler_config_accepts_numpy_integers():
    cfg = SamplerConfig(n_max=np.int64(9), max_support=np.int32(120), seed=np.uint8(3))
    assert (cfg.n_max, cfg.max_support, cfg.seed) == (9, 120, 3)


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


def test_sample_task_hands_the_pools_float32_rows():
    pool = make_pool()
    rows = {r.tobytes() for mat in pool.classes for r in mat}
    task = sample_task(pool, SamplerConfig(), np.random.default_rng(8))
    for x in (task.support_x, task.query_x):
        assert x.dtype == np.float32
        assert {r.tobytes() for r in x} <= rows
        assert not any(np.shares_memory(x, mat) for mat in pool.classes)


def test_sample_task_is_deterministic_in_the_stream():
    pool = make_pool()
    cfg = SamplerConfig()
    t1 = sample_task(pool, cfg, np.random.default_rng(12))
    t2 = sample_task(pool, cfg, np.random.default_rng(12))
    assert np.array_equal(t1.support_x, t2.support_x)
    assert np.array_equal(t1.query_x, t2.query_x)


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


@pytest.mark.parametrize("separation, noise", [(math.nan, 1.0), (math.inf, 1.0),
                                               (6.0, math.nan), (6.0, math.inf)])
def test_synth_dataset_rejects_non_finite_separation_and_noise(separation, noise):
    with pytest.raises(ValueError, match="non-negative and finite"):
        synth_dataset(3, 10, 4, separation, noise, np.random.default_rng(0))


def test_synth_task_layout():
    task = synth_task(5, 7, 3, 6, 5.0, 0.5, np.random.default_rng(8))
    assert task.support_x.shape == (35, 6)
    assert task.query_x.shape == (15, 6)
    assert np.array_equal(task.support_y, np.repeat(np.arange(5), 7))
    assert np.array_equal(task.query_y, np.repeat(np.arange(5), 3))


def test_synth_task_validation():
    with pytest.raises(ValueError):
        synth_task(5, 0, 3, 6, 5.0, 0.5, np.random.default_rng(0))


@pytest.mark.parametrize("build, args, name", [
    (synth_dataset, (5.5, 10, 16, 3.0, 1.0), "n_classes"),
    (synth_dataset, (5, True, 16, 3.0, 1.0), "per_class"),
    (synth_dataset, (5, 10, 16, "3", 1.0), "separation"),
    (synth_task, (5, 2.0, 3, 16, 3.0, 1.0), "n_shot"),
    (synth_task, (5, 2, False, 16, 3.0, 1.0), "n_query"),
], ids=["float-count", "bool-count", "string-separation", "float-shots", "bool-queries"])
def test_synth_builders_reject_non_numbers_by_name(build, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        build(*args, np.random.default_rng(0))


def test_synth_builders_accept_numpy_numbers():
    rng = np.random.default_rng(0)
    ds = synth_dataset(np.int64(5), np.int32(10), np.int64(16), np.float32(3.0),
                       np.float64(1.0), rng)
    assert (ds.n_classes, ds.sizes[0], ds.d) == (5, 10, 16)
    task = synth_task(np.int64(5), np.int16(2), np.uint8(3), 16, 3.0, 1.0, rng)
    assert task.support_x.shape == (10, 16)
    assert task.query_x.shape == (15, 16)


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
    return EmbeddingDataset(classes=classes, d=d)


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
    # a file that does not start with the magic is read as CSV, whose header
    # check fails at the first byte
    path = tmp_path / "bad.emb"
    path.write_bytes(b"EMBX" + bytes(20))
    with pytest.raises(EmbeddingFormatError, match="bad CSV header") as err:
        load_embeddings(path)
    assert err.value.offset == 0
    assert "(byte offset 0)" in str(err.value)


def test_emb1_bad_version_reports_offset_four(tmp_path):
    path = tmp_path / "v9.emb"
    path.write_bytes(MAGIC + struct.pack("B", 9) + struct.pack("<I", 1))
    with pytest.raises(EmbeddingFormatError) as err:
        load_embeddings(path)
    assert err.value.offset == 4
    assert "(byte offset 4)" in str(err.value)


@pytest.mark.parametrize("n_rows, d", [
    (2, 3),  # 12 of 24 payload bytes
    (0xFFFFFFFF, 0xFFFFFFFF),  # a size read() cannot take
    (2**30, 2**30),  # a size no buffer can hold
], ids=["short", "overflow", "oversized"])
def test_emb1_truncated_payload_reports_read_position(tmp_path, n_rows, d):
    blob = (
        MAGIC
        + struct.pack("B", FORMAT_VERSION)
        + struct.pack("<I", 1)
        + struct.pack("<II", n_rows, d)
        + struct.pack("<3f", 1.0, 2.0, 3.0)
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


def test_csv_crlf_line_ends_and_blank_lines_load_like_lf(tmp_path):
    ds = small_dataset(seed=6)
    lf = tmp_path / "lf.csv"
    save_embeddings(ds, lf)
    text = lf.read_bytes().replace(b"\r\n", b"\n")
    lines = text.split(b"\n")
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(b"\r\n".join(lines[:3] + [b""] + lines[3:]))
    lf.write_bytes(text)
    for path in (lf, crlf):
        loaded = load_embeddings(path)
        assert loaded.d == ds.d
        for orig, back in zip(ds.classes, loaded.classes, strict=True):
            assert back.dtype == np.float32
            assert np.array_equal(orig, back)


def test_csv_header_and_shortest_float_repr(tmp_path):
    ds = EmbeddingDataset(classes=[np.array([[0.1, 2.0]], dtype=np.float32)], d=2)
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


@pytest.mark.parametrize("good_rows", [0, 3000])
def test_csv_non_utf8_byte_reports_its_file_offset(tmp_path, good_rows):
    # 3000 rows put the bad byte at 30012, past the text reader's first chunks
    head = b"label,f0,f1\n" + b"0,1.0,2.0\n" * good_rows
    path = tmp_path / "bad.csv"
    path.write_bytes(head + b"0,\xff,2.0\n")
    with pytest.raises(EmbeddingFormatError, match="not UTF-8") as err:
        load_embeddings(path)
    assert err.value.offset == len(head) + 2
    assert f"(byte offset {len(head) + 2})" in str(err.value)


def test_non_utf8_offset_counts_a_character_cut_by_a_read_block():
    # bytes 65535-65536 are one character, split across the 64 KiB blocks
    data = b"x" * 65535 + "\u00e9".encode() + b"\xff"
    assert _first_non_utf8(io.BytesIO(data)) == 65537
    assert _first_non_utf8(io.BytesIO(data[:-1])) is None


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
        rng.normal(size=(int(rng.integers(0, 5)), d)).astype(np.float32)
        for _ in range(n_classes)
    ]
    ds = EmbeddingDataset(classes=classes, d=d)
    root = tmp_path_factory.mktemp("fmt")
    empty = [c for c, mat in enumerate(classes) if mat.shape[0] == 0]
    for name in ("p.emb", "p.csv"):
        path = root / name
        if name == "p.csv" and empty:
            # CSV labels its rows, so an empty class has no text form
            with pytest.raises(ValueError, match=f"class {empty[0]} has no rows"):
                save_embeddings(ds, path)
            assert not path.exists()
            continue
        save_embeddings(ds, path)
        loaded = load_embeddings(path)
        assert loaded.n_classes == n_classes
        for orig, back in zip(ds.classes, loaded.classes):
            assert orig.shape == back.shape
            assert np.array_equal(orig, back)
