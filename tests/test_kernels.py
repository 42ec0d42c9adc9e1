"""Gram construction, label kernels, and the median base scale."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from kerndep import kernels
from kerndep.adapt import EpisodeResult, LinearHead
from kerndep.kernels import (
    _EXP_ZERO,
    _ROW_BLOCK,
    GAUSSIAN,
    IMQ,
    KERNEL_FAMILIES,
    _recompute_cancelled,
    _sq_dist_row_blocks,
    _unit_zero_diag_kernel,
    as_embeddings,
    as_labels,
    kernel_from_sq_dists,
    median_sq_distance,
    sq_dist_matrix,
)
from kerndep.tasks import Task
from oracles import (
    KernelSpec,
    eval_kernel,
    kernel_matrix,
    label_kernel_matrix,
    median_upper_positive,
    unit_sq_dist_matrix,
)


def embeddings(min_rows=2, max_rows=8, min_cols=1, max_cols=5):
    """Small finite float matrices."""
    finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False, width=32)
    return st.integers(min_rows, max_rows).flatmap(
        lambda m: st.integers(min_cols, max_cols).flatmap(
            lambda d: st.lists(
                st.lists(finite, min_size=d, max_size=d),
                min_size=m,
                max_size=m,
            ).map(np.array)
        )
    )


def test_gaussian_hand_value():
    # unit distance, unit bandwidth: exp(-1 / 2) precomputed by hand
    x = np.array([0.0, 0.0])
    y = np.array([1.0, 0.0])
    v = eval_kernel(KernelSpec(GAUSSIAN, 1.0), x, y)
    assert v == pytest.approx(0.6065306597126334, rel=1e-15)


def test_gaussian_scales_distance_by_two_sigma_squared():
    # squared distance 4 with sigma 2 gives the same exponent as 1 with sigma 1
    x = np.array([0.0])
    y = np.array([2.0])
    v = eval_kernel(KernelSpec(GAUSSIAN, 2.0), x, y)
    assert v == pytest.approx(0.6065306597126334, rel=1e-15)


def test_imq_hand_value():
    x = np.array([0.0, 0.0])
    y = np.array([1.0, 0.0])
    v = eval_kernel(KernelSpec(IMQ, 1.0), x, y)
    assert v == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
def test_radial_kernel_is_one_at_identical_points(family):
    x = np.array([0.3, -1.2, 4.0])
    assert eval_kernel(KernelSpec(family, 0.7), x, x) == 1.0


def support_cosine(z):
    """The similarity exports' Gram: support_similarity of an identity-head
    episode whose support rows are z."""
    z = np.asarray(z, dtype=np.float64)
    task = Task(z, np.zeros(len(z), dtype=np.int64), z[:1], np.zeros(1, dtype=np.int64))
    return EpisodeResult(LinearHead.identity(z.shape[1]), [], math.nan, 1.0,
                         task).support_similarity


def test_cosine_hand_values():
    # e1 against itself, an orthogonal row of norm 2, and -e1
    g = support_cosine([[1.0, 0.0], [0.0, 2.0], [-1.0, 0.0]])
    assert np.array_equal(g, [[1.0, 0.0, -1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])


def test_cosine_rejects_a_row_without_direction():
    # norm 0, and a norm whose square is below the smallest normal float64
    for scale in (0.0, 1e-160):
        with pytest.raises(ValueError, match=r"^support row 0 has norm .* after the head: "
                                             r"its square is below the smallest normal "
                                             r"float64"):
            support_cosine([[scale, scale], [1.0, 1.0]])


def first_row_without_direction(z):
    """The index of the first row whose norm squares below the smallest
    normal float64, or None."""
    norms = np.linalg.norm(z, axis=1)
    flat = np.flatnonzero(~(norms * norms >= np.finfo(np.float64).tiny))
    return int(flat[0]) if flat.size else None


@pytest.mark.parametrize("family", sorted(("cosine", *KERNEL_FAMILIES)))
@given(z=embeddings())
def test_kernel_matrix_is_exactly_symmetric(family, z):
    if family != "cosine":
        k = kernel_matrix(KernelSpec(family, 1.3), z)
    elif (row := first_row_without_direction(z)) is not None:
        with pytest.raises(ValueError, match=rf"^support row {row} has norm"):
            support_cosine(z)
        return
    else:  # the similarity exports' Gram, one symmetric rank-k update
        k = support_cosine(z)
    assert (k == k.T).all()


@given(z=embeddings())
def test_gaussian_entries_lie_in_unit_interval(z):
    k = kernel_matrix(KernelSpec(GAUSSIAN, 0.9), z)
    assert (k > 0.0).all()
    assert (k <= 1.0).all()


def test_gaussian_equals_one_exactly_when_rows_coincide():
    z = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 0.0]])
    k = kernel_matrix(KernelSpec(GAUSSIAN, 1.0), z)
    assert k[0, 1] == 1.0
    assert k[0, 2] < 1.0


@given(
    sigmas=st.lists(
        st.floats(0.05, 50.0, allow_nan=False), min_size=2, max_size=6, unique=True
    )
)
def test_gaussian_strictly_increases_with_bandwidth(sigmas):
    # at squared distance 5, exp(-5 / (2 sigma^2)) is subnormal or 0.0 below
    # sigma = 0.0594, and neighbouring floats near sigma = 50 round to one
    # kernel value; the property holds for normal kernel values at sigmas
    # apart by 1e-9 relative
    sigmas = sorted(sigmas)
    assume(all(b > a * (1.0 + 1e-9) for a, b in zip(sigmas, sigmas[1:])))
    x = np.array([0.0, 0.0])
    y = np.array([1.0, -2.0])
    values = [eval_kernel(KernelSpec(GAUSSIAN, s), x, y) for s in sigmas]
    assume(all(v >= np.finfo(float).tiny for v in values))
    assert all(a < b for a, b in zip(values, values[1:]))


def test_kernel_matrix_zero_diag_zeroes_the_diagonal():
    z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 3.0]])
    for family in sorted(KERNEL_FAMILIES):
        k = kernel_matrix(KernelSpec(family, 1.0), z, zero_diag=True)
        assert (np.diag(k) == 0.0).all()


def test_label_kernel_hand_matrix():
    labels = np.array([0, 1, 0])
    k = label_kernel_matrix(labels)
    expected = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    assert np.array_equal(k, expected)
    kz = label_kernel_matrix(labels, zero_diag=True)
    assert (np.diag(kz) == 0.0).all()
    assert np.array_equal(kz[0, 1:], expected[0, 1:])


def test_label_kernel_default_is_delta():
    k = label_kernel_matrix(np.array([0, 0, 1]))
    assert np.array_equal(k, np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


@given(
    raw=st.lists(st.integers(0, 3), min_size=2, max_size=12),
    perm_seed=st.integers(0, 2**31 - 1),
)
def test_label_kernel_invariant_under_class_relabeling(raw, perm_seed):
    _, labels = np.unique(np.asarray(raw), return_inverse=True)
    n_classes = int(labels.max()) + 1
    perm = np.random.default_rng(perm_seed).permutation(n_classes)
    relabeled = perm[labels]
    assert np.array_equal(
        label_kernel_matrix(labels), label_kernel_matrix(relabeled)
    )


def test_median_sq_distance_hand_values():
    # pairwise squared distances 4, 4, 8: median 4
    z = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert median_sq_distance(z) == pytest.approx(4.0)
    # distances 1, 4, 1: median 1
    line = np.array([[0.0], [1.0], [2.0]])
    assert median_sq_distance(line) == pytest.approx(1.0)


def test_median_ignores_zero_distance_pairs():
    # distances 0, 0, 0, 9, 9, 9: the median is 9.0 without the zeros, 4.5 with them
    z = np.array([[0.0], [0.0], [0.0], [3.0]])
    assert median_sq_distance(z) == pytest.approx(9.0)


def test_median_requires_two_distinct_rows():
    with pytest.raises(ValueError, match="identical"):
        median_sq_distance(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="identical"):
        median_sq_distance(np.array([[1.0, 1.0]]))
    # distinct rows 1e-170 apart: every squared distance underflows to 0
    tiny = as_embeddings(np.arange(6.0)[:, None] * 1e-170)
    assert np.unique(tiny, axis=0).shape[0] == 6
    with pytest.raises(ValueError, match="distinct rows all underflow to 0") as exc:
        median_sq_distance(tiny)
    assert "identical" not in str(exc.value)


def test_median_names_overflowing_distances():
    # rows near 1e200: every squared distance is inf
    huge = as_embeddings(1e200 * (1.0 + np.random.default_rng(71).normal(size=(6, 3))))
    # two ordinary rows and six near 1e200: 1 finite pair, 27 that overflow
    mixed = np.concatenate([[[0.0, 0.0], [1.0, 1.0]],
                            1e200 * np.random.default_rng(29).normal(size=(6, 2))])
    assert np.isfinite(row_block_sq_dists(mixed)[np.triu_indices(8, 1)]).sum() == 1
    for z in (huge, mixed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the error, with no overflow warning before it
            with pytest.raises(ValueError,
                               match="squared distances of the rows overflow float64"):
                median_sq_distance(z)


@given(
    z=embeddings(min_rows=3, max_rows=7),
    shift=st.floats(-20.0, 20.0, allow_nan=False),
    scale=st.floats(0.1, 8.0, allow_nan=False),
)
def test_median_translation_invariant_and_scale_quadratic(z, shift, scale):
    assume(np.unique(z, axis=0).shape[0] >= 2)
    # z + shift rounds each coordinate by up to eps/2 * (|z| + |shift|), so
    # rows closer than that can merge under the shift: z + shift is then a
    # different point set, not a translation of z.  Keep rows far enough apart
    # that the rounding moves each squared distance by under 1e-10 relative
    # (at most 4 * eps/2 * sqrt(5) / 1e-5 for up to 5 columns).
    gaps = np.linalg.norm(z[:, None, :] - z[None, :, :], axis=-1)
    assume(gaps[gaps > 0].min() > 1e-5 * (1.0 + np.abs(z).max() + abs(shift)))
    base = median_sq_distance(z)
    shifted = median_sq_distance(z + shift)
    scaled = median_sq_distance(z * scale)
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)
    assert scaled == pytest.approx(base * scale**2, rel=1e-9)


def test_sq_dist_matrix_single_row():
    assert np.array_equal(sq_dist_matrix(np.array([[5.0, 5.0]])), np.zeros((1, 1)))


def sq_dists_by_differences(z):
    """Oracle: each pair's squared distance summed from its row difference."""
    diff = z[:, None, :] - z[None, :, :]
    return (diff * diff).sum(axis=-1)


@pytest.mark.parametrize("shift", [0.0, 1e4])
def test_sq_dist_matrix_matches_differences(shift):
    rng = np.random.default_rng(31)
    z = rng.normal(size=(40, 12)) + shift
    z[7] = z[3]  # an exact duplicate
    z[9] = z[2] + 1e-9  # a near duplicate, deep in the cancellation range
    d2 = sq_dist_matrix(z)
    want = sq_dists_by_differences(z)
    assert np.array_equal(d2, d2.T)
    assert not d2.diagonal().any()
    assert d2[3, 7] == 0.0 and d2[7, 3] == 0.0
    pairs = want > 0
    assert np.count_nonzero(~pairs) == 40 + 2  # the diagonal and the duplicate pair
    assert np.all(np.abs(d2[pairs] - want[pairs]) <= 1e-14 * want[pairs])


def test_unit_sq_dist_matrix_matches_differences_on_unit_rows():
    rng = np.random.default_rng(37)
    v = rng.normal(size=(40, 12))
    v[7] = v[3]  # an exact duplicate
    v[9] = v[2] + 1e-9  # a near duplicate, deep in the cancellation range
    z = v / np.linalg.norm(v, axis=1, keepdims=True)
    out = np.full((40, 40), np.nan)
    d2 = unit_sq_dist_matrix(z, out=out)
    want = sq_dists_by_differences(z)
    assert d2 is out
    assert np.array_equal(d2, d2.T)
    assert not d2.diagonal().any()
    assert d2[3, 7] == 0.0 and d2[7, 3] == 0.0
    # from 2 - 2 z_2 . z_9 this pair would keep no correct digit
    assert abs(d2[2, 9] - want[2, 9]) <= 1e-14 * want[2, 9]
    assert np.count_nonzero(d2 == 0.0) == 40 + 2  # the diagonal and the duplicate pair
    # rows of unit norm to rounding: 2 - 2G is off by a few units of 2 at most
    assert np.all(np.abs(d2 - want) <= 1e-14 * (1.0 + want))


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
def test_unit_kernel_from_the_gram_recomputes_close_pairs(family):
    rng = np.random.default_rng(37)
    v = rng.normal(size=(40, 12))
    v[7] = v[3]  # an exact duplicate
    v[9] = v[2] + 1e-9  # a near duplicate, deep in the cancellation range
    z = v / np.linalg.norm(v, axis=1, keepdims=True)
    want = sq_dists_by_differences(z)
    # at sigma^2 = d2 the near pair's entry is exp(-1/2) (IMQ: 1/sqrt(2));
    # read from its Gram entry, 1 - d2/2, it would keep no correct digit
    for sigma in (math.sqrt(want[2, 9]), 0.8):
        out = np.full((40, 40), np.nan)
        k = _unit_zero_diag_kernel(z, family, sigma, out=out)
        assert k is out
        assert np.array_equal(k, k.T)
        assert not k.diagonal().any()
        assert k[3, 7] == 1.0 and k[7, 3] == 1.0
        near = eval_kernel(KernelSpec(family, sigma), z[2], z[9])  # from the row difference
        assert k[2, 9] == pytest.approx(near, rel=1e-12)
    # every entry against the kernel of 2 - 2G, off by a few units of 2 at most
    ref = kernel_from_sq_dists(unit_sq_dist_matrix(z), family, sigma)
    np.fill_diagonal(ref, 0.0)
    assert np.allclose(k, ref, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("classes", [2, 4])
def test_unit_kernel_holds_no_more_than_a_row_block_of_close_pairs(family, classes):
    # every row repeats a class row: close to half (2 classes) or a quarter
    # of all pairs are duplicates, which the kernel writes from their rows
    for m, d in ((400, 16), (500, 512)):
        base = np.random.default_rng(53).normal(size=(classes, d))
        z = base[np.arange(m) % classes]
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        out = np.empty((m, m))
        _unit_zero_diag_kernel(z, family, 0.8, out=out)
        tracemalloc.start()
        try:
            k = _unit_zero_diag_kernel(z, family, 0.8, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        same = np.equal.outer(np.arange(m) % classes, np.arange(m) % classes)
        np.fill_diagonal(same, False)
        assert (k[same] == 1.0).all()
        assert not k.diagonal().any()
        # a row block's pair indices and masks, and two groups of row differences
        group = max(1, _ROW_BLOCK * m // d)
        assert peak <= 4 * _ROW_BLOCK * m * 8 + 2 * group * (d + 2) * 8


@pytest.mark.parametrize("m, d", [(1, 3), (40, 12), (130, 5), (200, 64)])
def test_sq_dist_matrix_into_out_returns_it_with_the_same_bytes(m, d):
    rng = np.random.default_rng(41)
    z = rng.normal(size=(m, d)) + 1e4
    if m > 2:
        z[2] = z[0]  # a duplicate, so recomputed pairs are written into out too
    out = np.full((m, m), np.nan)
    d2 = sq_dist_matrix(z, out=out)
    assert d2 is out
    assert np.array_equal(d2, d2.T)
    assert d2.tobytes() == sq_dist_matrix(z).tobytes()


def test_sq_dist_matrix_into_out_recomputes_without_an_m_by_m_temporary():
    m = 1000
    rng = np.random.default_rng(47)
    z = rng.normal(size=(m, 8)) + 1e4
    z[5], z[m - 1] = z[0], z[1]  # duplicates in the first and the last row block
    out = np.empty((m, m))
    sq_dist_matrix(z, out=out)
    tracemalloc.start()
    try:
        d2 = sq_dist_matrix(z, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d2[0, 5] == d2[1, m - 1] == 0.0  # the pairs were recomputed
    # a few row blocks of the outer sum and the recompute mask
    assert peak < 0.25 * m * m * 8


@pytest.mark.parametrize("m", [1, 2, 50, 64, 128, 150])
def test_sq_dist_row_blocks_match_sq_dist_matrix(m):
    rng = np.random.default_rng(m)
    z = rng.normal(size=(m, 6)) * 2.0 + 3.0
    want = sq_dist_matrix(z)
    starts = []
    for a, block, least in _sq_dist_row_blocks(z):
        starts.append(a)
        assert block.shape == (min(_ROW_BLOCK, m - a), m - a)  # the upper trapezoid
        assert block.flags.c_contiguous
        assert not np.diagonal(block).any()  # the pairs i == j are exactly 0
        off = block.copy()
        np.fill_diagonal(off, np.inf)
        assert least == off.min()  # no pair was recomputed; inf for a 1 x 1 block
        # a general product against sq_dist_matrix's symmetric update: the
        # two round differently, by a few units of n_i + n_j at most
        ref = want[a:a + block.shape[0], a:]
        assert np.all(np.abs(block - ref) <= 1e-14 * (1.0 + ref))
    assert starts == list(range(0, m, _ROW_BLOCK))  # every row once, a short last block


def test_sq_dist_row_blocks_recompute_pairs_across_blocks():
    m = 150
    rng = np.random.default_rng(53)
    z = rng.normal(size=(m, 12)) + 1e4
    z[100] = z[3]  # an exact duplicate, rows in blocks 0 and 1
    z[140] = z[70] + 1e-9  # a near duplicate, deep in the cancellation range, blocks 1 and 2
    want = sq_dists_by_differences(z)
    blocks = {}
    for a, block, least in _sq_dist_row_blocks(z):
        blocks[a] = block.copy()
        off = block.copy()
        np.fill_diagonal(off, np.inf)
        # 0.0 where a pair was recomputed, else the least entry off the diagonal
        assert least == (0.0 if a < 128 else off.min())
    assert blocks[0][3, 100] == 0.0
    near = blocks[64][70 - 64, 140 - 64]
    # from the product of centred rows this pair would keep no correct digit
    assert abs(near - want[70, 140]) <= 1e-14 * want[70, 140]
    for a, block in blocks.items():
        ref = want[a:a + block.shape[0], a:]
        pairs = ref > 0
        assert np.all(np.abs(block[pairs] - ref[pairs]) <= 1e-12 * ref[pairs])


def test_float32_rows_keep_their_builders_dtypes():
    # as the module docstring says: the distance blocks are float64, as the
    # rows they centre are; the distance matrix and the unit kernel follow z
    m = 150  # three row blocks
    z64 = np.random.default_rng(29).normal(size=(m, 6))
    z64 /= np.linalg.norm(z64, axis=1, keepdims=True)
    z = z64.astype(np.float32)
    want = sq_dist_matrix(z64)
    tol = 1e-5 * want.max()
    for a, block, _ in _sq_dist_row_blocks(z):
        assert block.dtype == np.float64
        assert np.allclose(block, want[a:a + block.shape[0], a:], rtol=0.0, atol=tol)
    d2 = sq_dist_matrix(z)
    assert d2.dtype == np.float32
    assert np.allclose(d2, want, rtol=0.0, atol=tol)
    for family in KERNEL_FAMILIES:
        k = _unit_zero_diag_kernel(z, family, 0.8)
        assert k.dtype == np.float32
        assert np.allclose(k, _unit_zero_diag_kernel(z64, family, 0.8), rtol=0.0, atol=1e-5)


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("d", [3, 64, 512])
def test_float32_duplicate_rows_give_exactly_one(family, d):
    # 200 duplicate pairs of float32 unit rows: a pair's float32 Gram entry
    # may sit a few float32 steps below 1, inside float64's close-pair rule
    # (G >= 1 - 1e-8) but not what float32 reads it as, so the float32 Gram
    # has its own rule, and the pair's entry comes from its row difference
    v = np.random.default_rng(d).normal(size=(200, d)).astype(np.float32)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    z = np.concatenate([v, v])
    k = _unit_zero_diag_kernel(z, family, 0.8)
    assert k.dtype == np.float32
    assert np.array_equal(k, k.T)
    assert not k.diagonal().any()
    assert (k.diagonal(200) == 1.0).all()


def test_recompute_cancelled_rewrites_only_the_flagged_pairs():
    # a trapezoid block d2[a:a + rows, a:] of more rows than one test pass
    m, a, rows = 200, 30, _ROW_BLOCK + 20
    rng = np.random.default_rng(61)
    z = rng.normal(size=(m, 6)) + 100.0
    z[a + 70] = z[a + 5]  # an exact duplicate
    z[a + 80] = z[a + 66] + 1e-9  # a near duplicate, in the second pass
    zc = z - z.mean(axis=0)
    n = np.einsum("ij,ij->i", zc, zc)
    block = n[a:a + rows, None] + n[a:] - 2.0 * (zc[a:a + rows] @ zc[a:].T)
    block[3, 40] = -1.0
    block[75, 120] = np.nan
    bound = 1e-8 * (n[a:a + rows, None] + n[a:])
    block[10, 50] = 0.99 * bound[10, 50]  # just inside the threshold
    block[12, 60] = 1.01 * bound[12, 60]  # just outside it
    before = block.copy()
    assert _recompute_cancelled(z, block, n, a) == 0.0  # pairs were recomputed

    # the rule: a pair off the diagonal with d2 <= 1e-8 (n_i + n_j), or NaN
    flagged = (before <= bound) | np.isnan(before)
    np.fill_diagonal(flagged, False)
    i, j = np.nonzero(flagged)
    assert set(zip(i.tolist(), j.tolist())) == {
        (5, 70), (70, 5), (66, 80), (80, 66), (3, 40), (75, 120), (10, 50)}
    diff = z[a + i] - z[a + j]
    want = (diff * diff).sum(axis=1)
    assert np.all(np.abs(block[i, j] - want) <= 1e-15 * want)
    assert block[5, 70] == block[70, 5] == 0.0
    assert block[66, 80] > 0.0
    assert not np.diagonal(block).any()
    untouched = ~flagged
    np.fill_diagonal(untouched, False)
    assert block[untouched].tobytes() == before[untouched].tobytes()


@pytest.mark.parametrize("case", ["distinct", "duplicate", "nan"])
def test_recompute_cancelled_returns_the_least_entry_off_the_diagonal(case):
    m, a = 90, 20
    z = np.random.default_rng(67).normal(size=(m, 4)) + 10.0
    if case == "duplicate":
        z[a + 50] = z[a + 7]
    zc = z - z.mean(axis=0)
    n = np.einsum("ij,ij->i", zc, zc)
    block = n[a:, None] + n[a:] - 2.0 * (zc[a:] @ zc[a:].T)
    if case == "nan":
        block[30, 4] = np.nan
    off = block.copy()
    np.fill_diagonal(off, np.inf)
    least = _recompute_cancelled(z, block, n, a)
    if case == "distinct":
        assert least == off.min() > 0.0
    else:  # a pair was recomputed, or NaN seen: no least is known
        assert least == 0.0


def test_exp_is_exactly_zero_beyond_exp_zero():
    # the bound past which the label search skips a Gaussian kernel block
    x = np.concatenate([[_EXP_ZERO, np.nextafter(_EXP_ZERO, math.inf)],
                        np.geomspace(_EXP_ZERO, 1e300, 200)])
    assert (np.exp(-x) == 0.0).all()
    assert np.exp(-745.0) > 0.0  # still a subnormal, so the bound wastes less than 1


def test_median_of_row_blocks_drops_duplicates_across_blocks():
    # 75 distinct rows, each repeated 75 rows later: one zero pair per row,
    # each across two row blocks, enough to move the median if kept
    rng = np.random.default_rng(59)
    distinct = rng.normal(size=(75, 4))
    z = np.concatenate([distinct, distinct])
    m = z.shape[0]
    d2 = sq_dist_matrix(z)
    with_zeros = float(np.median(d2[np.triu_indices(m, 1)]))
    got = median_sq_distance(z)
    assert got == pytest.approx(median_upper_positive(d2), rel=1e-15)
    assert got != pytest.approx(with_zeros, rel=1e-3)


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
def test_kernel_from_sq_dists_out_may_be_its_input(family):
    d2 = sq_dist_matrix(np.random.default_rng(43).normal(size=(9, 4)))
    want = kernel_from_sq_dists(d2, family, 0.8)
    assert kernel_from_sq_dists(d2, family, 0.8, out=d2) is d2
    assert d2.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
def test_kernel_from_sq_dists_matches_pointwise_eval(family):
    rng = np.random.default_rng(7)
    z = rng.normal(size=(6, 3))
    spec = KernelSpec(family, 1.7)
    k = kernel_from_sq_dists(sq_dist_matrix(z), family, 1.7)
    for i in range(6):
        for j in range(6):
            assert k[i, j] == pytest.approx(eval_kernel(spec, z[i], z[j]), rel=1e-12)


@pytest.mark.parametrize("sigma", [1e-3, 0.37, 1.7, 1e3])
def test_kernel_from_sq_dists_is_bit_identical_and_leaves_input(sigma):
    rng = np.random.default_rng(17)
    d2 = sq_dist_matrix(rng.normal(size=(9, 4)) * 3.0)
    before = d2.copy()
    gaussian = kernel_from_sq_dists(d2, GAUSSIAN, sigma)
    imq = kernel_from_sq_dists(d2, IMQ, sigma)
    assert np.array_equal(d2, before)
    # the expressions written with temporaries, before the in-place rewrite:
    # each family multiplies by its scale
    assert gaussian.tobytes() == np.exp(d2 * (-0.5 / (sigma * sigma))).tobytes()
    assert imq.tobytes() == (1.0 / np.sqrt(1.0 + d2 * (1.0 / (sigma * sigma)))).tobytes()


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan])
def test_kernel_from_sq_dists_rejects_bad_bandwidth(family, sigma):
    with pytest.raises(ValueError, match="bandwidth"):
        kernel_from_sq_dists(np.zeros((2, 2)), family, sigma)


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("sigma", [1e-155, 1e-160, 1e-200, 5e-324])
def test_kernel_from_sq_dists_rejects_underflowing_bandwidth(family, sigma):
    # sigma * sigma is subnormal or 0: the zero diagonal would divide to NaN
    with pytest.raises(ValueError, match="underflows"):
        kernel_from_sq_dists(np.zeros((2, 2)), family, sigma)


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("sigma", [1.35e154, 1e160, 1e200, 1.7976931348623157e308])
def test_kernel_from_sq_dists_rejects_overflowing_bandwidth(family, sigma):
    # sigma * sigma is inf: the scale would be 0, and an infinite distance
    # (the search's stand-in for a zero entry) would map to NaN
    with pytest.raises(ValueError, match="overflows") as exc:
        kernel_from_sq_dists(np.zeros((2, 2)), family, sigma)
    assert str(exc.value).startswith(f"bandwidth {sigma} overflows")


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
def test_kernel_from_sq_dists_accepts_the_largest_finite_square(family):
    sigma = 1.34e154  # its square, 1.7956e308, is just below the largest float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = kernel_from_sq_dists(np.array([[0.0, np.inf], [np.inf, 0.0]]), family, sigma)
    assert k.tolist() == [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
def test_kernel_from_sq_dists_accepts_the_smallest_normal_square(family):
    sigma = 1.5e-154  # its square, 2.25e-308, is just above the smallest normal float64
    k = kernel_from_sq_dists(np.array([[0.0, 1e-307], [1e-307, 0.0]]), family, sigma)
    assert np.isfinite(k).all()
    assert np.array_equal(np.diagonal(k), [1.0, 1.0])


def row_block_sq_dists(z):
    """The squared distances _sq_dist_row_blocks yields, in the upper
    triangle of an m x m array of zeros."""
    m = z.shape[0]
    d2 = np.zeros((m, m))
    for a, block, _ in _sq_dist_row_blocks(z):
        d2[a:a + block.shape[0], a:] = block
    return d2


def median_case(m, duplicates=()):
    z = np.random.default_rng(m).normal(size=(m, 3))
    for i, j in duplicates:
        z[j] = z[i]
    return z


def spread_over_binades():
    # 1-D rows at 1.5 ** k: the squared distances span over 200 binades, and
    # far fewer distinct values lie near the median than in a blob
    return 1.5 ** np.arange(-100.0, 100.0)[:, None]


def opposite_rows():
    # +v and -v alternating: every positive distance is exactly 4 |v|^2, so
    # the sample's pivots meet on it, and half the pairs are zeros
    return np.resize([[1.0, 2.0], [-1.0, -2.0]], (130, 2))


def subnormal_rows():
    # rows 1e-160 apart at 1e-159: the squared distances are subnormal
    return (1e-159 + 1e-160 * np.random.default_rng(23).permutation(np.arange(90.0)))[:, None]


@pytest.mark.parametrize("z, pairs, zeros", [
    (median_case(9, [(0, 4), (0, 7), (2, 3)]), 36, 4),  # duplicate rows, 32 positive pairs
    (median_case(10), 45, 0),  # no zero pair, an odd pair count
    (median_case(8), 28, 0),  # no zero pair, an even pair count
    (median_case(7, [(1, 6), (2, 5)]), 21, 2),  # duplicate rows, 19 positive pairs
    (median_case(150), 11175, 0),  # three row blocks, an odd pair count
    (median_case(161), 12880, 0),  # an even pair count
    (np.tile(median_case(70), (2, 1)), 9730, 70),  # duplicate rows across blocks
    (np.eye(100), 4950, 0),  # every distance 2: the window keeps every pair
    (np.eye(99), 4851, 0),
    (spread_over_binades(), 19900, 0),
    (opposite_rows(), 8385, 4160),
    (subnormal_rows(), 4005, 0),
])
def test_median_of_sq_dists_matches_upper_triangle_oracle(z, pairs, zeros):
    d2 = row_block_sq_dists(z)
    upper = d2[np.triu_indices(z.shape[0], 1)]
    assert (upper.size, int((upper == 0.0).sum())) == (pairs, zeros)
    got = median_sq_distance(z)
    assert np.float64(got).tobytes() == np.float64(median_upper_positive(d2)).tobytes()


def test_median_copies_no_block():
    # under the centred rows, two row blocks and the window's candidates:
    # a block and its masks (or the sample's row differences, together one
    # row block) and the candidates, which are joined once the last block
    # is gone; no block of the sweep is copied
    m, d = 2000, 16
    z = np.random.default_rng(3).normal(size=(m, d))
    kept = []
    sweep = kernels._window_sweep

    def recorded(*args):
        result = sweep(*args)
        kept.append(sum(part.size for part in result[2]))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_window_sweep", recorded)
        median_sq_distance(z)
    assert len(kept) == 1 and 0 < kept[0] < _ROW_BLOCK * m  # one sweep, under a row block
    tracemalloc.start()
    try:
        median_sq_distance(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * (d + 2) * 8 + 2 * _ROW_BLOCK * m * 8 + kept[0] * 8


def count_sweeps(call_counts, z):
    """median_sq_distance(z) and the number of sweeps over the distance
    blocks it made."""
    counts, count = call_counts
    count("kerndep.kernels._sq_dist_row_blocks")
    got = median_sq_distance(z)
    return got, counts.pop("kerndep.kernels._sq_dist_row_blocks")


@pytest.mark.parametrize("z, misses", [
    (median_case(150), True),
    (np.eye(100), False),  # every distance is 2: the slack around one pivot keeps them all
    (spread_over_binades(), True),
], ids=["median_case", "eye", "spread_over_binades"])
def test_median_widens_its_window_to_the_exact_median(monkeypatch, call_counts, z, misses):
    # pivots at the sample's middle rank itself miss the middle ranks of
    # distinct distances; each miss widens the window fourfold in sample
    # ranks, up to (0, inf], which cannot miss: nine sweeps at most
    monkeypatch.setattr(kernels, "_PIVOT_SPREAD", 0.0)
    got, sweeps = count_sweeps(call_counts, z)
    assert np.float64(got).tobytes() == np.float64(
        median_upper_positive(row_block_sq_dists(z))).tobytes()
    assert (sweeps > 1) == misses and sweeps <= 9


@pytest.mark.parametrize("z", [np.eye(100), opposite_rows()], ids=["eye", "opposite_rows"])
def test_median_of_equal_distances_takes_one_sweep(call_counts, z):
    # every positive distance is equal: all of them are kept, in one sweep
    got, sweeps = count_sweeps(call_counts, z)
    assert sweeps == 1
    assert np.float64(got).tobytes() == np.float64(
        median_upper_positive(row_block_sq_dists(z))).tobytes()


def test_median_search_stops_at_the_full_window(call_counts):
    # NaN distances count as pairs but fall in no window, so no window holds
    # the middle ranks: the search stops once its window spans the sample
    # (the 100 sampled pairs with no NaN row here: three sweeps), and the
    # partition fails
    z = np.random.default_rng(0).normal(size=(400, 3))
    z[::2, 1] = np.nan
    with pytest.raises(ValueError, match="out of bounds"):
        count_sweeps(call_counts, z)
    assert call_counts[0]["kerndep.kernels._sq_dist_row_blocks"] == 3


@given(seed=st.integers(0, 2**31 - 1), m=st.integers(2, 200), d=st.integers(1, 6),
       log_scale=st.floats(-5.0, 5.0), layout=st.sampled_from(["normal", "duplicates",
                                                                "lattice"]))
def test_median_matches_upper_triangle_oracle_property(seed, m, d, log_scale, layout):
    rng = np.random.default_rng(seed)
    if layout == "lattice":  # many equal distances
        z = rng.integers(0, 3, size=(m, d)).astype(np.float64)
    else:
        z = rng.normal(size=(m, d))
    if layout == "duplicates":
        z[rng.integers(0, m, size=m // 2)] = z[rng.integers(0, m, size=m // 2)]
    z *= 10.0 ** log_scale
    d2 = row_block_sq_dists(z)
    assume((d2 > 0.0).any())
    got = median_sq_distance(z)
    assert np.float64(got).tobytes() == np.float64(median_upper_positive(d2)).tobytes()


def test_as_embeddings_validation():
    with pytest.raises(ValueError):
        as_embeddings(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_embeddings(np.empty((0, 3)))
    with pytest.raises(ValueError):
        as_embeddings(np.array([[1.0, np.nan]]))
    out = as_embeddings(np.array([[1, 2], [3, 4]], dtype=np.int32))
    assert out.dtype == np.float64


def test_as_labels_validation():
    with pytest.raises(ValueError):
        as_labels(np.array([0, 2]))  # id 1 missing
    with pytest.raises(ValueError):
        as_labels(np.array([-1, 0]))
    with pytest.raises(ValueError):
        as_labels(np.array([[0], [1]]))
    with pytest.raises(ValueError):
        as_labels(np.array([0, 1]), n_samples=3)
    out = as_labels([1, 0, 1], n_samples=3)
    assert out.dtype == np.int64


def test_as_labels_names_at_most_10_missing_ids():
    # one id of 10**12 (say, from a labels file): neither the check's time and
    # memory nor its message grows with the id; up to 10 missing ids are all named
    cases = (([0, 2], "[1]"),
             ([0, 1, 12], "[2, 3, 4, 5, 6, 7, 8, 9, 10, 11]"),
             ([1, 10**12, 0, 4],
              "999999999997 ids, the first 10: [2, 3, 5, 6, 7, 8, 9, 10, 11, 12]"))
    for labels, missing in cases:
        t0 = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            as_labels(np.array(labels))
        assert time.perf_counter() - t0 < 1.0
        assert str(exc.value) == (f"class ids must cover [0, {max(labels) + 1}); "
                                  f"missing {missing}")


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("triangle", 1.0)
    with pytest.raises(ValueError):
        KernelSpec(GAUSSIAN, 0.0)
    with pytest.raises(ValueError):
        KernelSpec(IMQ, -2.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            KernelSpec(GAUSSIAN, bad)
    with pytest.raises(ValueError, match="unknown kernel family 'cosine'"):
        KernelSpec("cosine")
