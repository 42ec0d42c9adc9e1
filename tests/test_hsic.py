"""Unbiased dependence estimator, its variance, and bandwidth search."""

import collections
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kerndep.hsic import (
    DEFAULT_EPSILON,
    DEFAULT_GRID_COEFFICIENTS,
    BandwidthGrid,
    BandwidthSelection,
    HsicEstimate,
    _gram_cotangent,
    _radial_class_sums,
    hsic_unbiased,
    hsic_variance,
    power_ratio,
    select_bandwidth,
)
from kerndep.kernels import (
    _EXP_ZERO,
    _ROW_BLOCK,
    GAUSSIAN,
    IMQ,
    KERNEL_FAMILIES,
    kernel_from_sq_dists,
    label_kernel_matrix,
    median_sq_distance,
    sq_dist_matrix,
)
from oracles import KernelSpec, hsic_unbiased_naive, kernel_matrix, permutation_test_rejects


def rand_gram(rng, m, scale=1.0):
    """Symmetric zero-diagonal matrix with entries of order `scale`."""
    a = rng.normal(size=(m, m)) * scale
    g = (a + a.T) / 2.0
    np.fill_diagonal(g, 0.0)
    return g


def constant_gram(m):
    return np.ones((m, m)) - np.eye(m)


def variance_scalar_oracle(kt, lt, value):
    """Entry-by-entry transcription of the per-sample vector and its
    second moment, written without matrix products on purpose."""
    m = kt.shape[0]
    k = kt.tolist()
    l = lt.tolist()
    k_rows = [sum(k[i][j] for j in range(m)) for i in range(m)]
    l_rows = [sum(l[i][j] for j in range(m)) for i in range(m)]
    sum_k = sum(k_rows)
    sum_l = sum(l_rows)
    trace_kl = sum(k[i][j] * l[j][i] for i in range(m) for j in range(m))
    cross = sum(
        k[i][t] * l[t][j] for i in range(m) for t in range(m) for j in range(m)
    )
    kl_rows = [sum(k[i][t] * l_rows[t] for t in range(m)) for i in range(m)]
    lk_rows = [sum(l[i][t] * k_rows[t] for t in range(m)) for i in range(m)]
    h = [
        (m - 2.0) ** 2 * sum(k[i][j] * l[i][j] for j in range(m))
        - m * k_rows[i] * l_rows[i]
        + sum_l * k_rows[i]
        + sum_k * l_rows[i]
        - cross
        + (m - 2.0) * (trace_kl - kl_rows[i] - lk_rows[i])
        for i in range(m)
    ]
    denom = (m - 1.0) * (m - 2.0) * (m - 3.0)
    r = sum(v * v for v in h) / (4.0 * m) / (denom * denom)
    return (16.0 / m) * (r - value * value)


def test_vectorized_estimator_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for m in range(4, 17):
        for _ in range(4):
            kt = rand_gram(rng, m)
            lt = rand_gram(rng, m)
            fast = hsic_unbiased(kt, lt)
            slow = hsic_unbiased_naive(kt, lt)
            assert fast == pytest.approx(slow, abs=1e-10)


@given(seed=st.integers(0, 2**31 - 1), m=st.integers(4, 9))
def test_estimator_oracle_agreement_property(seed, m):
    rng = np.random.default_rng(seed)
    kt = rand_gram(rng, m)
    lt = rand_gram(rng, m)
    assert hsic_unbiased(kt, lt) == pytest.approx(
        hsic_unbiased_naive(kt, lt), abs=1e-10
    )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("m", [4, 7, 12])
def test_gram_cotangent_reads_back_the_estimate(seed, m):
    # the estimate is linear in Kt: <Kt, C> = 2 weight hsic(Kt, Lt)
    rng = np.random.default_rng(seed)
    kt = rand_gram(rng, m)
    labels = rng.permutation(np.arange(m) % 2)
    for lt in (rand_gram(rng, m), label_kernel_matrix(labels, zero_diag=True), kt):
        for weight in (-1.0, 6.0):
            cot = _gram_cotangent(lt, lt.sum(axis=1), weight, np.empty((m, m)))
            assert np.vdot(kt, cot) == pytest.approx(2.0 * weight * hsic_unbiased(kt, lt),
                                                     rel=1e-12)
            in_place = lt.copy()
            _gram_cotangent(in_place, lt.sum(axis=1), weight, in_place)
            assert in_place.tobytes() == cot.tobytes()


def test_constant_kernel_hand_case_is_exactly_zero():
    # all off-diagonal entries 1 at m = 4: the three bracket terms cancel
    kt = constant_gram(4)
    assert hsic_unbiased(kt, kt) == 0.0
    assert hsic_unbiased_naive(kt, kt) == 0.0
    assert hsic_variance(kt, kt, 0.0) == 0.0
    assert hsic_variance(kt, kt, 0.0, clamp=False) == 0.0


@pytest.mark.parametrize("m", [5, 8, 12])
def test_variance_matches_scalar_transcription(m):
    rng = np.random.default_rng(100 + m)
    kt = rand_gram(rng, m)
    lt = rand_gram(rng, m)
    value = hsic_unbiased(kt, lt)
    got = hsic_variance(kt, lt, value, clamp=False)
    want = variance_scalar_oracle(kt, lt, value)
    assert got == pytest.approx(want, rel=1e-10)


@given(seed=st.integers(0, 2**31 - 1), m=st.integers(4, 10))
def test_clamped_variance_is_positive_part_of_raw(seed, m):
    rng = np.random.default_rng(seed)
    kt = rand_gram(rng, m)
    lt = rand_gram(rng, m)
    value = hsic_unbiased(kt, lt)
    raw = hsic_variance(kt, lt, value, clamp=False)
    clamped = hsic_variance(kt, lt, value)
    assert clamped == max(0.0, raw)
    assert clamped >= 0.0


@given(seed=st.integers(0, 2**31 - 1), m=st.integers(4, 10))
def test_permutation_leaves_estimates_unchanged(seed, m):
    rng = np.random.default_rng(seed)
    kt = rand_gram(rng, m)
    lt = rand_gram(rng, m)
    perm = rng.permutation(m)
    kp = kt[np.ix_(perm, perm)]
    lp = lt[np.ix_(perm, perm)]
    assert hsic_unbiased(kp, lp) == pytest.approx(hsic_unbiased(kt, lt), rel=1e-12, abs=1e-14)
    v = hsic_unbiased(kt, lt)
    assert hsic_variance(kp, lp, v, clamp=False) == pytest.approx(
        hsic_variance(kt, lt, v, clamp=False), rel=1e-12, abs=1e-14
    )


@given(
    seed=st.integers(0, 2**31 - 1),
    a=st.floats(0.1, 10.0, allow_nan=False),
    b=st.floats(0.1, 10.0, allow_nan=False),
)
def test_estimator_is_bilinear_in_matrix_scales(seed, a, b):
    rng = np.random.default_rng(seed)
    kt = rand_gram(rng, 6)
    lt = rand_gram(rng, 6)
    assert hsic_unbiased(a * kt, b * lt) == pytest.approx(
        a * b * hsic_unbiased(kt, lt), rel=1e-12, abs=1e-14
    )


def test_perfectly_clustered_embeddings_give_positive_value():
    z = np.repeat(np.eye(3) * 10.0, 4, axis=0)
    y = np.repeat(np.arange(3), 4)
    kt = kernel_matrix(KernelSpec("gaussian", 1.0), z, zero_diag=True)
    lt = label_kernel_matrix(y, zero_diag=True)
    assert hsic_unbiased(kt, lt) > 0.0


def test_estimator_rejects_bad_shapes():
    with pytest.raises(ValueError):
        hsic_unbiased(constant_gram(3), constant_gram(3))
    with pytest.raises(ValueError):
        hsic_unbiased(np.ones((4, 5)), np.ones((4, 5)))
    with pytest.raises(ValueError):
        hsic_unbiased(constant_gram(4), constant_gram(5))


def test_estimator_rejects_asymmetric_grams():
    rng = np.random.default_rng(0)
    kt = rng.normal(size=(6, 6))
    np.fill_diagonal(kt, 0.0)
    lt = rand_gram(rng, 6)
    for args, name in (((kt, lt), "Kt"), ((lt, kt), "Lt")):
        with pytest.raises(ValueError, match=f"Gram matrix {name} must be symmetric"):
            hsic_unbiased(*args)
        with pytest.raises(ValueError, match=f"Gram matrix {name} must be symmetric"):
            hsic_variance(*args, 0.0)
    hsic_unbiased(lt, rand_gram(rng, 6))  # symmetric pairs still pass


def test_power_ratio_hand_values():
    # 0.5 / sqrt(1e-5) with zero variance
    assert power_ratio(0.5, 0.0) == pytest.approx(158.11388300841895, rel=1e-12)
    assert power_ratio(-0.5, 0.0) == pytest.approx(-158.11388300841895, rel=1e-12)
    # 0.3 / sqrt(0.04 + 1e-5)
    assert power_ratio(0.3, 0.04) == pytest.approx(
        0.3 / math.sqrt(0.04001), rel=1e-14
    )
    assert power_ratio(0.0, 0.7) == 0.0


def test_power_ratio_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        power_ratio(1.0, 1.0, epsilon=0.0)
    with pytest.raises(ValueError):
        power_ratio(1.0, 1.0, epsilon=-1e-3)
    with pytest.raises(ValueError):
        power_ratio(1.0, 1.0, epsilon=math.inf)


def test_default_grid_is_frozen():
    assert DEFAULT_GRID_COEFFICIENTS == (
        0.001, 0.01, 0.1, 0.2, 0.25, 0.5, 0.75, 0.8, 0.9, 1.0, 1.25, 1.5, 2.0, 5.0, 10.0,
    )
    grid = BandwidthGrid()
    assert grid.coefficients == DEFAULT_GRID_COEFFICIENTS
    assert grid.epsilon == DEFAULT_EPSILON == 1e-5


def test_grid_validation():
    with pytest.raises(ValueError):
        BandwidthGrid(coefficients=())
    with pytest.raises(ValueError):
        BandwidthGrid(coefficients=(1.0, -0.5))
    with pytest.raises(ValueError):
        BandwidthGrid(epsilon=0.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            BandwidthGrid(coefficients=(1.0, bad))
        with pytest.raises(ValueError, match="finite"):
            BandwidthGrid(epsilon=bad)
    with pytest.raises(ValueError, match="distinct"):
        BandwidthGrid(coefficients=(1.0, 1.0, 2.0))


def blob_data(seed, m_half=10, d=3, offset=4.0):
    rng = np.random.default_rng(seed)
    z = np.concatenate(
        [rng.normal(0.0, 1.0, (m_half, d)), rng.normal(offset, 1.0, (m_half, d))]
    )
    y = np.repeat([0, 1], m_half)
    return z, y


@given(seed=st.integers(0, 2**31 - 1))
def test_selection_maximizes_power_ratio_over_table(seed):
    z, y = blob_data(seed)
    sel = select_bandwidth(z, y)
    best = max(row.power_ratio for row in sel.table)
    chosen = [row for row in sel.table if row.sigma == sel.sigma]
    assert len(chosen) == 1
    assert chosen[0].power_ratio == best
    assert sel.sigma == sel.coefficient * sel.sigma_base


def test_selection_base_is_median_scale():
    z, y = blob_data(3)
    sel = select_bandwidth(z, y)
    assert sel.sigma_base == math.sqrt(median_sq_distance(z))


def test_every_search_on_the_same_rows_has_one_base():
    # unit rows in three classes: rows on which sq_dist_matrix and the row
    # blocks round the median differently
    rng = np.random.default_rng(4)
    y = np.repeat(np.arange(3), 10)
    z = rng.normal(size=(30, 5)) + 2.0 * y[:, None]
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    targets = (y, rng.permutation(y), z, z.copy(), 1.5 * z[:, ::-1], rng.normal(size=(30, 2)))
    for family in KERNEL_FAMILIES:
        bases = [select_bandwidth(z, target, family=family).sigma_base for target in targets]
        assert bases == [math.sqrt(median_sq_distance(z))] * len(targets), family


def test_selection_table_follows_grid_order():
    z, y = blob_data(5)
    grid = BandwidthGrid(coefficients=(0.5, 2.0, 1.0))
    sel = select_bandwidth(z, y, grid=grid)
    assert len(sel.table) == 3
    sigmas = [row.sigma for row in sel.table]
    assert sigmas == [c * sel.sigma_base for c in (0.5, 2.0, 1.0)]


def shuffled_unbalanced_labels(seed):
    """Classes of 7, 4, 2 and 1 rows (a singleton) in shuffled order, with
    embeddings that cluster by class."""
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.repeat([0, 1, 2, 3], [7, 4, 2, 1]))
    z = rng.normal(size=(y.size, 3)) + 2.0 * y[:, None]
    return z, y


def shuffled_multi_block_labels(seed):
    """Classes of 56, 3, 70, 20 and 1 rows (150 in all) in shuffled order,
    with embeddings that cluster by class. In class order the row blocks of
    the search start at rows 64 and 128, both inside the 70-row class, which
    spans all three blocks; the last class is a singleton."""
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.repeat([0, 1, 2, 3, 4], [56, 3, 70, 20, 1]))
    z = rng.normal(size=(y.size, 6)) + 2.0 * y[:, None]
    return z, y


ROW_CASES = {
    "blobs": blob_data(9),
    "unbalanced": shuffled_unbalanced_labels(4),
    "multi_block": shuffled_multi_block_labels(8),
    "m4": (np.random.default_rng(6).normal(size=(4, 2)), np.array([1, 0, 0, 1])),
}


def test_selection_rows_match_manual_composition():
    # every row of the class-sum search against the Gram-matrix route
    for (case, (z, y)), family in itertools.product(ROW_CASES.items(), KERNEL_FAMILIES):
        sel = select_bandwidth(z, y, family=family)
        lt = label_kernel_matrix(y, zero_diag=True)
        assert len(sel.table) == len(DEFAULT_GRID_COEFFICIENTS)
        for coeff, row in zip(DEFAULT_GRID_COEFFICIENTS, sel.table):
            assert row.sigma == coeff * sel.sigma_base
            kt = kernel_matrix(KernelSpec(family, row.sigma), z, zero_diag=True)
            if family == GAUSSIAN and coeff == 0.001:
                assert not kt.any()  # the Gaussian underflows to 0 everywhere
            value = hsic_unbiased(kt, lt)
            raw = hsic_variance(kt, lt, value, clamp=False)
            ratio = value / math.sqrt(max(raw, 0.0) + DEFAULT_EPSILON)
            for got, want in ((row.value, value), (row.raw_variance, raw),
                              (row.power_ratio, ratio)):
                assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-13), (
                    case, family, coeff, got, want)


@pytest.mark.parametrize("target", ["self", "embeddings"])
@pytest.mark.parametrize("case", ROW_CASES)
def test_embedding_selection_rows_match_scalar_oracles(case, target):
    # every row of a self- or embedding-target search against the scalar
    # oracles, on at most 80 rows so that their cubic loops stay fast
    z = ROW_CASES[case][0][:80]
    t = z if target == "self" else 1.5 * z[:, ::-1]
    for family in KERNEL_FAMILIES:
        sel = select_bandwidth(z, t, family=family)
        assert len(sel.table) == len(DEFAULT_GRID_COEFFICIENTS)
        want = None
        for coeff, row in zip(DEFAULT_GRID_COEFFICIENTS, sel.table):
            assert row.sigma == coeff * sel.sigma_base
            if want is None or family != "cosine":  # cosine rows repeat one estimate
                kt = kernel_matrix(KernelSpec(family, row.sigma), z, zero_diag=True)
                lt = kernel_matrix(KernelSpec(family, row.sigma), t, zero_diag=True)
                value = hsic_unbiased_naive(kt, lt)
                want = value, variance_scalar_oracle(kt, lt, value)
            for got, ref in zip((row.value, row.raw_variance), want):
                assert math.isclose(got, ref, rel_tol=1e-9, abs_tol=1e-13), (
                    family, coeff, got, ref)


def vanishing_blocks(z, sigmas):
    """The (first row, sigma) pairs whose Gaussian row block of the label
    search is all zeros: the least squared distance off the diagonal of the
    block's upper trapezoid, over 2 sigma^2, exceeds kernels._EXP_ZERO. The
    distances are sq_dist_matrix's, so the test asserts a margin wide enough
    that the rounding of the search's own blocks cannot change the answer."""
    d2 = sq_dist_matrix(z)
    np.fill_diagonal(d2, np.inf)
    vanishing = set()
    for a in range(0, z.shape[0], _ROW_BLOCK):
        least = d2[a:a + _ROW_BLOCK, a:].min()
        for sigma in sigmas:
            x = least / (2.0 * sigma * sigma)
            assert not 0.99 * _EXP_ZERO < x < 1.01 * _EXP_ZERO
            if x > _EXP_ZERO:
                vanishing.add((a, sigma))
    return vanishing


def test_label_search_builds_distances_once_and_no_label_gram(call_counts, monkeypatch):
    counts, count = call_counts
    for target in ("kerndep.hsic.sq_dist_matrix", "kerndep.hsic.hsic_unbiased",
                   "kerndep.hsic.hsic_variance", "kerndep.kernels.label_kernel_matrix"):
        count(target)
    calls = collections.Counter()  # kernel evaluations per (first row, bandwidth)

    def kernel_block(d2, family, sigma, **kwargs):
        rows, cols = d2.shape
        a = m - cols  # the block is the upper trapezoid d2[a:a + rows, a:]
        assert rows == min(_ROW_BLOCK, cols)
        calls[a, sigma] += 1
        return kernel_from_sq_dists(d2, family, sigma, **kwargs)

    monkeypatch.setattr("kerndep.hsic.kernel_from_sq_dists", kernel_block)
    # one block, and three with a short last one; the Gaussian blocks that
    # round to 0 everywhere are 0.001's at m = 20, and 0.001's first and last
    # of three at m = 140 (its middle block holds a closer pair)
    for family, m_half, skipped in ((GAUSSIAN, 10, 1), (GAUSSIAN, 70, 2), (IMQ, 10, 0),
                                    (IMQ, 70, 0)):
        counts.update(dict.fromkeys(counts, 0))
        calls.clear()
        z, y = blob_data(2, m_half=m_half)
        m = z.shape[0]
        sigmas = [row.sigma for row in select_bandwidth(z, y, family=family).table]
        assert counts == {
            "kerndep.hsic.sq_dist_matrix": 0,  # the distances come a block of rows at a time
            "kerndep.hsic.hsic_unbiased": 0,
            "kerndep.hsic.hsic_variance": 0,
            "kerndep.kernels.label_kernel_matrix": 0,
        }
        # the kernel is only ever evaluated a block of rows at a time, once
        # per bandwidth, bar the Gaussian blocks that round to 0 everywhere
        vanishing = vanishing_blocks(z, sigmas) if family == GAUSSIAN else set()
        assert len(vanishing) == skipped
        assert calls == {(a, sigma): 1 for a in range(0, m, _ROW_BLOCK) for sigma in sigmas
                         if (a, sigma) not in vanishing}


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
def test_radial_class_sums_skip_changes_no_bit(monkeypatch, family):
    # three row blocks; at 0.001 of the base the first and last Gaussian
    # blocks round to 0 and the middle one does not
    z, y = blob_data(2, m_half=70)
    starts = np.array([0, 70])
    base = math.sqrt(median_sq_distance(z))
    sigmas = [c * base for c in DEFAULT_GRID_COEFFICIENTS]
    if family == GAUSSIAN:
        assert len(vanishing_blocks(z, sigmas)) == 2
    got = _radial_class_sums(z, family, sigmas, starts)
    monkeypatch.setattr("kerndep.hsic._EXP_ZERO", math.inf)  # evaluate every block
    full = _radial_class_sums(z, family, sigmas, starts)
    assert got.tobytes() == full.tobytes()
    # against the class sums of the whole zero-diagonal kernel: exponents
    # near -1e3 turn the distances' rounding into relative errors near 1e-11
    onehot = np.eye(2)[y]
    for sums, sigma in zip(got, sigmas):
        want = kernel_matrix(KernelSpec(family, sigma), z, zero_diag=True) @ onehot
        assert np.allclose(sums, want, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("family", ["gaussian", "imq"])
def test_warm_label_search_holds_no_distance_matrix(family):
    rng = np.random.default_rng(3)
    m = 600
    z = rng.normal(size=(m, 16))
    y = np.repeat(np.arange(6), m // 6)
    select_bandwidth(z, y, family=family)
    tracemalloc.start()
    try:
        select_bandwidth(z, y, family=family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the median's copy of the upper triangle (half of m x m) plus a few
    # row blocks, never the distances themselves
    assert peak < 0.75 * m * m * 8


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
@pytest.mark.parametrize("case", ["unbalanced", "blobs", "multi_block"])
def test_label_search_does_not_depend_on_row_order(family, case):
    z, y = ROW_CASES[case]
    p = np.random.default_rng(17).permutation(y.size)
    got = select_bandwidth(z[p], y[p], family=family)
    want = select_bandwidth(z, y, family=family)
    assert got.coefficient == want.coefficient
    # the centring sums the rows in another order
    assert got.sigma_base == pytest.approx(want.sigma_base, rel=1e-14)
    for row, ref in zip(got.table, want.table):
        for g, w in ((row.value, ref.value), (row.raw_variance, ref.raw_variance),
                     (row.power_ratio, ref.power_ratio)):
            assert math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-13), (g, w)


def test_label_search_rejects_a_single_class():
    z, _ = blob_data(5)
    with pytest.raises(ValueError, match="at least 2 classes"):
        select_bandwidth(z, np.zeros(z.shape[0], dtype=np.int64))


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_label_search_rejects_labels_with_no_same_class_pair(family):
    # one row per class: the zero-diagonal label kernel is all zero
    z = np.random.default_rng(3).normal(size=(6, 4))
    with pytest.raises(ValueError, match="a class with at least 2 rows.*no dependence"):
        select_bandwidth(z, np.array([3, 0, 5, 1, 4, 2]), family)
    select_bandwidth(z, np.array([0, 1, 2, 3, 4, 4]), family)  # one pair is enough


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_self_target_search_reuses_distances_and_grams(call_counts, family):
    counts, count = call_counts
    z, _ = blob_data(4)
    copy = select_bandwidth(z, z.copy(), family=family)
    for target in ("kerndep.hsic.median_sq_distance", "kerndep.hsic.sq_dist_matrix",
                   "kerndep.hsic.kernel_from_sq_dists", "kerndep.kernels.kernel_from_sq_dists",
                   "kerndep.hsic.cosine_gram"):
        count(target)
    same = select_bandwidth(z, z, family=family)
    assert same == copy  # every table entry equals the search against an equal copy
    radial = family != "cosine"
    assert counts == {
        "kerndep.hsic.median_sq_distance": 1,  # the base, from row blocks of z
        "kerndep.hsic.sq_dist_matrix": 1 if radial else 0,  # z's distances, for both sides
        "kerndep.hsic.kernel_from_sq_dists": 0,  # the label search's row blocks only
        # one zero-diagonal kernel per coefficient, for both sides
        "kerndep.kernels.kernel_from_sq_dists": len(DEFAULT_GRID_COEFFICIENTS) if radial else 0,
        "kerndep.hsic.cosine_gram": 0 if radial else 1,
    }


@pytest.mark.parametrize("target, grams", [("labels", 1), ("embeddings", 2)])
def test_cosine_search_estimates_once(call_counts, target, grams):
    counts, count = call_counts
    count("kerndep.hsic.cosine_gram")
    count("kerndep.hsic._class_sum_hsic")
    count("kerndep.hsic._gram_rows")
    z, y = blob_data(3)
    sel = select_bandwidth(z, y if target == "labels" else z[:, ::-1], family="cosine")
    assert len(sel.table) == len(DEFAULT_GRID_COEFFICIENTS)
    assert len({(row.value, row.raw_variance) for row in sel.table}) == 1
    assert counts["kerndep.hsic.cosine_gram"] == grams
    assert counts["kerndep.hsic._class_sum_hsic"] + counts["kerndep.hsic._gram_rows"] == 1


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_overflowing_bandwidth_is_rejected(family):
    z, y = blob_data(1)
    with pytest.raises(ValueError, match="overflows"):
        select_bandwidth(z, y, family=family, grid=BandwidthGrid(coefficients=(1.0, 1e308)))


@pytest.mark.parametrize("target", ["labels", "embeddings"])
def test_overflowing_distances_are_named(target):
    # rows near 1e200: their squared distances, and so the median base, overflow
    z, y = blob_data(1)
    z = (z + 10.0) * 1e200
    t = y if target == "labels" else z[:, ::-1]
    with pytest.raises(ValueError, match="squared distances of the rows overflow float64"):
        select_bandwidth(z, t)


@pytest.mark.parametrize("target", ["labels", "self"])
@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
def test_one_far_row_is_searched_without_warnings(family, target):
    # every centred row carries the far row's mean, so every distance
    # overflows or cancels on the way and is recomputed from row differences
    z = np.random.default_rng(7).normal(size=(40, 3))
    z[0] = 1e200
    y = np.repeat(np.arange(4), 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sel = select_bandwidth(z, y if target == "labels" else z, family)
    assert all(math.isfinite(row.value) and math.isfinite(row.raw_variance)
               for row in sel.table)


@pytest.mark.parametrize("target", ["labels", "embeddings"])
@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_underflowing_bandwidth_is_rejected(family, target):
    z, y = blob_data(1)
    z = z * 1e-152  # a base near 1e-152, so 0.001 times it squares to a subnormal
    t = y if target == "labels" else z[:, ::-1]
    sel = select_bandwidth(z, t, family=family, grid=BandwidthGrid(coefficients=(1.0, 2.0)))
    assert sel.sigma_base * sel.sigma_base > np.finfo(np.float64).tiny
    with pytest.raises(ValueError, match=r"coefficient 0\.001 times base \S+: .* underflows"):
        select_bandwidth(z, t, family=family)


def test_all_ratio_ties_resolve_to_smallest_coefficient():
    # the cosine family ignores the bandwidth entirely, so every grid row
    # carries bit-identical estimates and the whole table is one big tie
    rng = np.random.default_rng(21)
    z = rng.normal(size=(10, 4))
    y = np.repeat([0, 1], 5)
    sel = select_bandwidth(z, y, family="cosine")
    ratios = {row.power_ratio for row in sel.table}
    assert len(ratios) == 1
    assert sel.coefficient == 0.001


def test_blob_fixture_selects_frozen_coefficient():
    rng = np.random.default_rng(424242)
    z = np.concatenate(
        [rng.normal(0.0, 1.0, (12, 3)), rng.normal(4.0, 1.0, (12, 3))]
    )
    y = np.repeat([0, 1], 12)
    sel = select_bandwidth(z, y)
    assert sel.coefficient == 0.75
    assert sel.sigma_base == pytest.approx(5.386904990187925, rel=1e-12)
    assert sel.sigma == sel.coefficient * sel.sigma_base
    chosen = next(row for row in sel.table if row.sigma == sel.sigma)
    assert chosen.value == pytest.approx(0.18060599181986806, rel=1e-10)


def test_embeddings_mode_pairs_rows_and_checks_length():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(8, 3))
    sel = select_bandwidth(z, z)
    assert isinstance(sel, BandwidthSelection)
    assert len(sel.table) == len(DEFAULT_GRID_COEFFICIENTS)
    with pytest.raises(ValueError):
        select_bandwidth(z, rng.normal(size=(7, 3)))


def test_self_dependence_of_generic_embeddings_is_positive():
    rng = np.random.default_rng(8)
    z = rng.normal(size=(10, 4))
    sel = select_bandwidth(z, z)
    best = next(row for row in sel.table if row.sigma == sel.sigma)
    assert best.value > 0.0


def test_selection_rejects_small_samples_and_bad_family():
    z = np.eye(3)
    with pytest.raises(ValueError):
        select_bandwidth(z, np.array([0, 1, 2]))
    with pytest.raises(ValueError):
        select_bandwidth(np.eye(4), np.array([0, 1, 0, 1]), family="triangle")


def test_estimate_carries_raw_variance():
    z, y = blob_data(13)
    sel = select_bandwidth(z, y)
    for row in sel.table:
        assert isinstance(row, HsicEstimate)
        assert row.variance == max(0.0, row.raw_variance)


# ------------------------------------------------ power of the selected kernel


def nuisance_blobs(m, eps, rng):
    """m two-coordinate rows and balanced binary labels. The rows sit in blobs
    on a 3 x 3 grid of spacing 10, independent of the label; the label only
    shifts the first coordinate by -eps or +eps. The median distance is set
    by the blobs, so the median heuristic is blind to a shift of order 1."""
    y = rng.permutation(np.arange(m) % 2)
    x = 10.0 * rng.integers(0, 3, size=(m, 2)) + rng.standard_normal((m, 2))
    x[:, 0] += eps * (2 * y - 1)
    return x, y


def rejection_rates(eps, trials, seed, m=40):
    """Rejection rates of the permutation test at the bandwidth select_bandwidth
    picks on one split, and at the median heuristic (coefficient 1), both
    tested on a fresh split."""
    rng = np.random.default_rng(seed)
    selected = median = 0
    for _ in range(trials):
        sigma = select_bandwidth(*nuisance_blobs(m, eps, rng)).sigma
        x, y = nuisance_blobs(m, eps, rng)
        selected += permutation_test_rejects(x, y, sigma, rng)
        base = math.sqrt(median_sq_distance(x))
        median += permutation_test_rejects(x, y, base, rng)
    return selected / trials, median / trials


def test_selected_bandwidth_has_more_power_than_median_heuristic():
    selected, median = rejection_rates(eps=1.5, trials=40, seed=0)
    # over seeds 0-24: selected 0.85-0.975, median 0.025-0.225, gap 0.725-0.9
    assert selected - median >= 0.5


def test_permutation_test_on_a_fresh_split_keeps_its_level():
    selected, median = rejection_rates(eps=0.0, trials=60, seed=0)
    # over seeds 0-29: selected 0-0.133, median 0-0.1 (level 5/101 = 0.0495)
    assert abs(selected - 0.05) <= 0.1
    assert abs(median - 0.05) <= 0.1
