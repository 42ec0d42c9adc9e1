"""Unbiased dependence estimator, its variance, and bandwidth search."""

import itertools
import math

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
    hsic_unbiased,
    hsic_variance,
    power_ratio,
    select_bandwidth,
)
from kerndep.kernels import (
    GAUSSIAN,
    KERNEL_FAMILIES,
    label_kernel_matrix,
    median_sq_distance,
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
    assert sel.sigma_base == pytest.approx(math.sqrt(median_sq_distance(z)), rel=1e-15)


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


ROW_CASES = {
    "blobs": blob_data(9),
    "unbalanced": shuffled_unbalanced_labels(4),
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


def test_label_search_builds_distances_once_and_no_label_gram(call_counts):
    counts, count = call_counts
    for target in ("kerndep.hsic.sq_dist_matrix", "kerndep.hsic.kernel_from_sq_dists",
                   "kerndep.hsic.hsic_unbiased", "kerndep.hsic.hsic_variance",
                   "kerndep.kernels.label_kernel_matrix"):
        count(target)
    z, y = blob_data(2)
    select_bandwidth(z, y)
    assert counts == {
        "kerndep.hsic.sq_dist_matrix": 1,  # the base reads the same distances
        "kerndep.hsic.kernel_from_sq_dists": len(DEFAULT_GRID_COEFFICIENTS),
        "kerndep.hsic.hsic_unbiased": 0,
        "kerndep.hsic.hsic_variance": 0,
        "kerndep.kernels.label_kernel_matrix": 0,
    }


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_self_target_search_reuses_distances_and_grams(call_counts, family):
    counts, count = call_counts
    z, _ = blob_data(4)
    copy = select_bandwidth(z, z.copy(), family=family)
    for target in ("kerndep.hsic.sq_dist_matrix", "kerndep.hsic.kernel_from_sq_dists",
                   "kerndep.hsic.cosine_gram"):
        count(target)
    same = select_bandwidth(z, z, family=family)
    assert same == copy  # every table entry equals the search against an equal copy
    radial = family != "cosine"
    assert counts == {
        "kerndep.hsic.sq_dist_matrix": 1,  # z's distances, which also give the base
        "kerndep.hsic.kernel_from_sq_dists": len(DEFAULT_GRID_COEFFICIENTS) if radial else 0,
        "kerndep.hsic.cosine_gram": 0 if radial else 1,
    }


@pytest.mark.parametrize("target, grams", [("labels", 1), ("embeddings", 2)])
def test_cosine_search_estimates_once(call_counts, target, grams):
    counts, count = call_counts
    count("kerndep.hsic.cosine_gram")
    count("kerndep.hsic._label_hsic")
    count("kerndep.hsic.hsic_unbiased")
    z, y = blob_data(3)
    sel = select_bandwidth(z, y if target == "labels" else z[:, ::-1], family="cosine")
    assert len(sel.table) == len(DEFAULT_GRID_COEFFICIENTS)
    assert len({(row.value, row.raw_variance) for row in sel.table}) == 1
    assert counts["kerndep.hsic.cosine_gram"] == grams
    assert counts["kerndep.hsic._label_hsic"] + counts["kerndep.hsic.hsic_unbiased"] == 1


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_overflowing_bandwidth_is_rejected(family):
    z, y = blob_data(1)
    with pytest.raises(ValueError, match="overflows"):
        select_bandwidth(z, y, family=family, grid=BandwidthGrid(coefficients=(1.0, 1e308)))


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
        median += permutation_test_rejects(x, y, math.sqrt(median_sq_distance(x)), rng)
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
