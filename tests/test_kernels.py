"""Gram construction, label kernels, and the median base scale."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from kerndep.kernels import (
    COSINE,
    GAUSSIAN,
    IMQ,
    KERNEL_FAMILIES,
    as_embeddings,
    as_labels,
    cosine_gram,
    kernel_from_sq_dists,
    label_kernel_matrix,
    median_of_sq_dists,
    median_sq_distance,
    sq_dist_matrix,
)
from oracles import KernelSpec, eval_kernel, kernel_matrix


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


def test_cosine_hand_values():
    spec = KernelSpec(COSINE)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 2.0])
    assert eval_kernel(spec, e1, e1) == pytest.approx(1.0)
    assert eval_kernel(spec, e1, e2) == pytest.approx(0.0)
    assert eval_kernel(spec, e1, -e1) == pytest.approx(-1.0)


def test_cosine_zero_vector_maps_to_zero():
    spec = KernelSpec(COSINE)
    z = np.array([0.0, 0.0])
    x = np.array([1.0, 1.0])
    assert eval_kernel(spec, z, x) == 0.0
    g = cosine_gram(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert g[0, 0] == 0.0
    assert g[0, 1] == 0.0
    assert g[1, 1] == pytest.approx(1.0)


@pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
@given(z=embeddings())
def test_kernel_matrix_is_exactly_symmetric(family, z):
    spec = KernelSpec(family, 1.3) if family != COSINE else KernelSpec(family)
    k = kernel_matrix(spec, z)
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
        spec = KernelSpec(family, 1.0) if family != COSINE else KernelSpec(family)
        k = kernel_matrix(spec, z, zero_diag=True)
        assert (np.diag(k) == 0.0).all()


def test_label_kernel_hand_matrix():
    labels = np.array([0, 1, 0])
    k = label_kernel_matrix(labels, l1=2.5, l0=0.5)
    expected = np.array([[2.5, 0.5, 2.5], [0.5, 2.5, 0.5], [2.5, 0.5, 2.5]])
    assert np.array_equal(k, expected)
    kz = label_kernel_matrix(labels, l1=2.5, l0=0.5, zero_diag=True)
    assert (np.diag(kz) == 0.0).all()
    assert np.array_equal(kz[0, 1:], expected[0, 1:])


def test_label_kernel_default_is_delta():
    k = label_kernel_matrix(np.array([0, 0, 1]))
    assert np.array_equal(k, np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


def test_label_kernel_rejects_non_dominant_same_class_value():
    with pytest.raises(ValueError):
        label_kernel_matrix(np.array([0, 1]), l1=0.5, l0=0.5)
    with pytest.raises(ValueError):
        label_kernel_matrix(np.array([0, 1]), l1=0.0, l0=1.0)


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
    with pytest.raises(ValueError):
        median_sq_distance(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        median_sq_distance(np.array([[1.0, 1.0]]))


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


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
def test_kernel_from_sq_dists_matches_pointwise_eval(family):
    rng = np.random.default_rng(7)
    z = rng.normal(size=(6, 3))
    spec = KernelSpec(family, 1.7)
    k = kernel_from_sq_dists(sq_dist_matrix(z), family, 1.7)
    for i in range(6):
        for j in range(6):
            assert k[i, j] == pytest.approx(eval_kernel(spec, z[i], z[j]), rel=1e-12)


@pytest.mark.parametrize("sigma", [1e-3, 0.37, 1.7, 1e3, 1e200])
def test_kernel_from_sq_dists_is_bit_identical_and_leaves_input(sigma):
    rng = np.random.default_rng(17)
    d2 = sq_dist_matrix(rng.normal(size=(9, 4)) * 3.0)
    before = d2.copy()
    gaussian = kernel_from_sq_dists(d2, GAUSSIAN, sigma)
    imq = kernel_from_sq_dists(d2, IMQ, sigma)
    assert np.array_equal(d2, before)
    # the expressions written with temporaries, before the in-place rewrite
    assert gaussian.tobytes() == np.exp(-d2 / (2.0 * sigma * sigma)).tobytes()
    assert imq.tobytes() == (1.0 / np.sqrt(1.0 + d2 / (sigma * sigma))).tobytes()


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan])
def test_kernel_from_sq_dists_rejects_bad_bandwidth(family, sigma):
    with pytest.raises(ValueError, match="bandwidth"):
        kernel_from_sq_dists(np.zeros((2, 2)), family, sigma)


def test_median_of_sq_dists_matches_median_sq_distance():
    rng = np.random.default_rng(23)
    z = rng.normal(size=(12, 3))
    z[5] = z[2]  # one zero-distance pair
    assert median_of_sq_dists(sq_dist_matrix(z)) == median_sq_distance(z)
    with pytest.raises(ValueError, match="identical"):
        median_of_sq_dists(sq_dist_matrix(np.ones((3, 2))))


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
    KernelSpec(COSINE)  # bandwidth-free
