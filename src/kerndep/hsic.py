"""Unbiased dependence estimation and test-power bandwidth selection.

The estimator, its variance, and the power ratio all operate on Gram
matrices whose diagonals have been zeroed (written Kt, Lt below). The
bandwidth search scales a median-heuristic base by a grid of coefficients
and keeps the one whose estimate has the largest power ratio.

The estimate and its variance are read in one place, _hsic_from_rows, from
five row statistics: (Kt o Lt)1, Kt1, Lt1, Kt Lt1 and Lt Kt1. hsic_unbiased,
hsic_variance and the embedding search take them from the Grams
(_gram_rows), the label search from class sums (_class_sum_hsic). Its
derivative in Kt, from which the mokd step reads its loss and gradient, is
_gram_cotangent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (
    _EXP_ZERO,
    _ROW_BLOCK,
    COSINE,
    GAUSSIAN,
    KERNEL_FAMILIES,
    _check_bandwidth,
    _sq_dist_row_blocks,
    _zero_diag_kernel,
    as_embeddings,
    as_labels,
    cosine_gram,
    kernel_from_sq_dists,
    median_sq_distance,
    sq_dist_matrix,
)

DEFAULT_GRID_COEFFICIENTS = (
    0.001, 0.01, 0.1, 0.2, 0.25, 0.5, 0.75, 0.8, 0.9, 1.0, 1.25, 1.5, 2.0, 5.0, 10.0,
)
DEFAULT_EPSILON = 1e-5


@dataclass(frozen=True)
class BandwidthGrid:
    """Multiplicative coefficients applied to the median-heuristic base, plus
    the ratio-stabilizing epsilon."""

    coefficients: tuple[float, ...] = DEFAULT_GRID_COEFFICIENTS
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) == 0:
            raise ValueError("bandwidth grid must contain at least one coefficient")
        if any(not 0.0 < c < math.inf for c in coeffs):
            raise ValueError(f"grid coefficients must be positive and finite, got {coeffs}")
        if len(set(coeffs)) != len(coeffs):
            raise ValueError(f"grid coefficients must be distinct, got {coeffs}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        object.__setattr__(self, "coefficients", coeffs)


@dataclass(frozen=True)
class HsicEstimate:
    """One grid row: estimate, clamped variance, power ratio, and bandwidth."""

    value: float
    variance: float
    power_ratio: float
    sigma: float
    raw_variance: float


@dataclass(frozen=True)
class BandwidthSelection:
    """Search result: the winning bandwidth plus the full diagnostic table."""

    sigma: float
    coefficient: float
    sigma_base: float
    table: tuple[HsicEstimate, ...]


def _check_gram_pair(kt, lt) -> tuple[np.ndarray, np.ndarray, int]:
    kt = np.asarray(kt, dtype=np.float64)
    lt = np.asarray(lt, dtype=np.float64)
    if kt.ndim != 2 or kt.shape[0] != kt.shape[1]:
        raise ValueError(f"expected a square Gram matrix, got shape {kt.shape}")
    if kt.shape != lt.shape:
        raise ValueError(f"Gram matrix shapes disagree: {kt.shape} vs {lt.shape}")
    m = kt.shape[0]
    if m < 4:
        raise ValueError(f"unbiased estimator needs at least 4 samples, got {m}")
    for name, g in (("Kt", kt), ("Lt", lt)):
        if not np.array_equal(g, g.T, equal_nan=True):
            raise ValueError(f"Gram matrix {name} must be symmetric, got {name} != {name}.T")
    return kt, lt, m


def hsic_unbiased(kt, lt) -> float:
    """Unbiased dependence estimate from symmetric zero-diagonal Gram matrices
    (an asymmetric one is rejected).

    value = [tr(Kt Lt) + (1'Kt1)(1'Lt1)/((m-1)(m-2)) - 2/(m-2) 1'KtLt1] / (m(m-3))

    read from the Grams' row statistics (see _gram_rows and _hsic_from_rows).

    Hand evaluation, constant kernel at m = 4 (Kt = Lt = all-ones minus
    identity): tr(Kt Lt) = 12, 1'Kt1 = 1'Lt1 = 12, Kt Lt = 2J + I so
    1'KtLt1 = 36, and the bracket is 12 + 144/6 - 36 = 0, hence value = 0
    exactly.
    """
    kt, lt, _ = _check_gram_pair(kt, lt)
    return _hsic_from_rows(*_gram_rows(kt, lt))[0]


def hsic_variance(kt, lt, hsic_value: float, clamp: bool = True) -> float:
    """Variance estimate for the unbiased dependence statistic.

    Builds the per-sample vector h of _hsic_from_rows from the row statistics
    of Kt and Lt and returns v = (16/m) (R - hsic_value^2). Both Grams must be
    symmetric (an asymmetric one is rejected): the rows give tr(Kt Lt) as
    the sum of (Kt o Lt)1 and 1'KtLt1 as Kt1 . Lt1. Negative numerical
    estimates are clamped to zero unless clamp=False, which returns the raw
    value for diagnostics.

    Hand evaluation, constant kernel at m = 4 (Kt = Lt = all-ones minus
    identity): row sums are 3, (Kt o Lt)1 = 3, Kt Lt row sums are 9, and
    h_i = 4*3 - 4*9 + 12*3 + 12*3 - 36 + 2*(12 - 9 - 9) = 0 per entry,
    so R = 0 and v = (16/4)(0 - 0) = 0 exactly.
    """
    kt, lt, m = _check_gram_pair(kt, lt)
    v = _hsic_from_rows(*_gram_rows(kt, lt), value=hsic_value)[1]
    if clamp and v < 0.0:
        return 0.0
    return v


def _gram_rows(kt: np.ndarray, lt: np.ndarray) -> tuple[np.ndarray, ...]:
    """The row statistics (Kt o Lt)1, Kt1, Lt1, Kt Lt1 and Lt Kt1 of two
    symmetric zero-diagonal Gram matrices, read without an m x m temporary.
    When lt is kt, the second product is the first."""
    k_rows = kt.sum(axis=1)
    if lt is kt:
        kl_rows = kt @ k_rows
        return np.einsum("ij,ij->i", kt, kt), k_rows, k_rows, kl_rows, kl_rows
    l_rows = lt.sum(axis=1)
    return np.einsum("ij,ij->i", kt, lt), k_rows, l_rows, kt @ l_rows, lt @ k_rows


def _hsic_from_rows(kl_products: np.ndarray, k_rows: np.ndarray, l_rows: np.ndarray,
                    kl_rows: np.ndarray, lk_rows: np.ndarray,
                    value: float | None = None) -> tuple[float, float]:
    """The unbiased estimate and its raw variance from the five row
    statistics (Kt o Lt)1, Kt1, Lt1, Kt Lt1 and Lt Kt1 of symmetric
    zero-diagonal Grams. value, if given, replaces the estimate read from
    the rows in the variance and the result.

    The rows give tr(Kt Lt) = 1'(Kt o Lt)1, 1'Kt1, 1'Lt1 and 1'KtLt1 =
    Kt1 . Lt1, hence the estimate (see hsic_unbiased), and the per-sample
    vector
      h = (m-2)^2 (Kt o Lt)1 - m (Kt1 o Lt1) + (1'Lt1) Kt1 + (1'Kt1) Lt1
          - (1'KtLt1) 1 + (m-2) [tr(KtLt) 1 - KtLt1 - LtKt1].
    The variance is (16/m) (R - value^2) with R = h'h / (4m D^2) where
    D = (m-1)(m-2)(m-3). Dividing by D^2 is the scaling consistent with the
    estimator's spread; dividing by D once overstates it by orders of
    magnitude.
    """
    m = k_rows.size
    sum_k = float(k_rows.sum())
    sum_l = float(l_rows.sum())
    trace_kl = float(kl_products.sum())
    cross = float(k_rows @ l_rows)
    if value is None:
        total = trace_kl + sum_k * sum_l / ((m - 1.0) * (m - 2.0)) - 2.0 * cross / (m - 2.0)
        value = total / (m * (m - 3.0))
    h = (
        (m - 2.0) ** 2 * kl_products
        - m * (k_rows * l_rows)
        + sum_l * k_rows
        + sum_k * l_rows
        - cross
        + (m - 2.0) * (trace_kl - kl_rows - lk_rows)
    )
    denom = (m - 1.0) * (m - 2.0) * (m - 3.0)
    r = float(h @ h) / (4.0 * m) / (denom * denom)
    return value, (16.0 / m) * (r - value * value)


def _gram_cotangent(lt: np.ndarray, l_rows: np.ndarray, weight: float,
                    out: np.ndarray) -> np.ndarray:
    """weight * d(hsic_unbiased(Kt, Lt))/d(Kt) with Lt fixed, symmetrized,
    written to out (which may be lt); l_rows are the row sums of Lt.

    The three estimator terms contribute Lt, a constant matrix, and a
    rank-one correction from l_rows, built as c Lt - t_i - t_j + const with
    the constant folded into the row term. The estimate is linear in Kt, so
    the result C gives it back: <Kt, C> = 2 weight hsic_unbiased(Kt, Lt)
    for every symmetric zero-diagonal Kt, whose diagonal hides C's (the
    radial weight, zero there, hides it from the gradient). The penalty
    reads Kt twice: its C has Lt = Kt and weight 2 gamma.
    """
    m = lt.shape[0]
    c = 2.0 * weight / (m * (m - 3.0))
    t = l_rows * (c / (m - 2.0))
    np.multiply(lt, c, out=out)
    out -= (t - c * float(l_rows.sum()) / ((m - 1.0) * (m - 2.0)))[:, None]
    out -= t
    return out


def _class_sum_hsic(class_sums: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """The estimate and raw variance of _hsic_from_rows for the zero-diagonal
    0/1 label kernel Lt of y, read from the class sums R = Kt Y of a
    symmetric zero-diagonal Gram matrix Kt (Y the m x C one-hot label
    matrix), so that neither Kt nor Lt is needed.

    With n the class counts: (Kt o Lt)1 = R[i, y_i], Kt1 = R1,
    Lt1 = n[y] - 1, Kt Lt1 = R (n - 1), and Lt Kt1 = (Y'Kt1)[y] - Kt1.
    """
    m = y.size
    counts = np.bincount(y).astype(np.float64)
    k_rows = class_sums.sum(axis=1)
    return _hsic_from_rows(class_sums[np.arange(m), y], k_rows, counts[y] - 1.0,
                           class_sums @ (counts - 1.0),
                           np.bincount(y, weights=k_rows)[y] - k_rows)


def _radial_class_sums(z: np.ndarray, family: str, sigmas, starts: np.ndarray) -> np.ndarray:
    """Kt Y for the zero-diagonal radial Gram matrix Kt of the class-sorted
    rows of z at every bandwidth in sigmas, shape (len(sigmas), m, C), with
    C classes starting at rows starts.

    The distances come from kernels._sq_dist_row_blocks, one upper trapezoid
    d2[a:b, a:] of kernels._ROW_BLOCK rows at a time, each built once for all
    bandwidths. Per bandwidth its kernel, with the diagonal and the lower
    half of the diagonal block zeroed, adds its class sums along columns to
    rows a:b, and its column sums over each class segment of rows a:b to
    columns a:. So each pair i < j is evaluated at most once (and the lower
    half of each diagonal block in vain) and counted as both Kt[i, j] and
    Kt[j, i]. A Gaussian block whose least distance off the diagonal, over
    2 sigma^2, exceeds kernels._EXP_ZERO is all zeros, so it is skipped:
    its class sums are the zeros they start as.
    """
    m = z.shape[0]
    sums = np.zeros((len(sigmas), m, starts.size))
    kern = np.empty(min(_ROW_BLOCK, m) * m)  # flat, so every block shape is contiguous
    for a, d, least in _sq_dist_row_blocks(z):
        rows, cols = d.shape
        b = a + rows
        lower = np.tri(rows, dtype=bool)  # the diagonal and below it
        first = int(np.searchsorted(starts, a, side="right")) - 1  # the class of row a
        last = int(np.searchsorted(starts, b))  # classes first..last-1 meet rows a:b
        col_starts = np.maximum(starts[first:] - a, 0)
        for k_sums, sigma in zip(sums, sigmas):
            # the same association as the kernel's exponent d2 / -(2 sigma^2)
            if family == GAUSSIAN and least / (2.0 * sigma * sigma) > _EXP_ZERO:
                continue
            k = kernel_from_sq_dists(d, family, sigma, out=kern[:d.size].reshape(rows, cols))
            np.copyto(k[:, :rows], 0.0, where=lower)
            k_sums[a:b, first:] += np.add.reduceat(k, col_starts, axis=1)
            k_sums[a:, first:last] += np.add.reduceat(k, col_starts[:last - first], axis=0).T
    return sums


def power_ratio(value: float, variance: float, epsilon: float = DEFAULT_EPSILON) -> float:
    """Test-power proxy value / sqrt(variance + epsilon)."""
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    return float(value / np.sqrt(variance + epsilon))


def select_bandwidth(z, target, family: str = "gaussian",
                     grid: BandwidthGrid | None = None, *,
                     _sigma_base: float | None = None) -> BandwidthSelection:
    """Grid-search the bandwidth maximizing the power ratio.

    The base scale is sqrt(kernels.median_sq_distance(z)), so every search
    on the same rows has the same base, whatever the target; _sigma_base, if
    given, is that base from an earlier search on these rows, taken as is.
    For each grid coefficient c the candidate bandwidth is c * base; the
    Gram matrix of z uses it, and the partner matrix is either the 0/1
    label kernel (when target is a label vector) or the same-family kernel
    of the target embeddings with the same bandwidth (when target is a
    matrix). Ties in the ratio go to the smaller coefficient.

    A label target needs at least two classes, one of them with two rows
    (else the zero-diagonal label kernel is all zero), and its search reads
    class sums with no m x m array (bar the cosine kernel's one Gram
    matrix): the rows are grouped by class (a stable sort, skipped when the labels are
    already sorted), and the distances come kernels._ROW_BLOCK rows at a
    time (see kernels._sq_dist_row_blocks), each block built once for the
    whole grid. Every coefficient's kernel of a block adds to that
    coefficient's class sums (see _radial_class_sums and _class_sum_hsic),
    so each pair's kernel entry is evaluated at most once: a Gaussian block
    whose every entry rounds to 0 is skipped. The peak is the median's
    half-size buffer, then the (len(grid), m, C) class sums plus a few row
    blocks. An embedding target's search reads Grams: it builds the
    distance matrices of z and the target once, and costs, per coefficient,
    two kernels, their row sums, the row sums of their product and two
    matrix-vector products (see _gram_rows and _hsic_from_rows); a target
    that is z itself reuses z's distances and kernel and needs one of each.
    The cosine kernel ignores the bandwidth, so its one estimate fills every
    row.

    Every bandwidth must be finite and its square a normal float64 (see
    kernels._check_bandwidth); a coefficient that breaks either is named
    with the base in the error.
    """
    self_target = target is z
    z = as_embeddings(z)
    m = z.shape[0]
    if m < 4:
        raise ValueError(f"bandwidth selection needs at least 4 samples, got {m}")
    if family not in KERNEL_FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}")
    if grid is None:
        grid = BandwidthGrid()

    labels_mode = np.asarray(target).ndim == 1
    if labels_mode:
        y = as_labels(target, m)
        counts = np.bincount(y)
        if counts.size < 2:
            raise ValueError("a label target needs at least 2 classes: with one, every "
                             "pair of labels agrees and there is no dependence to estimate")
        if counts.max() < 2:
            raise ValueError("a label target needs a class with at least 2 rows: with "
                             "none, no pair of labels agrees and there is no dependence "
                             "to estimate")
    elif not self_target:
        t = as_embeddings(target)
        if t.shape[0] != m:
            raise ValueError(
                f"target embeddings must pair with z row for row, got {t.shape[0]} vs {m}"
            )

    base = float(np.sqrt(median_sq_distance(z))) if _sigma_base is None else _sigma_base
    sigmas = [coeff * base for coeff in grid.coefficients]
    for coeff, sigma in zip(grid.coefficients, sigmas):
        if not math.isfinite(sigma):
            raise ValueError(
                f"bandwidth coefficient {coeff} times base {base} overflows to {sigma}")
        try:
            _check_bandwidth(sigma)
        except ValueError as exc:
            raise ValueError(f"bandwidth coefficient {coeff} times base {base}: {exc}") from None

    def gram(x, d2, sigma):
        """The zero-diagonal Gram matrix of the rows x, whose squared distances are d2."""
        if family != COSINE:
            return _zero_diag_kernel(d2, family, sigma)
        k = cosine_gram(x)
        np.fill_diagonal(k, 0.0)
        return k

    def estimate(sigma):
        kt = gram(z, d2_z, sigma)
        lt = kt if self_target else gram(t, d2_t, sigma)
        return _hsic_from_rows(*_gram_rows(kt, lt))

    if labels_mode:
        if (y[1:] < y[:-1]).any():
            by_class = np.argsort(y, kind="stable")
            z, y = z[by_class], y[by_class]
        starts = np.cumsum(counts) - counts  # strictly increasing: no class is empty
        if family == COSINE:
            class_sums = np.add.reduceat(gram(z, None, None), starts, axis=1)
            estimates = [_class_sum_hsic(class_sums, y)] * len(sigmas)
        else:
            estimates = (_class_sum_hsic(sums, y)
                         for sums in _radial_class_sums(z, family, sigmas, starts))
    elif family == COSINE:
        d2_z = d2_t = None  # the cosine Gram reads the rows
        estimates = [estimate(None)] * len(sigmas)
    else:
        d2_z = sq_dist_matrix(z)
        d2_t = None if self_target else sq_dist_matrix(t)
        estimates = map(estimate, sigmas)  # lazy, so one candidate's Grams are live at a time
    rows: list[HsicEstimate] = []
    for sigma, (value, raw) in zip(sigmas, estimates):
        variance = raw if raw > 0.0 else 0.0
        ratio = power_ratio(value, variance, grid.epsilon)
        rows.append(HsicEstimate(value, variance, ratio, sigma, raw))

    order = sorted(range(len(rows)), key=lambda i: grid.coefficients[i])
    best = order[0]
    for i in order[1:]:
        if rows[i].power_ratio > rows[best].power_ratio:
            best = i
    return BandwidthSelection(
        sigma=rows[best].sigma,
        coefficient=grid.coefficients[best],
        sigma_base=base,
        table=tuple(rows),
    )
