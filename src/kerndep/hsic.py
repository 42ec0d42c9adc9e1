"""Unbiased dependence estimation and test-power bandwidth selection.

The estimator, its variance, and the power ratio all operate on Gram
matrices whose diagonals have been zeroed (written Kt, Lt below). The
bandwidth search scales a median-heuristic base by a grid of coefficients
and keeps the one whose estimate has the largest power ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (
    COSINE,
    KERNEL_FAMILIES,
    as_embeddings,
    as_labels,
    cosine_gram,
    kernel_from_sq_dists,
    median_of_sq_dists,
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
    return kt, lt, m


def hsic_unbiased(kt, lt) -> float:
    """Unbiased dependence estimate from zero-diagonal Gram matrices.

    value = [tr(Kt Lt) + (1'Kt1)(1'Lt1)/((m-1)(m-2)) - 2/(m-2) 1'KtLt1] / (m(m-3))

    Hand evaluation, constant kernel at m = 4 (Kt = Lt = all-ones minus
    identity): tr(Kt Lt) = 12, 1'Kt1 = 1'Lt1 = 12, Kt Lt = 2J + I so
    1'KtLt1 = 36, and the bracket is 12 + 144/6 - 36 = 0, hence value = 0
    exactly.
    """
    kt, lt, m = _check_gram_pair(kt, lt)
    trace_term = float((kt * lt.T).sum())
    sum_k = float(kt.sum())
    sum_l = float(lt.sum())
    cross = float(kt.sum(axis=0) @ lt.sum(axis=1))
    total = trace_term + sum_k * sum_l / ((m - 1.0) * (m - 2.0)) - 2.0 * cross / (m - 2.0)
    return total / (m * (m - 3.0))


def hsic_variance(kt, lt, hsic_value: float, clamp: bool = True) -> float:
    """Variance estimate for the unbiased dependence statistic.

    Builds the per-sample vector
      h = (m-2)^2 (Kt o Lt)1 - m (Kt1 o Lt1) + (1'Lt1) Kt1 + (1'Kt1) Lt1
          - (1'KtLt1) 1 + (m-2) [tr(KtLt) 1 - KtLt1 - LtKt1]
    then v = (16/m) (R - hsic_value^2) with R = h'h / (4m D^2) where
    D = (m-1)(m-2)(m-3). Dividing by D^2 is the scaling consistent with the
    estimator's spread; dividing by D once overstates it by orders of
    magnitude. Negative numerical estimates are clamped to zero unless
    clamp=False, which returns the raw value for diagnostics.

    Hand evaluation, constant kernel at m = 4 (Kt = Lt = all-ones minus
    identity): row sums are 3, (Kt o Lt)1 = 3, Kt Lt row sums are 9, and
    h_i = 4*3 - 4*9 + 12*3 + 12*3 - 36 + 2*(12 - 9 - 9) = 0 per entry,
    so R = 0 and v = (16/4)(0 - 0) = 0 exactly.
    """
    kt, lt, m = _check_gram_pair(kt, lt)
    k_rows = kt.sum(axis=1)
    l_rows = lt.sum(axis=1)
    sum_k = float(kt.sum())
    sum_l = float(lt.sum())
    trace_kl = float((kt * lt.T).sum())
    cross = float(kt.sum(axis=0) @ l_rows)
    ones = np.ones(m)
    h = (
        (m - 2.0) ** 2 * (kt * lt).sum(axis=1)
        - m * (k_rows * l_rows)
        + sum_l * k_rows
        + sum_k * l_rows
        - cross * ones
        + (m - 2.0) * (trace_kl * ones - kt @ l_rows - lt @ k_rows)
    )
    denom = (m - 1.0) * (m - 2.0) * (m - 3.0)
    r = float(h @ h) / (4.0 * m) / (denom * denom)
    v = (16.0 / m) * (r - hsic_value * hsic_value)
    if clamp and v < 0.0:
        return 0.0
    return v


def _label_hsic(kt: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """hsic_unbiased(kt, Lt) and hsic_variance(kt, Lt, value, clamp=False)
    for the zero-diagonal 0/1 label kernel Lt of y, without building Lt.

    With Y the one-hot label matrix and n the class counts, every term
    follows from the class sums R = Kt Y (one m x m x C product):
    (Kt o Lt)1 = R[i, y_i], tr(Kt Lt) = sum_i R[i, y_i], Kt1 = R1,
    Lt1 = n[y] - 1, Kt Lt1 = R (n - 1), and Lt Kt1 = (Y'Kt1)[y] - Kt1.
    kt must be symmetric, as every Gram matrix of the search is.
    """
    m = kt.shape[0]
    counts = np.bincount(y).astype(np.float64)
    class_sums = kt @ (y[:, None] == np.arange(counts.size)).astype(np.float64)
    same_class = class_sums[np.arange(m), y]
    k_rows = class_sums.sum(axis=1)
    l_rows = counts[y] - 1.0
    sum_k = float(k_rows.sum())
    sum_l = float(l_rows.sum())
    trace_kl = float(same_class.sum())
    cross = float(k_rows @ l_rows)
    kl_rows = class_sums @ (counts - 1.0)
    lk_rows = np.bincount(y, weights=k_rows)[y] - k_rows

    total = trace_kl + sum_k * sum_l / ((m - 1.0) * (m - 2.0)) - 2.0 * cross / (m - 2.0)
    value = total / (m * (m - 3.0))
    h = (
        (m - 2.0) ** 2 * same_class
        - m * (k_rows * l_rows)
        + sum_l * k_rows
        + sum_k * l_rows
        - cross
        + (m - 2.0) * (trace_kl - kl_rows - lk_rows)
    )
    denom = (m - 1.0) * (m - 2.0) * (m - 3.0)
    r = float(h @ h) / (4.0 * m) / (denom * denom)
    return value, (16.0 / m) * (r - value * value)


def power_ratio(value: float, variance: float, epsilon: float = DEFAULT_EPSILON) -> float:
    """Test-power proxy value / sqrt(variance + epsilon)."""
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    return float(value / np.sqrt(variance + epsilon))


def select_bandwidth(z, target, family: str = "gaussian",
                     grid: BandwidthGrid | None = None) -> BandwidthSelection:
    """Grid-search the bandwidth maximizing the power ratio.

    The base scale is sqrt(median nonzero squared distance of z). For each
    grid coefficient c the candidate bandwidth is c * base; the Gram matrix
    of z uses it, and the partner matrix is either the 0/1 label kernel
    (when target is a label vector) or the same-family kernel of the target
    embeddings with the same bandwidth (when target is a matrix). Ties in
    the ratio go to the smaller coefficient.

    z's distances are built once and also give the base. A label target is
    never expanded into its m x m kernel: each row reads the class sums of
    z's Gram matrix (see _label_hsic). A target that is z itself reuses z's
    distances and Gram matrices. The cosine kernel ignores the bandwidth, so
    its one estimate fills every row.
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
    elif not self_target:
        t = as_embeddings(target)
        if t.shape[0] != m:
            raise ValueError(
                f"target embeddings must pair with z row for row, got {t.shape[0]} vs {m}"
            )
        d2_t = None if family == COSINE else sq_dist_matrix(t)

    d2_z = sq_dist_matrix(z)
    base = float(np.sqrt(median_of_sq_dists(d2_z)))
    sigmas = [coeff * base for coeff in grid.coefficients]
    for coeff, sigma in zip(grid.coefficients, sigmas):
        if not math.isfinite(sigma):
            raise ValueError(
                f"bandwidth coefficient {coeff} times base {base} overflows to {sigma}")

    def zero_diag_gram(x, d2, sigma):
        k = cosine_gram(x) if family == COSINE else kernel_from_sq_dists(d2, family, sigma)
        np.fill_diagonal(k, 0.0)
        return k

    def estimate(sigma):
        kt = zero_diag_gram(z, d2_z, sigma)
        if labels_mode:
            return _label_hsic(kt, y)
        lt = kt if self_target else zero_diag_gram(t, d2_t, sigma)
        value = hsic_unbiased(kt, lt)
        return value, hsic_variance(kt, lt, value, clamp=False)

    # lazy, so one candidate's Gram matrices are live at a time
    estimates = [estimate(None)] * len(sigmas) if family == COSINE else map(estimate, sigmas)
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
