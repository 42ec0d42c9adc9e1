"""Unbiased dependence estimation and test-power bandwidth selection.

The estimator, its variance, and the power ratio all operate on Gram
matrices whose diagonals have been zeroed (written Kt, Lt below). The
bandwidth search scales a median-heuristic base by a grid of coefficients
and keeps the one whose estimate has the largest power ratio.

The estimate and its variance are read in one place, _hsic_from_rows, from
five row statistics: (Kt o Lt)1, Kt1, Lt1, Kt Lt1 and Lt Kt1. The
bandwidth search, whose target is always a label vector, reads them from
three sums of Kt (_label_rows_hsic), after two sweeps of the distances,
each of which centres its own rows: the median base's, then every
bandwidth's. The mokd step reads its loss and gradient from the same
estimate, written through the Kt row sums and the same-class entries of Kt
(see adapt._DependencePlan). No function here takes Gram matrices; the
tests' Gram-level reference (tests/oracles.py) reads _hsic_from_rows too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (
    _EXP_ZERO,
    _ROW_BLOCK,
    GAUSSIAN,
    _check_bandwidth,
    _check_family,
    _sq_dist_row_blocks,
    as_embeddings,
    as_labels,
    kernel_from_sq_dists,
    median_sq_distance,
)
from .tasks import _check_real

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
        for c in self.coefficients:
            _check_real("grid coefficient", c)
        _check_real("epsilon", self.epsilon)
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) == 0:
            raise ValueError("bandwidth grid must contain at least one coefficient")
        if any(not 0.0 < c < math.inf for c in coeffs):
            raise ValueError(f"grid coefficients must be positive and finite, got {coeffs}")
        if len(set(coeffs)) != len(coeffs):
            raise ValueError(f"grid coefficients must be distinct, got {coeffs}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
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


def _hsic_from_rows(kl_products: np.ndarray, k_rows: np.ndarray, l_rows: np.ndarray,
                    kl_rows: np.ndarray, lk_rows: np.ndarray) -> tuple[float, float]:
    """The unbiased estimate and its raw variance from the five row
    statistics (Kt o Lt)1, Kt1, Lt1, Kt Lt1 and Lt Kt1 of symmetric
    zero-diagonal Grams.

    The rows give tr(Kt Lt) = 1'(Kt o Lt)1, 1'Kt1, 1'Lt1 and 1'KtLt1 =
    Kt1 . Lt1, hence the estimate
      value = [tr(Kt Lt) + (1'Kt1)(1'Lt1)/((m-1)(m-2)) - 2/(m-2) 1'KtLt1]
              / (m(m-3)),
    and the per-sample vector
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


def _label_rows_hsic(rows: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """The estimate and raw variance of _hsic_from_rows for the zero-diagonal
    0/1 label kernel Lt of y, read from three row statistics of a symmetric
    zero-diagonal Gram matrix Kt, so that neither Kt nor Lt is needed.

    rows is (3, m): the within-class sums (Kt o Lt)1, the row sums Kt1, and
    Kt (n[y] - 1) = Kt Lt1, with n the class counts (see _radial_label_rows).
    The other two statistics follow: Lt1 = n[y] - 1, and Lt Kt1 is each
    row's class total of Kt1 less its own entry.
    """
    within, k_rows, kl_rows = rows
    l_rows = np.bincount(y).astype(np.float64)[y] - 1.0
    return _hsic_from_rows(within, k_rows, l_rows, kl_rows,
                           np.bincount(y, weights=k_rows)[y] - k_rows)


def _radial_label_rows(z: np.ndarray, family: str, sigmas, y: np.ndarray) -> np.ndarray:
    """The three row statistics of _label_rows_hsic for the zero-diagonal
    radial Gram matrix Kt of the rows of z at every bandwidth in sigmas,
    shape (len(sigmas), 3, m); y must be sorted by class.

    The distances come from kernels._sq_dist_row_blocks, one upper trapezoid
    d2[a:b, a:] of kernels._ROW_BLOCK rows at a time, each built once for all
    bandwidths from the rows of z, which that sweep centres itself in z's
    (class-sorted) row order. The diagonal and the lower half of each
    diagonal block are set to +inf once per block, which both families map
    to exactly 0.0 at every bandwidth that kernels._check_bandwidth accepts
    (see kernels.kernel_from_sq_dists), so no kernel needs zeroing. The columns
    a: get the weights right = [1, n[y] - 1, the one-hot labels of the
    classes that meet rows a:b]. Per bandwidth the block's kernel k adds
    k @ right to rows a:b and right[:rows].T @ k to columns a:, each row
    reading its own class's column. So each pair i < j is evaluated at
    most once (and the lower half of each diagonal block in vain) and
    counted as both Kt[i, j] and Kt[j, i]. A Gaussian block whose least
    distance off the diagonal, times 0.5 / sigma^2, exceeds
    kernels._EXP_ZERO is all zeros, so it is skipped: it adds nothing. The
    test uses the kernel's own scale, so a skipped block is exactly the
    zeros its kernel would be.
    """
    m = z.shape[0]
    counts = np.bincount(y)
    stats = np.zeros((len(sigmas), 3, m))
    kern = np.empty(min(_ROW_BLOCK, m) * m)  # flat, so every block shape is contiguous
    for a, d, least in _sq_dist_row_blocks(z):
        rows, cols = d.shape
        b = a + rows
        np.copyto(d[:, :rows], np.inf, where=np.tri(rows, dtype=bool))  # Kt is 0 there
        first, last = int(y[a]), int(y[b - 1]) + 1  # the classes that meet rows a:b
        end = int(np.searchsorted(y, last))  # ... and their columns a:end
        right = np.empty((cols, 2 + last - first))
        right[:, 0] = 1.0
        right[:, 1] = counts[y[a:]] - 1.0
        np.equal(y[a:, None], np.arange(first, last), out=right[:, 2:], casting="unsafe")
        own_rows = (np.arange(rows), 2 + y[a:b] - first)
        own_cols = (2 + y[a:end] - first, np.arange(end - a))
        for k_stats, sigma in zip(stats, sigmas):
            if family == GAUSSIAN and least * (0.5 / (sigma * sigma)) > _EXP_ZERO:
                continue
            k = kernel_from_sq_dists(d, family, sigma, out=kern[:d.size].reshape(rows, cols))
            row_part = k @ right
            k_stats[0, a:b] += row_part[own_rows]
            k_stats[1:, a:b] += row_part[:, :2].T
            col_part = right[:rows].T @ k
            k_stats[0, a:end] += col_part[own_cols]
            k_stats[1:, a:] += col_part[:2]
    return stats


def power_ratio(value: float, variance: float, epsilon: float = DEFAULT_EPSILON) -> float:
    """Test-power proxy value / sqrt(variance + epsilon)."""
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    return float(value / np.sqrt(variance + epsilon))


def select_bandwidth(z, labels, family: str = GAUSSIAN,
                     grid: BandwidthGrid | None = None) -> BandwidthSelection:
    """Grid-search the bandwidth maximizing the power ratio of the estimate
    of dependence between z and a label vector.

    The base scale is sqrt(kernels.median_sq_distance(z)). For each grid
    coefficient c the candidate bandwidth is c * base; the Gram matrix of z
    uses it, and its partner is the 0/1 label kernel. Ties in the ratio go
    to the smaller coefficient. The labels need at least two classes, one
    of them with two rows (else the zero-diagonal label kernel is all zero).

    The search sweeps the distances twice, kernels._ROW_BLOCK rows at a time
    (see kernels._sq_dist_row_blocks), and each sweep centres its own rows:
    the median's sweep, then the label search's, which reads three row
    statistics with no m x m array and builds each block once for the whole
    grid. For it the rows are grouped by class (a stable sort, skipped when
    the labels are sorted), and it centres the grouped rows. Every
    coefficient's kernel of a block adds to that coefficient's row
    statistics (see _radial_label_rows and _label_rows_hsic), so each pair's
    kernel entry is evaluated at most once: a Gaussian block whose every
    entry rounds to 0 is skipped. The peak is a few row blocks plus the
    (len(grid), 3, m) statistics.

    So the label search reads the same distances whatever the caller's row
    order. The median's sweep centres the rows in the caller's order: with
    float64 rows and unsorted labels the two centrings sum the columns in
    different orders, and the table depends on the row order at rounding
    level, through the median base only. In 320 searches at m = 20-400,
    both families, unsorted rows against the same rows in class order kept
    every coefficient and moved every number by at most 2.5e-11 relative.
    With sorted labels, or rows whose column sums are exact in any order
    (float32 values of moderate range, as in the CLI's pools), the two
    centrings agree bit for bit.

    Every bandwidth must square to a finite, normal float64 (see
    kernels._check_bandwidth): a coefficient whose bandwidth underflows or
    overflows is named with the base in the error.
    """
    z = as_embeddings(z)
    m = z.shape[0]
    if m < 4:
        raise ValueError(f"bandwidth selection needs at least 4 samples, got {m}")
    _check_family(family)
    if grid is None:
        grid = BandwidthGrid()

    y = as_labels(labels, m)
    counts = np.bincount(y)
    if counts.size < 2:
        raise ValueError("a label target needs at least 2 classes: with one, every "
                         "pair of labels agrees and there is no dependence to estimate")
    if counts.max() < 2:
        raise ValueError("a label target needs a class with at least 2 rows: with "
                         "none, no pair of labels agrees and there is no dependence "
                         "to estimate")

    base = float(np.sqrt(median_sq_distance(z)))
    sigmas = [coeff * base for coeff in grid.coefficients]
    for coeff, sigma in zip(grid.coefficients, sigmas):
        try:
            _check_bandwidth(sigma)
        except ValueError as exc:
            raise ValueError(f"bandwidth coefficient {coeff} times base {base}: {exc}") from None

    if (y[1:] < y[:-1]).any():
        by_class = np.argsort(y, kind="stable")
        z, y = z[by_class], y[by_class]
    rows: list[HsicEstimate] = []
    for sigma, stats in zip(sigmas, _radial_label_rows(z, family, sigmas, y)):
        value, raw = _label_rows_hsic(stats, y)
        variance = raw if raw > 0.0 else 0.0
        ratio = power_ratio(value, variance, grid.epsilon)
        rows.append(HsicEstimate(value, variance, ratio, sigma, raw))

    best = max(range(len(rows)), key=lambda i: (rows[i].power_ratio, -grid.coefficients[i]))
    return BandwidthSelection(
        sigma=rows[best].sigma,
        coefficient=grid.coefficients[best],
        sigma_base=base,
        table=tuple(rows),
    )
