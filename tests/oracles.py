"""Slow reference implementations that the tests check the library against.

None of these is called by the library itself: the pairwise kernel, the
Gram builder on top of it, the median of the pairwise distances, the
scalar-loop dependence estimator, the exponential-mean bound, and a label
permutation test of independence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kerndep.hsic import _check_gram_pair, hsic_unbiased
from kerndep.kernels import (
    GAUSSIAN,
    KERNEL_FAMILIES,
    _check_bandwidth,
    as_embeddings,
    kernel_from_sq_dists,
    label_kernel_matrix,
    sq_dist_matrix,
)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its bandwidth."""

    family: str
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; expected one of {KERNEL_FAMILIES}"
            )
        _check_bandwidth(self.sigma)


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Evaluate the kernel on a single pair of vectors.

    gaussian: exp(-||x-y||^2 / (2 sigma^2))
    imq:      (1 + ||x-y||^2 / sigma^2)^(-1/2)
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"expected 1-D vectors of equal length, got {x.shape} and {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("kernel inputs contain non-finite entries")
    r = float(((x - y) ** 2).sum())
    if spec.family == GAUSSIAN:
        return float(np.exp(-r / (2.0 * spec.sigma * spec.sigma)))
    return float(1.0 / np.sqrt(1.0 + r / (spec.sigma * spec.sigma)))


def kernel_matrix(spec: KernelSpec, z, zero_diag: bool = False) -> np.ndarray:
    """Gram matrix K[i, j] = eval_kernel(spec, z_i, z_j), optionally with the
    diagonal forced to zero."""
    z = as_embeddings(z)
    k = kernel_from_sq_dists(sq_dist_matrix(z), spec.family, spec.sigma)
    if zero_diag:
        np.fill_diagonal(k, 0.0)
    return k


def median_upper_positive(d2) -> float:
    """np.median of the positive entries of the strict upper triangle of d2,
    gathered by index rather than row by row."""
    upper = d2[np.triu_indices(d2.shape[0], 1)]
    return float(np.median(upper[upper > 0]))


def hsic_unbiased_naive(kt, lt) -> float:
    """Slow reference estimator using explicit scalar index sums.

    Deliberately free of matrix algebra so it can cross-check the vectorized
    route; the cubic-cost sum keeps it usable only for small m.
    """
    kt, lt, m = _check_gram_pair(kt, lt)
    k = kt.tolist()
    l = lt.tolist()
    trace_term = 0.0
    for i in range(m):
        for j in range(m):
            trace_term += k[i][j] * l[j][i]
    sum_k = 0.0
    sum_l = 0.0
    for i in range(m):
        for j in range(m):
            sum_k += k[i][j]
            sum_l += l[i][j]
    cross = 0.0
    for i in range(m):
        for j in range(m):
            kij = k[i][j]
            row_l = l[j]
            for t in range(m):
                cross += kij * row_l[t]
    total = trace_term + sum_k * sum_l / ((m - 1.0) * (m - 2.0)) - 2.0 * cross / (m - 2.0)
    return total / (m * (m - 3.0))


def exp_mean_bound_holds(values) -> bool:
    """Check exp(mean(a)) >= mean(exp(a)) - (e + (e - 1) log(e - 1)) for a
    vector with entries in [0, 1]. The slack term makes the bound hold for
    every such vector, so a False return signals a numerical problem."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise ValueError(f"expected a non-empty 1-D vector, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("vector contains non-finite entries")
    if (a < 0.0).any() or (a > 1.0).any():
        raise ValueError("entries must lie in [0, 1]")
    slack = math.e + (math.e - 1.0) * math.log(math.e - 1.0)
    return bool(math.exp(a.mean()) >= np.exp(a).mean() - slack)


def permutation_test_rejects(x, labels, sigma: float, rng: np.random.Generator,
                             permutations: int = 100, level: float = 0.05) -> bool:
    """Label permutation test of independence between the rows of x and
    their labels, on the unbiased dependence estimate with a Gaussian kernel
    at bandwidth sigma.

    The p-value (1 + #{permuted estimate >= observed}) / (1 + permutations)
    counts the observed labelling as one of the permutations, so under
    independence the test rejects with probability at most level.
    """
    kt = kernel_from_sq_dists(sq_dist_matrix(as_embeddings(x)), GAUSSIAN, sigma)
    np.fill_diagonal(kt, 0.0)
    y = np.asarray(labels)

    def estimate(labelling):
        return hsic_unbiased(kt, label_kernel_matrix(labelling, zero_diag=True))

    observed = estimate(y)
    exceed = sum(estimate(rng.permutation(y)) >= observed for _ in range(permutations))
    return (1 + exceed) / (1 + permutations) <= level
