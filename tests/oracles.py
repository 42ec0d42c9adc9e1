"""Slow reference implementations that the tests check the library against.

None of these is called by the library itself: the pairwise kernel, the
Gram builder on top of it, the label Gram, the squared distances of unit
rows, the median of the pairwise distances, the Gram-level dependence
estimate and its variance, the scalar-loop dependence estimator, the
estimator's Gram cotangent, the Adadelta update written into new arrays,
the exponential-mean bound, and a label permutation test of independence.

The Gram-level estimate and variance (hsic_unbiased, hsic_variance) read
five row statistics of two Grams and hand them to the library's one
estimator algebra, kerndep.hsic._hsic_from_rows, which the bandwidth search
reads too. So a test on random Grams checks that algebra on any symmetric
zero-diagonal pair, not only on a kernel of rows against a label kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kerndep.hsic import _hsic_from_rows
from kerndep.kernels import (
    GAUSSIAN,
    KERNEL_FAMILIES,
    _check_bandwidth,
    _recompute_cancelled,
    as_embeddings,
    as_labels,
    kernel_from_sq_dists,
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


def label_kernel_matrix(labels, zero_diag: bool = False) -> np.ndarray:
    """Label kernel: 1 where labels agree, 0 where they differ."""
    y = as_labels(labels)
    mat = np.where(y[:, None] == y[None, :], 1.0, 0.0)
    if zero_diag:
        np.fill_diagonal(mat, 0.0)
    return mat


def unit_sq_dist_matrix(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared distances of rows of unit length read as d2 = 2 - 2 G with
    G = z @ z.T, into out if given. With n_i = 1 the cancellation rule of
    kernels._recompute_cancelled recomputes the pairs with G_ij >= 1 - 1e-8
    from their row differences, so duplicate rows give exactly 0, and sets
    the diagonal to 0."""
    d2 = np.matmul(z, z.T, out=out)
    d2 *= -2.0
    d2 += 2.0
    _recompute_cancelled(z, d2, np.ones(z.shape[0]), 0)
    return d2


def median_upper_positive(d2) -> float:
    """np.median of the positive entries of the strict upper triangle of d2,
    gathered by index rather than row by row."""
    upper = d2[np.triu_indices(d2.shape[0], 1)]
    return float(np.median(upper[upper > 0]))


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

    read from the Grams' row statistics (see _gram_rows and
    kerndep.hsic._hsic_from_rows).

    Hand evaluation, constant kernel at m = 4 (Kt = Lt = all-ones minus
    identity): tr(Kt Lt) = 12, 1'Kt1 = 1'Lt1 = 12, Kt Lt = 2J + I so
    1'KtLt1 = 36, and the bracket is 12 + 144/6 - 36 = 0, hence value = 0
    exactly.
    """
    kt, lt, _ = _check_gram_pair(kt, lt)
    return _hsic_from_rows(*_gram_rows(kt, lt))[0]


def hsic_variance(kt, lt, *, clamp: bool = True) -> float:
    """Variance estimate for the unbiased dependence statistic.

    Reads the estimate and the per-sample vector h of
    kerndep.hsic._hsic_from_rows from the row statistics of Kt and Lt and
    returns v = (16/m) (R - estimate^2). Both Grams must be symmetric (an
    asymmetric one is rejected): the rows give tr(Kt Lt) as the sum of
    (Kt o Lt)1 and 1'KtLt1 as Kt1 . Lt1. Negative estimates are clamped to
    zero unless clamp=False, which returns the raw value for diagnostics.

    Hand evaluation, constant kernel at m = 4 (Kt = Lt = all-ones minus
    identity): row sums are 3, (Kt o Lt)1 = 3, Kt Lt row sums are 9, and
    h_i = 4*3 - 4*9 + 12*3 + 12*3 - 36 + 2*(12 - 9 - 9) = 0 per entry,
    so R = 0 and v = (16/4)(0 - 0) = 0 exactly.
    """
    kt, lt, _ = _check_gram_pair(kt, lt)
    v = _hsic_from_rows(*_gram_rows(kt, lt))[1]
    if clamp and v < 0.0:
        return 0.0
    return v


def _gram_rows(kt: np.ndarray, lt: np.ndarray) -> tuple[np.ndarray, ...]:
    """The row statistics (Kt o Lt)1, Kt1, Lt1, Kt Lt1 and Lt Kt1 of two
    symmetric zero-diagonal Gram matrices, read without an m x m temporary."""
    k_rows = kt.sum(axis=1)
    l_rows = lt.sum(axis=1)
    return np.einsum("ij,ij->i", kt, lt), k_rows, l_rows, kt @ l_rows, lt @ k_rows


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


def gram_cotangent(lt: np.ndarray, l_rows: np.ndarray, weight: float,
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


def adadelta_update(sq_grad_avg, sq_delta_avg, theta, g, learning_rate: float,
                    weight_decay: float, rho: float = 0.9, opt_eps: float = 1e-6):
    """One Adadelta update with decoupled weight decay, each line into a new
    array; returns the new (sq_grad_avg, sq_delta_avg, theta)."""
    sq_grad = rho * sq_grad_avg + (1.0 - rho) * g * g
    delta = -np.sqrt(sq_delta_avg + opt_eps) / np.sqrt(sq_grad + opt_eps) * g
    sq_delta = rho * sq_delta_avg + (1.0 - rho) * delta * delta
    theta = theta + learning_rate * delta
    if weight_decay != 0.0:
        theta = theta - learning_rate * weight_decay * theta
    return sq_grad, sq_delta, theta


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
