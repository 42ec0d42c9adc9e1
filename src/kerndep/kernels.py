"""Kernel functions, Gram matrices, the label kernel, and the median heuristic.

All public functions validate their inputs and compute in float64. Gram
matrices are exactly symmetric: radial kernels act elementwise on squared
distances that are exactly symmetric (see sq_dist_matrix), and the cosine
Gram is mirrored from its upper triangle.
"""

from __future__ import annotations

import math

import numpy as np

GAUSSIAN = "gaussian"
IMQ = "imq"
COSINE = "cosine"
KERNEL_FAMILIES = (GAUSSIAN, IMQ, COSINE)
RADIAL_FAMILIES = (GAUSSIAN, IMQ)


def as_embeddings(z) -> np.ndarray:
    """Validate and return an (m, d) float64 embedding matrix."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"embedding matrix must be 2-D, got shape {z.shape}")
    if z.shape[0] < 1 or z.shape[1] < 1:
        raise ValueError(f"embedding matrix must be non-empty, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("embedding matrix contains non-finite entries")
    return z


def as_labels(labels, n_samples: int | None = None) -> np.ndarray:
    """Validate a label vector.

    Labels are integer class ids and every id in [0, n_classes) must appear
    at least once.
    """
    y = np.asarray(labels)
    if y.ndim != 1 or y.size == 0:
        raise ValueError(f"labels must be a non-empty 1-D vector, got shape {y.shape}")
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {y.dtype}")
    y = y.astype(np.int64)
    if n_samples is not None and y.size != n_samples:
        raise ValueError(f"expected {n_samples} labels, got {y.size}")
    if int(y.min()) < 0:
        raise ValueError("class ids must be non-negative")
    n_classes = int(y.max()) + 1
    present = np.unique(y)
    if present.size != n_classes:
        missing = sorted(set(range(n_classes)) - set(present.tolist()))
        raise ValueError(f"class ids must cover [0, {n_classes}); missing {missing}")
    return y


def _check_bandwidth(sigma: float) -> None:
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {sigma}")


# Pairs whose squared distance is at most this fraction of n_i + n_j lose
# most of their digits to cancellation in n_i + n_j - 2 z_i.z_j, and are
# recomputed from the row differences.
_CANCELLATION = 1e-8
# Rows of differences formed at once when recomputing such pairs.
_PAIR_BLOCK = 4096


def sq_dist_matrix(z: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances of the rows of z.

    The rows are centred (distances do not change under translation), and
    the matrix is read from the Gram matrix G = zc @ zc.T as
    n_i + n_j - 2 G_ij with n = diag(G). numpy computes zc @ zc.T with one
    symmetric rank-k update, so the result is exactly symmetric. Every pair
    within the cancellation threshold, which takes in duplicate rows and any
    negative value, is recomputed from the difference of its uncentred rows;
    duplicates give exactly 0. The diagonal is exactly 0.
    """
    zc = z - z.mean(axis=0)
    d2 = zc @ zc.T
    n = d2.diagonal().copy()
    scale = np.add.outer(n, n)
    d2 *= -2.0
    d2 += scale
    np.fill_diagonal(d2, np.inf)
    # a pair within the threshold has d2 <= _CANCELLATION * 2 max(n), so a
    # larger least entry means there is none; NaN (overflowing rows) fails too
    if not d2.min() > _CANCELLATION * 2.0 * n.max():
        scale *= _CANCELLATION
        rows, cols = np.nonzero(~(d2 > scale))
        for start in range(0, rows.size, _PAIR_BLOCK):
            i, j = rows[start:start + _PAIR_BLOCK], cols[start:start + _PAIR_BLOCK]
            diff = z[i] - z[j]  # near-equal coordinates subtract exactly
            d2[i, j] = np.einsum("ij,ij->i", diff, diff)
    np.fill_diagonal(d2, 0.0)
    return d2


def kernel_from_sq_dists(d2: np.ndarray, family: str, sigma: float) -> np.ndarray:
    """Radial kernel matrix from precomputed squared distances.

    Every step after the first division runs in place in the one output
    buffer; d2 is left untouched.
    """
    if family not in RADIAL_FAMILIES:
        raise ValueError(f"expected a radial kernel family, got {family!r}")
    _check_bandwidth(sigma)
    if family == GAUSSIAN:
        k = np.divide(d2, -(2.0 * sigma * sigma))
        return np.exp(k, out=k)
    k = np.divide(d2, sigma * sigma)
    k += 1.0
    np.sqrt(k, out=k)
    return np.divide(1.0, k, out=k)


def cosine_gram(z: np.ndarray) -> np.ndarray:
    """Cosine-similarity Gram matrix; zero rows get similarity 0 everywhere."""
    norms = np.linalg.norm(z, axis=1)
    nz = np.divide(z, norms[:, None], out=np.zeros_like(z), where=norms[:, None] > 0)
    g = nz @ nz.T
    g = np.triu(g, 1)
    g = g + g.T
    np.fill_diagonal(g, np.where(norms > 0, 1.0, 0.0))
    return g


def label_kernel_matrix(labels, l1: float = 1.0, l0: float = 0.0,
                        zero_diag: bool = False) -> np.ndarray:
    """Label kernel: l1 where labels agree, l0 where they differ.

    Requires l1 > l0 so that agreement scores strictly above disagreement.
    """
    y = as_labels(labels)
    if not l1 > l0:
        raise ValueError(f"same-class weight must exceed cross-class weight, got l1={l1}, l0={l0}")
    mat = np.where(y[:, None] == y[None, :], float(l1), float(l0))
    if zero_diag:
        np.fill_diagonal(mat, 0.0)
    return mat


def median_sq_distance(z) -> float:
    """Median of the nonzero pairwise squared distances.

    Zero distances (duplicate points) are excluded; if every pair coincides
    the heuristic is undefined and an error is raised.

    Only exactly-equal rows count as duplicates. Rows closer than the
    rounding unit of their coordinates are distinct pairs, so the value is
    translation-invariant only for shifts that keep the rows distinct: in
    float64, ``[[0.0], [1e-17]] + 1.0`` is two equal rows.
    """
    z = as_embeddings(z)
    if z.shape[0] < 2:
        raise ValueError("median heuristic needs at least two samples")
    return median_of_sq_dists(sq_dist_matrix(z))


def median_of_sq_dists(d2: np.ndarray) -> float:
    """median_sq_distance read from a square matrix built by sq_dist_matrix,
    so a caller that has the distances does not compute them again."""
    upper = d2[~np.tri(d2.shape[0], dtype=bool)]  # each pair once
    positive = upper[upper > 0]
    if positive.size == 0:
        raise ValueError("all points are identical; median distance is undefined")
    return float(np.median(positive))
