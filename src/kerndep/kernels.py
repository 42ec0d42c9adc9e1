"""Kernel functions, Gram matrices, the label kernel, and the median heuristic.

as_embeddings validates rows and returns them finite and float64, and
as_labels validates class ids; label_kernel_matrix reads its labels through
as_labels, and kernel_from_sq_dists checks its family and bandwidth. The
array builders (sq_dist_matrix, _unit_sq_dist_matrix, _sq_dist_row_blocks,
cosine_gram and median_sq_distance) check nothing and expect rows from
as_embeddings: given float32 rows, the distances, kernels and Grams come out
float32, and a NaN entry gives NaN distances. Gram matrices are exactly symmetric: radial
kernels act elementwise on squared distances that are exactly symmetric
(see sq_dist_matrix), and the cosine Gram is one symmetric rank-k update.
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


# The smallest normal float64. A bandwidth whose square is below it makes
# the kernel's scale 0 or subnormal: the zero diagonal of the distances then
# divides to NaN, or every other entry to an infinity.
_TINY = float(np.finfo(np.float64).tiny)


def _check_bandwidth(sigma: float) -> None:
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {sigma}")
    if sigma * sigma < _TINY:
        raise ValueError(f"bandwidth {sigma} underflows: its square {sigma * sigma} is "
                         f"below the smallest normal float64, {_TINY}")


# Pairs whose squared distance is at most this fraction of n_i + n_j lose
# most of their digits to cancellation in n_i + n_j - 2 z_i.z_j, and are
# recomputed from the row differences.
_CANCELLATION = 1e-8
# Rows of differences formed at once when recomputing such pairs.
_PAIR_BLOCK = 4096
# Rows of distances formed or tested at once, so that neither the outer sum
# n_i + n_j nor the recompute mask is ever an m x m temporary.
_ROW_BLOCK = 64


def _recompute_cancelled(z: np.ndarray, block: np.ndarray, n: np.ndarray, a: int) -> float:
    """The cancellation rule, in place, on a block of squared distances, and
    the block's least entry off the diagonal.

    block holds n_i + n_j - 2 zc_i . zc_j for the rows i = a, a+1, ... and
    the columns j = a, a+1, ... of z (so block[k, k] is the pair i == j),
    with zc the centred rows and n their squared norms (or, for unit rows,
    zc = z and n = 1). Every pair within the cancellation threshold, which
    takes in duplicate rows, any negative value and NaN, is recomputed from
    the difference of its uncentred rows, so duplicates give exactly 0. The
    pairs i == j are set to exactly 0. The threshold is tested
    kernels._ROW_BLOCK rows at a time, so no temporary has more rows.

    The least entry off the diagonal is returned (inf when the block has
    none), or 0.0 when some entry fell under the threshold or was NaN: then
    pairs were recomputed and the block's least is not known. So every entry
    off the diagonal is at least the value returned.
    """
    rows, cols = block.shape
    n_cols = n[a:a + cols]
    np.fill_diagonal(block, np.inf)
    least = float(block.min())
    # a pair within the threshold has d2 <= _CANCELLATION (n_i + n_j), so a
    # larger least entry means there is none; NaN (overflowing rows) fails too
    if not least > _CANCELLATION * (n[a:a + rows].max() + n_cols.max()):
        least = 0.0
        scale = np.empty((min(rows, _ROW_BLOCK), cols))
        for r in range(0, rows, _ROW_BLOCK):
            chunk = block[r:r + _ROW_BLOCK]
            bound = np.add(n[a + r:a + r + len(chunk), None], n_cols, out=scale[:len(chunk)])
            bound *= _CANCELLATION
            i, j = np.nonzero(~(chunk > bound))
            i += r
            for start in range(0, i.size, _PAIR_BLOCK):
                bi, bj = i[start:start + _PAIR_BLOCK], j[start:start + _PAIR_BLOCK]
                diff = z[a + bi] - z[a + bj]  # near-equal coordinates subtract exactly
                block[bi, bj] = np.einsum("ij,ij->i", diff, diff)
    np.fill_diagonal(block, 0.0)
    return least


def sq_dist_matrix(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared Euclidean distances of the rows of z.

    The rows are centred (distances do not change under translation), and
    the matrix is read from the Gram matrix G = zc @ zc.T as
    -2 G_ij + (n_i + n_j) with n = diag(G). numpy computes zc @ zc.T with one
    symmetric rank-k update, and n_i + n_j is added as one sum, a block of
    rows at a time, so the result is exactly symmetric. The cancellation
    rule of _recompute_cancelled then makes duplicate rows exactly 0, and
    the diagonal 0. A row far from the rest (say near 1e200) overflows G to
    inf and cancels to NaN, which that rule recomputes: numpy's overflow and
    invalid warnings are ignored while the matrix is built.

    out, if given, is a C-contiguous (m, m) float64 array that receives the
    result and is returned; its bytes are those of out=None, and no m x m
    temporary is made.
    """
    zc = z - z.mean(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = np.matmul(zc, zc.T, out=out)
        n = d2.diagonal().copy()
        for start in range(0, n.size, _ROW_BLOCK):
            block = d2[start:start + _ROW_BLOCK]
            block *= -2.0
            block += n[start:start + _ROW_BLOCK, None] + n
        _recompute_cancelled(z, d2, n, 0)
    return d2


def _unit_sq_dist_matrix(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sq_dist_matrix for rows of unit length: d2 = 2 - 2 G with G = z @ z.T.

    G is one symmetric rank-k update, scaled and shifted in place, so the
    result is exactly symmetric and needs no centring and no n_i + n_j pass.
    With n_i = 1 the cancellation rule of _recompute_cancelled recomputes
    the pairs with G_ij >= 1 - 1e-8 from their row differences, so
    duplicate rows give exactly 0, and sets the diagonal to 0. The rows
    must have unit norm to rounding; out is as in sq_dist_matrix.
    """
    d2 = np.matmul(z, z.T, out=out)
    d2 *= -2.0
    d2 += 2.0
    _recompute_cancelled(z, d2, np.ones(z.shape[0]), 0)
    return d2


def _sq_dist_row_blocks(z: np.ndarray):
    """Yield (a, block, least) for each kernels._ROW_BLOCK rows [a, b) of the
    squared distances of the rows of z, where block is the upper trapezoid
    d2[a:b, a:] (the diagonal block and every column to its right), and
    least, from _recompute_cancelled, is at most every entry of block off
    its diagonal.

    Each block is one product zc[a:b] @ zc[a:].T of the centred rows, plus
    n_i and n_j added in place, finished by _recompute_cancelled, in one
    reused C-contiguous buffer that the next block overwrites; so no m x m
    array, and no temporary the size of a block, is built. The entries agree
    with sq_dist_matrix's to rounding; pairs within the cancellation
    threshold, duplicates included, are computed from the same row
    differences. As in sq_dist_matrix, overflow and invalid warnings are
    ignored while a block is built, not while the caller reads it.
    """
    m = z.shape[0]
    zc = z - z.mean(axis=0)
    n = np.einsum("ij,ij->i", zc, zc)
    buf = np.empty(min(_ROW_BLOCK, m) * m)  # flat, so every block shape is contiguous
    for a in range(0, m, _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, m)
        block = buf[:(b - a) * (m - a)].reshape(b - a, m - a)
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(zc[a:b], zc[a:].T, out=block)
            block *= -2.0
            block += n[a:b, None]
            block += n[a:]
            least = _recompute_cancelled(z, block, n, a)
        yield a, block, least


# exp(-x) is exactly 0 in float64 for every x > 745.14 (it rounds below
# half the least subnormal, 2**-1075); a Gaussian kernel whose exponents all
# lie beyond this bound is all zeros and need not be evaluated.
_EXP_ZERO = 746.0


def kernel_from_sq_dists(d2: np.ndarray, family: str, sigma: float,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Radial kernel matrix from precomputed squared distances.

    Every step after the first division runs in place in the one output
    buffer. That buffer is out if given (a float64 array of d2's shape,
    which may be d2 itself), else a new array; d2 is left untouched unless
    it is out. The bytes do not depend on out.
    """
    if family not in RADIAL_FAMILIES:
        raise ValueError(f"expected a radial kernel family, got {family!r}")
    _check_bandwidth(sigma)
    if family == GAUSSIAN:
        k = np.divide(d2, -(2.0 * sigma * sigma), out=out)
        return np.exp(k, out=k)
    k = np.divide(d2, sigma * sigma, out=out)
    k += 1.0
    np.sqrt(k, out=k)
    return np.divide(1.0, k, out=k)


def _zero_diag_kernel(d2: np.ndarray, family: str, sigma: float,
                      out: np.ndarray | None = None) -> np.ndarray:
    """kernel_from_sq_dists with its diagonal set to 0: the Gram matrix Kt
    that the dependence estimate reads."""
    k = kernel_from_sq_dists(d2, family, sigma, out=out)
    np.fill_diagonal(k, 0.0)
    return k


def _unit_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of v scaled to unit length, and their norms; a row of norm 0
    becomes a zero row."""
    norms = np.linalg.norm(v, axis=1)
    unit = np.divide(v, norms[:, None], out=np.zeros_like(v), where=norms[:, None] > 0)
    return unit, norms


def cosine_gram(z: np.ndarray) -> np.ndarray:
    """Cosine-similarity Gram matrix; zero rows get similarity 0 everywhere."""
    nz, norms = _unit_rows(z)
    g = nz @ nz.T  # one symmetric rank-k update, so exactly symmetric
    np.fill_diagonal(g, np.where(norms > 0, 1.0, 0.0))
    return g


def label_kernel_matrix(labels, zero_diag: bool = False) -> np.ndarray:
    """Label kernel: 1 where labels agree, 0 where they differ."""
    y = as_labels(labels)
    mat = np.where(y[:, None] == y[None, :], 1.0, 0.0)
    if zero_diag:
        np.fill_diagonal(mat, 0.0)
    return mat


def median_sq_distance(z: np.ndarray) -> float:
    """Median of the nonzero pairwise squared distances of the rows of z: the
    square of the median-heuristic bandwidth.

    Zero distances (duplicate points) are excluded; if every pair coincides
    the heuristic is undefined and an error is raised. An error is raised too
    when every squared distance of distinct rows underflows to 0, or when the
    median overflows to inf: the rows need rescaling.

    Only exactly-equal rows count as duplicates. Rows closer than the
    rounding unit of their coordinates are distinct pairs, so the value is
    translation-invariant only for shifts that keep the rows distinct: in
    float64, ``[[0.0], [1e-17]] + 1.0`` is two equal rows.

    The distances come from _sq_dist_row_blocks, so the value depends on z
    alone. Each block's strict upper triangle (each pair once) is copied a
    row at a time into one buffer of m(m-1)/2 entries, which np.median then
    partitions in place; so the peak is that half-size buffer and one row
    block. Only when a pair is zero (duplicate rows) are the positive
    entries copied out.
    """
    m = z.shape[0]
    upper = np.empty(m * (m - 1) // 2)
    end = 0
    for _, block, _ in _sq_dist_row_blocks(z):
        for r, row in enumerate(block):
            upper[end:end + row.size - 1 - r] = row[r + 1:]
            end += row.size - 1 - r
    if not upper.min(initial=math.inf) > 0.0:  # NaN fails too, and is dropped
        upper = upper[upper > 0.0]
    if upper.size == 0:
        if (z == z[:1]).all():
            raise ValueError("all points are identical; median distance is undefined")
        raise ValueError("the squared distances of the distinct rows all underflow to 0; "
                         "median distance is undefined")
    median = float(np.median(upper, overwrite_input=True))
    if median == math.inf:
        raise ValueError("the squared distances of the rows overflow float64: their "
                         "median is inf")
    return median
