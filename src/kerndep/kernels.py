"""Row and label checks, kernel functions, Gram matrices, and the median heuristic.

as_embeddings validates rows and returns them finite and float64, and
as_labels validates class ids. Two builders check their inputs:
kernel_from_sq_dists, the one radial map of squared distances, checks its
family and its bandwidth (_check_bandwidth, the one bandwidth rule,
rejects a bandwidth whose square underflows or overflows); and _unit_rows,
the one row normalization, rejects a row with no direction. The other
array builders (sq_dist_matrix, _sq_dist_row_blocks, _unit_zero_diag_kernel
and median_sq_distance) check nothing and expect rows from as_embeddings.
Each distance builder (sq_dist_matrix, and _sq_dist_row_blocks once per
sweep) centres the rows it is given itself. Given float32 rows,
sq_dist_matrix and _unit_zero_diag_kernel work in float32 and give float32
(the unit kernel with its own close-pair threshold), but
_sq_dist_row_blocks gives float64 blocks, as the centred rows it builds
are. Either way a close pair is recomputed from the float64 difference of
its rows, so a duplicate row gives exactly 0 distance, and a NaN entry
gives NaN distances. Gram matrices are exactly symmetric:
radial kernels act elementwise on exactly symmetric squared distances (see
sq_dist_matrix). No cosine Gram is built here; a cosine similarity is a
product of rows that _unit_rows has scaled. median_sq_distance is exact
and usually one sweep over the row blocks, between pivots from sampled pairs.
"""

from __future__ import annotations

import math

import numpy as np

GAUSSIAN = "gaussian"
IMQ = "imq"
KERNEL_FAMILIES = (GAUSSIAN, IMQ)


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
    at least once. The error names the missing ids: past 10, the first 10
    and their count.
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
        # the first 10 missing ids lie below present.size + 10, whatever the largest id
        window = np.arange(min(n_classes, present.size + 10))
        shown = np.setdiff1d(window, present)[:10].tolist()
        n_missing = n_classes - present.size
        missing = shown if n_missing <= 10 else f"{n_missing} ids, the first 10: {shown}"
        raise ValueError(f"class ids must cover [0, {n_classes}); missing {missing}")
    return y


# The smallest normal float64. A bandwidth whose square is below it makes
# the kernel's scale inf or too large to apply (the zero diagonal of the
# distances multiplies to NaN, other entries to inf), and one whose square
# overflows makes it 0 (an infinite distance multiplies to NaN).
_TINY = float(np.finfo(np.float64).tiny)
# The least sigma^2 a float32 Gram is mapped at (_unit_zero_diag_kernel): its
# affine map multiplies G by up to 2 / sigma^2 and adds as much again, which
# stays finite in float32 (below 2**128) for sigma^2 >= 2**-124.
_FLOAT32_SIGMA_SQ = 2.0**-124


def _check_family(family: str) -> None:
    if family not in KERNEL_FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}; expected one of {KERNEL_FAMILIES}")


def _check_bandwidth(sigma: float) -> None:
    """The one bandwidth rule: sigma > 0 and _TINY <= sigma^2 < inf."""
    if not sigma > 0.0:  # NaN fails too
        raise ValueError(f"bandwidth must be positive and finite, got {sigma}")
    square = sigma * sigma
    if square < _TINY:
        raise ValueError(f"bandwidth {sigma} underflows: its square {square} is "
                         f"below the smallest normal float64, {_TINY}")
    if square == math.inf:
        raise ValueError(f"bandwidth {sigma} overflows: its square is above the "
                         f"largest finite float64, {np.finfo(np.float64).max}")


# Pairs whose squared distance is at most this fraction of n_i + n_j lose
# most of their digits to cancellation in n_i + n_j - 2 z_i.z_j, and are
# recomputed from the row differences.
_CANCELLATION = 1e-8
# The cancellation rule on a Gram of unit rows, where d2 = 2 - 2 G: G >= 1 - 1e-8
# in float64. float32 spaces G by 2**-24 below 1, and a duplicate pair's entry,
# from rows rounded to float32 and a product summed in float32, fell up to 10
# such steps below 1 (2000 random pairs at each d of 3, 16, 64 and 512, and
# 200 at d = 4096): so a float32 Gram reads G >= 1 - 2**-18, 64 steps.
_UNIT_CLOSE = {np.dtype(np.float64): 1.0 - _CANCELLATION,
               np.dtype(np.float32): 1.0 - 2.0**-18}
# Rows of distances formed or tested at once, so that neither the outer sum
# n_i + n_j nor the recompute mask is ever an m x m temporary.
_ROW_BLOCK = 64


def _difference_sq_dists(z: np.ndarray, i: np.ndarray, j: np.ndarray):
    """For the row index pairs (i, j) of the (m, d) rows z, yield (i, j, d2)
    in groups of max(1, kernels._ROW_BLOCK * m // (2 d)) pairs, with d2
    their squared distances from the float64 differences of the rows, so
    duplicates give exactly 0. So a group's two (pairs, d) temporaries are
    together no larger than a kernels._ROW_BLOCK x m float64 block."""
    group = max(1, _ROW_BLOCK * z.shape[0] // (2 * z.shape[1]))
    for start in range(0, i.size, group):
        bi, bj = i[start:start + group], j[start:start + group]
        diff = z[bi].astype(np.float64, copy=False)
        diff -= z[bj]  # near-equal coordinates subtract exactly
        yield bi, bj, np.einsum("ij,ij->i", diff, diff)


def _recompute_cancelled(z: np.ndarray, block: np.ndarray, n: np.ndarray, a: int) -> float:
    """The cancellation rule, in place, on a block of squared distances, and
    the block's least entry off the diagonal.

    block holds n_i + n_j - 2 zc_i . zc_j for the rows i = a, a+1, ... and
    the columns j = a, a+1, ... of z (so block[k, k] is the pair i == j),
    with zc the centred rows and n their squared norms. Every pair off the
    diagonal with d2 <= 1e-8 (n_i + n_j), which takes in duplicate rows, any
    negative value and NaN, is recomputed from the difference of its
    uncentred rows, so duplicates give exactly 0. The pairs are found and
    rewritten one kernels._ROW_BLOCK-row chunk at a time, so no temporary
    has more rows. The pairs i == j are set to exactly 0.

    The least entry off the diagonal is returned (inf when the block has
    none), or 0.0 when some entry fell under the threshold or was NaN: then
    pairs were recomputed and the block's least is not known. So every entry
    off the diagonal is at least the value returned.
    """
    rows, cols = block.shape
    np.fill_diagonal(block, np.inf)  # never within the threshold
    least = float(block.min())
    # a pair within the threshold has d2 <= _CANCELLATION (n_i + n_j), so a
    # larger least entry means there is none; NaN (overflowing rows) fails too
    if not least > _CANCELLATION * (n[a:a + rows].max() + n[a:a + cols].max()):
        least = 0.0
        for r in range(0, rows, _ROW_BLOCK):
            chunk = block[r:r + _ROW_BLOCK]
            bound = _CANCELLATION * (n[a + r:a + r + len(chunk), None] + n[a:a + cols])
            i, j = np.nonzero(~(chunk > bound))
            i += r
            for bi, bj, d2 in _difference_sq_dists(z[a:], i, j):
                block[bi, bj] = d2
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


def _sq_dist_row_blocks(z: np.ndarray):
    """Yield (a, block, least) for each kernels._ROW_BLOCK rows [a, b) of the
    squared distances of the rows of z, where block is the upper trapezoid
    d2[a:b, a:] (the diagonal block and every column to its right), and
    least, from _recompute_cancelled, is at most every entry of block off
    its diagonal. Each call centres z itself, once, before the first block:
    the (m, d + 2) float64 rows [zc_j, 1, n_j], with zc the centred rows of
    z and n their squared norms.

    Each block is n_i + n_j - 2 zc_i . zc_j in one product of augmented rows:
    the left block [-2 zc_i, n_i, 1] for i in [a, b) against the rows
    [zc_j, 1, n_j] for j >= a, finished by _recompute_cancelled, in one
    reused C-contiguous buffer that the next block overwrites. So no m x m
    array, and no temporary the size of a block, is built, and the product
    is the block's only pass before the cancellation test. Scaling by -2 is
    exact, so each entry is the product's sum of -2 zc_i . zc_j and then
    n_i and n_j, and agrees with sq_dist_matrix's to rounding; pairs within
    the cancellation threshold, duplicates included, are computed from the
    same row differences. As in sq_dist_matrix, overflow and invalid
    warnings are ignored while a block is built, not while the caller reads
    it.
    """
    m, d = z.shape
    rows = np.empty((m, d + 2))
    zc = np.subtract(z, z.mean(axis=0), out=rows[:, :d])
    rows[:, d] = 1.0
    n = np.einsum("ij,ij->i", zc, zc, out=rows[:, d + 1])
    left = np.empty((min(_ROW_BLOCK, m), d + 2))
    left[:, d + 1] = 1.0
    buf = np.empty(min(_ROW_BLOCK, m) * m)  # flat, so every block shape is contiguous
    for a in range(0, m, _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, m)
        lhs = left[:b - a]
        block = buf[:(b - a) * (m - a)].reshape(b - a, m - a)
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(rows[a:b, :d], -2.0, out=lhs[:, :d])
            lhs[:, d] = n[a:b]
            np.matmul(lhs, rows[a:].T, out=block)
            least = _recompute_cancelled(z, block, n, a)
        yield a, block, least


# exp(-x) is exactly 0 in float64 for every x > 745.14 (it rounds below
# half the least subnormal, 2**-1075); a Gaussian kernel whose exponents all
# lie beyond this bound is all zeros and need not be evaluated.
_EXP_ZERO = 746.0


def kernel_from_sq_dists(d2: np.ndarray, family: str, sigma: float,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Radial kernel matrix from precomputed squared distances.

    The distances are multiplied by the family's scale, -0.5 / sigma^2 for
    the Gaussian (then exp) and 1 / sigma^2 for the IMQ (then 1 / sqrt(1 +
    .)), with no division per entry. The bandwidth rule (see
    _check_bandwidth) makes the scale finite and nonzero: so an infinite
    distance maps to exactly 0.0 in both families, with no floating-point
    warning. Every step after the first product runs in place in the one
    output buffer. That buffer is out if given (a float64 array of d2's
    shape, which may be d2 itself), else a new array; d2 is left untouched
    unless it is out. The bytes do not depend on out.
    """
    _check_family(family)
    _check_bandwidth(sigma)
    if family == GAUSSIAN:
        k = np.multiply(d2, -0.5 / (sigma * sigma), out=out)
        return np.exp(k, out=k)
    k = np.multiply(d2, 1.0 / (sigma * sigma), out=out)
    k += 1.0
    np.sqrt(k, out=k)
    return np.divide(1.0, k, out=k)


def _unit_zero_diag_kernel(z: np.ndarray, family: str, sigma: float,
                           out: np.ndarray | None = None) -> np.ndarray:
    """The Gram matrix Kt that the dependence estimate reads, for the rows
    of z, which have unit length: the radial kernel of their squared
    distances with its diagonal set to 0, read straight from their Gram
    G = z z' with no distance matrix.

    G is one symmetric rank-k update in the dtype of z (float64, or
    float32), written to out (a C-contiguous (m, m) array of that dtype) if
    given, and the kernel replaces it in place. With unit rows the squared
    distances are 2 - 2 G, so the Gaussian is exp((G - 1) / sigma^2) and the
    IMQ 1 / sqrt(1 + 2/sigma^2 - (2/sigma^2) G): two affine passes and the
    family's map, one kernels._ROW_BLOCK-row chunk at a time. The diagonal
    is set to -inf first, which each map sends to exactly 0 with no warning.
    The cancellation rule reads d2 <= 1e-8 (n_i + n_j) with n_i = 1 as
    G >= 1 - 1e-8, and in a float32 Gram, which cannot resolve that, as
    G >= 1 - 2**-18 (_UNIT_CLOSE): when one whole-matrix max finds such a
    pair, each chunk's close pairs (G > 1 included) are set to -inf as the
    diagonal is, and after the chunk's map they are written by
    kernel_from_sq_dists from the squared distances of their float64 row
    differences, so a duplicate row gives exactly 1 in either dtype. So no
    more than a chunk of those pairs, and no more than a kernels._ROW_BLOCK
    x m block of their differences, is held at once, and no entry the map
    meets overflows or divides by 0 (a float32 Gram needs sigma^2 >=
    _FLOAT32_SIGMA_SQ for that). The result is exactly symmetric. The
    family and the bandwidth are checked only when there are close pairs;
    the caller checks them once.
    """
    g = np.matmul(z, z.T, out=out)
    np.fill_diagonal(g, -np.inf)  # never a close pair; each map gives 0 there
    bound = _UNIT_CLOSE[g.dtype]
    close = not g.max() < bound
    scale = 1.0 / (sigma * sigma) if family == GAUSSIAN else 2.0 / (sigma * sigma)
    for r in range(0, g.shape[0], _ROW_BLOCK):
        chunk = g[r:r + _ROW_BLOCK]
        if close:
            i, j = np.nonzero(~(chunk < bound))
            chunk[i, j] = -np.inf
            i += r
        if family == GAUSSIAN:
            chunk -= 1.0
            chunk *= scale
            np.exp(chunk, out=chunk)
        else:
            chunk *= -scale
            chunk += 1.0 + scale
            np.sqrt(chunk, out=chunk)
            np.divide(1.0, chunk, out=chunk)
        if close:
            for bi, bj, d2 in _difference_sq_dists(z, i, j):
                g[bi, bj] = kernel_from_sq_dists(d2, family, sigma)
    return g


def _unit_rows(v: np.ndarray, what: str = "row", where: str = "",
               out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The rows of v scaled to unit length, in out if given (v itself
    allowed), and their norms. A row whose norm squares below the smallest
    normal float64 (a zero row included) has no direction, and the first is
    rejected by what, index and where: "support row 3 has norm 0.0 after
    the head"."""
    norms = np.linalg.norm(v, axis=1)
    if not norms.min() ** 2 >= _TINY:  # a NaN norm fails too
        i = int(np.flatnonzero(~(norms * norms >= _TINY))[0])
        at = f" {where}" if where else ""
        raise ValueError(f"{what} {i} has norm {norms[i]}{at}: its square is below the "
                         f"smallest normal float64, so it cannot be scaled to unit length")
    return np.divide(v, norms[:, None], out=out), norms


# median_sq_distance samples min(_SAMPLE_MAX, max(_SAMPLE_MIN, 4 ceil(3m /
# 128)^2)) pairs; its pivots lie _PIVOT_SPREAD standard deviations of the
# median's sample rank (sqrt(size) / 2) either side of the sample's middle,
# moved out by a relative _PIVOT_SLACK for rounding. The window keeps about
# 3 / sqrt(size) of the pairs, at most 32 m (half a row block) for m <= 2730;
# a miss widens it _WIDEN-fold in sample ranks.
_SAMPLE_MIN, _SAMPLE_MAX = 256, 2**14
_PIVOT_SPREAD, _PIVOT_SLACK, _WIDEN = 3.0, 1e-12, 4


def _sample_sq_dists(z: np.ndarray) -> np.ndarray:
    """The positive squared distances, sorted, of the pairs of rows of z that
    np.random.default_rng(0) draws with replacement, from the row differences
    (_difference_sq_dists): a row drawn with itself or an equal one gives 0."""
    m = z.shape[0]
    size = min(_SAMPLE_MAX, max(_SAMPLE_MIN, 4 * math.ceil(3 * m / 128) ** 2))
    pairs = np.random.default_rng(0).integers(0, m, size=(2, size))
    sample = np.concatenate([d2 for _, _, d2 in _difference_sq_dists(z, *pairs)])
    return np.sort(sample[sample > 0.0])


def _window_sweep(z: np.ndarray, lo: float, hi: float):
    """One sweep of median_sq_distance over the strict upper triangle: the
    count of its positive entries, the count of those below lo, and, unjoined
    (so the last block is gone when they are joined), the arrays of those in
    [lo, hi]. The sweep reads the blocks of _sq_dist_row_blocks(z), which
    centres z itself, and zeroes each diagonal square's lower half (the
    diagonal included) in place, so each pair is counted once. lo > 0, so
    zeros are in no count; the entries are never negative, nor NaN for rows
    from as_embeddings (see _recompute_cancelled)."""
    positive = below = 0
    kept = []
    for _, block, _ in _sq_dist_row_blocks(z):
        diagonal = block.shape[0]
        np.copyto(block[:, :diagonal], 0.0, where=np.tri(diagonal, dtype=bool))
        zeros = np.count_nonzero(block <= 0.0)
        low = block < lo
        below += np.count_nonzero(low) - zeros
        positive += block.size - zeros
        keep = np.less_equal(block, hi)
        keep &= np.logical_not(low, out=low)
        kept.append(np.extract(keep, block))
    return positive, below, kept


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
    alone. It is exactly np.median of the positive entries of the strict
    upper triangle (each pair once), with no array of all the pairs, and in
    one sweep over the row blocks in the usual case: the sampled pivots of
    Floyd and Rivest (CACM 18(3), 1975). A sweep (_window_sweep) counts the
    positive entries and those below lo, and keeps those in [lo, hi], where
    a partition finds the middle ranks. A miss widens the window and sweeps
    again; the sample holds at most 2**14 pairs, so by the fourth sweep (the
    ninth at _PIVOT_SPREAD 0) the window is (0, inf] and the search stops
    (a NaN distance, in no window, then fails the partition). Ties are all
    kept. Each sweep centres z anew. The peak is the centred rows, one row
    block with its masks, and the window's entries, joined once the last
    block is gone.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sample = _sample_sq_dists(z)
    mid = sample.size // 2
    half = math.ceil(_PIVOT_SPREAD * math.sqrt(sample.size) / 2.0)
    while True:
        lo = sample[mid - half] * (1.0 - _PIVOT_SLACK) if half <= mid < sample.size else 5e-324
        hi = sample[mid + half] * (1.0 + _PIVOT_SLACK) if mid + half < sample.size else math.inf
        n, below, kept = _window_sweep(z, lo, hi)
        kept = np.concatenate(kept)
        ranks = ((n - 1) // 2 - below, n // 2 - below)
        if n == 0 or half >= sample.size or 0 <= ranks[0] and ranks[1] < kept.size:
            break
        half = max(_WIDEN * half, 1)
    if n == 0:
        if (z == z[:1]).all():
            raise ValueError("all points are identical; median distance is undefined")
        raise ValueError("the squared distances of the distinct rows all underflow to 0; "
                         "median distance is undefined")
    kept.partition(ranks)
    middle = kept[list(ranks)]
    median = float(middle[0] if ranks[0] == ranks[1] else np.mean(middle))
    if median == math.inf:
        raise ValueError("the squared distances of the rows overflow float64: their "
                         "median is inf")
    return median
