"""Linear-head episode adaptation.

A d x d head, initialized to the identity, is trained per task with Adadelta
on either the kernel-dependence objective (mode "mokd") or the plain
nearest-centroid cross-entropy (mode "ncc"). In mode "mokd" one bandwidth
is selected, before the gradient loop, and stays frozen afterwards for both
loss terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hsic import DEFAULT_EPSILON, DEFAULT_GRID_COEFFICIENTS, BandwidthGrid, select_bandwidth
from .kernels import (
    GAUSSIAN,
    IMQ,
    _FLOAT32_SIGMA_SQ,
    _ROW_BLOCK,
    _check_bandwidth,
    _check_family,
    _unit_rows,
    _unit_zero_diag_kernel,
    as_embeddings,
    as_labels,
    kernel_from_sq_dists,
    sq_dist_matrix,
)
from .tasks import Task, _check_integer, _check_real

LOSS_MODES = ("mokd", "ncc")


@dataclass
class LinearHead:
    """Square linear map applied to every embedding row."""

    theta: np.ndarray

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
            raise ValueError(f"head must be a square matrix, got shape {theta.shape}")
        if not np.isfinite(theta).all():
            raise ValueError("head contains non-finite entries")
        self.theta = theta

    @property
    def dim(self) -> int:
        return self.theta.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "LinearHead":
        return cls(np.eye(int(dim)))


@dataclass
class AdadeltaState:
    """Running squared-gradient and squared-update averages.

    adadelta_step works in two more arrays of the head's shape, kept here
    from its first step on, so that no step allocates them anew.
    """

    sq_grad_avg: np.ndarray
    sq_delta_avg: np.ndarray
    _scratch: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def zeros(cls, shape) -> "AdadeltaState":
        return cls(np.zeros(shape), np.zeros(shape))


@dataclass(frozen=True)
class AdaptConfig:
    """Episode hyperparameters, one field per setting.

    Frozen: dataclasses.replace varies it through its one check, __post_init__.
    ``grid`` is not a field but read from ``grid_coefficients`` and ``epsilon``,
    so it searches with this config's values; BandwidthGrid checks both.
    """

    gamma: float = 3.0
    learning_rate: float = 0.25
    steps: int = 40
    weight_decay: float = 0.0
    epsilon: float = DEFAULT_EPSILON
    grid_coefficients: tuple[float, ...] = DEFAULT_GRID_COEFFICIENTS
    kernel_family: str = GAUSSIAN
    normalize_features: bool = True
    loss: str = "mokd"
    rho: float = 0.9
    opt_eps: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("gamma", "learning_rate", "weight_decay", "rho", "opt_eps"):
            _check_real(name, getattr(self, name))
        if not isinstance(self.normalize_features, (bool, np.bool_)):
            raise ValueError(f"normalize_features must be a bool, got "
                             f"{self.normalize_features!r}")
        for name in ("gamma", "weight_decay"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        for name in ("learning_rate", "opt_eps"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        _check_integer("steps", self.steps)
        if self.steps < 1:
            raise ValueError(f"steps must be an integer >= 1, got {self.steps!r}")
        _check_family(self.kernel_family)
        if self.loss not in LOSS_MODES:
            raise ValueError(f"loss mode must be one of {LOSS_MODES}, got {self.loss!r}")
        if not 0 < self.rho < 1:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        object.__setattr__(self, "grid_coefficients", self.grid.coefficients)  # as floats

    @property
    def grid(self) -> BandwidthGrid:
        """The bandwidth grid the episode searches."""
        return BandwidthGrid(self.grid_coefficients, self.epsilon)


def _unit_rows_backward(d_out: np.ndarray, z: np.ndarray,
                        norms: np.ndarray) -> np.ndarray:
    """Pull a cotangent back through kernels._unit_rows (z = v / ||v||), in
    place: d_out receives the result and is returned, and z is overwritten."""
    z *= np.einsum("ij,ij->i", z, d_out)[:, None]
    d_out -= z
    d_out /= norms[:, None]
    return d_out


def _forward(head: LinearHead, u: np.ndarray, normalize: bool, what: str = "row",
             out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Transformed rows z of validated embeddings u, in out if given, and the
    row norms of u @ theta.T before normalization (None when not
    normalizing); a row with no direction is rejected as `what`."""
    if u.shape[1] != head.dim:
        raise ValueError(
            f"embedding dimension {u.shape[1]} does not match head dimension {head.dim}"
        )
    v = np.matmul(u, head.theta.T, out=out)
    if not normalize:
        return v, None
    return _unit_rows(v, what, "after the head", out=v)


def _head_gradient(dz: np.ndarray, u: np.ndarray, z: np.ndarray,
                   norms: np.ndarray | None) -> np.ndarray:
    """Pull a cotangent on z back to the head, through the optional row
    normalization and the linear map; dz and z are overwritten."""
    dv = dz if norms is None else _unit_rows_backward(dz, z, norms)
    return dv.T @ u


def transform(head: LinearHead, embeddings, normalize: bool = True) -> np.ndarray:
    """Apply the head to every row, then optionally L2-normalize each row; a
    row with no direction after the head is rejected."""
    return _forward(head, as_embeddings(embeddings), normalize)[0]


def _prototypes(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n_classes = int(y.max()) + 1
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    protos = (y[:, None] == np.arange(n_classes)).T @ z
    protos /= counts[:, None]
    return protos, counts


def _ncc_loss_and_grad(head: LinearHead, u, y, normalize: bool) -> tuple[float, np.ndarray]:
    z, v_norms = _forward(head, u, normalize, "support row")
    m = u.shape[0]
    protos, counts = _prototypes(z, y)
    if normalize:  # _forward's rows have unit length already
        zn = z
    else:
        zn, z_norms = _unit_rows(z, "support row", "after the head")
    pn, p_norms = _unit_rows(protos, "class prototype")
    sims = zn @ pn.T
    shifted = sims - sims.max(axis=1, keepdims=True)
    grad_sims = np.exp(shifted)
    total = grad_sims.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(total)
    loss = float(-log_probs[np.arange(m), y].mean())

    grad_sims /= total  # the softmax probabilities
    grad_sims[np.arange(m), y] -= 1.0
    grad_sims /= m

    d_zn = grad_sims @ pn
    d_pn = grad_sims.T @ zn
    dz = d_zn if normalize else _unit_rows_backward(d_zn, zn, z_norms)
    d_protos = _unit_rows_backward(d_pn, pn, p_norms)
    dz += d_protos[y] / counts[y][:, None]
    return loss, _head_gradient(dz, u, z, v_norms)


def ncc_loss_and_grad(head: LinearHead, embeddings, labels,
                      normalize: bool = True) -> tuple[float, np.ndarray]:
    """Nearest-centroid cross-entropy of transform(head, embeddings) under
    cosine similarity, and its analytic gradient w.r.t. the head.

    Prototypes are class means of the transformed rows, the logits a row's
    cosines to them, and the gradient chains through both. The rows and
    labels are checked here, and a support row or class prototype with no
    direction is rejected; run_episode's step skips the checks it has made.
    """
    u = as_embeddings(embeddings)
    y = as_labels(labels, u.shape[0])
    if int(y.max()) + 1 < 2:
        raise ValueError("nearest-centroid loss needs at least two classes")
    return _ncc_loss_and_grad(head, u, y, normalize)


def _ncc_predict(head: LinearHead, u, y, query, normalize: bool) -> np.ndarray:
    zs = _forward(head, u, normalize, "support row")[0]
    qn = _forward(head, query, True, "query row")[0]  # cosine: unit rows
    protos, _ = _prototypes(zs, y)
    pn, _ = _unit_rows(protos, "class prototype", out=protos)
    sims = qn @ pn.T
    return sims.argmax(axis=1)


def ncc_predict(head: LinearHead, support: tuple, query,
                normalize: bool = True) -> np.ndarray:
    """Classify query rows by cosine similarity to transformed class means.

    Ties resolve to the lower class id. The arrays are checked here, not in
    run_episode's prediction; a row or prototype with no direction is rejected.
    """
    u = as_embeddings(support[0])
    y = as_labels(support[1], u.shape[0])
    if int(y.max()) + 1 < 2:
        raise ValueError("nearest-centroid prediction needs at least two classes")
    return _ncc_predict(head, u, y, as_embeddings(query), normalize)


class _DependencePlan:
    """dependence_loss_and_grad for one support set at a frozen bandwidth.

    The plan takes rows and labels that as_embeddings and as_labels have
    validated (run_episode and dependence_loss_and_grad do that). What does
    not depend on the head is done once, here: the family and the bandwidth
    are checked, the label term reduced to three constants and a flat index
    of its same-class pairs (no label Gram is built), and the buffers
    allocated: one m x m array whatever gamma is, which holds the kernel and
    then the weights w = d(loss)/d(d2), a kernels._ROW_BLOCK x m scratch,
    and three m x d arrays for the rows and their pull-back. The index has
    sum n_c (n_c - 1) int64 entries over the class sizes n_c, and is built a
    row block at a time: each block's part, whose offsets are kept too, is
    sorted and counts from the block's first entry.

    weight * d hsic(Kt, L) / d Kt, with L fixed, is the Gram cotangent
    C = c L - t_i - t_j + k with c = 2 weight / (m (m - 3)),
    t = L1 c / (m - 2) and k = c 1'L1 / ((m - 1)(m - 2)) (tests/oracles.py
    keeps it as the reference); the estimate is linear in Kt, so
    2 weight hsic(Kt, L) = <Kt, C> = c <Kt, L> - 2 t.Kt1 + k 1'Kt1. The
    label term -hsic(Kt, Lt) has weight -1, its Lt1 is n_c - 1 for a row of
    class c, and <Kt, Lt> is Kt summed over the same-class index, so the
    rows need not be sorted by class. The penalty gamma hsic(Kt, Kt) reads
    Kt twice: its C has L = Kt and weight 2 gamma, it is <Kt, C> / 4, and it
    reads <Kt, Kt> and t from Kt1.

    w is the summed C times 2 dk/d(d2) = -Kt / sigma^2 (-Kt^3 / sigma^2 for
    the IMQ). Its scale -c / sigma^2, c the penalty's (the label's when
    gamma is 0), is applied to the d x d gradient instead. Once the loss
    has read the row sums of Kt (and <Kt, Kt>), w is written over it a row
    block at a time: in the scratch the block of Kt (gamma > 0) less the
    two rank-one terms, plus the label's Lt through the block's part of the
    index, which first sums the block's same-class entries of Kt for
    <Kt, Lt>, times Kt (IMQ: twice more), and the last product is written
    over the block. So the same-class entries are never copied all at once.
    The pull-back is dz = w.sum(1) z - w @ z, in which a duplicate pair's
    two terms cancel exactly.

    The rows go through _forward and dz back through _head_gradient, the
    passes transform and the ncc loss use. With row normalization (the
    default) the kernel is read straight from the Gram z z' of the unit rows
    (kernels._unit_zero_diag_kernel), and kernels._unit_rows rejects a
    support row with no direction by name: in the embeddings when the plan
    is built, after the head at each call. Without it sq_dist_matrix writes
    the distances into the kernel buffer and kernel_from_sq_dists maps them
    in place.

    The plan picks the precision of the m x m work once, as the dtype of its
    kernel buffer, from dtype, the support rows' precision (by default the
    given rows' dtype): float32 for normalized float32 rows (sample_task
    hands a pool's) at a bandwidth with sigma^2 >= kernels._FLOAT32_SIGMA_SQ,
    float64 for anything else (float64 rows, raw rows, a tinier bandwidth).
    Every m x m line follows it: the kernel is read from the unit rows cast
    to it, and the scratch, the row constants of the weights loop and w @ z
    are in it, so a float32 m x m buffer is half the size. The reductions
    the loss reads are summed in float64: the row sums of Kt and <Kt, Kt>
    one row block of Kt at a time (a float32 block is cast to a float64
    copy), and the same-class sum. dz, the head, _forward and
    _head_gradient stay float64. The float32 step's loss and gradient agree
    with the float64 step's to 1e-5 relative (tests/test_adapt.py).
    """

    def __init__(self, embeddings, y, sigma: float, gamma: float, family: str,
                 normalize: bool, dtype=None) -> None:
        _check_family(family)  # both checks once, before the m x m buffer
        _check_bandwidth(sigma)
        dtype = np.asarray(embeddings).dtype if dtype is None else dtype
        single = normalize and dtype == np.float32 and sigma * sigma >= _FLOAT32_SIGMA_SQ
        self.u = np.asarray(embeddings, dtype=np.float64)
        m, d = self.u.shape
        if m < 4:
            raise ValueError(f"unbiased estimator needs at least 4 samples, got {m}")
        self.rows = np.empty((m, d))
        if normalize:  # the row buffer as scratch, before the m x m buffer
            _unit_rows(self.u, "support row", "in the embeddings", out=self.rows)
        # the label term's index and constants (weight -1): Lt1 = n_c - 1
        lt1 = np.bincount(y)[y] - 1
        offsets = np.concatenate(([0], np.cumsum(lt1)))
        # (a, lo, hi): the rows [a, a + _ROW_BLOCK) own same_class[lo:hi],
        # flat indices into those rows of an m x m array
        self.blocks = [(a, int(offsets[a]), int(offsets[min(a + _ROW_BLOCK, m)]))
                       for a in range(0, m, _ROW_BLOCK)]
        self.same_class = np.empty(int(offsets[-1]), dtype=np.int64)
        for a, lo, hi in self.blocks:
            same = y[a:a + _ROW_BLOCK, None] == y
            np.fill_diagonal(same[:, a:], False)
            self.same_class[lo:hi] = np.flatnonzero(same)
        l_rows = lt1.astype(np.float64)
        self.label_c = -2.0 / (m * (m - 3.0))
        self.label_t = l_rows * (self.label_c / (m - 2.0))
        self.label_k = self.label_c * float(l_rows.sum()) / ((m - 1.0) * (m - 2.0))
        self.penalty_c = 4.0 * gamma / (m * (m - 3.0))  # weight 2 gamma
        self.sigma = sigma
        self.gamma = gamma
        self.family = family
        self.normalize = normalize
        self.kernel = np.empty((m, m), np.float32 if single else np.float64)
        self.scratch = np.empty((min(_ROW_BLOCK, m), m), self.kernel.dtype)
        self.wz = np.empty((m, d), self.kernel.dtype)
        self.dz = np.empty((m, d))

    def _sums(self, kt: np.ndarray) -> tuple[np.ndarray, float]:
        """The row sums of Kt and <Kt, Kt> (0.0 at gamma 0), summed in
        float64 one row block at a time."""
        k_rows, kk = np.empty(kt.shape[0]), 0.0
        for a, _, _ in self.blocks:
            blk = kt[a:a + _ROW_BLOCK].astype(np.float64, copy=False)
            blk.sum(axis=1, out=k_rows[a:a + _ROW_BLOCK])
            if self.gamma != 0.0:
                kk += float(np.vdot(blk, blk))
        return k_rows, kk

    def __call__(self, head: LinearHead) -> tuple[float, np.ndarray]:
        family, sigma = self.family, self.sigma
        m = self.u.shape[0]
        z, norms = _forward(head, self.u, self.normalize, "support row", out=self.rows)
        zk = z.astype(self.kernel.dtype, copy=False)  # the rows the m x m work reads
        if self.normalize:
            kt = _unit_zero_diag_kernel(zk, family, sigma, out=self.kernel)
        else:
            kt = kernel_from_sq_dists(sq_dist_matrix(z, out=self.kernel), family, sigma,
                                      self.kernel)
            np.fill_diagonal(kt, 0.0)
        k_rows, kk = self._sums(kt)
        k_total = float(k_rows.sum())
        # each loss term from its cotangent: <Kt, C> = c <Kt, L> - 2 t.Kt1 + k 1'Kt1;
        # <Kt, Lt>, the label's, is summed in the weights loop below
        c, t, k = self.label_c, self.label_t, self.label_k
        loss = 0.5 * (-2.0 * float(t @ k_rows) + k * k_total)
        if self.gamma != 0.0:  # the penalty's, with L = Kt
            c = self.penalty_c
            t_self = k_rows * (c / (m - 2.0))
            k_self = c * k_total / ((m - 1.0) * (m - 2.0))
            loss += 0.25 * (c * kk - 2.0 * float(t_self @ k_rows)
                            + k_self * k_total)
            t, k = t + t_self, k + k_self
        # w = B Kt, with B = (C_label + C_penalty) / c, over Kt a row block at
        # a time: its scale -c / sigma^2 is applied to the gradient. Each
        # block's same-class entries of Kt are summed before it is overwritten
        row, col, label = (t - k) / c, t / c, self.label_c / c
        row, col = row.astype(kt.dtype, copy=False), col.astype(kt.dtype, copy=False)
        same = 0.0
        for a, lo, hi in self.blocks:
            kt_blk = kt[a:a + _ROW_BLOCK]
            s = self.scratch[:len(kt_blk)]
            if self.gamma != 0.0:
                np.subtract(kt_blk, row[a:a + _ROW_BLOCK, None], out=s)
            else:
                np.negative(row[a:a + _ROW_BLOCK, None], out=s)
            s -= col
            pairs = self.same_class[lo:hi]
            same += float(kt_blk.take(pairs).sum(dtype=np.float64))
            s.ravel()[pairs] += label
            if family == IMQ:
                s *= kt_blk
                s *= kt_blk
            np.multiply(s, kt_blk, out=kt_blk)
        loss += 0.5 * self.label_c * same
        w = kt
        # dz = w.sum(1) z - w @ z: a duplicate pair's terms cancel exactly
        dz = np.multiply(zk, w.sum(axis=1)[:, None], out=self.dz)
        dz -= np.matmul(w, zk, out=self.wz)
        grad = _head_gradient(dz, self.u, z, norms)
        grad *= c / -(sigma * sigma)
        return loss, grad


def dependence_loss_and_grad(head: LinearHead, embeddings, labels, sigma: float,
                             gamma: float, family: str = GAUSSIAN,
                             normalize: bool = True) -> tuple[float, np.ndarray]:
    """-dependence(z, labels) + gamma * self-dependence(z, z) at
    z = transform(head, embeddings), and its analytic gradient w.r.t. the head.

    Both terms use the one kernel at bandwidth sigma: the first against the
    0/1 label kernel, the penalty against itself. Each loss term is read
    from the Gram cotangent that feeds the gradient (the estimate is linear
    in its Gram; see _DependencePlan). The gradient chains that cotangent
    through the radial kernel derivative, the optional row normalization,
    and the linear map; the penalty chains through both Gram arguments.

    run_episode builds the plan once per episode and calls it every step;
    this function validates the rows and labels, builds it and calls it once.
    """
    u = as_embeddings(embeddings)
    return _DependencePlan(u, as_labels(labels, u.shape[0]), sigma, gamma, family, normalize,
                           np.asarray(embeddings).dtype)(head)


def adadelta_step(state: AdadeltaState, head: LinearHead, grad,
                  learning_rate: float, weight_decay: float,
                  rho: float = 0.9, opt_eps: float = 1e-6
                  ) -> tuple[LinearHead, AdadeltaState]:
    """One Adadelta update with decoupled weight decay, in place: the new
    averages are written into state's arrays and the new head into
    head.theta, and (head, state), the same objects, are returned.

    sq_grad_avg  <- rho * sq_grad_avg + (1 - rho) g^2
    delta        =  -sqrt(sq_delta_avg + eps) / sqrt(sq_grad_avg + eps) * g
    sq_delta_avg <- rho * sq_delta_avg + (1 - rho) delta^2
    theta        <- theta + lr * delta, then theta <- theta - lr * wd * theta

    Each product keeps the association written here, so the bytes are those
    of computing every line into a new array. A gradient of the wrong shape
    or with a non-finite entry is rejected before anything is written; a
    new head with a non-finite entry is rejected after it is written.
    """
    g = np.asarray(grad, dtype=np.float64)
    theta = head.theta
    if g.shape != theta.shape:
        raise ValueError(f"gradient shape {g.shape} does not match head shape {theta.shape}")
    if not np.isfinite(g).all():
        raise ValueError("gradient contains non-finite entries")
    if state._scratch is None or state._scratch.shape[1:] != theta.shape:
        state._scratch = np.empty((2, *theta.shape))
    scratch, step = state._scratch
    sq_grad, sq_delta = state.sq_grad_avg, state.sq_delta_avg
    np.multiply(g, 1.0 - rho, out=scratch)
    scratch *= g
    sq_grad *= rho
    sq_grad += scratch
    # -delta: negating both factors of delta^2 and the sign of lr * delta is exact
    np.add(sq_delta, opt_eps, out=step)
    np.sqrt(step, out=step)
    np.add(sq_grad, opt_eps, out=scratch)
    np.sqrt(scratch, out=scratch)
    step /= scratch
    step *= g
    np.multiply(step, 1.0 - rho, out=scratch)
    scratch *= step
    sq_delta *= rho
    sq_delta += scratch
    step *= learning_rate
    theta -= step
    if weight_decay != 0.0:
        np.multiply(theta, learning_rate * weight_decay, out=scratch)
        theta -= scratch
    if not np.isfinite(theta).all():
        raise ValueError("head contains non-finite entries")
    return head, state


@dataclass
class EpisodeResult:
    """What one episode produced, plus the task it ran on (a reference, not
    a copy). sigma_zy is the one bandwidth both loss terms used (NaN when
    the episode ran no search).

    The similarity matrices and class boundaries are computed from the final
    head each time they are read, since only an export needs them. Both
    matrices are products of the unit rows _forward makes after the head,
    whatever row normalization the episode ran with: a cosine does not
    depend on it. So a row with no direction after the head is rejected as
    "support row i" or "query row i".
    """

    final_head: LinearHead
    loss_trace: list[float]
    sigma_zy: float
    query_accuracy: float
    task: Task

    def _rows(self, embeddings, what: str) -> np.ndarray:
        return _forward(self.final_head, as_embeddings(embeddings), True, what)[0]

    @property
    def support_similarity(self) -> np.ndarray:
        """m x m cosine similarities of the transformed support rows, with a
        diagonal of exactly 1."""
        zs = self._rows(self.task.support_x, "support row")
        g = zs @ zs.T  # one symmetric rank-k update, so exactly symmetric
        np.fill_diagonal(g, 1.0)
        return g

    @property
    def query_support_similarity(self) -> np.ndarray:
        """q x m cosine similarities of transformed query to support rows."""
        zs = self._rows(self.task.support_x, "support row")
        return self._rows(self.task.query_x, "query row") @ zs.T

    @property
    def class_boundaries(self) -> tuple[int, ...]:
        """Start row of each contiguous class block of the support labels."""
        changes = np.flatnonzero(np.diff(as_labels(self.task.support_y))) + 1
        return tuple([0, *changes.tolist()])


def run_episode(task, config: AdaptConfig | None = None) -> EpisodeResult:
    """Adapt a fresh identity head on the task's support set and score the query.

    The task is checked once, first (query rows as wide as the support rows,
    query labels among the support's classes), and the phases read the
    checked arrays without checking them again: select one bandwidth on the
    untouched support representation by a search against the support labels
    (mode "mokd" only), run the configured number of update steps with that
    bandwidth frozen for both loss terms (mode "mokd" builds its label work
    once, in a plan every step calls in the task's precision, and drops it
    after the last step), then classify the query set by nearest centroid.

    In mode "mokd" a support set where no class has two rows has an all-zero
    label kernel, so there is no dependence to fit: the episode runs no
    search and no step, keeps the identity head and an empty loss trace,
    and reports the bandwidth as NaN, as mode "ncc" does.
    """
    cfg = config if config is not None else AdaptConfig()
    support_x = as_embeddings(task.support_x)
    m, dim = support_x.shape
    if m < 4:
        raise ValueError(f"support set too small: need at least 4 rows, got {m}")
    support_y = as_labels(task.support_y, m)
    n_classes = int(support_y.max()) + 1
    if n_classes < 2:
        raise ValueError("support set must contain at least two classes")
    query_x = as_embeddings(task.query_x)
    if query_x.shape[1] != dim:
        raise ValueError(f"query rows have width {query_x.shape[1]}, support rows {dim}")
    query_y = np.asarray(task.query_y)
    if query_y.ndim != 1 or not np.issubdtype(query_y.dtype, np.integer):
        raise ValueError("query labels must be a 1-D integer vector, got shape "
                         f"{query_y.shape} and dtype {query_y.dtype}")
    if query_y.size != query_x.shape[0]:
        raise ValueError(f"expected {query_x.shape[0]} query labels, got {query_y.size}")
    if query_y.min() < 0 or query_y.max() >= n_classes:
        raise ValueError(f"query labels must lie in [0, {n_classes}), the support's "
                         f"classes, got {query_y.min()} to {query_y.max()}")

    head = LinearHead.identity(dim)
    state = AdadeltaState.zeros((dim, dim))
    steps = cfg.steps
    sigma_zy = float("nan")

    if cfg.loss == "mokd" and np.bincount(support_y).max() < 2:
        steps = 0
    elif cfg.loss == "mokd":
        z0 = _forward(head, support_x, cfg.normalize_features, "support row")[0]
        sigma_zy = select_bandwidth(z0, support_y, cfg.kernel_family, cfg.grid).sigma
        del z0
        step = _DependencePlan(support_x, support_y, sigma_zy, cfg.gamma, cfg.kernel_family,
                               cfg.normalize_features, np.asarray(task.support_x).dtype)
    else:
        def step(head):
            return _ncc_loss_and_grad(head, support_x, support_y, cfg.normalize_features)

    trace: list[float] = []
    for _ in range(steps):
        loss, grad = step(head)
        head, state = adadelta_step(state, head, grad, cfg.learning_rate,
                                    cfg.weight_decay, cfg.rho, cfg.opt_eps)
        trace.append(loss)
    step = None  # the plan's buffers are not held through prediction

    preds = _ncc_predict(head, support_x, support_y, query_x, cfg.normalize_features)
    accuracy = float((preds == query_y).mean())

    return EpisodeResult(
        final_head=head,
        loss_trace=trace,
        sigma_zy=sigma_zy,
        query_accuracy=accuracy,
        task=task,
    )
