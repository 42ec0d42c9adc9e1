"""Linear-head episode adaptation.

A d x d head, initialized to the identity, is trained per task with Adadelta
on either the kernel-dependence objective (mode "mokd") or the plain
nearest-centroid cross-entropy (mode "ncc"). Bandwidths are selected once,
before the gradient loop, and stay frozen afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hsic import (DEFAULT_EPSILON, DEFAULT_GRID_COEFFICIENTS, BandwidthGrid,
                   _gram_cotangent, select_bandwidth)
from .kernels import (
    COSINE,
    GAUSSIAN,
    IMQ,
    KERNEL_FAMILIES,
    RADIAL_FAMILIES,
    _TINY,
    _unit_rows,
    _unit_sq_dist_matrix,
    _zero_diag_kernel,
    as_embeddings,
    as_labels,
    cosine_gram,
    label_kernel_matrix,
    sq_dist_matrix,
)
from .tasks import Task

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
    """Running squared-gradient and squared-update averages."""

    sq_grad_avg: np.ndarray
    sq_delta_avg: np.ndarray

    @classmethod
    def zeros(cls, shape) -> "AdadeltaState":
        return cls(np.zeros(shape), np.zeros(shape))


@dataclass
class AdaptConfig:
    """Episode hyperparameters, one field per setting.

    The bandwidth grid is not a field: ``grid`` is read from
    ``grid_coefficients`` and ``epsilon`` each time, so it always searches
    with this config's values.
    """

    gamma: float = 3.0
    learning_rate: float = 0.25
    steps: int = 40
    weight_decay: float = 0.0
    epsilon: float = DEFAULT_EPSILON
    grid_coefficients: tuple[float, ...] = DEFAULT_GRID_COEFFICIENTS
    kernel_family: str = GAUSSIAN
    share_zz_coefficient: bool = True
    normalize_features: bool = True
    loss: str = "mokd"
    rho: float = 0.9
    opt_eps: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("gamma", "weight_decay"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        for name in ("learning_rate", "epsilon", "opt_eps"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not (isinstance(self.steps, (int, np.integer)) and self.steps >= 1):
            raise ValueError(f"steps must be an integer >= 1, got {self.steps!r}")
        if self.kernel_family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.kernel_family!r}")
        if self.loss not in LOSS_MODES:
            raise ValueError(f"loss mode must be one of {LOSS_MODES}, got {self.loss!r}")
        if self.loss == "mokd" and self.kernel_family == COSINE:
            raise ValueError("the cosine kernel family is only available with the ncc loss")
        if not 0 < self.rho < 1:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        self.grid_coefficients = self.grid.coefficients  # validated, as floats

    @property
    def grid(self) -> BandwidthGrid:
        """The bandwidth grid the episode searches."""
        return BandwidthGrid(self.grid_coefficients, self.epsilon)


def _unit_rows_backward(d_out: np.ndarray, z: np.ndarray,
                        norms: np.ndarray) -> np.ndarray:
    """Pull a cotangent back through kernels._unit_rows (z = v / ||v||)."""
    proj = d_out - (z * d_out).sum(axis=1, keepdims=True) * z
    d_in = np.divide(proj, norms[:, None], out=np.zeros_like(proj),
                     where=norms[:, None] > 0)
    return d_in


def _check_row_norms(norms: np.ndarray, what: str) -> None:
    """Reject the first row whose norm squares below the smallest normal
    float64 (a zero row included): it cannot be scaled to unit length."""
    bad = np.flatnonzero(~(norms * norms >= _TINY))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"support row {i} has norm {norms[i]} {what}: its square is below "
                         f"the smallest normal float64, so the normalized mokd step cannot "
                         f"scale it to unit length")


def _forward(head: LinearHead, u: np.ndarray,
             normalize: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Transformed rows z of validated embeddings u, and the row norms of
    u @ theta.T before normalization (None when not normalizing)."""
    if u.shape[1] != head.dim:
        raise ValueError(
            f"embedding dimension {u.shape[1]} does not match head dimension {head.dim}"
        )
    v = u @ head.theta.T
    if not normalize:
        return v, None
    return _unit_rows(v)


def _head_gradient(dz: np.ndarray, u: np.ndarray, z: np.ndarray,
                   norms: np.ndarray | None) -> np.ndarray:
    """Pull a cotangent on z back to the head, through the optional row
    normalization and the linear map."""
    dv = dz if norms is None else _unit_rows_backward(dz, z, norms)
    return dv.T @ u


def transform(head: LinearHead, embeddings, normalize: bool = True) -> np.ndarray:
    """Apply the head to every row, then optionally L2-normalize each row."""
    return _forward(head, as_embeddings(embeddings), normalize)[0]


def _prototypes(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n_classes = int(y.max()) + 1
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    protos = (y[:, None] == np.arange(n_classes)).T @ z
    protos /= counts[:, None]
    return protos, counts


def ncc_loss_and_grad(head: LinearHead, embeddings, labels,
                      normalize: bool = True) -> tuple[float, np.ndarray]:
    """Nearest-centroid cross-entropy of transform(head, embeddings) under
    cosine similarity, and its analytic gradient w.r.t. the head.

    Prototypes are class means of the transformed rows; the per-sample logit
    vector is the cosine similarity to every prototype. The gradient chains
    both through that similarity and through each sample's own class mean.
    """
    u = as_embeddings(embeddings)
    z, v_norms = _forward(head, u, normalize)
    m = u.shape[0]
    y = as_labels(labels, m)
    if int(y.max()) + 1 < 2:
        raise ValueError("nearest-centroid loss needs at least two classes")

    protos, counts = _prototypes(z, y)
    zn, z_norms = _unit_rows(z)
    pn, p_norms = _unit_rows(protos)
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
    dz = _unit_rows_backward(d_zn, zn, z_norms)
    d_protos = _unit_rows_backward(d_pn, pn, p_norms)
    dz += d_protos[y] / counts[y][:, None]
    return loss, _head_gradient(dz, u, z, v_norms)


def ncc_predict(head: LinearHead, support: tuple, query,
                normalize: bool = True) -> np.ndarray:
    """Classify query rows by cosine similarity to transformed class means.

    Ties resolve to the lower class id.
    """
    support_x, support_y = support
    zs = transform(head, support_x, normalize)
    y = as_labels(support_y, zs.shape[0])
    if int(y.max()) + 1 < 2:
        raise ValueError("nearest-centroid prediction needs at least two classes")
    zq = transform(head, query, normalize)
    protos, _ = _prototypes(zs, y)
    qn, _ = _unit_rows(zq)
    pn, _ = _unit_rows(protos)
    sims = qn @ pn.T
    return sims.argmax(axis=1)


def _times_radial_weight(cot: np.ndarray, k: np.ndarray, family: str, sigma: float,
                         out: np.ndarray) -> np.ndarray:
    """out = cot * 2 dk/dr at r = squared distance, the derivative expressed
    through the kernel value k; out may be cot."""
    np.multiply(cot, k, out=out)
    if family == IMQ:
        out *= k
        out *= k
    out /= -(sigma * sigma)
    return out


class _DependencePlan:
    """dependence_loss_and_grad for one support set with frozen bandwidths.

    What does not depend on the head is done once, here: the rows and labels
    are validated, the label cotangent is built in the label Gram's buffer
    (the Gram is not kept), and the m x m buffers every call works in are
    allocated: one kernel buffer, a second one only when the penalty has its
    own bandwidth, and the weight matrix w = d(loss)/d(d2). That is three
    m x m arrays, or four.

    Calling the plan on a head gives the loss and gradient without any m x m
    temporary: the distances are built in a kernel buffer and each kernel in
    place or from them, each loss term is one inner product of its kernel
    with the Gram cotangent the gradient uses (<Kt, C> = 2 weight hsic, see
    hsic._gram_cotangent), and the cotangents of both loss terms are summed
    in w and multiplied by the radial weight in place. The pull-back to the
    rows is dz = w.sum(1) z - w @ z.

    With row normalization the rows z are unit vectors, so the distances
    are 2 - 2 z z' (kernels._unit_sq_dist_matrix), and the pull-back is
    dz = -w @ z: the w.sum(1) z term is radial, and the normalization's
    backward pass removes it. That needs every row to have a direction:
    a support row, or a row of the head's output, whose norm squares below
    the smallest normal float64 is rejected by name, when the plan is built
    and at each call.
    """

    def __init__(self, embeddings, labels, sigma_zy: float, sigma_zz: float,
                 gamma: float, family: str, normalize: bool) -> None:
        if family not in RADIAL_FAMILIES:
            raise ValueError(
                "analytic gradient requires a radial kernel family (gaussian or imq)")
        self.u = as_embeddings(embeddings)
        m = self.u.shape[0]
        y = as_labels(labels, m)
        if m < 4:
            raise ValueError(f"unbiased estimator needs at least 4 samples, got {m}")
        if normalize:
            _check_row_norms(np.linalg.norm(self.u, axis=1), "in the embeddings")
        # the loss carries -dependence(z, labels); the cotangent overwrites the Gram
        lt = label_kernel_matrix(y, zero_diag=True)
        self.label_cotangent = _gram_cotangent(lt, lt.sum(axis=1), -1.0, lt)
        self.sigma_zy = sigma_zy
        self.sigma_zz = sigma_zz
        self.gamma = gamma
        self.family = family
        self.normalize = normalize
        self.k_zy = np.empty((m, m))
        own_zz = gamma > 0.0 and sigma_zz != sigma_zy
        self.k_zz = np.empty((m, m)) if own_zz else self.k_zy
        self.w = np.empty((m, m))

    def __call__(self, head: LinearHead) -> tuple[float, np.ndarray]:
        family, gamma = self.family, self.gamma
        k_zy, k_zz, w = self.k_zy, self.k_zz, self.w
        own_zz = k_zz is not k_zy
        z, norms = _forward(head, self.u, self.normalize)
        # the distances go to the buffer filled last, so each kernel reads
        # them before they are overwritten
        if norms is None:
            d2 = sq_dist_matrix(z, out=k_zz)
        else:
            _check_row_norms(norms, "after the head")
            d2 = _unit_sq_dist_matrix(z, out=k_zz)
        kzy = _zero_diag_kernel(d2, family, self.sigma_zy, k_zy)
        kzz = _zero_diag_kernel(d2, family, self.sigma_zz, k_zz) if own_zz else kzy
        # each loss term from its Gram cotangent: <Kt, C> = 2 weight hsic(Kt, Lt)
        loss = 0.5 * float(np.vdot(kzy, self.label_cotangent))
        # w = d(loss)/d(d2): each Gram cotangent times its kernel's radial weight
        if gamma == 0.0:
            _times_radial_weight(self.label_cotangent, kzy, family, self.sigma_zy, w)
        elif own_zz:
            _times_radial_weight(self.label_cotangent, kzy, family, self.sigma_zy, w)
            # kzy has been read; its buffer takes the penalty's cotangent
            cot = _gram_cotangent(kzz, kzz.sum(axis=1), 2.0 * gamma, k_zy)
            loss += 0.25 * float(np.vdot(kzz, cot))
            w += _times_radial_weight(cot, kzz, family, self.sigma_zz, cot)
        else:
            _gram_cotangent(kzz, kzz.sum(axis=1), 2.0 * gamma, w)
            loss += 0.25 * float(np.vdot(kzz, w))
            w += self.label_cotangent
            _times_radial_weight(w, kzy, family, self.sigma_zy, w)
        if norms is None:
            dz = w.sum(axis=1)[:, None] * z - w @ z
        else:  # the w.sum(1) z term is radial, and _unit_rows_backward removes it
            dz = -(w @ z)
        return loss, _head_gradient(dz, self.u, z, norms)


def dependence_loss_and_grad(head: LinearHead, embeddings, labels,
                             sigma_zy: float, sigma_zz: float, gamma: float,
                             family: str = GAUSSIAN,
                             normalize: bool = True) -> tuple[float, np.ndarray]:
    """-dependence(z, labels) + gamma * self-dependence(z, z) at
    z = transform(head, embeddings), and its analytic gradient w.r.t. the head.

    The first term uses the kernel at sigma_zy against the 0/1 label kernel;
    the penalty uses the kernel at sigma_zz against itself. Both kernels come
    from one squared-distance matrix, and each loss term is one inner product
    of its kernel with the Gram cotangent that feeds the gradient (the
    estimate is linear in its Gram; see hsic._gram_cotangent). The gradient
    chains that cotangent through the radial kernel derivative (radial
    families only), the optional row normalization, and the linear map; the
    penalty chains through both Gram arguments.

    run_episode builds the plan once per episode and calls it every step;
    this function builds it and calls it once.
    """
    return _DependencePlan(embeddings, labels, sigma_zy, sigma_zz, gamma,
                           family, normalize)(head)


def adadelta_step(state: AdadeltaState, head: LinearHead, grad,
                  learning_rate: float, weight_decay: float,
                  rho: float = 0.9, opt_eps: float = 1e-6
                  ) -> tuple[LinearHead, AdadeltaState]:
    """One Adadelta update with decoupled weight decay.

    sq_grad_avg  <- rho * sq_grad_avg + (1 - rho) g^2
    delta        =  -sqrt(sq_delta_avg + eps) / sqrt(sq_grad_avg + eps) * g
    sq_delta_avg <- rho * sq_delta_avg + (1 - rho) delta^2
    theta        <- theta + lr * delta, then theta <- theta - lr * wd * theta
    """
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != head.theta.shape:
        raise ValueError(f"gradient shape {g.shape} does not match head shape {head.theta.shape}")
    if not np.isfinite(g).all():
        raise ValueError("gradient contains non-finite entries")
    sq_grad = rho * state.sq_grad_avg + (1.0 - rho) * g * g
    delta = -np.sqrt(state.sq_delta_avg + opt_eps) / np.sqrt(sq_grad + opt_eps) * g
    sq_delta = rho * state.sq_delta_avg + (1.0 - rho) * delta * delta
    theta = head.theta + learning_rate * delta
    if weight_decay != 0.0:
        theta = theta - learning_rate * weight_decay * theta
    return LinearHead(theta), AdadeltaState(sq_grad, sq_delta)


@dataclass
class EpisodeResult:
    """What one episode produced, plus the task and row normalization it ran
    with (references, not copies).

    The similarity matrices and class boundaries are computed from the final
    head each time they are read, since only an export needs them.
    """

    final_head: LinearHead
    loss_trace: list[float]
    sigma_zy: float
    sigma_zz: float
    query_accuracy: float
    task: Task
    normalize: bool

    @property
    def support_similarity(self) -> np.ndarray:
        """m x m cosine similarities of the transformed support rows."""
        return cosine_gram(transform(self.final_head, self.task.support_x, self.normalize))

    @property
    def query_support_similarity(self) -> np.ndarray:
        """q x m cosine similarities of transformed query to support rows."""
        zs = transform(self.final_head, self.task.support_x, self.normalize)
        zq = transform(self.final_head, self.task.query_x, self.normalize)
        return _unit_rows(zq)[0] @ _unit_rows(zs)[0].T

    @property
    def class_boundaries(self) -> tuple[int, ...]:
        """Start row of each contiguous class block of the support labels."""
        changes = np.flatnonzero(np.diff(as_labels(self.task.support_y))) + 1
        return tuple([0, *changes.tolist()])


def run_episode(task, config: AdaptConfig | None = None) -> EpisodeResult:
    """Adapt a fresh identity head on the task's support set and score the query.

    Phases: select bandwidths on the untouched support representation (mode
    "mokd" only; the self-dependence bandwidth either reuses the selected
    coefficient on the same base or runs its own search), then run the
    configured number of update steps with those bandwidths frozen (mode
    "mokd" builds its label work once, in a plan every step calls), then
    classify the query set with the nearest-centroid rule.

    In mode "mokd" a support set where no class has two rows has an all-zero
    label kernel, so there is no dependence to fit: the episode runs no
    search and no step, keeps the identity head and an empty loss trace,
    and reports both bandwidths as NaN, as mode "ncc" does.
    """
    cfg = config if config is not None else AdaptConfig()
    support_x = as_embeddings(task.support_x)
    m, dim = support_x.shape
    if m < 4:
        raise ValueError(f"support set too small: need at least 4 rows, got {m}")
    support_y = as_labels(task.support_y, m)
    if int(support_y.max()) + 1 < 2:
        raise ValueError("support set must contain at least two classes")
    query_x = as_embeddings(task.query_x)
    query_y = np.asarray(task.query_y)
    if query_y.ndim != 1 or not np.issubdtype(query_y.dtype, np.integer):
        raise ValueError("query labels must be a 1-D integer vector, got shape "
                         f"{query_y.shape} and dtype {query_y.dtype}")
    if query_y.size != query_x.shape[0]:
        raise ValueError(f"expected {query_x.shape[0]} query labels, got {query_y.size}")

    head = LinearHead.identity(dim)
    state = AdadeltaState.zeros((dim, dim))
    steps = cfg.steps
    sigma_zy = sigma_zz = float("nan")

    if cfg.loss == "mokd" and np.bincount(support_y).max() < 2:
        steps = 0
    elif cfg.loss == "mokd":
        z0 = transform(head, support_x, cfg.normalize_features)
        selection = select_bandwidth(z0, support_y, cfg.kernel_family, cfg.grid)
        sigma_zy = selection.sigma
        if cfg.share_zz_coefficient:
            sigma_zz = sigma_zy
        else:
            sigma_zz = select_bandwidth(z0, z0, cfg.kernel_family, cfg.grid,
                                        _sigma_base=selection.sigma_base).sigma
        step = _DependencePlan(support_x, support_y, sigma_zy, sigma_zz, cfg.gamma,
                               cfg.kernel_family, cfg.normalize_features)
    else:
        def step(head):
            return ncc_loss_and_grad(head, support_x, support_y, cfg.normalize_features)

    trace: list[float] = []
    for _ in range(steps):
        loss, grad = step(head)
        head, state = adadelta_step(state, head, grad, cfg.learning_rate,
                                    cfg.weight_decay, cfg.rho, cfg.opt_eps)
        trace.append(loss)

    preds = ncc_predict(head, (support_x, support_y), query_x, cfg.normalize_features)
    accuracy = float((preds == query_y).mean())

    return EpisodeResult(
        final_head=head,
        loss_trace=trace,
        sigma_zy=sigma_zy,
        sigma_zz=sigma_zz,
        query_accuracy=accuracy,
        task=task,
        normalize=cfg.normalize_features,
    )
