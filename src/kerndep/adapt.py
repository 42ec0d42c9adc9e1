"""Linear-head episode adaptation.

A d x d head, initialized to the identity, is trained per task with Adadelta
on either the kernel-dependence objective (mode "mokd") or the plain
nearest-centroid cross-entropy (mode "ncc"). Bandwidths are selected once,
before the gradient loop, and stay frozen afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hsic import BandwidthGrid, DEFAULT_EPSILON, hsic_unbiased, select_bandwidth
from .kernels import (
    COSINE,
    GAUSSIAN,
    KERNEL_FAMILIES,
    RADIAL_FAMILIES,
    as_embeddings,
    as_labels,
    cosine_gram,
    kernel_from_sq_dists,
    label_kernel_matrix,
    sq_dist_matrix,
)

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
    """Episode hyperparameters.

    grid defaults to the standard coefficient list with this config's
    epsilon; pass an explicit BandwidthGrid to override both.
    """

    gamma: float = 3.0
    learning_rate: float = 0.25
    steps: int = 40
    weight_decay: float = 0.0
    epsilon: float = DEFAULT_EPSILON
    grid: BandwidthGrid | None = None
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
        if self.grid is None:
            self.grid = BandwidthGrid(epsilon=self.epsilon)


@dataclass
class EpisodeResult:
    final_head: LinearHead
    loss_trace: list[float]
    sigma_zy: float
    sigma_zz: float
    query_accuracy: float
    support_similarity: np.ndarray
    query_support_similarity: np.ndarray
    class_boundaries: tuple[int, ...]


def _normalize_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalize; zero rows are left as zeros. Returns (normalized, norms)."""
    norms = np.linalg.norm(v, axis=1)
    out = np.divide(v, norms[:, None], out=v.copy(), where=norms[:, None] > 0)
    return out, norms


def _normalize_rows_backward(d_out: np.ndarray, z: np.ndarray,
                             norms: np.ndarray) -> np.ndarray:
    """Pull a cotangent back through row normalization (z = v / ||v||)."""
    proj = d_out - (z * d_out).sum(axis=1, keepdims=True) * z
    d_in = np.divide(proj, norms[:, None], out=np.zeros_like(proj),
                     where=norms[:, None] > 0)
    return d_in


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
    return _normalize_rows(v)


def _head_gradient(dz: np.ndarray, u: np.ndarray, z: np.ndarray,
                   norms: np.ndarray | None) -> np.ndarray:
    """Pull a cotangent on z back to the head, through the optional row
    normalization and the linear map."""
    dv = dz if norms is None else _normalize_rows_backward(dz, z, norms)
    return dv.T @ u


def transform(head: LinearHead, embeddings, normalize: bool = True) -> np.ndarray:
    """Apply the head to every row, then optionally L2-normalize each row."""
    return _forward(head, as_embeddings(embeddings), normalize)[0]


def _prototypes(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n_classes = int(y.max()) + 1
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    protos = np.zeros((n_classes, z.shape[1]))
    np.add.at(protos, y, z)
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
    zn, z_norms = _normalize_rows(z)
    pn, p_norms = _normalize_rows(protos)
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
    dz = _normalize_rows_backward(d_zn, zn, z_norms)
    d_protos = _normalize_rows_backward(d_pn, pn, p_norms)
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
    qn, _ = _normalize_rows(zq)
    pn, _ = _normalize_rows(protos)
    sims = qn @ pn.T
    return sims.argmax(axis=1)


def _hsic_gram_cotangent(lt: np.ndarray, weight: float) -> np.ndarray:
    """weight * d(hsic_unbiased)/d(Kt) with Lt fixed, symmetrized, diagonal
    zeroed.

    The three estimator terms contribute Lt, a constant matrix, and a
    rank-one correction from the row sums of Lt.
    """
    m = lt.shape[0]
    c = 2.0 * weight / (m * (m - 3.0))
    l_rows = lt.sum(axis=1)
    gs = np.add.outer(l_rows, l_rows)
    gs *= -c / (m - 2.0)
    gs += c * float(l_rows.sum()) / ((m - 1.0) * (m - 2.0))
    gs += c * lt
    np.fill_diagonal(gs, 0.0)
    return gs


def _radial_weight(k: np.ndarray, family: str, sigma: float) -> np.ndarray:
    # 2 * d k / d r at r = squared distance, expressed through the kernel value
    if family == GAUSSIAN:
        return k / -(sigma * sigma)
    w = k * k
    w *= k
    w /= -(sigma * sigma)
    return w


def _zero_diag_kernel(d2: np.ndarray, family: str, sigma: float) -> np.ndarray:
    k = kernel_from_sq_dists(d2, family, sigma)
    np.fill_diagonal(k, 0.0)
    return k


class _DependencePlan:
    """dependence_loss_and_grad for one support set with frozen bandwidths.

    What does not depend on the head is done once, here: the rows and labels
    are validated, and the label Gram and its cotangent are built. Calling the
    plan on a head gives the loss and gradient. Each call builds one distance
    matrix and one kernel per distinct bandwidth, and sums the cotangents of
    both loss terms into one weight matrix, so the pull-back to the rows is
    one row-sum pass and one matrix product.
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
        self.lt = label_kernel_matrix(y, 1.0, 0.0, zero_diag=True)
        # the loss carries -dependence(z, labels)
        self.label_cotangent = _hsic_gram_cotangent(self.lt, -1.0)
        self.sigma_zy = sigma_zy
        self.sigma_zz = sigma_zz
        self.gamma = gamma
        self.family = family
        self.normalize = normalize

    def __call__(self, head: LinearHead) -> tuple[float, np.ndarray]:
        family, sigma_zy, sigma_zz = self.family, self.sigma_zy, self.sigma_zz
        z, norms = _forward(head, self.u, self.normalize)
        d2 = sq_dist_matrix(z)
        kzy = _zero_diag_kernel(d2, family, sigma_zy)
        loss = -hsic_unbiased(kzy, self.lt)
        # w = d(loss)/d(d2): each Gram cotangent times its kernel's radial weight
        if self.gamma == 0.0:
            w = self.label_cotangent * _radial_weight(kzy, family, sigma_zy)
        else:
            shared = sigma_zz == sigma_zy
            kzz = kzy if shared else _zero_diag_kernel(d2, family, sigma_zz)
            loss += self.gamma * hsic_unbiased(kzz, kzz)
            # the penalty depends on Kt twice, hence the factor 2
            w = _hsic_gram_cotangent(kzz, 2.0 * self.gamma)
            if shared:
                w += self.label_cotangent
                w *= _radial_weight(kzy, family, sigma_zy)
            else:
                w *= _radial_weight(kzz, family, sigma_zz)
                w += self.label_cotangent * _radial_weight(kzy, family, sigma_zy)
        dz = w.sum(axis=1)[:, None] * z - w @ z
        return float(loss), _head_gradient(dz, self.u, z, norms)


def dependence_loss_and_grad(head: LinearHead, embeddings, labels,
                             sigma_zy: float, sigma_zz: float, gamma: float,
                             family: str = GAUSSIAN,
                             normalize: bool = True) -> tuple[float, np.ndarray]:
    """-dependence(z, labels) + gamma * self-dependence(z, z) at
    z = transform(head, embeddings), and its analytic gradient w.r.t. the head.

    The first term uses the kernel at sigma_zy against the 0/1 label kernel;
    the penalty uses the kernel at sigma_zz against itself. Both kernels come
    from one squared-distance matrix, and each loss term is read from the
    Gram matrix whose cotangent feeds the gradient. The gradient chains that
    cotangent through the radial kernel derivative (radial families only),
    the optional row normalization, and the linear map; the penalty chains
    through both Gram arguments.

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


def _class_boundaries(y: np.ndarray) -> tuple[int, ...]:
    # start row of each contiguous class block
    changes = np.flatnonzero(np.diff(y)) + 1
    return tuple([0, *changes.tolist()])


def run_episode(task, config: AdaptConfig | None = None) -> EpisodeResult:
    """Adapt a fresh identity head on the task's support set and score the query.

    Phases: select bandwidths on the untouched support representation (mode
    "mokd" only; the self-dependence bandwidth either reuses the selected
    coefficient on the same base or runs its own search), then run the
    configured number of update steps with those bandwidths frozen (mode
    "mokd" builds its label work once, in a plan every step calls), then
    classify the query set with the nearest-centroid rule.
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

    head = LinearHead.identity(dim)
    state = AdadeltaState.zeros((dim, dim))

    if cfg.loss == "mokd":
        z0 = transform(head, support_x, cfg.normalize_features)
        selection = select_bandwidth(z0, support_y, cfg.kernel_family, cfg.grid)
        sigma_zy = selection.sigma
        if cfg.share_zz_coefficient:
            sigma_zz = selection.coefficient * selection.sigma_base
        else:
            sigma_zz = select_bandwidth(z0, z0, cfg.kernel_family, cfg.grid).sigma
        step = _DependencePlan(support_x, support_y, sigma_zy, sigma_zz, cfg.gamma,
                               cfg.kernel_family, cfg.normalize_features)
    else:
        sigma_zy = float("nan")
        sigma_zz = float("nan")

        def step(head):
            return ncc_loss_and_grad(head, support_x, support_y, cfg.normalize_features)

    trace: list[float] = []
    for _ in range(cfg.steps):
        loss, grad = step(head)
        head, state = adadelta_step(state, head, grad, cfg.learning_rate,
                                    cfg.weight_decay, cfg.rho, cfg.opt_eps)
        trace.append(loss)

    preds = ncc_predict(head, (support_x, support_y), query_x, cfg.normalize_features)
    accuracy = float((preds == query_y).mean())

    zs = transform(head, support_x, cfg.normalize_features)
    zq = transform(head, query_x, cfg.normalize_features)
    support_sim = cosine_gram(zs)
    zq_n, _ = _normalize_rows(zq)
    zs_n, _ = _normalize_rows(zs)
    query_sim = zq_n @ zs_n.T

    return EpisodeResult(
        final_head=head,
        loss_trace=trace,
        sigma_zy=sigma_zy,
        sigma_zz=sigma_zz,
        query_accuracy=accuracy,
        support_similarity=support_sim,
        query_support_similarity=query_sim,
        class_boundaries=_class_boundaries(support_y),
    )
