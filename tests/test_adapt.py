"""Episode adaptation: losses, hand-rolled gradients, optimizer, loop."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kerndep.adapt import (
    LOSS_MODES,
    AdadeltaState,
    AdaptConfig,
    EpisodeResult,
    LinearHead,
    _DependencePlan,
    adadelta_step,
    dependence_loss_and_grad,
    ncc_loss_and_grad,
    ncc_predict,
    run_episode,
    transform,
)
from kerndep.hsic import DEFAULT_GRID_COEFFICIENTS, BandwidthGrid, hsic_unbiased, select_bandwidth
from kerndep.kernels import (
    COSINE,
    GAUSSIAN,
    IMQ,
    cosine_gram,
    label_kernel_matrix,
    median_sq_distance,
    sq_dist_matrix,
)
from kerndep.tasks import Task, synth_task
from oracles import KernelSpec, kernel_matrix


def random_instance(seed, m=None, d=None):
    rng = np.random.default_rng(seed)
    m = m if m is not None else int(rng.integers(6, 13))
    d = d if d is not None else int(rng.integers(3, 7))
    u = rng.normal(size=(m, d))
    n_classes = int(rng.integers(2, 4))
    y = np.sort(rng.integers(0, n_classes, size=m))
    while np.unique(y).size < n_classes:
        y = np.sort(rng.integers(0, n_classes, size=m))
    theta = np.eye(d) + 0.1 * rng.normal(size=(d, d))
    return u, y, LinearHead(theta)


def edge_instances(seed):
    """A random instance, one at the estimator's minimum m = 4, and one whose
    first two support rows coincide."""
    dup_u, dup_y, dup_head = random_instance(seed + 2, m=8, d=3)
    dup_u[1] = dup_u[0]
    return [random_instance(seed), random_instance(seed + 1, m=4, d=3),
            (dup_u, dup_y, dup_head)]


def underflow_sigma(head, u, normalize):
    """0.001 x the median-heuristic base: the Gaussian underflows to 0 on
    all but near-coincident pairs."""
    return 0.001 * math.sqrt(median_sq_distance(transform(head, u, normalize)))


def reference_loss(head, u, y, sigma_zy, sigma_zz, gamma, family, normalize):
    """The objective assembled from the public Gram builder and estimator."""
    z = transform(head, u, normalize)
    kt = kernel_matrix(KernelSpec(family, sigma_zy), z, zero_diag=True)
    lt = label_kernel_matrix(y, zero_diag=True)
    loss = -hsic_unbiased(kt, lt)
    if gamma != 0.0:
        kzz = kernel_matrix(KernelSpec(family, sigma_zz), z, zero_diag=True)
        loss += gamma * hsic_unbiased(kzz, kzz)
    return loss


def fd_gradient(loss_fn, theta, step=1e-5):
    """Central differences entry by entry on the head matrix."""
    g = np.zeros_like(theta)
    for i in range(theta.shape[0]):
        for j in range(theta.shape[1]):
            plus = theta.copy()
            plus[i, j] += step
            minus = theta.copy()
            minus[i, j] -= step
            g[i, j] = (loss_fn(plus) - loss_fn(minus)) / (2.0 * step)
    return g


def rel_error(got, want):
    denom = max(np.linalg.norm(want), 1e-12)
    return np.linalg.norm(got - want) / denom


def test_linear_head_identity_and_dim():
    head = LinearHead.identity(3)
    assert np.array_equal(head.theta, np.eye(3))
    assert head.dim == 3


def test_linear_head_validation():
    with pytest.raises(ValueError):
        LinearHead(np.ones((2, 3)))
    with pytest.raises(ValueError):
        LinearHead(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_config_defaults_are_frozen():
    cfg = AdaptConfig()
    assert cfg.gamma == 3.0
    assert cfg.learning_rate == 0.25
    assert cfg.steps == 40
    assert cfg.weight_decay == 0.0
    assert cfg.epsilon == 1e-5
    assert cfg.kernel_family == GAUSSIAN
    assert cfg.share_zz_coefficient is True
    assert cfg.normalize_features is True
    assert cfg.loss == "mokd"
    assert cfg.rho == 0.9
    assert cfg.opt_eps == 1e-6
    assert isinstance(cfg.grid, BandwidthGrid)
    assert cfg.grid.epsilon == cfg.epsilon


def test_config_grid_inherits_custom_epsilon():
    cfg = AdaptConfig(epsilon=1e-3)
    assert cfg.grid.epsilon == 1e-3


def test_config_epsilon_and_coefficients_reach_the_search(monkeypatch):
    settings = {"epsilon": 1e-3, "grid_coefficients": (0.5, 2.0)}
    expected = BandwidthGrid((0.5, 2.0), 1e-3)
    replaced = dataclasses.replace(AdaptConfig(), **settings)
    assert AdaptConfig(**settings).grid == replaced.grid == expected
    with pytest.raises(AttributeError):
        replaced.grid = BandwidthGrid()
    replaced.epsilon = 1e-2
    assert replaced.grid == BandwidthGrid((0.5, 2.0), 1e-2)

    searches = []

    def recording_search(z, target, family, grid):
        searches.append((grid, select_bandwidth(z, target, family, grid)))
        return searches[-1][1]

    monkeypatch.setattr("kerndep.adapt.select_bandwidth", recording_search)
    result = run_episode(separable_task(6), AdaptConfig(steps=1, **settings))
    [(grid, selection)] = searches
    assert grid == expected
    assert selection.coefficient in (0.5, 2.0)
    assert result.sigma_zy == selection.sigma == selection.coefficient * selection.sigma_base


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gamma": -0.1},
        {"learning_rate": 0.0},
        {"steps": 0},
        {"steps": 2.5},
        {"weight_decay": -1.0},
        {"epsilon": 0.0},
        {"kernel_family": "triangle"},
        {"loss": "hinge"},
        {"rho": 1.0},
        {"rho": 0.0},
        {"opt_eps": 0.0},
        {"kernel_family": COSINE},  # cosine has no radial gradient path
    ],
)
def test_config_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        AdaptConfig(**kwargs)


@pytest.mark.parametrize("field", ["gamma", "learning_rate", "weight_decay", "epsilon",
                                   "opt_eps"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        AdaptConfig(**{field: value})


def test_config_allows_cosine_for_ncc_baseline():
    cfg = AdaptConfig(kernel_family=COSINE, loss="ncc")
    assert cfg.kernel_family == COSINE
    assert set(LOSS_MODES) == {"mokd", "ncc"}


def test_transform_identity_normalizes_rows():
    u = np.array([[3.0, 4.0], [0.0, 2.0], [0.0, 0.0]])
    z = transform(LinearHead.identity(2), u)
    assert np.allclose(np.linalg.norm(z[:2], axis=1), 1.0)
    assert np.array_equal(z[2], np.zeros(2))  # zero row passes through


def test_transform_unnormalized_is_plain_linear_map():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(5, 3))
    theta = rng.normal(size=(3, 3))
    z = transform(LinearHead(theta), u, normalize=False)
    assert np.allclose(z, u @ theta.T, atol=1e-15)


@given(seed=st.integers(0, 2**31 - 1))
def test_transform_rows_are_unit_norm(seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(6, 4)) + 0.1
    theta = np.eye(4) + 0.2 * rng.normal(size=(4, 4))
    z = transform(LinearHead(theta), u)
    norms = np.linalg.norm(z, axis=1)
    keep = norms > 0
    assert np.allclose(norms[keep], 1.0, atol=1e-12)


def test_dependence_loss_gamma_zero_is_negative_dependence():
    u, y, head = random_instance(1, m=10, d=4)
    z = transform(head, u)
    kt = kernel_matrix(KernelSpec(GAUSSIAN, 0.9), z, zero_diag=True)
    lt = label_kernel_matrix(y, zero_diag=True)
    loss, _ = dependence_loss_and_grad(head, u, y, 0.9, 1.7, 0.0, GAUSSIAN)
    assert loss == pytest.approx(-hsic_unbiased(kt, lt), rel=1e-12)


def test_dependence_loss_adds_weighted_self_term():
    u, y, head = random_instance(2, m=9, d=3)
    z = transform(head, u)
    base, _ = dependence_loss_and_grad(head, u, y, 1.1, 0.8, 0.0, GAUSSIAN)
    kzz = kernel_matrix(KernelSpec(GAUSSIAN, 0.8), z, zero_diag=True)
    self_term = hsic_unbiased(kzz, kzz)
    for gamma in (1.0, 3.0):
        loss, _ = dependence_loss_and_grad(head, u, y, 1.1, 0.8, gamma, GAUSSIAN)
        assert loss == pytest.approx(base + gamma * self_term, rel=1e-12)
    # m = 4, duplicate rows, unnormalized features, IMQ, underflowing bandwidth
    for u, y, head in edge_instances(20):
        for family, normalize, gamma in itertools.product(
                (GAUSSIAN, IMQ), (True, False), (0.0, 3.0)):
            tiny = underflow_sigma(head, u, normalize)
            for sigma_zy, sigma_zz in ((1.1, 0.8), (1.1, 1.1), (tiny, tiny)):
                args = (head, u, y, sigma_zy, sigma_zz, gamma, family, normalize)
                loss, _ = dependence_loss_and_grad(*args)
                assert loss == pytest.approx(reference_loss(*args), rel=1e-12)


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("gamma", [0.0, 3.0])
def test_unit_sphere_step_with_duplicate_rows_matches_the_reference(family, gamma,
                                                                   monkeypatch):
    u, y, head = random_instance(90, m=10, d=4)
    u[1] = u[0]  # an exact duplicate
    u[5] = u[4] + 1e-9  # a near duplicate, deep in the cancellation range
    tiny = underflow_sigma(head, u, True)
    for sigma_zy, sigma_zz in ((1.1, 0.8), (tiny, tiny)):
        args = (head, u, y, sigma_zy, sigma_zz, gamma, family, True)
        loss, grad = dependence_loss_and_grad(*args)
        assert loss == pytest.approx(reference_loss(*args), rel=1e-12)
        with monkeypatch.context() as patch:
            # the same step on the general distance builder
            patch.setattr("kerndep.adapt._unit_sq_dist_matrix", sq_dist_matrix)
            general_loss, general_grad = dependence_loss_and_grad(*args)
        assert loss == pytest.approx(general_loss, rel=1e-12)
        assert rel_error(grad, general_grad) <= 1e-12


@pytest.mark.parametrize("row", [np.zeros(3), np.full(3, 1e-160)])  # norm 0, square subnormal
def test_normalized_step_rejects_a_support_row_without_direction(row):
    u, y, head = random_instance(95, m=8, d=3)
    u[3] = row
    with pytest.raises(ValueError, match=r"support row 3 has norm .* in the embeddings"):
        dependence_loss_and_grad(head, u, y, 1.0, 1.0, 3.0, GAUSSIAN)
    loss, grad = dependence_loss_and_grad(head, u, y, 1.0, 1.0, 3.0, GAUSSIAN, normalize=False)
    assert math.isfinite(loss) and np.isfinite(grad).all()


@pytest.mark.parametrize("scale", [0.0, 1e-160])  # norm 0, square subnormal
def test_normalized_step_rejects_a_row_the_head_collapses(scale):
    u, y, _ = random_instance(96, m=8, d=3)
    u[3] = [2.0, 0.0, 0.0]
    theta = np.eye(3)
    theta[0, 0] = scale  # maps row 3 to (2 scale, 0, 0)
    plan = _DependencePlan(u, y, 1.0, 1.0, 3.0, GAUSSIAN, True)
    plan(LinearHead.identity(3))
    with pytest.raises(ValueError, match=r"support row 3 has norm .* after the head"):
        plan(LinearHead(theta))


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("sigmas", [(1e-160, 1.0), (1.0, 1e-160)])
def test_dependence_loss_rejects_underflowing_bandwidth(family, sigmas):
    rng = np.random.default_rng(61)
    u, y = rng.normal(size=(8, 3)), np.repeat([0, 1], 4)
    with pytest.raises(ValueError, match="underflows"):
        dependence_loss_and_grad(LinearHead.identity(3), u, y, *sigmas, 3.0, family)


def test_dependence_loss_needs_four_samples():
    with pytest.raises(ValueError):
        dependence_loss_and_grad(LinearHead.identity(3), np.eye(3), np.array([0, 1, 2]),
                                 1.0, 1.0, 1.0, GAUSSIAN)


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("gamma", [0.0, 3.0])
@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("sigma_zz", [1.1, 0.8])
def test_plan_reused_across_heads_matches_fresh_calls(family, gamma, normalize, sigma_zz):
    # sigma_zz = sigma_zy shares one kernel buffer; 0.8 gives the penalty its own
    u, y, head_a = random_instance(40, m=12, d=4)
    head_b = LinearHead(head_a.theta + 0.3 * np.random.default_rng(41).normal(size=(4, 4)))
    plan = _DependencePlan(u, y, 1.1, sigma_zz, gamma, family, normalize)
    for head in (head_a, head_b, head_a):
        loss, grad = plan(head)
        fresh_loss, fresh_grad = dependence_loss_and_grad(head, u, y, 1.1, sigma_zz, gamma,
                                                          family, normalize)
        assert loss == fresh_loss
        assert grad.tobytes() == fresh_grad.tobytes()


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("sigma_zz", [1.1, 0.8])
def test_warm_mokd_step_makes_no_m_by_m_temporary(family, sigma_zz):
    rng = np.random.default_rng(42)
    m, d = 200, 64
    u = rng.normal(size=(m, d))
    y = np.repeat(np.arange(5), m // 5)
    head = LinearHead(np.eye(d) + 0.05 * rng.normal(size=(d, d)))
    plan = _DependencePlan(u, y, 1.1, sigma_zz, 3.0, family, True)
    plan(head)
    tracemalloc.start()
    try:
        plan(head)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * m * m * 8  # bytes of two m x m float64 arrays


@pytest.mark.parametrize("sigma_zz, arrays", [(1.1, 3), (0.8, 4)])
def test_warm_plan_holds_no_label_gram(sigma_zz, arrays):
    # the label cotangent, one kernel buffer (two when the penalty has its
    # own bandwidth) and the weight matrix
    rng = np.random.default_rng(43)
    m, d = 200, 8
    u = rng.normal(size=(m, d))
    y = np.repeat(np.arange(5), m // 5)
    head = LinearHead(np.eye(d) + 0.05 * rng.normal(size=(d, d)))
    _DependencePlan(u, y, 1.1, sigma_zz, 3.0, GAUSSIAN, True)(head)  # warm-up
    tracemalloc.start()
    try:
        plan = _DependencePlan(u, y, 1.1, sigma_zz, 3.0, GAUSSIAN, True)
        plan(head)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held // (m * m * 8) == arrays  # whole m x m float64 arrays


def test_ncc_loss_hand_value():
    # orthonormal one-shot prototypes, query on its own prototype:
    # logits (1, 0), so the loss is log(1 + exp(-1))
    z = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([0, 1, 0])
    protos_loss, _ = ncc_loss_and_grad(LinearHead.identity(2), z[:2], y[:2])
    assert protos_loss == pytest.approx(math.log(1.0 + math.exp(-1.0)), rel=1e-14)


def test_ncc_predict_breaks_ties_toward_lower_class_id():
    head = LinearHead.identity(2)
    support = (np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
    query = np.array([[1.0, 1.0]])
    assert ncc_predict(head, support, query)[0] == 0


def test_ncc_predict_recovers_separated_classes():
    head = LinearHead.identity(2)
    support = (
        np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]]),
        np.array([0, 0, 1, 1]),
    )
    query = np.array([[0.95, 0.05], [0.05, 0.95]])
    assert ncc_predict(head, support, query).tolist() == [0, 1]


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("gamma", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("normalize", [True, False])
def test_dependence_gradient_matches_finite_differences(family, gamma, normalize):
    seed = 100 * (family == IMQ) + 10 * int(gamma) + int(normalize)
    # the random instance, m = 4, duplicate rows, then an underflowing bandwidth
    for u, y, head in edge_instances(seed):
        tiny = underflow_sigma(head, u, normalize)
        for sigma_zy, sigma_zz in ((1.2, 0.8), (tiny, tiny)):

            def loss_at(theta):
                return dependence_loss_and_grad(LinearHead(theta), u, y, sigma_zy,
                                                sigma_zz, gamma, family, normalize)[0]

            loss, grad = dependence_loss_and_grad(head, u, y, sigma_zy, sigma_zz,
                                                  gamma, family, normalize)
            assert math.isfinite(loss) and np.isfinite(grad).all()
            fd = fd_gradient(loss_at, head.theta)
            assert rel_error(grad, fd) <= 1e-4


@pytest.mark.parametrize("normalize", [True, False])
def test_ncc_gradient_matches_finite_differences(normalize):
    u, y, head = random_instance(77, m=9, d=4)

    def loss_at(theta):
        return ncc_loss_and_grad(LinearHead(theta), u, y, normalize)[0]

    _, grad = ncc_loss_and_grad(head, u, y, normalize)
    fd = fd_gradient(loss_at, head.theta)
    assert rel_error(grad, fd) <= 1e-4


def test_dependence_gradient_rejects_cosine_family():
    u, y, head = random_instance(5, m=8, d=3)
    with pytest.raises(ValueError):
        dependence_loss_and_grad(head, u, y, 1.0, 1.0, 1.0, COSINE, True)


def test_adadelta_single_step_hand_arithmetic():
    head = LinearHead(np.array([[1.0]]))
    state = AdadeltaState.zeros((1, 1))
    g = 2.0
    rho, eps, lr = 0.9, 1e-6, 0.25

    sq_grad = (1.0 - rho) * g * g
    delta = -math.sqrt(0.0 + eps) / math.sqrt(sq_grad + eps) * g
    sq_delta = (1.0 - rho) * delta * delta
    theta = 1.0 + lr * delta

    new_head, new_state = adadelta_step(state, head, np.array([[g]]), lr, 0.0)
    assert new_head.theta[0, 0] == pytest.approx(theta, rel=1e-15)
    assert new_state.sq_grad_avg[0, 0] == pytest.approx(sq_grad, rel=1e-15)
    assert new_state.sq_delta_avg[0, 0] == pytest.approx(sq_delta, rel=1e-15)


def test_adadelta_weight_decay_is_decoupled():
    head = LinearHead(np.array([[1.0]]))
    state = AdadeltaState.zeros((1, 1))
    lr, wd = 0.25, 0.2
    no_decay, _ = adadelta_step(state, head, np.array([[2.0]]), lr, 0.0)
    decayed, _ = adadelta_step(state, head, np.array([[2.0]]), lr, wd)
    assert decayed.theta[0, 0] == pytest.approx(
        no_decay.theta[0, 0] * (1.0 - lr * wd), rel=1e-15
    )


def test_adadelta_threads_accumulators_across_steps():
    rho, eps, lr = 0.9, 1e-6, 0.5
    head = LinearHead(np.array([[0.0]]))
    state = AdadeltaState.zeros((1, 1))
    theta, eg, ed = 0.0, 0.0, 0.0
    for g in (1.0, -3.0, 0.5):
        eg = rho * eg + (1.0 - rho) * g * g
        delta = -math.sqrt(ed + eps) / math.sqrt(eg + eps) * g
        ed = rho * ed + (1.0 - rho) * delta * delta
        theta = theta + lr * delta
        head, state = adadelta_step(state, head, np.array([[g]]), lr, 0.0)
    assert head.theta[0, 0] == pytest.approx(theta, rel=1e-14)
    assert state.sq_grad_avg[0, 0] == pytest.approx(eg, rel=1e-14)
    assert state.sq_delta_avg[0, 0] == pytest.approx(ed, rel=1e-14)


def test_adadelta_rejects_bad_gradients():
    head = LinearHead.identity(2)
    state = AdadeltaState.zeros((2, 2))
    with pytest.raises(ValueError):
        adadelta_step(state, head, np.ones((3, 3)), 0.1, 0.0)
    with pytest.raises(ValueError):
        adadelta_step(state, head, np.full((2, 2), np.inf), 0.1, 0.0)


def separable_task(seed=0):
    return synth_task(5, 10, 10, 16, 6.0, 1.0, np.random.default_rng([606060, seed]))


def test_episode_on_separable_task_reaches_perfect_accuracy():
    result = run_episode(separable_task())
    assert result.query_accuracy == 1.0
    assert len(result.loss_trace) == 40
    assert result.loss_trace[-1] < result.loss_trace[0]
    assert result.sigma_zy > 0.0
    assert result.sigma_zz > 0.0


def test_episode_is_deterministic():
    a = run_episode(separable_task(3))
    b = run_episode(separable_task(3))
    assert a.loss_trace == b.loss_trace
    assert np.array_equal(a.final_head.theta, b.final_head.theta)
    assert a.query_accuracy == b.query_accuracy
    assert a.sigma_zy == b.sigma_zy


def count_episode_builds(count, task, share, steps):
    targets = ("kerndep.adapt._unit_sq_dist_matrix", "kerndep.adapt.sq_dist_matrix",
               "kerndep.hsic.sq_dist_matrix",
               "kerndep.kernels.sq_dist_matrix", "kerndep.hsic.median_sq_distance",
               "kerndep.adapt.label_kernel_matrix",
               "kerndep.kernels.kernel_from_sq_dists", "kerndep.hsic.kernel_from_sq_dists",
               "kerndep.hsic.hsic_unbiased", "kerndep.hsic.hsic_variance",
               "kerndep.hsic._gram_rows", "kerndep.adapt._gram_cotangent")
    for target in targets:
        count(target)
    return run_episode(task, AdaptConfig(steps=steps, share_zz_coefficient=share))


def test_mokd_step_builds_one_distance_matrix(call_counts):
    counts, count = call_counts
    steps = 3
    count_episode_builds(count, separable_task(8), share=True, steps=steps)
    assert counts == {
        "kerndep.adapt._unit_sq_dist_matrix": steps,  # one per step, on unit rows
        "kerndep.adapt.sq_dist_matrix": 0,
        "kerndep.hsic.sq_dist_matrix": 0,  # the label search reads row blocks
        "kerndep.kernels.sq_dist_matrix": 0,  # and so does the median
        "kerndep.hsic.median_sq_distance": 1,
        "kerndep.adapt.label_kernel_matrix": 1,  # one per episode
        # the step's zero-diagonal kernel, shared by both loss terms
        "kerndep.kernels.kernel_from_sq_dists": steps,
        # the label search's kernel row blocks, one block here: 0.001's
        # Gaussian kernel rounds to 0 and is skipped, 0.01's does not
        "kerndep.hsic.kernel_from_sq_dists": len(DEFAULT_GRID_COEFFICIENTS) - 1,
        "kerndep.hsic.hsic_unbiased": 0,  # the loss is read from the kernel's sums
        "kerndep.hsic.hsic_variance": 0,  # the search reads its variance from rows
        "kerndep.hsic._gram_rows": 0,  # the label search reads class sums
        # the label cotangent once per episode, and the penalty's once per step
        "kerndep.adapt._gram_cotangent": 1 + steps,
    }


def test_mokd_own_search_builds_one_distance_matrix_per_search(call_counts):
    counts, count = call_counts
    steps = 3
    # this task's two searches pick different bandwidths, so each step needs two kernels
    result = count_episode_builds(count, separable_task(4), share=False, steps=steps)
    assert result.sigma_zz != result.sigma_zy
    assert counts == {
        "kerndep.adapt._unit_sq_dist_matrix": steps,
        "kerndep.adapt.sq_dist_matrix": 0,
        "kerndep.hsic.sq_dist_matrix": 1,  # the self search only, once for both sides
        "kerndep.kernels.sq_dist_matrix": 0,
        "kerndep.hsic.median_sq_distance": 1,  # the self search takes the label search's base
        "kerndep.adapt.label_kernel_matrix": 1,
        # two zero-diagonal kernels per step, and one per coefficient in the self search
        "kerndep.kernels.kernel_from_sq_dists": 2 * steps + len(DEFAULT_GRID_COEFFICIENTS),
        # 0.001's Gaussian kernel rounds to 0 in the label search and is
        # skipped, 0.01's does not; the self search evaluates every one
        "kerndep.hsic.kernel_from_sq_dists": len(DEFAULT_GRID_COEFFICIENTS) - 1,
        "kerndep.hsic.hsic_unbiased": 0,
        "kerndep.hsic.hsic_variance": 0,
        "kerndep.hsic._gram_rows": len(DEFAULT_GRID_COEFFICIENTS),  # the self search only
        "kerndep.adapt._gram_cotangent": 1 + steps,
    }


def test_own_self_search_shares_the_label_search_base(monkeypatch):
    # on this task's unit rows sq_dist_matrix and the row blocks round the
    # median differently; both searches must still read one base
    selections = []

    def recording(*args, **kwargs):
        selections.append(select_bandwidth(*args, **kwargs))
        return selections[-1]

    monkeypatch.setattr("kerndep.adapt.select_bandwidth", recording)
    task = separable_task(2)
    result = run_episode(task, AdaptConfig(steps=1, share_zz_coefficient=False))
    by_labels, by_self = selections
    assert by_labels.sigma_base == by_self.sigma_base
    z0 = transform(LinearHead.identity(task.support_x.shape[1]), task.support_x)
    assert by_labels.sigma_base == math.sqrt(median_sq_distance(z0))
    assert (result.sigma_zy, result.sigma_zz) == (by_labels.sigma, by_self.sigma)


def test_episode_with_no_same_class_pair_keeps_the_identity_head(monkeypatch):
    # one support row per class: the zero-diagonal label kernel is all zero
    rng = np.random.default_rng(97)
    support_x = rng.normal(size=(6, 4))
    support_y = np.array([2, 0, 5, 1, 4, 3])
    query_x = np.repeat(support_x, 2, axis=0) + 0.5 * rng.normal(size=(12, 4))
    task = Task(support_x, support_y, query_x, np.repeat(support_y, 2))

    def no_search(*args, **kwargs):
        raise AssertionError("a bandwidth search ran")

    monkeypatch.setattr("kerndep.adapt.select_bandwidth", no_search)
    for family in (GAUSSIAN, IMQ):
        result = run_episode(task, AdaptConfig(kernel_family=family))
        assert np.array_equal(result.final_head.theta, np.eye(4))
        assert result.loss_trace == []
        assert math.isnan(result.sigma_zy) and math.isnan(result.sigma_zz)
        preds = ncc_predict(LinearHead.identity(4), (support_x, support_y), query_x)
        assert result.query_accuracy == float((preds == task.query_y).mean())


def test_episode_rejects_malformed_query_labels():
    task = separable_task(7)
    for query_y in (np.array([1]), task.query_y.astype(np.float64), task.query_y[:, None]):
        bad = type(task)(
            support_x=task.support_x,
            support_y=task.support_y,
            query_x=task.query_x[:6] if query_y.size == 1 else task.query_x,
            query_y=query_y,
        )
        with pytest.raises(ValueError, match="query labels"):
            run_episode(bad, AdaptConfig(steps=1))


def test_episode_shared_mode_reuses_zy_bandwidth():
    result = run_episode(separable_task(1))
    assert result.sigma_zz == result.sigma_zy


def test_episode_own_search_mode_matches_manual_selection():
    task = separable_task(2)
    cfg = AdaptConfig(share_zz_coefficient=False, steps=1)
    result = run_episode(task, config=cfg)
    z0 = transform(LinearHead.identity(16), task.support_x)
    expected = select_bandwidth(z0, z0, cfg.kernel_family, cfg.grid).sigma
    assert result.sigma_zz == expected


def test_episode_ncc_mode_skips_bandwidth_selection():
    result = run_episode(separable_task(4), config=AdaptConfig(loss="ncc"))
    assert math.isnan(result.sigma_zy)
    assert math.isnan(result.sigma_zz)
    assert result.query_accuracy == 1.0
    assert result.loss_trace[-1] < result.loss_trace[0]


@pytest.mark.parametrize("normalize", [True, False])
def test_episode_builds_similarity_matrices_only_when_read(call_counts, normalize):
    counts, count = call_counts
    count("kerndep.adapt.cosine_gram")
    task = separable_task(6)
    result = run_episode(task, AdaptConfig(steps=2, normalize_features=normalize))
    assert counts["kerndep.adapt.cosine_gram"] == 0
    support = result.support_similarity
    assert counts["kerndep.adapt.cosine_gram"] == 1
    zs = transform(result.final_head, task.support_x, normalize)
    zq = transform(result.final_head, task.query_x, normalize)
    assert support.tobytes() == cosine_gram(zs).tobytes()
    unit = [v / np.linalg.norm(v, axis=1, keepdims=True) for v in (zq, zs)]
    assert result.query_support_similarity.tobytes() == (unit[0] @ unit[1].T).tobytes()
    assert counts["kerndep.adapt.cosine_gram"] == 1


def test_episode_records_class_boundaries():
    result = run_episode(separable_task(5))
    assert result.class_boundaries == (0, 10, 20, 30, 40)


def test_episode_similarity_matrices_have_expected_shape_and_range():
    result = run_episode(separable_task(6))
    assert isinstance(result, EpisodeResult)
    assert result.support_similarity.shape == (50, 50)
    assert result.query_support_similarity.shape == (50, 50)
    assert np.abs(result.support_similarity).max() <= 1.0 + 1e-12
    assert np.abs(result.query_support_similarity).max() <= 1.0 + 1e-12


def test_episode_rejects_tiny_or_single_class_support():
    task = separable_task(7)
    small = type(task)(
        support_x=task.support_x[:3],
        support_y=np.array([0, 0, 1]),
        query_x=task.query_x,
        query_y=task.query_y,
    )
    with pytest.raises(ValueError):
        run_episode(small)
    one_class = type(task)(
        support_x=task.support_x[:10],
        support_y=np.zeros(10, dtype=np.int64),
        query_x=task.query_x,
        query_y=task.query_y,
    )
    with pytest.raises(ValueError):
        run_episode(one_class)
