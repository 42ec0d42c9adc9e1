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
    AdadeltaState,
    AdaptConfig,
    EpisodeResult,
    LinearHead,
    _DependencePlan,
    _unit_rows_backward,
    adadelta_step,
    dependence_loss_and_grad,
    ncc_loss_and_grad,
    ncc_predict,
    run_episode,
    transform,
)
from kerndep.hsic import DEFAULT_GRID_COEFFICIENTS, BandwidthGrid, select_bandwidth
from kerndep.kernels import (
    GAUSSIAN,
    IMQ,
    KERNEL_FAMILIES,
    _ROW_BLOCK,
    _unit_rows,
    _unit_zero_diag_kernel,
    kernel_from_sq_dists,
    median_sq_distance,
    sq_dist_matrix,
)
from kerndep.tasks import Task, synth_task
from oracles import (
    KernelSpec,
    adadelta_update,
    gram_cotangent,
    hsic_unbiased,
    kernel_matrix,
    label_kernel_matrix,
)


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


# the bandwidths the step tests run at; UNDERFLOW_EDGE stands for
# underflow_sigma of the test's own instance
UNDERFLOW_EDGE = "underflow-edge"
SIGMAS = (1.1, 0.8, UNDERFLOW_EDGE)


def bandwidth(sigma, head, u, normalize):
    return underflow_sigma(head, u, normalize) if sigma == UNDERFLOW_EDGE else sigma


def reference_loss(head, u, y, sigma, gamma, family, normalize):
    """The objective assembled from the public Gram builder and estimator."""
    z = transform(head, u, normalize)
    kt = kernel_matrix(KernelSpec(family, sigma), z, zero_diag=True)
    lt = label_kernel_matrix(y, zero_diag=True)
    loss = -hsic_unbiased(kt, lt)
    if gamma != 0.0:
        loss += gamma * hsic_unbiased(kt, kt)
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
    # an absolute floor, not a relative one: at the underflow-edge Gaussian
    # bandwidth with a 1e-9 near-duplicate pair the mokd gradient is rounding
    # only (norm about 1e-14), and no relative check on it can hold
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
    replaced = dataclasses.replace(replaced, epsilon=1e-2)
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


def test_config_is_frozen_so_its_check_cannot_be_bypassed():
    cfg = AdaptConfig()
    for field, value in (("loss", "mokdd"), ("steps", -3), ("epsilon", 1e-2)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
    assert cfg == AdaptConfig()
    with pytest.raises(ValueError, match="loss mode must be one of"):
        dataclasses.replace(cfg, loss="mokdd")
    with pytest.raises(ValueError, match="steps must be an integer >= 1"):
        dataclasses.replace(cfg, steps=-3)


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
        {"kernel_family": "cosine"},  # not a kernel family, with either loss
        {"kernel_family": "cosine", "loss": "ncc"},
        {"steps": True},
        {"steps": np.float64(3.0)},
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


@pytest.mark.parametrize("value", [0.0, -1e-3, math.inf, math.nan, True, "1e-5"])
def test_config_checks_epsilon_by_the_grid_rule(value):
    # the grid is the one check of epsilon: the config raises its error
    with pytest.raises(ValueError) as grid_error:
        BandwidthGrid(epsilon=value)
    with pytest.raises(ValueError) as config_error:
        AdaptConfig(epsilon=value)
    assert str(config_error.value) == str(grid_error.value)


@pytest.mark.parametrize("field", ["gamma", "learning_rate", "weight_decay", "epsilon",
                                   "opt_eps", "rho"])
@pytest.mark.parametrize("value", [True, False, "0.5", None])
def test_config_rejects_a_float_field_that_is_not_a_number(field, value):
    # Python counts a bool as an int, but True is no learning rate
    with pytest.raises(ValueError, match=f"{field} must be a real number, got {value!r}"):
        AdaptConfig(**{field: value})


@pytest.mark.parametrize("coefficients, bad", [((True, 2.0), True), ((1.0, "2"), "'2'")])
def test_config_rejects_a_grid_coefficient_that_is_not_a_number(coefficients, bad):
    with pytest.raises(ValueError, match=f"grid coefficient must be a real number, got {bad}"):
        AdaptConfig(grid_coefficients=coefficients)


@pytest.mark.parametrize("value", ["no", 0, 1, None, np.float64(1.0)])
def test_config_rejects_a_normalize_flag_that_is_not_a_bool(value):
    # "no" is truthy, so it must not be read as a setting
    with pytest.raises(ValueError, match="normalize_features must be a bool"):
        AdaptConfig(normalize_features=value)


def test_config_accepts_python_ints_and_numpy_reals():
    config = AdaptConfig(gamma=1, learning_rate=np.float32(0.5), weight_decay=np.int64(0),
                         epsilon=np.float64(1e-5), rho=np.float16(0.5), opt_eps=1e-6,
                         grid_coefficients=(1, np.float64(2.0)),
                         normalize_features=np.bool_(False))
    assert config.grid_coefficients == (1.0, 2.0)
    assert not config.normalize_features


def test_transform_identity_normalizes_rows():
    u = np.array([[3.0, 4.0], [0.0, 2.0], [0.0, 0.0]])
    z = transform(LinearHead.identity(2), u[:2])
    assert np.allclose(np.linalg.norm(z, axis=1), 1.0)
    with pytest.raises(ValueError, match=r"^row 2 has norm 0\.0 after the head"):
        transform(LinearHead.identity(2), u)  # a zero row has no direction


# a row of norm 0, and one whose norm squares below the smallest normal float64
NO_DIRECTION = [0.0, 1e-160]
BELOW = "its square is below the smallest normal float64"


@pytest.mark.parametrize("scale", NO_DIRECTION)
def test_transform_rejects_a_row_without_direction(scale):
    u, _, head = random_instance(91, m=6, d=3)
    u[4] = scale
    with pytest.raises(ValueError, match=rf"^row 4 has norm .* after the head: {BELOW}"):
        transform(head, u)
    assert np.isfinite(transform(head, u, normalize=False)).all()


@pytest.mark.parametrize("scale", NO_DIRECTION)
@pytest.mark.parametrize("normalize", [True, False])
def test_ncc_loss_rejects_a_support_row_without_direction(scale, normalize):
    u, y, head = random_instance(92, m=8, d=3)
    u[3] = scale
    with pytest.raises(ValueError, match=rf"^support row 3 has norm .* after the head: {BELOW}"):
        ncc_loss_and_grad(head, u, y, normalize)


@pytest.mark.parametrize("scale", NO_DIRECTION)
@pytest.mark.parametrize("normalize", [True, False])
def test_ncc_loss_rejects_a_class_prototype_without_direction(scale, normalize):
    u = np.random.default_rng(93).normal(size=(6, 3))
    y = np.array([0, 0, 1, 1, 2, 2])
    u[2], u[3] = [2.0 * scale, 1.0, 0.0], [0.0, -1.0, 0.0]  # opposite rows at scale 0
    with pytest.raises(ValueError, match=rf"^class prototype 1 has norm \S+: {BELOW}"):
        ncc_loss_and_grad(LinearHead.identity(3), u, y, normalize)


@pytest.mark.parametrize("scale", NO_DIRECTION)
@pytest.mark.parametrize("normalize", [True, False])
def test_ncc_predict_rejects_a_query_row_without_direction(scale, normalize):
    u, y, head = random_instance(94, m=8, d=3)
    query = np.random.default_rng(95).normal(size=(5, 3))
    query[2] = scale
    with pytest.raises(ValueError, match=rf"^query row 2 has norm .* after the head: {BELOW}"):
        ncc_predict(head, (u, y), query, normalize)


def ncc_loss_call(head, u, y, query):
    return ncc_loss_and_grad(head, u, y)


def ncc_predict_call(head, u, y, query):
    return ncc_predict(head, (u, y), query)


@pytest.mark.parametrize("call, what", [(ncc_loss_call, "loss"),
                                        (ncc_predict_call, "prediction")])
def test_public_ncc_functions_validate_their_own_inputs(call, what):
    u, y, head = random_instance(96, m=8, d=3)
    query = np.random.default_rng(97).normal(size=(5, 3))
    assert call(head, u, y, query) is not None
    bad_u = u.copy()
    bad_u[2, 1] = np.nan
    with pytest.raises(ValueError, match="^embedding matrix contains non-finite entries$"):
        call(head, bad_u, y, query)
    with pytest.raises(ValueError, match="^expected 8 labels, got 7$"):
        call(head, u, y[:7], query)
    with pytest.raises(ValueError, match=f"^nearest-centroid {what} needs at least two classes$"):
        call(head, u, np.zeros(8, dtype=np.int64), query)
    if what == "prediction":
        bad_query = query.copy()
        bad_query[4, 0] = np.inf
        with pytest.raises(ValueError, match="^embedding matrix contains non-finite entries$"):
            call(head, u, y, bad_query)


@pytest.mark.parametrize("scale", NO_DIRECTION)
@pytest.mark.parametrize("normalize", [True, False])
def test_similarity_exports_reject_a_row_without_direction(scale, normalize):
    task = separable_task(7)
    result = run_episode(task, AdaptConfig(steps=2, normalize_features=normalize))
    task.support_x[3] = scale
    # both matrices read the unit rows after the head, whatever the episode's
    # row normalization
    with pytest.raises(ValueError, match=rf"^support row 3 has norm .* after the head: {BELOW}"):
        result.support_similarity
    with pytest.raises(ValueError, match=rf"^support row 3 has norm .* after the head: {BELOW}"):
        result.query_support_similarity


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
    loss, _ = dependence_loss_and_grad(head, u, y, 0.9, 0.0, GAUSSIAN)
    assert loss == pytest.approx(-hsic_unbiased(kt, lt), rel=1e-12)


def test_dependence_loss_adds_weighted_self_term():
    u, y, head = random_instance(2, m=9, d=3)
    z = transform(head, u)
    base, _ = dependence_loss_and_grad(head, u, y, 1.1, 0.0, GAUSSIAN)
    kt = kernel_matrix(KernelSpec(GAUSSIAN, 1.1), z, zero_diag=True)
    self_term = hsic_unbiased(kt, kt)
    for gamma in (1.0, 3.0):
        loss, _ = dependence_loss_and_grad(head, u, y, 1.1, gamma, GAUSSIAN)
        assert loss == pytest.approx(base + gamma * self_term, rel=1e-12)
    # m = 4, duplicate rows, unnormalized features, IMQ, underflowing bandwidth
    for u, y, head in edge_instances(20):
        for family, normalize, gamma, sigma in itertools.product(
                (GAUSSIAN, IMQ), (True, False), (0.0, 3.0), SIGMAS):
            args = (head, u, y, bandwidth(sigma, head, u, normalize), gamma, family,
                    normalize)
            loss, _ = dependence_loss_and_grad(*args)
            assert loss == pytest.approx(reference_loss(*args), rel=1e-12)


def zero_diag_kernel(z, family, sigma, out=None):
    """The radial kernel of sq_dist_matrix's distances with its diagonal set
    to 0, in out if given."""
    kt = kernel_from_sq_dists(sq_dist_matrix(z, out=out), family, sigma, out)
    np.fill_diagonal(kt, 0.0)
    return kt


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("gamma", [0.0, 3.0])
def test_unit_sphere_step_with_duplicate_rows_matches_the_reference(family, gamma,
                                                                   monkeypatch):
    u, y, head = random_instance(90, m=10, d=4)
    u[1] = u[0]  # an exact duplicate
    u[5] = u[4] + 1e-9  # a near duplicate, deep in the cancellation range
    for sigma in SIGMAS:
        args = (head, u, y, bandwidth(sigma, head, u, True), gamma, family, True)
        loss, grad = dependence_loss_and_grad(*args)
        assert loss == pytest.approx(reference_loss(*args), rel=1e-12)
        with monkeypatch.context() as patch:
            # the same step with its kernel from the general distance builder
            patch.setattr("kerndep.adapt._unit_zero_diag_kernel", zero_diag_kernel)
            general_loss, general_grad = dependence_loss_and_grad(*args)
        assert loss == pytest.approx(general_loss, rel=1e-12)
        assert rel_error(grad, general_grad) <= 1e-12


@pytest.mark.parametrize("row", [np.zeros(3), np.full(3, 1e-160)])  # norm 0, square subnormal
def test_normalized_step_rejects_a_support_row_without_direction(row):
    u, y, head = random_instance(95, m=8, d=3)
    u[3] = row
    with pytest.raises(ValueError, match=r"support row 3 has norm .* in the embeddings"):
        dependence_loss_and_grad(head, u, y, 1.0, 3.0, GAUSSIAN)
    loss, grad = dependence_loss_and_grad(head, u, y, 1.0, 3.0, GAUSSIAN, normalize=False)
    assert math.isfinite(loss) and np.isfinite(grad).all()


@pytest.mark.parametrize("scale", [0.0, 1e-160])  # norm 0, square subnormal
def test_normalized_step_rejects_a_row_the_head_collapses(scale):
    u, y, _ = random_instance(96, m=8, d=3)
    u[3] = [2.0, 0.0, 0.0]
    theta = np.eye(3)
    theta[0, 0] = scale  # maps row 3 to (2 scale, 0, 0)
    plan = _DependencePlan(u, y, 1.0, 3.0, GAUSSIAN, True)
    plan(LinearHead.identity(3))
    with pytest.raises(ValueError, match=r"support row 3 has norm .* after the head"):
        plan(LinearHead(theta))


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("gamma", [0.0, 3.0])
def test_dependence_loss_rejects_underflowing_bandwidth(family, gamma):
    rng = np.random.default_rng(61)
    u, y = rng.normal(size=(8, 3)), np.repeat([0, 1], 4)
    with pytest.raises(ValueError, match="underflows"):
        dependence_loss_and_grad(LinearHead.identity(3), u, y, 1e-160, gamma, family)


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("normalize", [True, False])
def test_dependence_loss_rejects_overflowing_bandwidth(family, normalize):
    # sigma^2 = inf: the kernel's scale would be 0, and on unit rows the
    # step's -inf diagonal would multiply to NaN
    rng = np.random.default_rng(61)
    u, y = rng.normal(size=(8, 3)), np.repeat([0, 1], 4)
    with pytest.raises(ValueError, match=r"^bandwidth 1e\+200 overflows"):
        dependence_loss_and_grad(LinearHead.identity(3), u, y, 1e200, 3.0, family, normalize)


def test_run_episode_rejects_a_grid_coefficient_whose_bandwidth_overflows():
    # a weakly separated task: a constant kernel's estimate, exactly 0, would
    # beat the negative ratio at 0.75 and be selected
    task = synth_task(5, 10, 15, 16, 1.0, 1.5, np.random.default_rng([3, 9]))
    with pytest.raises(ValueError, match=r"^bandwidth coefficient 1e\+160 times base \S+: "
                                         r"bandwidth \S+ overflows"):
        run_episode(task, AdaptConfig(grid_coefficients=(0.75, 1e160)))


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("normalize", [True, False])
def test_first_gamma0_loss_is_minus_the_selected_estimate(family, normalize):
    # the search reads its estimate from three row statistics of the support
    # kernel (hsic._label_rows_hsic), the step from its Gram cotangent
    # (_DependencePlan): at gamma 0 the first loss is minus the estimate at
    # the selected bandwidth
    for seed in range(10):
        task = synth_task(5, 10, 15, 16, 3.0, 1.5, np.random.default_rng([seed, 31]))
        cfg = AdaptConfig(gamma=0.0, steps=1, kernel_family=family,
                          normalize_features=normalize)
        result = run_episode(task, cfg)
        z0 = transform(LinearHead.identity(16), task.support_x, normalize)
        sel = select_bandwidth(z0, task.support_y, family, cfg.grid)
        assert sel.sigma == result.sigma_zy
        value = sel.table[cfg.grid.coefficients.index(sel.coefficient)].value
        assert result.loss_trace[0] == pytest.approx(-value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_kernel_maps_an_infinite_distance_to_exactly_zero(family, sigma):
    # the bandwidth search writes +inf where its kernels must read 0, at
    # every bandwidth the step runs at, the underflow edge included
    u, _, head = random_instance(46)
    sigma = bandwidth(sigma, head, u, True)
    d2 = np.array([[np.inf, 0.0], [np.inf, np.inf]])
    with np.errstate(all="raise"):  # no floating-point warning, underflow included
        k = kernel_from_sq_dists(d2, family, sigma)
    assert k.tobytes() == np.array([[0.0, 1.0], [0.0, 0.0]]).tobytes()


def test_dependence_loss_needs_four_samples():
    with pytest.raises(ValueError):
        dependence_loss_and_grad(LinearHead.identity(3), np.eye(3), np.array([0, 1, 2]),
                                 1.0, 1.0, GAUSSIAN)


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("gamma", [0.0, 3.0])
@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_plan_reused_across_heads_matches_fresh_calls(family, gamma, normalize, sigma):
    u, y, head_a = random_instance(40, m=12, d=4)
    head_b = LinearHead(head_a.theta + 0.3 * np.random.default_rng(41).normal(size=(4, 4)))
    sigma = bandwidth(sigma, head_a, u, normalize)
    plan = _DependencePlan(u, y, sigma, gamma, family, normalize)
    for head in (head_a, head_b, head_a):
        loss, grad = plan(head)
        fresh_loss, fresh_grad = dependence_loss_and_grad(head, u, y, sigma, gamma,
                                                          family, normalize)
        assert loss == fresh_loss
        assert grad.tobytes() == fresh_grad.tobytes()


def dense_cotangent_step(head, u, y, sigma, gamma, family, normalize):
    """The mokd step from the dense label Gram, the oracle Gram cotangents
    and the radial weight, on the kernel the step's own builder makes."""
    z, norms = _unit_rows(u @ head.theta.T) if normalize else (u @ head.theta.T, None)
    if normalize:
        kt = _unit_zero_diag_kernel(z, family, sigma)
    else:
        kt = zero_diag_kernel(z, family, sigma)
    lt = label_kernel_matrix(y, zero_diag=True)
    cot = gram_cotangent(lt, lt.sum(axis=1), -1.0, np.empty_like(lt))
    loss = 0.5 * np.vdot(kt, cot)
    if gamma != 0.0:
        self_cot = gram_cotangent(kt, kt.sum(axis=1), 2.0 * gamma, np.empty_like(kt))
        loss += 0.25 * np.vdot(kt, self_cot)
        cot += self_cot
    # 2 dk/d(d2) = -k / sigma^2, and -k^3 / sigma^2 for the IMQ
    w = cot * kt ** (3 if family == IMQ else 1) / -(sigma * sigma)
    dz = w.sum(axis=1)[:, None] * z - w @ z
    if normalize:
        dz = _unit_rows_backward(dz, z, norms)
    return loss, dz.T @ u


def check_plan_against_dense_oracle(m, family, gamma, normalize, sigma, order):
    u, y, head = random_instance(44, m=m, d=4)
    if order == "shuffled":
        rows = np.random.default_rng(45).permutation(m)
        u, y = u[rows], y[rows]
        assert (np.diff(y) < 0).any()
    sigma = bandwidth(sigma, head, u, normalize)
    loss, grad = _DependencePlan(u, y, sigma, gamma, family, normalize)(head)
    want_loss, want_grad = dense_cotangent_step(head, u, y, sigma, gamma, family, normalize)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    assert rel_error(grad, want_grad) <= 1e-12


PLAN_CASES = {"family": [GAUSSIAN, IMQ], "gamma": [0.0, 3.0], "normalize": [True, False],
              "sigma": SIGMAS, "order": ["sorted", "shuffled"]}


@pytest.mark.parametrize("family", PLAN_CASES["family"])
@pytest.mark.parametrize("gamma", PLAN_CASES["gamma"])
@pytest.mark.parametrize("normalize", PLAN_CASES["normalize"])
@pytest.mark.parametrize("sigma", PLAN_CASES["sigma"])
@pytest.mark.parametrize("order", PLAN_CASES["order"])
def test_plan_matches_dense_cotangent_oracle(family, gamma, normalize, sigma, order):
    check_plan_against_dense_oracle(12, family, gamma, normalize, sigma, order)


@pytest.mark.parametrize("m", [_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1])
def test_plan_matches_dense_cotangent_oracle_across_row_blocks(m):
    # the plan builds its index and writes its weights a row block at a time
    for case in itertools.product(*PLAN_CASES.values()):
        check_plan_against_dense_oracle(m, *case)


# The float32 step (normalized float32 rows) against the float64 step on
# the same rows: loss and gradient to this relative bound.
FLOAT32_STEP_RTOL = 1e-5


def float32_instance(m, order, seed=46):
    """float32 rows like a sampled task's: m // 6 classes of 6 or 7 rows
    (sorted or shuffled labels), each around its own mean at separation 6 on
    orthonormal directions, noise 1.5, d = 64; and a head 0.05 from the
    identity. The more classes, the more the loss cancels, and the more a
    float32 sum in place of a float64 one shows."""
    rng = np.random.default_rng(seed)
    d = 64
    y = np.arange(m) % (m // 6)
    y = np.sort(y) if order == "sorted" else rng.permutation(y)
    means = 6.0 * np.linalg.qr(rng.normal(size=(d, m // 6)))[0].T
    u = (means[y] + 1.5 * rng.normal(size=(m, d))).astype(np.float32)
    head = LinearHead(np.eye(d) + 0.05 * rng.normal(size=(d, d)))
    return u, y, head


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("gamma", [0.0, 3.0])
@pytest.mark.parametrize("order", ["sorted", "shuffled"])
@pytest.mark.parametrize("m", [_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1])
def test_float32_plan_matches_the_float64_plan(family, gamma, order, m):
    u, y, head = float32_instance(m, order)
    plan = _DependencePlan(u, y, 1.0, gamma, family, True)
    wide = _DependencePlan(u.astype(np.float64), y, 1.0, gamma, family, True)
    assert plan.kernel.dtype == np.float32 and wide.kernel.dtype == np.float64
    for _ in range(2):  # the second call reuses the buffers
        loss, grad = plan(head)
        want_loss, want_grad = wide(head)
        assert grad.dtype == np.float64
        assert loss == pytest.approx(want_loss, rel=FLOAT32_STEP_RTOL)
        assert rel_error(grad, want_grad) <= FLOAT32_STEP_RTOL


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("gamma", [0.0, 3.0])
def test_float32_plan_gradient_matches_finite_differences(family, gamma):
    # criterion 04's bound, on central differences of the float64 loss; the
    # duplicate-row instance reaches the float32 kernel's close-pair path
    for (u, y, head), sigma in itertools.product(edge_instances(70), (1.1, 0.8)):
        u32 = u.astype(np.float32)
        u = u32.astype(np.float64)
        plan = _DependencePlan(u32, y, sigma, gamma, family, True)
        assert plan.kernel.dtype == np.float32

        def loss_at(theta):
            return dependence_loss_and_grad(LinearHead(theta), u, y, sigma, gamma, family)[0]

        assert rel_error(plan(head)[1], fd_gradient(loss_at, head.theta)) <= 1e-4


@pytest.mark.parametrize("normalize, sigma", [(False, 1.1), (True, 2.0**-63)])
def test_raw_rows_and_tiny_bandwidths_keep_the_float64_step(normalize, sigma):
    # a float32 Gram's map needs sigma^2 >= 2**-124 (kernels._FLOAT32_SIGMA_SQ)
    u, y, head = float32_instance(20, "sorted")
    plan = _DependencePlan(u, y, sigma, 3.0, GAUSSIAN, normalize)
    wide = _DependencePlan(u.astype(np.float64), y, sigma, 3.0, GAUSSIAN, normalize)
    assert plan.kernel.dtype == np.float64
    loss, grad = plan(head)
    want_loss, want_grad = wide(head)
    assert loss == want_loss and grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("gamma", [0.0, 3.0])
def test_warm_float32_step_makes_no_m_by_m_temporary(family, gamma):
    m = 200
    u, y, head = float32_instance(m, "shuffled")
    plan = _DependencePlan(u, y, 1.0, gamma, family, True)
    plan(head)
    tracemalloc.start()
    try:
        plan(head)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * m * m * 4  # bytes of two m x m float32 arrays


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_warm_mokd_step_makes_no_m_by_m_temporary(family, sigma):
    rng = np.random.default_rng(42)
    m, d = 200, 64
    u = rng.normal(size=(m, d))
    y = np.repeat(np.arange(5), m // 5)
    head = LinearHead(np.eye(d) + 0.05 * rng.normal(size=(d, d)))
    plan = _DependencePlan(u, y, bandwidth(sigma, head, u, True), 3.0, family, True)
    plan(head)
    tracemalloc.start()
    try:
        plan(head)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * m * m * 8  # bytes of two m x m float64 arrays


@pytest.mark.parametrize("gamma", [0.0, 3.0])
def test_warm_plan_holds_no_label_gram(gamma):
    # one buffer for the kernel and the weights; the label term keeps only
    # the same-class index
    rng = np.random.default_rng(43)
    m, d = 200, 8
    u = rng.normal(size=(m, d))
    y = np.repeat(np.arange(5), m // 5)
    head = LinearHead(np.eye(d) + 0.05 * rng.normal(size=(d, d)))
    _DependencePlan(u, y, 1.1, gamma, GAUSSIAN, True)(head)  # warm-up
    tracemalloc.start()
    try:
        plan = _DependencePlan(u, y, 1.1, gamma, GAUSSIAN, True)
        plan(head)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held // (m * m * 8) == 1  # whole m x m float64 arrays


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("gamma", [0.0, 3.0])
@pytest.mark.parametrize("order", ["sorted", "shuffled"])
def test_cold_plan_build_and_step_peak_at_one_m_by_m_array(family, gamma, order):
    rng = np.random.default_rng(48)
    m, d = 300, 8
    u = rng.normal(size=(m, d))
    y = np.repeat(np.arange(10), m // 10)
    if order == "shuffled":
        y = rng.permutation(y)
    head = LinearHead(np.eye(d) + 0.05 * rng.normal(size=(d, d)))
    _DependencePlan(u[:8], y[:8] % 2, 1.1, gamma, family, True)(LinearHead.identity(d))
    tracemalloc.start()  # after numpy's lazy imports
    try:
        plan = _DependencePlan(u, y, 1.1, gamma, family, True)
        plan(head)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the kernel buffer, the same-class index, two row blocks (the scratch,
    # and a block's part of the index and of its entries), and the m x d rows
    # and pull-back: the loss reads no copy of the index's entries
    index = plan.same_class.nbytes
    assert peak <= m * m * 8 + index + 2 * _ROW_BLOCK * m * 8 + 4 * m * d * 8


@pytest.mark.parametrize("family", [GAUSSIAN, IMQ])
@pytest.mark.parametrize("gamma", [0.0, 3.0])
def test_warm_step_sums_the_label_term_without_copying_it(family, gamma):
    # two equal classes in shuffled order: the same-class entries are half of
    # Kt, and the step sums them one row block at a time, so its temporaries
    # stay below one row block
    rng = np.random.default_rng(49)
    m, d = 600, 8
    u = rng.normal(size=(m, d))
    y = rng.permutation(np.repeat(np.arange(2), m // 2))
    head = LinearHead(np.eye(d) + 0.05 * rng.normal(size=(d, d)))
    plan = _DependencePlan(u, y, 1.1, gamma, family, True)
    plan(head)
    tracemalloc.start()
    try:
        plan(head)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.same_class.nbytes > 4 * _ROW_BLOCK * m * 8
    assert peak < _ROW_BLOCK * m * 8


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
    # the random instance, m = 4 and duplicate rows, each up to an
    # underflowing bandwidth
    for (u, y, head), sigma in itertools.product(edge_instances(seed), SIGMAS):
        sigma = bandwidth(sigma, head, u, normalize)

        def loss_at(theta):
            return dependence_loss_and_grad(LinearHead(theta), u, y, sigma, gamma, family,
                                            normalize)[0]

        loss, grad = dependence_loss_and_grad(head, u, y, sigma, gamma, family, normalize)
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
    with pytest.raises(ValueError, match="unknown kernel family 'cosine'"):
        dependence_loss_and_grad(head, u, y, 1.0, 1.0, "cosine", True)


def test_every_family_check_gives_one_message():
    u, y, _ = random_instance(6, m=8, d=3)
    message = f"unknown kernel family 'cosine'; expected one of {KERNEL_FAMILIES}"
    checks = (lambda: AdaptConfig(kernel_family="cosine"),
              lambda: select_bandwidth(u, y, "cosine"),
              lambda: kernel_from_sq_dists(np.zeros((3, 3)), "cosine", 1.0),
              lambda: _DependencePlan(u, y, 1.0, 3.0, "cosine", True))
    for check in checks:
        with pytest.raises(ValueError) as exc:
            check()
        assert str(exc.value) == message


def test_plan_rejects_a_family_before_its_buffers():
    m = 400
    u = np.random.default_rng(7).normal(size=(m, 3))
    y = np.repeat([0, 1], m // 2)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="unknown kernel family"):
            _DependencePlan(u, y, 1.0, 3.0, "cosine", True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * m * 8  # not one m x m float64 array


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
    lr, wd = 0.25, 0.2
    # each update from its own head and state: the step writes into both
    no_decay, _ = adadelta_step(AdadeltaState.zeros((1, 1)), LinearHead(np.array([[1.0]])),
                                np.array([[2.0]]), lr, 0.0)
    decayed, _ = adadelta_step(AdadeltaState.zeros((1, 1)), LinearHead(np.array([[1.0]])),
                               np.array([[2.0]]), lr, wd)
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


@pytest.mark.parametrize("d", [16, 64, 512])
@pytest.mark.parametrize("weight_decay", [0.0, 0.25])
def test_adadelta_writes_the_functional_update_in_place(d, weight_decay):
    rng = np.random.default_rng([d, int(100 * weight_decay)])
    theta = np.eye(d) + 0.1 * rng.normal(size=(d, d))
    head, state = LinearHead(theta.copy()), AdadeltaState.zeros((d, d))
    want = (np.zeros((d, d)), np.zeros((d, d)), theta)
    arrays = (state.sq_grad_avg, state.sq_delta_avg, head.theta)
    for _ in range(40):
        g = 10.0 ** rng.uniform(-6.0, 0.0) * rng.normal(size=(d, d))
        new_head, new_state = adadelta_step(state, head, g, 0.25, weight_decay)
        assert new_head is head and new_state is state
        want = adadelta_update(*want, g, 0.25, weight_decay)
    got = (state.sq_grad_avg, state.sq_delta_avg, head.theta)
    assert all(a is b for a, b in zip(got, arrays))  # written into, not replaced
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


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


def test_episode_is_deterministic():
    a = run_episode(separable_task(3))
    b = run_episode(separable_task(3))
    assert a.loss_trace == b.loss_trace
    assert np.array_equal(a.final_head.theta, b.final_head.theta)
    assert a.query_accuracy == b.query_accuracy
    assert a.sigma_zy == b.sigma_zy


def count_episode_builds(count, task, steps, loss="mokd"):
    targets = ("kerndep.adapt._unit_zero_diag_kernel", "kerndep.adapt.sq_dist_matrix",
               "kerndep.kernels.sq_dist_matrix", "kerndep.hsic.median_sq_distance",
               "kerndep.kernels.kernel_from_sq_dists", "kerndep.hsic.kernel_from_sq_dists",
               "kerndep.adapt.as_embeddings", "kerndep.adapt.as_labels")
    for target in targets:
        count(target)
    return run_episode(task, AdaptConfig(steps=steps, loss=loss))


def test_mokd_step_builds_one_distance_matrix(call_counts):
    counts, count = call_counts
    steps = 3
    count_episode_builds(count, separable_task(8), steps=steps)
    assert counts == {
        "kerndep.adapt._unit_zero_diag_kernel": steps,  # one per step, on unit rows
        "kerndep.adapt.sq_dist_matrix": 0,
        # the label search reads row blocks, and so does the median
        "kerndep.kernels.sq_dist_matrix": 0,
        "kerndep.hsic.median_sq_distance": 1,
        # the step reads its kernel from the Gram, checked once per episode
        "kerndep.kernels.kernel_from_sq_dists": 0,
        # the label search's kernel row blocks, one block here: 0.001's
        # Gaussian kernel rounds to 0 and is skipped, 0.01's does not
        "kerndep.hsic.kernel_from_sq_dists": len(DEFAULT_GRID_COEFFICIENTS) - 1,
        # run_episode validates the support and query rows and the support
        # labels once; the plan and the prediction take them as they are
        "kerndep.adapt.as_embeddings": 2,
        "kerndep.adapt.as_labels": 1,
    }
    # an ncc episode builds no kernel and validates once too: its steps and
    # its prediction read the same arrays (7 and 5 calls when each re-validated)
    result = count_episode_builds(count, separable_task(8), steps=steps, loss="ncc")
    assert len(result.loss_trace) == steps
    assert counts == {**dict.fromkeys(counts, 0),
                      "kerndep.adapt.as_embeddings": 2, "kerndep.adapt.as_labels": 1}


def no_search(*args, **kwargs):
    raise AssertionError("a bandwidth search ran")


def test_episode_with_no_same_class_pair_keeps_the_identity_head(monkeypatch):
    # one support row per class: the zero-diagonal label kernel is all zero
    rng = np.random.default_rng(97)
    support_x = rng.normal(size=(6, 4))
    support_y = np.array([2, 0, 5, 1, 4, 3])
    query_x = np.repeat(support_x, 2, axis=0) + 0.5 * rng.normal(size=(12, 4))
    task = Task(support_x, support_y, query_x, np.repeat(support_y, 2))
    monkeypatch.setattr("kerndep.adapt.select_bandwidth", no_search)
    for family in (GAUSSIAN, IMQ):
        result = run_episode(task, AdaptConfig(kernel_family=family))
        assert np.array_equal(result.final_head.theta, np.eye(4))
        assert result.loss_trace == []
        assert math.isnan(result.sigma_zy)
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


def test_episode_rejects_query_rows_of_another_width_before_the_search(monkeypatch):
    monkeypatch.setattr("kerndep.adapt.select_bandwidth", no_search)
    task = synth_task(5, 5, 3, 8, 4.0, 1.0, np.random.default_rng(0))
    narrow = dataclasses.replace(task, query_x=task.query_x[:, :5])
    with pytest.raises(ValueError, match="query rows have width 5, support rows 8"):
        run_episode(narrow)


@pytest.mark.parametrize("shift", [5, -5, 1, -1])
def test_episode_rejects_query_labels_outside_the_support_classes(monkeypatch, shift):
    monkeypatch.setattr("kerndep.adapt.select_bandwidth", no_search)
    task = synth_task(5, 5, 3, 8, 4.0, 1.0, np.random.default_rng(0))
    bad = dataclasses.replace(task, query_y=task.query_y + shift)
    with pytest.raises(ValueError, match=r"query labels must lie in \[0, 5\)"):
        run_episode(bad)


def test_episode_plan_uses_the_label_bandwidth_for_both_terms(monkeypatch):
    plans = []

    class RecordingPlan(_DependencePlan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    monkeypatch.setattr("kerndep.adapt._DependencePlan", RecordingPlan)
    task = separable_task(2)
    cfg = AdaptConfig(steps=1)
    result = run_episode(task, cfg)
    [plan] = plans
    z0 = transform(LinearHead.identity(16), task.support_x)
    expected = select_bandwidth(z0, task.support_y, cfg.kernel_family, cfg.grid).sigma
    assert plan.sigma == result.sigma_zy == expected


def test_config_steps_accepts_numpy_integers():
    assert AdaptConfig(steps=np.int64(2)).steps == 2


def test_episode_ncc_mode_skips_bandwidth_selection():
    result = run_episode(separable_task(4), config=AdaptConfig(loss="ncc"))
    assert math.isnan(result.sigma_zy)
    assert result.query_accuracy == 1.0
    assert result.loss_trace[-1] < result.loss_trace[0]


@pytest.mark.parametrize("normalize", [True, False])
def test_episode_builds_similarity_matrices_only_when_read(monkeypatch, normalize):
    rows, built = EpisodeResult._rows, []

    def counted_rows(self, embeddings, what):
        built.append(what)
        return rows(self, embeddings, what)

    monkeypatch.setattr(EpisodeResult, "_rows", counted_rows)
    task = separable_task(6)
    result = run_episode(task, AdaptConfig(steps=2, normalize_features=normalize))
    assert built == []
    support = result.support_similarity
    assert built == ["support row"]
    query = result.query_support_similarity
    assert built == ["support row", "support row", "query row"]
    # cosine of the rows: the unit rows after the head, whatever the episode ran with
    zs = transform(result.final_head, task.support_x)
    zq = transform(result.final_head, task.query_x)
    gram = zs @ zs.T
    np.fill_diagonal(gram, 1.0)
    assert support.tobytes() == gram.tobytes()
    assert query.tobytes() == (zq @ zs.T).tobytes()


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
