"""Evaluation harness, similarity exports, and the mean-exponential bound."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kerndep import adapt
from kerndep.adapt import AdaptConfig, EpisodeResult, LinearHead
from kerndep.evaluation import (
    EpisodeSummary,
    EvalReport,
    ci95,
    episode_rng,
    evaluate,
    similarity_export,
)
from kerndep.tasks import (
    EmbeddingDataset,
    SamplerConfig,
    Task,
    sample_task,
    synth_dataset,
    synth_task,
)
from oracles import exp_mean_bound_holds


def eval_pool(seed=0, separation=6.0, noise=1.0):
    return synth_dataset(8, 30, 8, separation, noise, np.random.default_rng(seed))


def quick_cfg(**kwargs):
    kwargs.setdefault("steps", 3)
    return AdaptConfig(**kwargs)


def test_episode_rng_seeds_from_base_and_index():
    a = episode_rng(7, 3)
    b = np.random.default_rng([7, 3])
    assert a.integers(0, 1_000_000, size=8).tolist() == b.integers(
        0, 1_000_000, size=8
    ).tolist()


def test_episode_rng_streams_are_distinct():
    draws = {tuple(episode_rng(0, i).integers(0, 10**9, size=4)) for i in range(20)}
    assert len(draws) == 20


def test_ci95_hand_value():
    # std([0, 1]) = sqrt(1/2), so 1.96 * sqrt(.5) / sqrt(2) = 0.98 exactly
    assert ci95([0.0, 1.0]) == pytest.approx(0.98, rel=1e-15)


def test_ci95_degenerate_cases():
    assert ci95([]) == 0.0
    assert ci95([0.7]) == 0.0
    assert ci95([0.5, 0.5, 0.5]) == 0.0


def test_ci95_second_hand_value():
    # sample std of (0.2, 0.4, 0.6) is 0.2, so 1.96 * 0.2 / sqrt(3)
    assert ci95([0.2, 0.4, 0.6]) == pytest.approx(0.2263213055223333, rel=1e-14)


def test_evaluate_same_seed_is_bit_identical():
    pool = eval_pool()
    a = evaluate(pool, SamplerConfig(seed=5), quick_cfg(), 4)
    b = evaluate(pool, SamplerConfig(seed=5), quick_cfg(), 4)
    assert a.mean_accuracy == b.mean_accuracy
    assert a.ci95 == b.ci95
    assert a.per_episode == b.per_episode


def test_evaluate_draws_episode_i_from_the_sampler_seed(monkeypatch):
    pool = eval_pool()
    sampler_cfg = SamplerConfig(seed=7)
    tasks = []

    def record(task, config=None):
        tasks.append(task)
        return fake_result()

    monkeypatch.setattr("kerndep.evaluation.run_episode", record)
    evaluate(pool, sampler_cfg, quick_cfg(), 3)
    assert len(tasks) == 3
    for i, task in enumerate(tasks):
        expected = sample_task(pool, sampler_cfg, episode_rng(7, i))
        assert np.array_equal(task.support_x, expected.support_x)
        assert np.array_equal(task.query_y, expected.query_y)


def test_evaluate_report_aggregates_its_own_rows():
    pool = eval_pool()
    report = evaluate(pool, SamplerConfig(seed=1), quick_cfg(), 5)
    assert isinstance(report, EvalReport)
    assert report.episodes == 5
    accs = [row.accuracy for row in report.per_episode]
    assert report.mean_accuracy == pytest.approx(float(np.mean(accs)), rel=1e-15)
    assert report.ci95 == pytest.approx(ci95(accs), rel=1e-15)
    assert [row.seed for row in report.per_episode] == [0, 1, 2, 3, 4]
    assert report.episode_results is None


def test_evaluate_keep_results_returns_full_episodes():
    pool = eval_pool()
    report = evaluate(pool, SamplerConfig(), quick_cfg(), 3, keep_results=True)
    assert report.episode_results is not None
    assert len(report.episode_results) == 3
    assert all(isinstance(r, EpisodeResult) for r in report.episode_results)
    for row, result in zip(report.per_episode, report.episode_results):
        assert row.accuracy == result.query_accuracy
        assert row.final_loss == result.loss_trace[-1]
    lean = evaluate(pool, SamplerConfig(), quick_cfg(), 3)  # the same report, no results
    assert lean.episode_results is None
    assert lean.per_episode == report.per_episode
    assert (lean.mean_accuracy, lean.ci95) == (report.mean_accuracy, report.ci95)


def test_evaluate_holds_nothing_of_a_finished_episode(monkeypatch):
    # every episode draws a fresh task of one size: 100 support and 75 query
    # rows of width 64, about 90 kB, which a kept result would hold
    def fixed_size_task(dataset, sampler_cfg, rng):
        return synth_task(5, 20, 15, 64, 6.0, 1.0, rng)

    monkeypatch.setattr("kerndep.evaluation.sample_task", fixed_size_task)
    pool = eval_pool()
    evaluate(pool, SamplerConfig(), quick_cfg(), 1)  # numpy's lazy imports

    def peak(n_episodes):
        tracemalloc.start()
        try:
            evaluate(pool, SamplerConfig(), quick_cfg(), n_episodes)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(12) <= peak(2) + 32_000  # ten more summaries, not one more task


def test_episode_drops_its_plan_before_prediction(monkeypatch):
    # the mokd plan holds an m x m buffer and three m x d arrays, which
    # prediction does not need: the episode's peak is the larger phase, not
    # their sum
    plans, alive_at_prediction = [], []

    class TrackedPlan(adapt._DependencePlan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(weakref.ref(self))

    predict = adapt._ncc_predict

    def checked_predict(*args, **kwargs):
        alive_at_prediction.extend(plan() is not None for plan in plans)
        return predict(*args, **kwargs)

    monkeypatch.setattr(adapt, "_DependencePlan", TrackedPlan)
    monkeypatch.setattr(adapt, "_ncc_predict", checked_predict)
    task = synth_task(5, 20, 15, 16, 6.0, 1.0, np.random.default_rng(6))
    result = adapt.run_episode(task, quick_cfg())
    assert len(result.loss_trace) == 3
    assert alive_at_prediction == [False]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_episode_plan_steps_on_the_rows_prediction_reads(monkeypatch, dtype):
    # one float64 copy of the support rows: the plan steps on the array the
    # episode validated, in the task's precision, and prediction reads it too
    plans, predicted = [], []

    class TrackedPlan(adapt._DependencePlan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    predict = adapt._ncc_predict

    def checked_predict(head, u, *args, **kwargs):
        predicted.append(u)
        return predict(head, u, *args, **kwargs)

    monkeypatch.setattr(adapt, "_DependencePlan", TrackedPlan)
    monkeypatch.setattr(adapt, "_ncc_predict", checked_predict)
    task = synth_task(5, 20, 15, 16, 6.0, 1.0, np.random.default_rng(6))
    if dtype == np.float32:
        task = Task(task.support_x.astype(np.float32), task.support_y, task.query_x,
                    task.query_y)
    adapt.run_episode(task, quick_cfg())
    [plan], [rows] = plans, predicted
    assert plan.u is rows
    assert rows.dtype == np.float64
    assert plan.kernel.dtype == dtype


def test_evaluate_rejects_zero_episodes():
    with pytest.raises(ValueError):
        evaluate(eval_pool(), SamplerConfig(), quick_cfg(), 0)


@pytest.mark.parametrize("n_episodes", [2.5, True, np.float64(2.0), "2"])
def test_evaluate_rejects_a_non_integer_episode_count(n_episodes):
    with pytest.raises(ValueError, match="n_episodes must be an integer"):
        evaluate(eval_pool(), SamplerConfig(), quick_cfg(), n_episodes)


def test_numpy_integer_seed_and_episode_count_run_their_int_values(monkeypatch):
    pool = eval_pool()
    tasks = []

    def record(task, config=None):
        tasks.append(task)
        return fake_result()

    monkeypatch.setattr("kerndep.evaluation.run_episode", record)
    report = evaluate(pool, SamplerConfig(seed=np.int64(3)), quick_cfg(), np.int64(2))
    assert report.episodes == len(tasks) == 2
    for i, task in enumerate(tasks):
        expected = sample_task(pool, SamplerConfig(seed=3), episode_rng(3, i))
        assert np.array_equal(task.support_x, expected.support_x)
        assert np.array_equal(task.query_y, expected.query_y)


def test_evaluate_wraps_episode_failures_with_index():
    # identical rows everywhere leave the median base scale undefined
    degenerate = EmbeddingDataset(
        classes=[np.ones((12, 4), dtype=np.float32) for _ in range(6)], d=4
    )
    with pytest.raises(RuntimeError, match="episode 0 failed"):
        evaluate(degenerate, SamplerConfig(), quick_cfg(), 2)


def fake_result(support_x=((1.0, 0.5), (0.5, 1.0)),
                query_x=((-1.0, 0.0), (1.0, 0.5), (0.25, -0.5))):
    """An identity-head result on a task with one support row per class."""
    support_x, query_x = np.array(support_x), np.array(query_x)
    task = Task(support_x, np.arange(len(support_x)), query_x,
                np.zeros(len(query_x), dtype=np.int64))
    return EpisodeResult(
        final_head=LinearHead.identity(2),
        loss_trace=[0.5, 0.25],
        sigma_zy=1.0,
        query_accuracy=1.0,
        task=task,
    )


def test_evaluate_reports_nan_final_loss_for_an_episode_without_steps(monkeypatch):
    def stepless(task, config=None):
        result = fake_result()
        result.loss_trace = []
        return result

    monkeypatch.setattr("kerndep.evaluation.run_episode", stepless)
    report = evaluate(eval_pool(), SamplerConfig(), quick_cfg(), 2)
    assert all(math.isnan(row.final_loss) for row in report.per_episode)


def test_evaluate_counts_the_episodes_that_ran_no_step():
    # on this pool the sampler gives every class of tasks 10 and 19 one
    # support row, so their mokd episodes run no search and no step
    pool = synth_dataset(12, 40, 16, 2.0, 0.5, np.random.default_rng(0))
    report = evaluate(pool, SamplerConfig(), quick_cfg(steps=1), 30)
    stepless = [ep.seed for ep in report.per_episode if math.isnan(ep.final_loss)]
    assert stepless == [10, 19]
    assert report.stepless_episodes == 2
    assert all(math.isnan(report.per_episode[i].sigma_zy) for i in stepless)
    assert report.mean_accuracy == np.mean([ep.accuracy for ep in report.per_episode])
    assert evaluate(pool, SamplerConfig(), quick_cfg(steps=1), 10).stepless_episodes == 0


def test_evaluate_runs_the_float32_step_on_a_float32_pool(monkeypatch):
    # datasets hold float32 rows, and sample_task hands them on as they are
    kernels = []

    class Recording(adapt._DependencePlan):
        def __init__(self, *args):
            super().__init__(*args)
            kernels.append(self.kernel.dtype)

    monkeypatch.setattr(adapt, "_DependencePlan", Recording)
    evaluate(eval_pool(), SamplerConfig(), quick_cfg(), 3)
    assert kernels == [np.float32] * 3


def test_similarity_export_csv_layout(tmp_path):
    result = fake_result()
    path = tmp_path / "sim.csv"
    similarity_export(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# class_boundaries: 0,1"
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.allclose(parsed, result.support_similarity, atol=1e-9)


def test_similarity_export_query_matrix(tmp_path):
    result = fake_result()
    path = tmp_path / "q.csv"
    similarity_export(result, path, which="query")
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 3
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.allclose(parsed, result.query_support_similarity, atol=1e-9)


def test_similarity_export_pgm_bytes(tmp_path):
    # support rows at 0, 90 and 180 degrees; query rows at 180 and 60 degrees
    deg60 = (0.5, math.sqrt(3.0) / 2.0)
    result = fake_result(support_x=((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)),
                         query_x=((-1.0, 0.0), deg60))
    path = tmp_path / "sim.pgm"
    similarity_export(result, path, fmt="pgm", which="query")
    blob = path.read_bytes()
    header = b"P5\n3 2\n255\n"
    assert blob.startswith(header)
    # pixel = round(255 (v + 1) / 2): -1 -> 0, 0 -> 128, 1 -> 255, 0.5 -> 191,
    # cos 30 deg -> 238, -0.5 -> 64
    assert blob[len(header):] == bytes([0, 128, 255, 191, 238, 64])


def test_similarity_export_rejects_unknown_selectors(tmp_path):
    result = fake_result()
    with pytest.raises(ValueError):
        similarity_export(result, tmp_path / "x.csv", which="both")
    with pytest.raises(ValueError):
        similarity_export(result, tmp_path / "x.png", fmt="png")


def test_exp_mean_bound_holds_on_simple_vectors():
    assert exp_mean_bound_holds(np.zeros(5))
    assert exp_mean_bound_holds(np.ones(5))
    assert exp_mean_bound_holds(np.array([0.0, 1.0]))
    assert exp_mean_bound_holds(np.linspace(0.0, 1.0, 101))


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 64))
def test_exp_mean_bound_holds_on_random_vectors(seed, n):
    values = np.random.default_rng(seed).random(n)
    assert exp_mean_bound_holds(values)


def test_exp_mean_bound_input_validation():
    with pytest.raises(ValueError):
        exp_mean_bound_holds(np.array([0.5, 1.2]))
    with pytest.raises(ValueError):
        exp_mean_bound_holds(np.array([-0.1]))
    with pytest.raises(ValueError):
        exp_mean_bound_holds(np.array([np.nan, 0.5]))
    with pytest.raises(ValueError):
        exp_mean_bound_holds(np.array([]))
    with pytest.raises(ValueError):
        exp_mean_bound_holds(np.ones((2, 2)))


def test_exp_mean_bound_slack_is_the_stated_constant():
    # the slack must make even the worst split of {0, 1} entries pass
    slack = math.e + (math.e - 1.0) * math.log(math.e - 1.0)
    assert slack == pytest.approx(3.6484304894336566, rel=1e-12)
    worst = np.array([0.0] * 50 + [1.0] * 50)
    lhs = math.exp(worst.mean())
    rhs = np.exp(worst).mean() - slack
    assert lhs >= rhs
    assert exp_mean_bound_holds(worst)


def test_summary_is_a_frozen_record():
    row = EpisodeSummary(seed=0, accuracy=1.0, sigma_zy=2.0, final_loss=0.1)
    with pytest.raises(Exception):
        row.accuracy = 0.5
