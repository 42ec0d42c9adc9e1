"""Evaluation harness, similarity exports, and the mean-exponential bound."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kerndep.adapt import AdaptConfig, EpisodeResult, LinearHead
from kerndep.evaluation import (
    EpisodeSummary,
    EvalReport,
    ci95,
    episode_rng,
    evaluate,
    similarity_export,
)
from kerndep.tasks import EmbeddingDataset, SamplerConfig, Task, TaskProvenance, synth_dataset
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
    a = evaluate(pool, SamplerConfig(), quick_cfg(), 4, base_seed=5)
    b = evaluate(pool, SamplerConfig(), quick_cfg(), 4, base_seed=5)
    assert a.mean_accuracy == b.mean_accuracy
    assert a.ci95 == b.ci95
    assert a.per_episode == b.per_episode


def test_evaluate_parallel_matches_serial():
    pool = eval_pool()
    serial = evaluate(pool, SamplerConfig(), quick_cfg(), 6, base_seed=2, jobs=1)
    threaded = evaluate(pool, SamplerConfig(), quick_cfg(), 6, base_seed=2, jobs=3)
    assert serial.mean_accuracy == threaded.mean_accuracy
    assert serial.per_episode == threaded.per_episode


def test_evaluate_report_aggregates_its_own_rows():
    pool = eval_pool()
    report = evaluate(pool, SamplerConfig(), quick_cfg(), 5, base_seed=1)
    assert isinstance(report, EvalReport)
    assert report.episodes == 5
    accs = [row.accuracy for row in report.per_episode]
    assert report.mean_accuracy == pytest.approx(float(np.mean(accs)), rel=1e-15)
    assert report.ci95 == pytest.approx(ci95(accs), rel=1e-15)
    assert [row.seed for row in report.per_episode] == [0, 1, 2, 3, 4]
    assert report.episode_results is None


def test_evaluate_keep_results_returns_full_episodes():
    pool = eval_pool()
    report = evaluate(pool, SamplerConfig(), quick_cfg(), 3, base_seed=0,
                      keep_results=True)
    assert report.episode_results is not None
    assert len(report.episode_results) == 3
    assert all(isinstance(r, EpisodeResult) for r in report.episode_results)
    for row, result in zip(report.per_episode, report.episode_results):
        assert row.accuracy == result.query_accuracy
        assert row.final_loss == result.loss_trace[-1]


def test_evaluate_rejects_zero_episodes():
    with pytest.raises(ValueError):
        evaluate(eval_pool(), SamplerConfig(), quick_cfg(), 0, base_seed=0)


@pytest.mark.parametrize("jobs", [0, -3])
def test_evaluate_rejects_fewer_than_one_job(jobs, monkeypatch):
    def no_episode(task, config=None):
        raise AssertionError("an episode ran")

    monkeypatch.setattr("kerndep.evaluation.run_episode", no_episode)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        evaluate(eval_pool(), SamplerConfig(), quick_cfg(), 2, base_seed=0, jobs=jobs)


def test_evaluate_wraps_episode_failures_with_index():
    # identical rows everywhere leave the median base scale undefined
    degenerate = EmbeddingDataset(
        classes=[np.ones((12, 4), dtype=np.float32) for _ in range(6)], d=4
    )
    with pytest.raises(RuntimeError, match="episode 0 failed"):
        evaluate(degenerate, SamplerConfig(), quick_cfg(), 2, base_seed=0)


def fake_result(support_x=((1.0, 0.5), (0.5, 1.0)),
                query_x=((-1.0, 0.0), (1.0, 0.5), (0.25, -0.5))):
    """An identity-head result on a task with one support row per class."""
    support_x, query_x = np.array(support_x), np.array(query_x)
    task = Task(support_x, np.arange(len(support_x)), query_x,
                np.zeros(len(query_x), dtype=np.int64), TaskProvenance("fake", 0, 0))
    return EpisodeResult(
        final_head=LinearHead.identity(2),
        loss_trace=[0.5, 0.25],
        sigma_zy=1.0,
        sigma_zz=1.0,
        query_accuracy=1.0,
        task=task,
        normalize=True,
    )


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
