"""Tests of the benchmark's own helpers.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, self_times, thread_accounting, union_length  # noqa: E402
from workloads import WORKLOADS, make_pool, write_emb1  # noqa: E402


def span(i, start, end, parent=None, thread=1, name="x"):
    return Span(i, name, start, end, parent, thread, 1)


# ------------------------------------------------------------ self time


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_nested_spans_in_one_thread():
    spans = [span(0, 0, 10), span(1, 1, 4, 0), span(2, 2, 3, 1), span(3, 5, 6, 0)]
    selfs = self_times(spans)
    assert selfs == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert sum(selfs.values()) == 10.0
    acct = thread_accounting(spans)
    assert acct == {1: {"self_s": 10.0, "waited_s": 0.0}}


def test_self_time_children_across_threads():
    # evaluate (main thread) waits on two overlapping worker episodes
    spans = [
        span(0, 0, 10, thread=1),
        span(1, 1, 6, 0, thread=2),
        span(2, 2, 8, 0, thread=3),
        span(3, 2, 3, 1, thread=2),
    ]
    selfs = self_times(spans)
    assert selfs[0] == 3.0  # covered by the union [1, 8], not by 5 + 6
    assert selfs[1] == 4.0
    assert selfs[2] == 6.0
    acct = thread_accounting(spans)
    assert acct[1]["self_s"] + acct[1]["waited_s"] == 10.0
    assert acct[2] == {"self_s": 5.0, "waited_s": 0.0}
    assert acct[3] == {"self_s": 6.0, "waited_s": 0.0}


def test_worker_spans_take_the_evaluate_span_as_parent():
    tracer = Tracer()
    leaf = tracer.wrap("kernels.leaf", lambda: time.sleep(0.01))

    def episode(_):
        leaf()
        return threading.get_ident()

    episode_w = tracer.wrap("adapt.run_episode", episode)

    def evaluate():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(episode_w, range(4)))

    tracer.wrap("evaluation.evaluate", evaluate)()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (ev,) = by_name["evaluation.evaluate"]
    assert ev.parent is None
    assert all(s.parent == ev.span_id for s in by_name["adapt.run_episode"])
    episode_ids = {s.span_id for s in by_name["adapt.run_episode"]}
    assert all(s.parent in episode_ids for s in by_name["kernels.leaf"])
    acct = thread_accounting(tracer.spans)
    main = acct[ev.thread]
    assert main["self_s"] + main["waited_s"] == pytest.approx(ev.end - ev.start, rel=1e-9)


# ------------------------------------------------------------ percentile rule


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50), (32, 68), (99, 89), (100, 90), (1000, 99), (10**6, 99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


# ------------------------------------------------------------ output check

EVAL_OUT = "episodes: 10\nmean_accuracy: 0.898808\nci95: 0.040075\n"
EVAL_REF = {"episodes": 10, "mean_accuracy": 0.898808, "ci95": 0.040075}
HSIC_OUT = (
    "coeff,sigma,hsic,variance,power_ratio,selected\n"
    "0.5,9.4,0.0015,3.5e-10,0.47,0\n"
    "0.75,14.1,0.0019,4.0e-10,0.61,1\n"
)
HSIC_REF = checks.parse_hsic(HSIC_OUT)


def result(stdout, code=0, error=None):
    return checks.CommandResult(code, 1.0, stdout, "", error)


def test_check_accepts_matching_outputs():
    assert checks.check("eval", result(EVAL_OUT), EVAL_REF) is None
    assert checks.check("hsic", result(HSIC_OUT), HSIC_REF) is None
    within = HSIC_OUT.replace("0.0019,", "0.0019000000001,")
    assert checks.check("hsic", result(within), HSIC_REF) is None


def test_check_rejects_wrong_accuracy():
    wrong = EVAL_OUT.replace("0.898808", "0.898810")
    assert "mean_accuracy" in checks.check("eval", result(wrong), EVAL_REF)


def test_check_rejects_wrong_selected_coefficient():
    wrong = HSIC_OUT.replace("0.47,0", "0.47,1").replace("0.61,1", "0.61,0")
    assert "selected coeff" in checks.check("hsic", result(wrong), HSIC_REF)


def test_check_rejects_wrong_table_value():
    wrong = HSIC_OUT.replace("0.0019,", "0.00191,")
    assert "hsic" in checks.check("hsic", result(wrong), HSIC_REF)


def test_check_rejects_nonzero_exit_exception_and_garbage():
    assert "exit code 2" in checks.check("eval", result(EVAL_OUT, code=2), EVAL_REF)
    assert "raised" in checks.check("eval", result("", error="RuntimeError: x"), EVAL_REF)
    assert "unparseable" in checks.check("eval", result("episodes: 10\n"), EVAL_REF)


# ------------------------------------------------------------ against kerndep


def test_traced_command_rebinds_every_namespace_and_restores(tmp_path):
    cli = run.load_cli()
    import kerndep.adapt
    import kerndep.hsic
    import kerndep.kernels

    original = kerndep.kernels.sq_dist_matrix
    pool = tmp_path / "pool.emb"
    write_emb1(make_pool(WORKLOADS["eval-mokd"], 0)[:6], pool)
    argv = ["eval", "--embeddings", str(pool), "--episodes", "2", "--steps", "2",
            "--jobs", "2"]
    tracer = Tracer()
    with tracer.installed():
        assert kerndep.hsic.sq_dist_matrix is kerndep.adapt.sq_dist_matrix
        assert kerndep.hsic.sq_dist_matrix is not original
        traced = run.run_command(cli, argv)
    assert kerndep.hsic.sq_dist_matrix is original
    assert kerndep.adapt.sq_dist_matrix is original
    untraced = run.run_command(cli, argv)
    assert traced.exit_code == 0 and traced.stdout == untraced.stdout
    assert tracer.missing == []
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "evaluation.evaluate", "adapt.run_episode",
            "hsic.select_bandwidth", "kernels.sq_dist_matrix"} <= names
    assert len(tracer.selections) == 2
    report = []
    metrics = run.layer_metrics(tracer.spans, tracer.selections, [traced.wall_s],
                                [untraced.wall_s], report)
    assert metrics["adapt.run_episode.calls"] == 2
    # 2 steps x 3 distance matrices, plus one in each bandwidth search
    assert metrics["kernels.sq_dist_matrix.calls"] == 2 * (2 * 3 + 1)
    assert metrics["trace.accounting_error_share"] < run.ACCOUNTING_MARGIN
