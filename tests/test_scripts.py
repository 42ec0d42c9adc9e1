"""The experiment scripts under scripts/ run end to end on tiny arguments."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kerndep.adapt import AdaptConfig, LinearHead, ncc_predict, run_episode
from kerndep.tasks import load_embeddings, synth_task

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("paired_sweep.py", ["--pools", "nuisance", "--learning-rates", "2.5", "--steps", "2",
                         "--tasks", "2", "--arms", "raw:loss=ncc,normalize_features=false"]),
    # the checkout against itself: every command identical, none failing
    ("byte_identity_gate.py", ["--against", str(ROOT), "--quick"]),
    # the arm syntax of the README's kernel-family gate
    ("paired_sweep.py", ["--pools", "isotropic", "--steps", "2", "--tasks", "2",
                         "--arms", "gauss", "imq:kernel_family=imq"]),
])
def test_script_runs(script, args, src_env):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=src_env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # a header, then one result row: the gate's, or each arm's (the arms come last)
    rows = len(args) - args.index("--arms") - 1 if "--arms" in args else 1
    assert len(proc.stdout.splitlines()) == 1 + rows


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paired_sweep_differences_are_episodes_paired_by_hand(capsys):
    load_script("paired_sweep").main([
        "--pools", "blobs", "--arms", "g0:gamma=0", "g3:gamma=3", "identity",
        "--learning-rates", "2", "--steps", "160", "--tasks", "2", "--base-seed", "707070"])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]

    def task(i):
        return synth_task(5, 10, 10, 16, 3.0, 1.5, np.random.default_rng([707070, i]))

    def accuracies(gamma):
        cfg = AdaptConfig(gamma=gamma, learning_rate=2.0, steps=160)
        return np.array([run_episode(task(i), cfg).query_accuracy for i in range(2)])

    def se(x):
        return x.std(ddof=1) / np.sqrt(2)

    g3 = accuracies(3.0)
    diffs = g3 - accuracies(0.0)
    assert diffs.any()
    assert rows[1][3:8] == ["g3", f"{g3.mean():.5f}", f"{se(g3):.5f}",
                            f"{diffs.mean():+.5f}", f"{se(diffs):.5f}"]
    identity = [np.mean(ncc_predict(LinearHead.identity(16), (t.support_x, t.support_y),
                                    t.query_x) == t.query_y) for t in map(task, range(2))]
    assert rows[2][3:5] == ["identity", f"{np.mean(identity):.5f}"]
    assert rows[2][8:11] == ["0.00e+00", "0.00e+00", "nan"]


def test_paired_sweep_arm_reads_values_with_the_config_parsers():
    arm = load_script("paired_sweep").arm
    assert arm("one:grid_coefficients=0.5,1,normalize_features=off") == (
        "one", {"grid_coefficients": (0.5, 1.0), "normalize_features": False})
    assert arm("mokd") == ("mokd", {})


def test_byte_identity_gate_sizes_each_difference():
    size = load_script("byte_identity_gate").difference_size
    table = "coeff,sigma,hsic,selected\n0.5,1.25,{},0\n1.0,2.5,-3e-05,1\n"
    # each stdout number on its own: the one that moved, by 1e-13 of itself
    assert size(table.format("4.0000000000004e-05"), table.format("4e-05"), {}, {}) \
        == pytest.approx(1e-13, rel=1e-3)
    assert size(table.format("0.0"), table.format("4e-05"), {}, {}) == 1.0
    assert size(table.format("4e-05"), table.format("4e-05"), {}, {}) == 0.0
    # other text around the numbers: stdout is not compared
    assert size("coeff 1\n", "sigma 1\n", {}, {}) is None
    # a matrix against its largest entry: 1e-16 off a cosine of 1e-9 is 1e-16
    cosines = np.array([[1.0, 1e-9], [1e-9, 1.0]])
    moved = cosines.copy()
    moved[0, 1] += 1e-16
    f64 = {"episode_0000_support.f64": cosines.tobytes()}
    got = size("", "", {"episode_0000_support.f64": moved.tobytes()}, f64)
    assert got == pytest.approx(1e-16, rel=1e-3)
    assert size("", "", f64, f64) == 0.0
    # a matrix of another size is not compared
    assert size("x", "y", {"a.f64": moved.tobytes()}, {"a.f64": moved[0].tobytes()}) is None


def test_byte_identity_gate_plans_shuffled_label_commands(tmp_path):
    plan = load_script("byte_identity_gate").plan
    commands = plan(False, tmp_path)
    shuffled = {name: argv for name, argv in commands.items() if "--labels-from" in argv}
    assert (len(commands), sorted(shuffled)) == (130, sorted(
        f"hsic-{v}-{mode}" for v in range(4) for mode in ("shuffled", "shuffled-imq")))
    for argv in shuffled.values():
        # the pool's 40 classes of 60 rows each, out of class order
        labels = np.loadtxt(argv[argv.index("--labels-from") + 1], dtype=np.int64)
        assert np.array_equal(np.sort(labels), np.repeat(np.arange(40), 60))
        assert (labels[1:] < labels[:-1]).any()
    assert len(plan(True, tmp_path)) == 7


def test_byte_identity_gate_plans_repeated_row_pools(tmp_path):
    commands = load_script("byte_identity_gate").plan(False, tmp_path)
    repeated = sorted(name for name in commands if name.startswith("repeat-"))
    assert repeated == sorted(f"repeat-{v}-{mode}" for v in range(4)
                              for mode in ("default", "imq", "raw-rows"))
    for name in [*repeated, "eval-0-default"]:
        argv = commands[name]
        pool = load_embeddings(argv[argv.index("--embeddings") + 1])
        assert [rows.shape for rows in pool.classes] == [(40, 64)] * 32
        for rows in pool.classes:
            if name.startswith("repeat-"):
                # rows 10-15 and 26-31 repeat the six rows before them
                assert np.array_equal(rows[10:16], rows[4:10])
                assert np.array_equal(rows[26:32], rows[20:26])
                assert len(np.unique(rows, axis=0)) == 40 - 12
            else:
                assert len(np.unique(rows, axis=0)) == 40


def test_byte_identity_gate_plans_csv_twins_of_two_pools(tmp_path):
    commands = load_script("byte_identity_gate").plan(False, tmp_path)
    for twin, name in (("csv-eval-0-default", "eval-0-default"),
                       ("csv-hsic-0-gaussian", "hsic-0-gaussian")):
        argv, twin_argv = commands[name], commands[twin]
        at = argv.index("--embeddings") + 1
        assert twin_argv[:at] + twin_argv[at + 1:] == argv[:at] + argv[at + 1:]
        assert twin_argv[at].endswith(".csv")
        pool, csv_pool = (load_embeddings(a[at]) for a in (argv, twin_argv))
        assert len(csv_pool.classes) == len(pool.classes)
        for rows, csv_rows in zip(pool.classes, csv_pool.classes):
            assert np.array_equal(rows, csv_rows)
