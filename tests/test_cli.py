"""Command-line surface: subcommands, config precedence, exit codes."""

import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from kerndep.adapt import AdaptConfig
from kerndep.cli import build_parser, main, read_config_file
from kerndep.evaluation import EvalReport
from kerndep.hsic import BandwidthGrid, select_bandwidth
from kerndep.tasks import (
    EmbeddingDataset,
    SamplerConfig,
    flatten_dataset,
    load_embeddings,
    save_embeddings,
    synth_dataset,
)

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture()
def pool_path(tmp_path):
    """Separable synthetic pool written to disk once per test."""
    ds = synth_dataset(6, 24, 4, 6.0, 1.0, np.random.default_rng(0))
    path = tmp_path / "pool.emb"
    save_embeddings(ds, path)
    return path


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ synth


def test_synth_writes_loadable_dataset(tmp_path, capsys):
    out = tmp_path / "synth.emb"
    code, stdout, _ = run_cli(
        capsys,
        ["synth", "--classes", "6", "--per-class", "10", "--dim", "5",
         "--seed", "3", "--out", str(out)],
    )
    assert code == 0
    assert "wrote 6 classes" in stdout
    ds = load_embeddings(out)
    assert ds.n_classes == 6
    assert ds.d == 5
    assert ds.sizes == [10] * 6


def test_synth_same_seed_same_bytes(tmp_path, capsys):
    a = tmp_path / "a.emb"
    b = tmp_path / "b.emb"
    for out in (a, b):
        argv = ["synth", "--classes", "5", "--per-class", "6", "--dim", "3",
                "--seed", "42", "--out", str(out)]
        assert main(argv) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("flag", ["--separation", "--noise"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_non_finite_value_exits_two_and_writes_nothing(tmp_path, capsys, flag, value):
    out = tmp_path / "synth.emb"
    code, stdout, stderr = run_cli(
        capsys, ["synth", "--classes", "5", "--per-class", "4", "--dim", "3",
                 flag, value, "--out", str(out)])
    assert code == 2
    assert stdout == ""
    assert "non-negative and finite" in stderr
    assert not out.exists()


def test_synth_csv_suffix_switches_format(tmp_path, capsys):
    out = tmp_path / "synth.csv"
    code, _, _ = run_cli(
        capsys,
        ["synth", "--classes", "5", "--per-class", "4", "--dim", "2",
         "--out", str(out)],
    )
    assert code == 0
    assert out.read_text().startswith("label,f0,f1")


# ------------------------------------------------------------------- hsic


def test_hsic_table_has_grid_rows_and_selection(pool_path, capsys):
    code, stdout, _ = run_cli(capsys, ["hsic", "--embeddings", str(pool_path)])
    assert code == 0
    lines = stdout.splitlines()
    data_lines = [
        l for l in lines if l and not l.lstrip().startswith(("coeff", "selected"))
    ]
    assert len(data_lines) == 15
    assert sum(1 for l in data_lines if l.rstrip().endswith("*")) == 1
    assert lines[-1].startswith("selected: coeff=")


def test_hsic_csv_format(pool_path, capsys):
    code, stdout, _ = run_cli(
        capsys, ["hsic", "--embeddings", str(pool_path), "--format", "csv"]
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "coeff,sigma,hsic,variance,power_ratio,selected"
    assert len(lines) == 16
    assert sum(1 for l in lines[1:] if l.endswith(",1")) == 1
    # full-precision floats round-trip through repr
    first = lines[1].split(",")
    assert float(first[0]) == 0.001


def test_hsic_single_coefficient_flag(pool_path, capsys):
    code, stdout, _ = run_cli(
        capsys,
        ["hsic", "--embeddings", str(pool_path), "--grid", "0.5",
         "--format", "csv"],
    )
    assert code == 0
    assert len(stdout.splitlines()) == 2


@pytest.mark.parametrize("kernel", ["gaussian", "imq"])
def test_hsic_single_grid_value_matches_its_default_grid_row(pool_path, capsys, kernel):
    base = ["hsic", "--embeddings", str(pool_path), "--kernel", kernel, "--format", "csv"]
    _, full, _ = run_cli(capsys, base)
    code, single, _ = run_cli(capsys, [*base, "--grid", "0.5"])
    assert code == 0
    header, row = single.splitlines()
    assert header == full.splitlines()[0]
    # the selected column differs: a one-row table always selects its row
    want = [l for l in full.splitlines()[1:] if float(l.split(",")[0]) == 0.5]
    assert len(want) == 1
    assert row.rsplit(",", 1)[0] == want[0].rsplit(",", 1)[0]
    assert row.endswith(",1")


def test_hsic_custom_grid_flag(pool_path, capsys):
    code, stdout, _ = run_cli(
        capsys,
        ["hsic", "--embeddings", str(pool_path), "--grid", "0.5,1.0,2.0",
         "--format", "csv"],
    )
    assert code == 0
    assert len(stdout.splitlines()) == 4


def test_hsic_duplicate_grid_coefficients_exit_two(pool_path, capsys):
    code, stdout, stderr = run_cli(
        capsys,
        ["hsic", "--embeddings", str(pool_path), "--grid", "1,1,2",
         "--format", "csv"],
    )
    assert code == 2
    assert stdout == ""
    assert "distinct" in stderr


@pytest.mark.parametrize("flags, message", [
    (["--grid", "inf"], "finite"),
    (["--grid", "nan"], "finite"),
    (["--grid", "1e308"], "overflows"),  # coeff times the median base
    (["--kernel", "cosine", "--grid", "1e308"], "overflows"),
    (["--epsilon", "inf"], "finite"),
])
def test_hsic_non_finite_grid_values_exit_two(pool_path, capsys, flags, message):
    code, stdout, stderr = run_cli(
        capsys, ["hsic", "--embeddings", str(pool_path), "--format", "csv", *flags])
    assert code == 2
    assert stdout == ""
    assert message in stderr


def test_hsic_label_file_changes_the_pairing(pool_path, tmp_path, capsys):
    ds = load_embeddings(pool_path)
    n = sum(ds.sizes)
    rng = np.random.default_rng(5)
    shuffled = rng.permutation(np.repeat(np.arange(ds.n_classes), ds.sizes))
    label_file = tmp_path / "labels.txt"
    label_file.write_text("\n".join(str(v) for v in shuffled))
    code, with_file, _ = run_cli(
        capsys,
        ["hsic", "--embeddings", str(pool_path), "--labels-from",
         str(label_file), "--format", "csv"],
    )
    assert code == 0
    code, embedded, _ = run_cli(
        capsys, ["hsic", "--embeddings", str(pool_path), "--format", "csv"]
    )
    assert code == 0
    assert with_file != embedded


def test_hsic_shuffled_label_file_matches_the_library(pool_path, tmp_path, capsys):
    z, y = flatten_dataset(load_embeddings(pool_path))
    shuffled = np.random.default_rng(8).permutation(y)
    label_file = tmp_path / "labels.txt"
    label_file.write_text("\n".join(str(v) for v in shuffled))
    code, stdout, _ = run_cli(
        capsys,
        ["hsic", "--embeddings", str(pool_path), "--labels-from", str(label_file),
         "--format", "csv"],
    )
    assert code == 0
    sel = select_bandwidth(z, shuffled)
    rows = [line.split(",") for line in stdout.splitlines()[1:]]
    assert [[float(v) for v in row[1:5]] for row in rows] == [
        [est.sigma, est.value, est.variance, est.power_ratio] for est in sel.table]
    assert [float(row[0]) for row in rows if row[5] == "1"] == [sel.coefficient]


def test_hsic_single_class_exits_two(pool_path, tmp_path, capsys):
    one_class = tmp_path / "one.emb"
    rows = np.random.default_rng(1).normal(size=(12, 4))
    save_embeddings(EmbeddingDataset(classes=[rows], d=4), one_class)
    label_file = tmp_path / "zeros.txt"
    label_file.write_text("0\n" * sum(load_embeddings(pool_path).sizes))
    for argv in (["--embeddings", str(one_class)],
                 ["--embeddings", str(pool_path), "--labels-from", str(label_file)]):
        code, stdout, stderr = run_cli(capsys, ["hsic", *argv, "--format", "csv"])
        assert code == 2
        assert stdout == ""
        assert "at least 2 classes" in stderr


def test_hsic_labels_with_no_same_class_pair_exit_two(pool_path, tmp_path, capsys):
    label_file = tmp_path / "singletons.txt"
    n_rows = sum(load_embeddings(pool_path).sizes)
    label_file.write_text("".join(f"{i}\n" for i in range(n_rows)))
    code, stdout, stderr = run_cli(
        capsys, ["hsic", "--embeddings", str(pool_path), "--labels-from", str(label_file),
                 "--format", "csv"])
    assert code == 2
    assert stdout == ""
    assert "a class with at least 2 rows" in stderr


@pytest.mark.parametrize("grid, coeff", [
    ("1.0,1e-200", "1e-200"),  # sigma near 5e-200: its square is 0
    ("1e-155", "1e-155"),  # sigma near 5e-155: its square is subnormal
])
def test_hsic_underflowing_bandwidth_exits_two(pool_path, capsys, grid, coeff):
    # pool files hold float32 rows, so from a file only a tiny coefficient
    # can make sigma * sigma fall below the smallest normal float64
    code, stdout, stderr = run_cli(
        capsys, ["hsic", "--embeddings", str(pool_path), "--format", "csv", "--grid", grid])
    assert code == 2
    assert stdout == ""
    assert f"coefficient {coeff} times base" in stderr
    assert "underflows" in stderr


def test_hsic_bad_label_file_exits_two(pool_path, tmp_path, capsys):
    label_file = tmp_path / "labels.txt"
    label_file.write_text("0 1 zebra")
    code, _, stderr = run_cli(
        capsys,
        ["hsic", "--embeddings", str(pool_path), "--labels-from", str(label_file)],
    )
    assert code == 2
    assert "integers" in stderr


# ----------------------------------------------------------------- errors


def test_missing_embeddings_file_exits_one(capsys):
    code, _, stderr = run_cli(capsys, ["hsic", "--embeddings", "/nonexistent.emb"])
    assert code == 1
    assert "error:" in stderr


def test_corrupt_binary_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.emb"
    bad.write_bytes(b"EMB1" + b"\x07")  # right magic, wrong version
    code, _, stderr = run_cli(capsys, ["hsic", "--embeddings", str(bad)])
    assert code == 1
    assert "version" in stderr


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_eval_invalid_gamma_exits_two(pool_path, capsys):
    code, _, stderr = run_cli(
        capsys,
        ["eval", "--embeddings", str(pool_path), "--episodes", "1",
         "--gamma", "-1"],
    )
    assert code == 2
    assert "gamma" in stderr


@pytest.mark.parametrize("flag, field", [("--gamma", "gamma"), ("--lr", "learning_rate"),
                                         ("--weight-decay", "weight_decay")])
def test_eval_non_finite_value_exits_two_before_any_episode(pool_path, capsys, monkeypatch,
                                                            flag, field):
    monkeypatch.setattr("kerndep.evaluation.run_episode", failing_episode(AssertionError))
    code, stdout, stderr = run_cli(
        capsys, ["eval", "--embeddings", str(pool_path), "--episodes", "1", flag, "inf"])
    assert code == 2
    assert stdout == ""
    assert f"{field} must be finite" in stderr


def test_eval_negative_seed_exits_two_before_any_episode(pool_path, capsys, monkeypatch):
    monkeypatch.setattr("kerndep.evaluation.run_episode", failing_episode(AssertionError))
    code, stdout, stderr = run_cli(
        capsys, ["eval", "--embeddings", str(pool_path), "--episodes", "1", "--seed", "-1"])
    assert code == 2
    assert stdout == ""
    assert "seed must be non-negative, got -1" in stderr


def failing_episode(exc_type):
    def run_episode(task, config=None):
        raise exc_type("injected")
    return run_episode


def test_eval_episode_validation_error_exits_two(pool_path, capsys, monkeypatch):
    monkeypatch.setattr("kerndep.evaluation.run_episode", failing_episode(ValueError))
    code, _, stderr = run_cli(
        capsys, ["eval", "--embeddings", str(pool_path), "--episodes", "1"])
    assert code == 2
    assert "episode 0 failed: injected" in stderr


def test_eval_episode_internal_error_propagates(pool_path, monkeypatch):
    monkeypatch.setattr("kerndep.evaluation.run_episode", failing_episode(ZeroDivisionError))
    with pytest.raises(RuntimeError, match="episode 0 failed") as info:
        main(["eval", "--embeddings", str(pool_path), "--episodes", "1"])
    assert isinstance(info.value.__cause__, ZeroDivisionError)


# ------------------------------------------------------------------- eval


def eval_argv(pool_path, *extra):
    return ["eval", "--embeddings", str(pool_path), "--episodes", "3",
            "--steps", "2", *extra]


def test_eval_prints_report(pool_path, capsys):
    code, stdout, _ = run_cli(capsys, eval_argv(pool_path))
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "episodes: 3"
    assert lines[1].startswith("mean_accuracy: ")
    assert lines[2].startswith("ci95: ")
    acc = float(lines[1].split(": ")[1])
    assert 0.0 <= acc <= 1.0


def test_eval_repeated_invocation_is_identical(pool_path, capsys):
    _, first, _ = run_cli(capsys, eval_argv(pool_path, "--verbose"))
    _, second, _ = run_cli(capsys, eval_argv(pool_path, "--verbose"))
    assert first == second


def test_eval_verbose_emits_one_line_per_episode(pool_path, capsys):
    code, stdout, _ = run_cli(capsys, eval_argv(pool_path, "--verbose"))
    assert code == 0
    episode_lines = [l for l in stdout.splitlines() if l.startswith("episode ")]
    assert len(episode_lines) == 3
    assert "accuracy=" in episode_lines[0]


def test_eval_ncc_loss_mode(pool_path, capsys):
    code, stdout, _ = run_cli(capsys, eval_argv(pool_path, "--loss", "ncc"))
    assert code == 0
    assert "mean_accuracy:" in stdout


def test_eval_share_zz_flags_parse(pool_path, capsys):
    code, _, _ = run_cli(capsys, eval_argv(pool_path, "--share-zz"))
    assert code == 0
    code, _, _ = run_cli(capsys, eval_argv(pool_path, "--no-share-zz"))
    assert code == 0


def test_eval_dump_heatmaps_writes_pgm_files(pool_path, tmp_path, capsys):
    heat_dir = tmp_path / "heat"
    code, _, _ = run_cli(
        capsys,
        ["eval", "--embeddings", str(pool_path), "--episodes", "2",
         "--steps", "2", "--dump-heatmaps", str(heat_dir)],
    )
    assert code == 0
    names = sorted(p.name for p in heat_dir.iterdir())
    assert names == [
        "episode_0000_query.pgm",
        "episode_0000_support.pgm",
        "episode_0001_query.pgm",
        "episode_0001_support.pgm",
    ]
    for p in heat_dir.iterdir():
        assert p.read_bytes().startswith(b"P5\n")


def test_eval_dump_heatmaps_into_a_file_exits_one_before_any_episode(pool_path, tmp_path,
                                                                     capsys, monkeypatch):
    not_a_dir = tmp_path / "heat"
    not_a_dir.write_text("")
    calls = []
    monkeypatch.setattr("kerndep.cli.evaluate", lambda *args, **kwargs: calls.append(args))
    code, _, err = run_cli(
        capsys,
        ["eval", "--embeddings", str(pool_path), "--episodes", "2",
         "--steps", "2", "--dump-heatmaps", str(not_a_dir)],
    )
    assert code == 1
    assert "error:" in err
    assert calls == []


# ------------------------------------------------------- config precedence


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# a comment\n"
        "\n"
        "gamma = 1.5   # trailing comment\n"
        "steps=7\n"
        "share_zz_coefficient = off\n"
        "grid_coefficients = 0.5, 1.0\n"
        "n_max = 12\n"
    )
    values = read_config_file(cfg)
    assert values == {
        "gamma": 1.5,
        "steps": 7,
        "share_zz_coefficient": False,
        "grid_coefficients": (0.5, 1.0),
        "n_max": 12,
    }


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warmup=5\n")
    with pytest.raises(ValueError, match="unknown config key 'warmup'"):
        read_config_file(cfg)


def test_config_file_rejects_a_repeated_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("gamma = 1\nsteps = 4\n\ngamma = 3\n")
    with pytest.raises(ValueError, match="line 4: config key 'gamma' is already set on line 1"):
        read_config_file(cfg)


def test_config_file_rejects_malformed_lines(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("gamma 1.0\n")
    with pytest.raises(ValueError, match="key=value"):
        read_config_file(cfg)
    cfg.write_text("steps=soon\n")
    with pytest.raises(ValueError, match="bad value for 'steps'"):
        read_config_file(cfg)


def test_eval_unknown_config_key_exits_two(pool_path, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("momentum=0.9\n")
    code, _, stderr = run_cli(
        capsys,
        ["eval", "--embeddings", str(pool_path), "--episodes", "1", "--config", str(cfg)],
    )
    assert code == 2
    assert "momentum" in stderr


def test_eval_repeated_config_key_exits_two(pool_path, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("steps=3\nsteps=5\n")
    code, stdout, stderr = run_cli(
        capsys,
        ["eval", "--embeddings", str(pool_path), "--episodes", "1", "--config", str(cfg)],
    )
    assert code == 2
    assert stdout == ""
    assert "line 2: config key 'steps' is already set on line 1" in stderr


def test_flag_beats_config_beats_default(pool_path, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps=5\ngamma=1.0\n")
    base = ["eval", "--embeddings", str(pool_path), "--episodes", "2", "--verbose"]

    # config layer: file values behave exactly like explicit flags
    _, from_config, _ = run_cli(capsys, [*base, "--config", str(cfg)])
    _, from_flags, _ = run_cli(capsys, [*base, "--steps", "5", "--gamma", "1.0"])
    assert from_config == from_flags

    # flag layer: an explicit flag overrides the same key in the file
    _, overridden, _ = run_cli(capsys, [*base, "--config", str(cfg), "--steps", "2"])
    _, two_steps, _ = run_cli(capsys, [*base, "--steps", "2", "--gamma", "1.0"])
    assert overridden == two_steps
    assert overridden != from_config

    # default layer: dropping both flag and file key falls back to steps=40
    _, defaults, _ = run_cli(capsys, [*base, "--gamma", "1.0"])
    assert defaults != from_config


FULL_CONFIG = {
    "gamma": 2.0,
    "learning_rate": 0.3,
    "steps": 3,
    "weight_decay": 0.1,
    "epsilon": 2e-5,
    "kernel_family": "imq",
    "share_zz_coefficient": False,
    "normalize_features": False,
    "loss": "ncc",
    "rho": 0.8,
    "opt_eps": 1e-7,
    "grid_coefficients": (0.5, 1.0, 2.0),
    "n_max": 20,
    "max_support": 100,
    "max_query_per_class": 5,
    "max_shots_per_class": 10,
    "seed": 3,
}
FLAG_OVERRIDES = [
    (["--gamma", "0.5"], "gamma", 0.5),
    (["--lr", "0.7"], "learning_rate", 0.7),
    (["--steps", "9"], "steps", 9),
    (["--weight-decay", "0.2"], "weight_decay", 0.2),
    (["--kernel", "gaussian"], "kernel_family", "gaussian"),
    (["--share-zz"], "share_zz_coefficient", True),
    (["--loss", "ncc"], "loss", "ncc"),
    (["--seed", "11"], "seed", 11),
]


@pytest.fixture()
def captured_eval(monkeypatch):
    """Replace evaluate() with a recorder of the configs cmd_eval builds."""
    calls = []

    def fake_evaluate(dataset, sampler_cfg, adapt_cfg, n_episodes, **kwargs):
        calls.append((adapt_cfg, sampler_cfg))
        return EvalReport(episodes=n_episodes, mean_accuracy=1.0, ci95=0.0,
                          per_episode=[], episode_results=[])

    monkeypatch.setattr("kerndep.cli.evaluate", fake_evaluate)

    def run(capsys, argv):
        code, _, stderr = run_cli(capsys, argv)
        assert code == 0, stderr
        return calls.pop()

    return run


def resolved(adapt_cfg, sampler_cfg, key):
    if hasattr(adapt_cfg, key):
        return getattr(adapt_cfg, key)
    return getattr(sampler_cfg, key)


def test_config_file_sets_every_key(pool_path, tmp_path, capsys, captured_eval):
    field_names = {f.name for f in (*fields(AdaptConfig), *fields(SamplerConfig))}
    assert set(FULL_CONFIG) == field_names
    cfg = tmp_path / "full.cfg"
    cfg.write_text("".join(
        f"{key} = {', '.join(map(str, value)) if isinstance(value, tuple) else value}\n"
        for key, value in FULL_CONFIG.items()))
    adapt_cfg, sampler_cfg = captured_eval(
        capsys, ["eval", "--embeddings", str(pool_path), "--config", str(cfg)])
    for key, value in FULL_CONFIG.items():
        assert resolved(adapt_cfg, sampler_cfg, key) == value, key
        assert value != resolved(AdaptConfig(), SamplerConfig(), key), key
    assert adapt_cfg.grid.epsilon == FULL_CONFIG["epsilon"]


@pytest.mark.parametrize("flag,key,value", FLAG_OVERRIDES)
def test_each_flag_beats_the_config_file(pool_path, tmp_path, capsys, captured_eval,
                                          flag, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 2.0\nlearning_rate = 0.3\nsteps = 3\nweight_decay = 0.1\n"
                   "kernel_family = imq\nshare_zz_coefficient = false\nloss = mokd\n"
                   "seed = 3\n")
    file_only = read_config_file(cfg)
    adapt_cfg, sampler_cfg = captured_eval(
        capsys, ["eval", "--embeddings", str(pool_path), "--config", str(cfg), *flag])
    assert file_only[key] != value
    assert resolved(adapt_cfg, sampler_cfg, key) == value
    for other, file_value in file_only.items():
        if other != key:
            assert resolved(adapt_cfg, sampler_cfg, other) == file_value, other


def test_unset_keys_keep_dataclass_defaults(pool_path, capsys, captured_eval):
    adapt_cfg, sampler_cfg = captured_eval(
        capsys, ["eval", "--embeddings", str(pool_path)])
    assert adapt_cfg == AdaptConfig()
    assert sampler_cfg == SamplerConfig()
    assert adapt_cfg.grid == BandwidthGrid()


# ------------------------------------------------------------- entrypoints


def test_module_entrypoint_runs(tmp_path, src_env):
    out = tmp_path / "m.emb"
    proc = subprocess.run(
        [sys.executable, "-m", "kerndep", "synth", "--classes", "5",
         "--per-class", "4", "--dim", "2", "--out", str(out)],
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert proc.returncode == 0
    assert out.exists()


def test_console_script_help(src_env):
    # Runs the [project.scripts] target the way an installer's `kerndep`
    # wrapper does, so the declaration is checked without an install.
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["kerndep"]
    wrapper = (
        "import importlib.metadata, sys\n"
        "sys.argv[0] = 'kerndep'\n"
        "ep = importlib.metadata.EntryPoint(\n"
        f"    name='kerndep', value={target!r}, group='console_scripts')\n"
        "sys.exit(ep.load()())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"], capture_output=True, text=True, env=src_env
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: kerndep" in proc.stdout
    assert "synth" in proc.stdout
    assert "hsic" in proc.stdout
    assert "eval" in proc.stdout


@pytest.mark.skipif(
    shutil.which("kerndep") is None, reason="kerndep console script not installed"
)
def test_installed_console_script_help():
    proc = subprocess.run(
        ["kerndep", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout
    assert "hsic" in proc.stdout
    assert "eval" in proc.stdout


def test_importing_the_cli_loads_no_scipy(src_env):
    # a fresh interpreter pays for every module the CLI imports, on every
    # command; kerndep needs numpy alone
    code = "import sys, kerndep.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=src_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_eval_runs_episodes_serially_by_default(capsys):
    # episodes run one after another; there is no option to run them at once
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["eval", "--embeddings", "pool.emb", "--jobs", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 1" in capsys.readouterr().err
