"""kerndep benchmark: run one workload the way a user does and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload eval-mokd --seed 0 --seconds 20 --trace 0

The benchmark imports kerndep from ``src/`` and calls ``kerndep.cli.main``
in its own process, one command after the previous one finishes (a closed
loop with one client), for ``--seconds`` seconds. No ``--jobs`` flag is
passed, so the CLI's default thread pool is what gets measured. Every
command's output is checked against a reference recorded with ``--jobs 1``
(see checks.py); a non-zero exit, an exception or a mismatch counts as a
failed command.

``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` alternates untraced and traced commands and prints the
per-layer metrics (see tracer.py). The last line of standard output is one
JSON object; the lines before it describe the environment and the run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import checks
import tracer as tracing
from workloads import VARIANTS, WORKLOADS, write_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 5
ACCOUNTING_MARGIN = 0.01


def load_cli():
    """Import kerndep from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import kerndep.cli

    if Path(kerndep.__file__).resolve().parent != (src / "kerndep").resolve():
        raise ImportError(f"kerndep was imported from {kerndep.__file__}, not {src}")
    return kerndep.cli


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile, from 50 up to 99, with at least ten of
    n samples beyond it; None when even the median has fewer."""
    best = None
    for p in range(50, 100):
        if n * (100 - p) >= 1000:
            best = p
    return best


def run_command(cli, argv: list[str]) -> checks.CommandResult:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed command, not a failed benchmark
        error = f"{type(exc).__name__}: {exc}"
    return checks.CommandResult(code, time.perf_counter() - start,
                                out.getvalue(), err.getvalue(), error)


def setup_probe(workload, variant: int, directory: Path) -> None:
    """Child side of the set-up measurement: import kerndep, write the inputs."""
    load_cli()
    write_inputs(workload, variant, directory)
    print(time.clock_gettime(time.CLOCK_MONOTONIC))


def measure_setup(args, directory: Path) -> list[float]:
    """Seconds from starting a fresh interpreter to having kerndep, numpy and
    scipy imported and the pool written, over SETUP_PROBES child processes."""
    times = []
    for i in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0",
             "--setup-probe", str(directory / f"probe{i}")],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": git_commit(),
    }


def describe_timing(name: str, values: list[float], unit: str) -> str:
    """Median, the highest percentile with ten samples beyond it, and n."""
    p = tail_percentile(len(values))
    tail = (f"p{p} {np.percentile(values, p):.4f} {unit}" if p is not None
            else "no percentile above the median has ten samples beyond it")
    return f"{name}: median {statistics.median(values):.4f} {unit}; {tail}; n={len(values)}"


def timed_run(cli, workload, argv, ref, seconds: float):
    """Closed loop, one client: the next command starts when the last ends.
    Returns each command's result and why it failed (None when it passed)."""
    results, reasons = [], []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(run_command(cli, argv))
        reasons.append(checks.check(workload.subcommand, results[-1], ref))
    return results, reasons


def end_to_end(cli, workload, argv, ref, seconds, setup_times, report):
    results, reasons = timed_run(cli, workload, argv, ref, seconds)
    failures = [r for r in reasons if r is not None]
    walls = [r.wall_s for r in results]
    command_s = statistics.median(walls)
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report.append(describe_timing("command_s", walls, "s"))
    if workload.subcommand == "eval":
        report.append(f"episodes_per_s: {workload.episodes / command_s:.4f} episodes/s "
                      f"({workload.episodes} episodes per command)")
        passed = [r for r, reason in zip(results, reasons) if reason is None]
        if passed:
            accuracy = checks.parse_eval(passed[0].stdout)["mean_accuracy"]
            report.append(f"mean_accuracy: {accuracy:.6f} fraction "
                          f"(reference {ref['mean_accuracy']:.6f})")
    else:
        report.append(f"table_s: {command_s:.4f} s")
    report.append(f"failed_share: {len(failures) / len(results):.4f} fraction "
                  f"({len(failures)} of {len(results)} commands)")
    report.append(describe_timing("setup_s", setup_times, "s"))
    report.append(f"peak_rss_mb: {peak_kib / 1024:.1f} MB")
    metrics = {
        "command_s": command_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    return metrics, len(results), failures


def layer_metrics(spans, selections, traced_walls, untraced_walls, report):
    """Per-layer metrics of the traced commands: counts and times per command
    (median over commands), episode percentiles pooled over all of them.
    ``traced_walls`` are the benchmark's own timings of those commands, in
    order; the main thread's self and waited time must add up to each."""
    commands = sorted({s.command for s in spans})
    per_command = []
    episodes = []
    for command, wall in zip(commands, traced_walls):
        mine = [s for s in spans if s.command == command]
        selfs = tracing.self_times(mine)
        row: dict[str, float] = {}
        for module_name, names in tracing.TRACED.items():
            for fn_name in names:
                name = f"{module_name}.{fn_name}"
                row[f"{name}.calls"] = 0
                row[f"{name}.self_s"] = 0.0
                row[f"{name}.total_s"] = 0.0
        for s in mine:
            row[f"{s.name}.calls"] += 1
            row[f"{s.name}.self_s"] += selfs[s.span_id]
            row[f"{s.name}.total_s"] += s.end - s.start
        chosen = [sel for sel in selections if sel.command == command]
        row["hsic.clamped_rows"] = sum(sel.clamped_rows for sel in chosen)
        row["hsic.edge_selections"] = sum(sel.edge for sel in chosen)
        evaluate_s = row["evaluation.evaluate.total_s"]
        row["evaluation.concurrency"] = (row["adapt.run_episode.total_s"] / evaluate_s
                                         if evaluate_s > 0 else 0.0)
        episodes += [1000.0 * (s.end - s.start) for s in mine if s.name == "adapt.run_episode"]
        root = next(s for s in mine if s.name == "cli.main" and s.parent is None)
        threads = tracing.thread_accounting(mine)
        accounted = threads[root.thread]["self_s"] + threads[root.thread]["waited_s"]
        row["trace.accounting_error_share"] = abs(accounted - wall) / wall
        per_command.append(row)
        busy = ", ".join(f"{v['self_s']:.3f}" for t, v in threads.items() if t != root.thread)
        report.append(f"traced command {command}: wall {wall:.4f} s, "
                      f"main-thread self {threads[root.thread]['self_s']:.4f} s + waited "
                      f"{threads[root.thread]['waited_s']:.4f} s; worker-thread self "
                      f"[{busy}] s")

    metrics = {key: statistics.median(row[key] for row in per_command)
               for key in per_command[0]}
    for key in ("hsic.clamped_rows", "hsic.edge_selections"):
        if len({row[key] for row in per_command}) != 1:
            raise RuntimeError(f"{key} differs between identical commands")
    metrics["trace.accounting_error_share"] = max(
        row["trace.accounting_error_share"] for row in per_command)
    metrics["adapt.run_episode.p50_ms"] = statistics.median(episodes) if episodes else 0.0
    metrics["trace.overhead_share"] = (statistics.median(traced_walls)
                                       / statistics.median(untraced_walls) - 1.0)
    if episodes:
        report.append(describe_timing("adapt.run_episode", episodes, "ms"))
    return metrics


def traced_run(cli, workload, argv, ref, seconds, report):
    """Alternate untraced and traced commands; both pass the output check."""
    tracer = tracing.Tracer()
    untraced, traced, failures = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run_command(cli, argv))
        tracer.command += 1
        with tracer.installed():
            traced.append(run_command(cli, argv))
        for result in untraced[-1], traced[-1]:
            reason = checks.check(workload.subcommand, result, ref)
            if reason is not None:
                failures.append(reason)
    if tracer.missing:
        report.append(f"not found, not traced: {', '.join(tracer.missing)}")
    metrics = layer_metrics(tracer.spans, tracer.selections,
                            [r.wall_s for r in traced], [r.wall_s for r in untraced], report)
    report.append("untraced command_s: " + ", ".join(f"{r.wall_s:.4f}" for r in untraced))
    if metrics["trace.accounting_error_share"] > ACCOUNTING_MARGIN:
        raise RuntimeError("per-thread self times miss the traced wall time by "
                           f"{metrics['trace.accounting_error_share']:.2%}")
    return metrics, len(untraced) + len(traced), failures


def load_references(workload_name: str, variant: int) -> dict:
    data = json.loads((BENCH_DIR / "references.json").read_text(encoding="utf-8"))
    return data["workloads"][workload_name][str(variant)]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    variant = args.seed % VARIANTS
    if args.setup_probe is not None:
        setup_probe(workload, variant, Path(args.setup_probe))
        return 0
    try:
        cli = load_cli()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        ref = load_references(workload.name, variant)
    except (ImportError, OSError, KeyError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    workdir = BENCH_DIR / ".work" / str(os.getpid())
    report = [f"env: {json.dumps(environment(), sort_keys=True)}",
              f"workload {workload.name}: seed {args.seed}, pool variant {variant}, "
              f"{'traced' if args.trace else 'untraced'}, {args.seconds:g} s"]
    try:
        argv_cmd = write_inputs(workload, variant, workdir)
        if args.trace:
            metrics, attempted, failures = traced_run(cli, workload, argv_cmd, ref,
                                                      args.seconds, report)
            wanted = spec["per_layer"]
        else:
            setup_times = measure_setup(args, workdir)
            metrics, attempted, failures = end_to_end(cli, workload, argv_cmd, ref,
                                                      args.seconds, setup_times, report)
            wanted = spec["end_to_end"]
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report += [f"failed: {reason}" for reason in failures]
    print("\n".join(report))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
