"""Record the reference outputs the benchmark checks against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_references.py

Every workload's command runs once per pool variant with ``--jobs 1`` (the
serial path) and the parsed report is written to perfbench/references.json.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
from run import BENCH_DIR, git_commit, load_cli, run_command
from workloads import VARIANTS, WORKLOADS, write_inputs


def main() -> int:
    cli = load_cli()
    workdir = BENCH_DIR / ".work" / "record"
    refs = {}
    try:
        for workload in WORKLOADS.values():
            refs[workload.name] = {}
            for variant in range(VARIANTS):
                argv = write_inputs(workload, variant, workdir)
                if workload.subcommand == "eval":
                    argv += ["--jobs", "1"]
                result = run_command(cli, argv)
                if result.exit_code != 0:
                    print(f"{workload.name} variant {variant} failed: "
                          f"{result.error or result.stderr}", file=sys.stderr)
                    return 1
                refs[workload.name][str(variant)] = checks.parse(workload.subcommand,
                                                                 result.stdout)
                print(f"{workload.name} variant {variant}: {result.wall_s:.2f} s",
                      file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = {"recorded_with": "--jobs 1", "commit": git_commit(), "workloads": refs}
    (BENCH_DIR / "references.json").write_text(json.dumps(out, indent=1) + "\n",
                                               encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
