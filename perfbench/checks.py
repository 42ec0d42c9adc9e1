"""Output checks against references recorded with ``--jobs 1``.

The timed commands run with the CLI's default ``--jobs``, so a passing check
also shows that the report does not depend on ``--jobs``.

Tolerances:
- eval: ``episodes`` exact; ``mean_accuracy`` and ``ci95`` within 1e-6
  absolute, one unit in the sixth decimal the CLI prints.
- hsic: the selected coefficient, the grid coefficients and the selected
  flags exact; sigma, hsic, variance and power_ratio within
  ``math.isclose(rel_tol=1e-6, abs_tol=1e-12)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EVAL_ATOL = 1e-6
HSIC_RTOL = 1e-6
HSIC_ATOL = 1e-12
HSIC_HEADER = "coeff,sigma,hsic,variance,power_ratio,selected"


@dataclass
class CommandResult:
    exit_code: int | None
    wall_s: float
    stdout: str
    stderr: str
    error: str | None = None


def parse_eval(stdout: str) -> dict:
    values = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key in ("episodes", "mean_accuracy", "ci95"):
            values[key] = int(value) if key == "episodes" else float(value)
    if set(values) != {"episodes", "mean_accuracy", "ci95"}:
        raise ValueError(f"eval report lacks fields: {sorted(values)}")
    return values


def parse_hsic(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines or lines[0] != HSIC_HEADER:
        raise ValueError("hsic output lacks the csv header")
    table = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 6:
            raise ValueError(f"bad hsic row {line!r}")
        table.append([float(v) for v in fields[:5]] + [int(fields[5])])
    selected = [row[0] for row in table if row[5] == 1]
    if len(selected) != 1:
        raise ValueError(f"expected one selected row, got {len(selected)}")
    return {"selected_coeff": selected[0], "table": table}


def parse(subcommand: str, stdout: str) -> dict:
    return parse_eval(stdout) if subcommand == "eval" else parse_hsic(stdout)


def compare(subcommand: str, got: dict, ref: dict) -> str | None:
    """Return why ``got`` does not match ``ref``, or None when it does."""
    if subcommand == "eval":
        if got["episodes"] != ref["episodes"]:
            return f"episodes {got['episodes']} != {ref['episodes']}"
        for key in ("mean_accuracy", "ci95"):
            if abs(got[key] - ref[key]) > EVAL_ATOL:
                return f"{key} {got[key]} != {ref[key]}"
        return None
    if got["selected_coeff"] != ref["selected_coeff"]:
        return f"selected coeff {got['selected_coeff']} != {ref['selected_coeff']}"
    if len(got["table"]) != len(ref["table"]):
        return f"{len(got['table'])} table rows != {len(ref['table'])}"
    for i, (row, ref_row) in enumerate(zip(got["table"], ref["table"])):
        if row[0] != ref_row[0] or row[5] != ref_row[5]:
            return f"row {i}: coeff/selected {row[0]},{row[5]} != {ref_row[0]},{ref_row[5]}"
        for col, name in enumerate(HSIC_HEADER.split(",")[1:5], start=1):
            if not math.isclose(row[col], ref_row[col], rel_tol=HSIC_RTOL,
                                abs_tol=HSIC_ATOL):
                return f"row {i}: {name} {row[col]!r} != {ref_row[col]!r}"
    return None


def check(subcommand: str, result: CommandResult, ref: dict) -> str | None:
    """Why the command counts as failed, or None when it passed."""
    if result.error is not None:
        return f"raised {result.error}"
    if result.exit_code != 0:
        return f"exit code {result.exit_code}: {result.stderr.strip()[-200:]}"
    try:
        got = parse(subcommand, result.stdout)
    except ValueError as exc:
        return f"unparseable output: {exc}"
    return compare(subcommand, got, ref)
