"""Command-line interface.

Subcommands: synth (write a synthetic embedding dataset), hsic (dependence
table over a bandwidth grid), eval (multi-episode adaptation benchmark).
Exit codes: 0 success, 1 I/O or file-format problems, 2 bad arguments or
validation failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .adapt import LOSS_MODES, AdaptConfig
from .evaluation import evaluate, similarity_export
from .hsic import BandwidthGrid, DEFAULT_EPSILON, select_bandwidth
from .kernels import KERNEL_FAMILIES, as_labels
from .tasks import (
    EmbeddingFormatError,
    SamplerConfig,
    flatten_dataset,
    load_embeddings,
    save_embeddings,
    synth_dataset,
)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(float(p) for p in parts)


# Config keys are the fields of the config dataclasses; each default's type
# picks the value parser.
_DEFAULTS = {f.name: f.default for f in (*fields(AdaptConfig), *fields(SamplerConfig))}
_PARSERS = {key: _parse_bool if isinstance(default, bool)
            else _parse_float_list if isinstance(default, tuple) else type(default)
            for key, default in _DEFAULTS.items()}


def _read_text(path) -> str:
    """The whole of a small text file, decoded as UTF-8. A byte that is not
    UTF-8 is a file-format error, as it is in an embeddings CSV: the error
    names the path and the byte's offset."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EmbeddingFormatError(f"{path}: not UTF-8 text ({exc.reason})", exc.start) from None


def read_config_file(path) -> dict[str, object]:
    """Parse a flat key=value config file with # comments.

    Unknown keys, and a key given twice, are rejected by name; values are
    coerced to the type of the matching config field.
    """
    values: dict[str, object] = {}
    first_line: dict[str, int] = {}
    text = _read_text(path)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ValueError(f"{path}: line {lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ValueError(f"{path}: line {lineno}: config key {key!r} is already "
                             f"set on line {first_line[key]}")
        first_line[key] = lineno
        try:
            values[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: bad value for {key!r}: {exc}") from None
    return values


def cmd_synth(args) -> int:
    rng = np.random.default_rng(args.seed)
    dataset = synth_dataset(args.classes, args.per_class, args.dim,
                            args.separation, args.noise, rng)
    save_embeddings(dataset, args.out)
    print(f"wrote {args.classes} classes x {args.per_class} examples "
          f"(d={args.dim}) to {args.out}")
    return 0


def _load_labels_file(path, n_rows: int) -> np.ndarray:
    lines = _read_text(path).split()
    try:
        labels = np.array([int(v) for v in lines], dtype=np.int64)
    except ValueError as exc:
        raise ValueError(f"{path}: labels must be integers: {exc}") from None
    return as_labels(labels, n_rows)


def cmd_hsic(args) -> int:
    # the float32 pool is not held once flatten_dataset has copied it
    z, block_labels = flatten_dataset(load_embeddings(args.embeddings))
    if args.labels_from == "embedded":
        labels = block_labels
    else:
        labels = _load_labels_file(args.labels_from, z.shape[0])

    if args.grid is not None:
        grid = BandwidthGrid(_parse_float_list(args.grid), args.epsilon)
    else:
        grid = BandwidthGrid(epsilon=args.epsilon)

    selection = select_bandwidth(z, labels, args.kernel, grid)

    header = ("coeff", "sigma", "hsic", "variance", "power_ratio", "selected")
    rows = [(coeff, est.sigma, est.value, est.variance, est.power_ratio,
             int(coeff == selection.coefficient))
            for coeff, est in zip(grid.coefficients, selection.table)]

    if args.format == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(repr(float(v)) if i < 5 else str(v)
                           for i, v in enumerate(row)))
    else:
        print(f"{'coeff':>10} {'sigma':>14} {'hsic':>14} {'variance':>14} "
              f"{'power_ratio':>14}  selected")
        for coeff, sigma, value, variance, ratio, chosen in rows:
            marker = "*" if chosen else ""
            print(f"{coeff:>10.4g} {sigma:>14.6g} {value:>14.6g} {variance:>14.6g} "
                  f"{ratio:>14.6g}  {marker}")
        print(f"selected: coeff={selection.coefficient:.6g} "
              f"sigma={selection.sigma:.6g}")
    return 0


def cmd_eval(args) -> int:
    file_values = read_config_file(args.config) if args.config else {}
    flags = {key: value for key in _DEFAULTS
             if (value := getattr(args, key, None)) is not None}
    settings = {**_DEFAULTS, **file_values, **flags}  # flag > file > default
    adapt_cfg = AdaptConfig(**{f.name: settings.pop(f.name) for f in fields(AdaptConfig)})
    sampler_cfg = SamplerConfig(**settings)

    dataset = load_embeddings(args.embeddings)
    keep = args.dump_heatmaps is not None
    if keep:  # before the episodes run, so a bad DIR fails at once
        out_dir = Path(args.dump_heatmaps)
        out_dir.mkdir(parents=True, exist_ok=True)
    report = evaluate(dataset, sampler_cfg, adapt_cfg, args.episodes, keep_results=keep)

    if keep:
        for i, result in enumerate(report.episode_results):
            similarity_export(result, out_dir / f"episode_{i:04d}_support.pgm",
                              "pgm", which="support")
            similarity_export(result, out_dir / f"episode_{i:04d}_query.pgm",
                              "pgm", which="query")

    if args.verbose:
        for ep in report.per_episode:
            print(f"episode {ep.seed}: accuracy={ep.accuracy:.6f} "
                  f"sigma_zy={ep.sigma_zy:.6f} final_loss={ep.final_loss:.6f}")
    print(f"episodes: {report.episodes}")
    print(f"mean_accuracy: {report.mean_accuracy:.6f}")
    print(f"ci95: {report.ci95:.6f}")
    if report.stepless_episodes:
        print(f"stepless_episodes: {report.stepless_episodes}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerndep",
        description="Kernel-dependence few-shot adaptation on precomputed embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="write a synthetic embedding dataset")
    p_synth.add_argument("--classes", type=int, required=True)
    p_synth.add_argument("--per-class", type=int, required=True)
    p_synth.add_argument("--dim", type=int, required=True)
    p_synth.add_argument("--separation", type=float, default=6.0)
    p_synth.add_argument("--noise", type=float, default=1.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_hsic = sub.add_parser("hsic", help="dependence table over a bandwidth grid")
    p_hsic.add_argument("--embeddings", required=True)
    p_hsic.add_argument("--labels-from", default="embedded",
                        help="'embedded' for class-block labels, or a path to a "
                             "file with one integer label per row")
    p_hsic.add_argument("--kernel", choices=KERNEL_FAMILIES, default="gaussian")
    p_hsic.add_argument("--grid", default=None,
                        help="comma-separated grid coefficients, or a single one")
    p_hsic.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_hsic.add_argument("--format", choices=("table", "csv"), default="table")
    p_hsic.set_defaults(func=cmd_hsic)

    p_eval = sub.add_parser("eval", help="multi-episode adaptation benchmark")
    p_eval.add_argument("--embeddings", required=True)
    p_eval.add_argument("--episodes", type=int, default=100)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--gamma", type=float, default=None)
    p_eval.add_argument("--lr", type=float, default=None, dest="learning_rate",
                        metavar="LR")
    p_eval.add_argument("--steps", type=int, default=None)
    p_eval.add_argument("--weight-decay", type=float, default=None)
    p_eval.add_argument("--kernel", choices=KERNEL_FAMILIES, default=None,
                        dest="kernel_family")
    p_eval.add_argument("--loss", choices=LOSS_MODES, default=None)
    p_eval.add_argument("--config", default=None,
                        help="flat key=value config file; flags win over it")
    p_eval.add_argument("--dump-heatmaps", default=None, metavar="DIR",
                        help="write per-episode similarity heatmaps (PGM)")
    p_eval.add_argument("--verbose", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # EmbeddingFormatError is a ValueError, so this clause comes first
    except (EmbeddingFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # an episode failure that wraps a validation error is a usage error;
        # anything else it wraps is a bug and propagates
        if not isinstance(exc.__cause__, ValueError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
