"""Byte-identity gate: do two source trees give the same kerndep CLI output?

Runs one list of kerndep commands under this checkout's src/ and under the
src/ of another checkout (--against DIR, a git clone or git archive of the
commit to compare with), each tree in its own Python process with
OPENBLAS_NUM_THREADS=1, and compares each command's stdout, exit code and
heatmap files. With each heatmap the worker also writes the float64 bytes of
the similarity matrix it shows, so a change below the 8-bit pixels counts as
a difference too. The commands run on pools this script writes with numpy:

- eval --episodes 6 --verbose on each of 16 pools of 32 classes x 40 rows
  (d = 64, separation 6, noise 1.5), in six modes: the default with
  --dump-heatmaps; --kernel imq; --gamma 0; --loss ncc with --dump-heatmaps;
  normalize_features = false (a config file) with --dump-heatmaps; and a
  config file that sets grid_coefficients and epsilon (GRID and EPSILON);
- the same on each of 4 pools like those whose rows 10-15 of every 16 in a
  class repeat rows 4-9 (REPEATS), in three modes: the default, --kernel
  imq and normalize_features = false, so duplicate rows reach the kernels'
  close-pair paths;
- hsic --format csv on each of 4 pools of 40 classes x 60 rows (d = 64),
  in five modes: Gaussian, --kernel imq, --grid GRID --epsilon EPSILON,
  and Gaussian and imq with --labels-from a file of the pool's labels in
  shuffled order (so the search groups the rows by class itself);
- the rows of eval pool 0 and hsic pool 0 again, written as CSV, in the
  default eval mode and the Gaussian hsic mode, so the text reader is
  gated too.

That is 130 commands; --quick runs one pool of each kind, one episode and a
few rows per class instead, and leaves out the repeated-row and CSV pools,
the two GRID and the two shuffled-label modes (7 commands). stdout gets a
header and one row: commands, identical, different. Each differing command goes to
stderr with what differs (stdout, exit, pgm: the heatmap files, f64: the
matrices' float64 bytes) and how much: the largest relative difference of
the numbers that differ, |a - b| / max(|a|, |b|) for each number in its
stdout (when the two print the same text around their numbers), and over
each f64 matrix the largest |a - b| against its largest entry. So a change
that moves numbers at rounding level reads its tolerance from here. The
exit code is 1 on any difference. Every command is meant to succeed: when
one exits nonzero in this checkout, its name goes to stderr too, and the
exit code is 2 if nothing differs.

    python scripts/byte_identity_gate.py --against ../parent-checkout
"""

import argparse
import contextlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DIM = 64  # at least the class count, so every class has its own mean direction
# a user-set bandwidth grid and epsilon, each valid and not the default;
# 1e100 times the median base still squares to a finite float64
GRID = "0.25,0.75,1.5,1e100"
EPSILON = "1e-4"
# config files by name: a mode's "{name}" argument is the file's path
CONFIGS = {
    "raw-rows": "normalize_features = false\n",
    "grid": f"grid_coefficients = {GRID}\nepsilon = {EPSILON}\n",
}
EVAL_MODES = {
    "default": ["--dump-heatmaps", "{dump}"],
    "imq": ["--kernel", "imq"],
    "gamma0": ["--gamma", "0"],
    "ncc": ["--loss", "ncc", "--dump-heatmaps", "{dump}"],
    "raw-rows": ["--config", "{raw-rows}", "--dump-heatmaps", "{dump}"],
    "grid": ["--config", "{grid}"],
}
HSIC_MODES = {
    "gaussian": ["--kernel", "gaussian"],
    "imq": ["--kernel", "imq"],
    "grid": ["--grid", GRID, "--epsilon", EPSILON],
    "shuffled": ["--kernel", "gaussian", "--labels-from", "{labels}"],
    "shuffled-imq": ["--kernel", "imq", "--labels-from", "{labels}"],
}
REPEAT_MODES = ("default", "imq", "raw-rows")  # the eval modes of the repeated-row pools
REPEATS, REPEAT_POOLS = 6, 4  # rows repeated in every 16 of a class; pools, none with --quick
QUICK_SKIPS = {"grid", "shuffled", "shuffled-imq"}  # modes --quick leaves out
# (pools, episodes, rows per class) of each kind, in full and with --quick
EVAL_SIZE = {False: (16, 6, 40), True: (1, 1, 6)}
HSIC_SIZE = {False: (4, 60), True: (1, 5)}


def write_pool(path, seed, classes, per_class, repeats=0, separation=6.0, noise=1.5):
    """Gaussian blobs around class means on orthonormal directions. A .csv
    path gets a label,f0,... header and one line per row, each value as
    numpy prints its float32; any other path the EMB1 binary format (magic,
    version byte, uint32 class count, then per class uint32 rows, uint32
    dimension and little-endian float32 rows). In each class the last
    repeats rows of every 16 copy the repeats rows before them."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((DIM, classes)))
    k = np.arange(per_class)
    copies = k % 16 >= 16 - repeats
    blocks = []
    for mean in separation * q.T:
        rows = mean + noise * rng.standard_normal((per_class, DIM))
        rows[copies] = rows[k[copies] - repeats]
        blocks.append(rows.astype("<f4"))
    if Path(path).suffix == ".csv":
        lines = [",".join(["label"] + [f"f{i}" for i in range(DIM)])]
        lines += [",".join([str(c)] + [str(np.float32(v)) for v in row])
                  for c, rows in enumerate(blocks) for row in rows]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        return
    with open(path, "wb") as fh:
        fh.write(b"EMB1" + struct.pack("<BI", 1, classes))
        for rows in blocks:
            fh.write(struct.pack("<II", per_class, DIM) + rows.tobytes())


def plan(quick: bool, pools: Path) -> dict:
    """Write the pools (and each hsic pool's shuffled label file) and return
    {command name: argv}, with {dump} left for each tree's heatmap
    directory."""
    configs = {}
    for name, text in CONFIGS.items():
        path = pools / f"{name}.cfg"
        path.write_text(text, encoding="utf-8")
        configs[f"{{{name}}}"] = str(path)
    skips = QUICK_SKIPS if quick else set()
    commands = {}
    variants, episodes, per_class = EVAL_SIZE[quick]
    # (name, file suffix, seed, repeats, modes) of each eval pool
    eval_pools = [(f"eval-{v}", ".emb", [v, 32], 0, EVAL_MODES) for v in range(variants)]
    if not quick:
        eval_pools += [(f"repeat-{v}", ".emb", [v, 32, REPEATS], REPEATS, REPEAT_MODES)
                       for v in range(REPEAT_POOLS)]
        eval_pools.append(("csv-eval-0", ".csv", [0, 32], 0, ("default",)))
    for name, suffix, seed, repeats, modes in eval_pools:
        pool = pools / f"{name}{suffix}"
        write_pool(pool, seed, 32, per_class, repeats)
        for mode in modes:
            if mode not in skips:
                commands[f"{name}-{mode}"] = [
                    "eval", "--embeddings", str(pool), "--episodes", str(episodes),
                    "--verbose", *(configs.get(a, a) for a in EVAL_MODES[mode])]
    variants, per_class = HSIC_SIZE[quick]
    # (name, file suffix, seed, modes) of each hsic pool
    hsic_pools = [(f"hsic-{v}", ".emb", [v, 40], HSIC_MODES) for v in range(variants)]
    if not quick:
        hsic_pools.append(("csv-hsic-0", ".csv", [0, 40], ("gaussian",)))
    for name, suffix, seed, modes in hsic_pools:
        pool = pools / f"{name}{suffix}"
        write_pool(pool, seed, 40, per_class)
        labels = pools / f"{name}.labels"
        shuffled = np.random.default_rng(seed).permutation(np.repeat(np.arange(40), per_class))
        labels.write_text("".join(f"{c}\n" for c in shuffled), encoding="utf-8")
        for mode in modes:
            if mode not in skips:
                commands[f"{name}-{mode}"] = [
                    "hsic", "--embeddings", str(pool), "--format", "csv",
                    *(a.replace("{labels}", str(labels)) for a in HSIC_MODES[mode])]
    return commands


def worker(plan_path, out_dir):
    """Run every command of the plan in this process with kerndep.cli.main,
    each dumping into out_dir/<name>, and write out_dir/results.json: per
    command its exit code (or the exception it raised) and stdout, and the
    kerndep package file imported. Beside each heatmap X.pgm goes X.f64,
    the float64 bytes of the matrix it shows."""
    import kerndep.cli

    export = kerndep.cli.similarity_export

    def export_with_values(result, path, fmt="csv", which="support"):
        export(result, path, fmt, which=which)
        matrix = (result.support_similarity if which == "support"
                  else result.query_support_similarity)
        Path(path).with_suffix(".f64").write_bytes(np.asarray(matrix, np.float64).tobytes())

    kerndep.cli.similarity_export = export_with_values
    out_dir = Path(out_dir)
    results = {"kerndep": kerndep.__file__, "commands": {}}
    for name, argv in json.loads(Path(plan_path).read_text(encoding="utf-8")).items():
        argv = [a.replace("{dump}", str(out_dir / name)) for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = kerndep.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a bug in the tree: reported, and the run goes on
                traceback.print_exc(file=sys.__stderr__)
                code = f"raised {type(exc).__name__}"
        results["commands"][name] = {"exit": code, "stdout": stdout.getvalue()}
    (out_dir / "results.json").write_text(json.dumps(results), encoding="utf-8")


def dumps(directory: Path, suffix: str) -> dict:
    if not directory.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(directory.glob(f"*{suffix}"))}


# a decimal number as Python prints a float or an int
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def relative_difference(this: np.ndarray, against: np.ndarray, entrywise: bool) -> float:
    """The largest relative difference of two float64 arrays of one shape
    over the entries that differ (NaN equals NaN), or 0.0 when none does.
    Entrywise it is the largest |a - b| / max(|a|, |b|), 1.0 when one of a
    pair is 0. Otherwise it is the largest |a - b| over the largest |a| or
    |b| in the whole array: the measure for a matrix, whose entries near 0
    (a cosine of 1e-9, say) hold no digits of their own."""
    differ = ~((this == against) | (np.isnan(this) & np.isnan(against)))
    if not differ.any():
        return 0.0
    gap = np.abs(this[differ] - against[differ])
    if entrywise:
        return float(np.max(gap / np.maximum(np.abs(this[differ]), np.abs(against[differ]))))
    return float(np.max(gap) / np.max(np.maximum(np.abs(this), np.abs(against))))


def difference_size(this_stdout: str, against_stdout: str, this_f64: dict,
                    against_f64: dict) -> float | None:
    """The largest relative difference between two runs of one command (see
    relative_difference): entrywise over the numbers of the two stdouts,
    when the text around them is the same, and over each pair of f64
    matrices (bytes, by file name) of one size. None when neither can be
    compared."""
    sizes = []
    if NUMBER.sub("#", this_stdout) == NUMBER.sub("#", against_stdout):
        sizes.append(relative_difference(
            *(np.array([float(x) for x in NUMBER.findall(text)])
              for text in (this_stdout, against_stdout)), entrywise=True))
    for name in sorted(this_f64.keys() & against_f64.keys()):
        a, b = (np.frombuffer(f64[name], dtype=np.float64) for f64 in (this_f64, against_f64))
        if a.shape == b.shape:
            sizes.append(relative_difference(a, b, entrywise=False))
    return max(sizes) if sizes else None


def differences(name: str, tmp: Path, results: dict) -> tuple[list, float | None]:
    """What differs between the two trees' runs of one command, and by how
    much (see difference_size)."""
    this, against = (results[tree]["commands"][name] for tree in ("this", "against"))
    parts = [part for part in ("stdout", "exit") if this[part] != against[part]]
    dumped = {suffix: [dumps(tmp / tree / name, suffix) for tree in ("this", "against")]
              for suffix in (".pgm", ".f64")}
    parts += [suffix[1:] for suffix, (a, b) in dumped.items() if a != b]
    size = difference_size(this["stdout"], against["stdout"], *dumped[".f64"]) if parts else None
    return parts, size


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, type=Path,
                    help="the checkout to compare with; its src/ is imported")
    ap.add_argument("--quick", action="store_true",
                    help="one pool of each kind, one episode, a few rows per class")
    args = ap.parse_args()

    trees = {"this": ROOT / "src", "against": args.against.resolve() / "src"}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        commands = plan(args.quick, tmp)
        plan_path = tmp / "plan.json"
        plan_path.write_text(json.dumps(commands), encoding="utf-8")
        procs = {}
        for tree, src in trees.items():
            (tmp / tree).mkdir()
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
            procs[tree] = subprocess.Popen(
                [sys.executable, __file__, "--worker", str(plan_path), str(tmp / tree)],
                env=env)
        for tree, proc in procs.items():
            if proc.wait() != 0:
                sys.exit(f"the worker for {trees[tree]} exited with {proc.returncode}")
        results = {tree: json.loads((tmp / tree / "results.json").read_text(encoding="utf-8"))
                   for tree in trees}
        for tree, src in trees.items():
            if not Path(results[tree]["kerndep"]).resolve().is_relative_to(src):
                sys.exit(f"kerndep was imported from {results[tree]['kerndep']}, not {src}")
        different = {name: found for name in commands
                     if (found := differences(name, tmp, results))[0]}
        failed = {name: r["exit"] for name, r in results["this"]["commands"].items()
                  if r["exit"] != 0}

    print(f"{'commands':>8} {'identical':>9} {'different':>9}")
    print(f"{len(commands):>8} {len(commands) - len(different):>9} {len(different):>9}")
    for name, (parts, size) in different.items():
        by = "" if size is None else f": largest relative difference {size:.3g}"
        print(f"different: {name} ({', '.join(parts)}){by}", file=sys.stderr)
    for name, code in failed.items():
        print(f"exited {code}: {name}", file=sys.stderr)
    return 1 if different else 2 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:])
    else:
        sys.exit(main())
