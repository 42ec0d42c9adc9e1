"""Benchmark workloads: the pools they run on and the kerndep command each runs.

Pools are generated here, not with ``kerndep synth`` or ``synth_dataset``,
so that a change to the program cannot change a workload. The layout written
is the documented EMB1 binary format: the magic ``EMB1``, a version byte (1),
a little-endian uint32 class count, then per class a uint32 row count, a
uint32 dimension and the rows as little-endian float32.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Number of recorded pool variants; ``--seed`` selects variant seed % VARIANTS.
VARIANTS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    classes: int
    per_class: int
    dim: int
    separation: float
    noise: float
    episodes: int | None = None
    extra_args: tuple[str, ...] = ()
    config_text: str | None = None

    def argv(self, pool: Path, config: Path | None) -> list[str]:
        """Arguments for ``kerndep.cli.main``. No ``--jobs`` and no ``--seed``:
        the CLI defaults (logical cores, task-plan seed 0) are what is measured,
        and the fixed task plan gives every run the same amount of work."""
        argv = [self.subcommand, "--embeddings", str(pool)]
        if self.episodes is not None:
            argv += ["--episodes", str(self.episodes)]
        argv += list(self.extra_args)
        if config is not None:
            argv += ["--config", str(config)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        # README quick-start path; m x m distance, kernel and gradient work dominates.
        Workload("eval-mokd", "eval", classes=32, per_class=40, dim=64,
                 separation=6.0, noise=1.5, episodes=6),
        # d x d head work dominates and kernels/hsic are never called: the
        # control for kernel or HSIC changes, and the worst case for threads.
        # Left out of BENCHMARK.json: its time swings too far with host load
        # to be gated (see README.md); run it by hand.
        Workload("eval-ncc-wide", "eval", classes=16, per_class=30, dim=512,
                 separation=5.0, noise=1.0, episodes=8, extra_args=("--loss", "ncc"),
                 config_text="max_support = 200\n"),
        # One m = 2400 grid search over 46 MB Gram matrices; memory-bound.
        Workload("hsic-table", "hsic", classes=40, per_class=60, dim=64,
                 separation=6.0, noise=1.5, extra_args=("--format", "csv")),
    )
}


def make_pool(workload: Workload, variant: int) -> list[np.ndarray]:
    """Gaussian blobs around class means on orthonormal directions
    (``separation`` times the Q factor of a random d x classes matrix)."""
    rng = np.random.default_rng([variant, workload.classes, workload.dim])
    q, _ = np.linalg.qr(rng.standard_normal((workload.dim, workload.classes)))
    means = workload.separation * q.T
    return [
        (means[c] + workload.noise * rng.standard_normal((workload.per_class, workload.dim)))
        .astype("<f4")
        for c in range(workload.classes)
    ]


def write_emb1(classes: list[np.ndarray], path: Path) -> None:
    d = classes[0].shape[1]
    with open(path, "wb") as fh:
        fh.write(b"EMB1" + struct.pack("<BI", 1, len(classes)))
        for mat in classes:
            fh.write(struct.pack("<II", mat.shape[0], d))
            fh.write(np.ascontiguousarray(mat, dtype="<f4").tobytes())


def write_inputs(workload: Workload, variant: int, directory: Path) -> list[str]:
    """Write the pool (and config file, if any) and return the command's argv."""
    directory.mkdir(parents=True, exist_ok=True)
    pool = directory / f"{workload.name}-{variant}.emb"
    write_emb1(make_pool(workload, variant), pool)
    config = None
    if workload.config_text is not None:
        config = directory / f"{workload.name}.cfg"
        config.write_text(workload.config_text, encoding="utf-8")
    return workload.argv(pool, config)
