"""Paired gate for raw against L2-normalized rows: does the raw path earn its code?

Each pool draws the same synthetic tasks for both arms. Per (pool, loss,
learning rate) cell, each task runs one episode with normalize_features on
and one with it off, and the script prints the mean raw-minus-normalized
query accuracy with its standard error. The pools:

- isotropic: synth_task(5, 10, 15, 16, 3.0, 1.5), Gaussian blobs, d = 16;
- rectified: max(x + 1, 0) of the rows of synth_task(5, 10, 10, 16, 3.0, 1.5);
- nuisance: synth_task(5, 40, 15, 16, 3.0, 1.5) with 48 appended columns of
  N(0, 3^2) noise, so d = 64.

A cell whose difference lies within 2 se of 0 gives the raw path nothing to
show there.
"""

import argparse
import math

import numpy as np

from kerndep.adapt import AdaptConfig, run_episode
from kerndep.tasks import Task, synth_task


def isotropic(rng):
    return synth_task(5, 10, 15, 16, 3.0, 1.5, rng)


def rectified(rng):
    task = synth_task(5, 10, 10, 16, 3.0, 1.5, rng)
    return Task(np.maximum(task.support_x + 1.0, 0.0), task.support_y,
                np.maximum(task.query_x + 1.0, 0.0), task.query_y)


def nuisance(rng):
    task = synth_task(5, 40, 15, 16, 3.0, 1.5, rng)

    def widen(x):
        return np.hstack([x, rng.normal(0.0, 3.0, size=(x.shape[0], 48))])

    return Task(widen(task.support_x), task.support_y, widen(task.query_x), task.query_y)


POOLS = {"isotropic": isotropic, "rectified": rectified, "nuisance": nuisance}


def paired_diffs(pool, loss, lr, steps, n_tasks, base):
    accuracies = np.empty((2, n_tasks))
    for arm, normalize in enumerate((False, True)):
        cfg = AdaptConfig(loss=loss, learning_rate=lr, steps=steps,
                          normalize_features=normalize)
        for seed in range(n_tasks):
            task = POOLS[pool](np.random.default_rng([base, seed]))
            accuracies[arm, seed] = run_episode(task, cfg).query_accuracy
    return accuracies


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pools", nargs="+", choices=sorted(POOLS), default=list(POOLS))
    ap.add_argument("--losses", nargs="+", choices=["mokd", "ncc"], default=["mokd", "ncc"])
    ap.add_argument("--learning-rates", type=float, nargs="+",
                    default=[0.25, 2.5, 25.0, 100.0])
    ap.add_argument("--steps", type=int, default=40)
    ap.add_argument("--tasks", type=int, default=20)
    ap.add_argument("--base-seed", type=int, default=808080)
    args = ap.parse_args()

    print(f"{'pool':>10} {'loss':>5} {'lr':>7} {'raw':>7} {'norm':>7} "
          f"{'raw-norm':>9} {'se':>7}")
    for pool in args.pools:
        for loss in args.losses:
            for lr in args.learning_rates:
                raw, norm = paired_diffs(pool, loss, lr, args.steps, args.tasks,
                                         args.base_seed)
                d = raw - norm
                se = d.std(ddof=1) / math.sqrt(d.size) if d.size > 1 else math.nan
                print(f"{pool:>10} {loss:>5} {lr:7.2f} {raw.mean():7.3f} {norm.mean():7.3f} "
                      f"{d.mean():+9.3f} {se:7.3f}")


if __name__ == "__main__":
    main()
