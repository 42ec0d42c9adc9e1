"""Paired sweep: how does each arm do against the first, on the same seeded tasks?

Task i of a pool is drawn from np.random.default_rng([base_seed, i]), anew
for every arm, so each arm runs on the same tasks. Per cell (pool, learning
rate, steps, arm) one line gives the mean query accuracy and its se, the
paired accuracy difference from the first arm and its se, the range over
tasks of the head drift ||theta - I||_F, and the mean final loss over the
episodes that ran a step (NaN when none did). A se is the sample std
(ddof 1) over sqrt(tasks).

Pools (synth_task arguments: way, shot, query, d, separation, noise):

- isotropic: synth_task(5, 10, 15, 16, 3.0, 1.5);
- blobs: synth_task(5, 10, 10, 16, 3.0, 1.5);
- rectified: max(x + 1, 0) of the rows of a blobs task;
- nuisance: synth_task(5, 40, 15, 16, 3.0, 1.5) with 48 appended columns of
  N(0, 3^2) noise, so d = 64;
- weak: synth_task(5, 10, 15, 16, 1.0, 1.5);
- sampled:SEP:NOISE: vary-way vary-shot tasks (default SamplerConfig)
  sampled from synth_dataset(12, 40, 16, SEP, NOISE, default_rng(base_seed)).

An arm is NAME[:KEY=VALUE,...]: AdaptConfig overrides, parsed as in a
kerndep config file, on top of the cell's learning rate and steps, e.g.
g0:gamma=0 or raw:loss=ncc,normalize_features=false. The arm named
identity runs no adaptation: it classifies the query with the identity head.

    python scripts/paired_sweep.py --pools blobs --arms g0:gamma=0 g3:gamma=3
"""

import argparse
import math
import re
from dataclasses import fields

import numpy as np

from kerndep.adapt import AdaptConfig, LinearHead, ncc_predict, run_episode
from kerndep.cli import _PARSERS
from kerndep.tasks import SamplerConfig, Task, sample_task, synth_dataset, synth_task

ADAPT_KEYS = {f.name for f in fields(AdaptConfig)}


def rectified(rng):
    task = synth_task(5, 10, 10, 16, 3.0, 1.5, rng)
    return Task(np.maximum(task.support_x + 1.0, 0.0), task.support_y,
                np.maximum(task.query_x + 1.0, 0.0), task.query_y)


def nuisance(rng):
    task = synth_task(5, 40, 15, 16, 3.0, 1.5, rng)

    def widen(x):
        return np.hstack([x, rng.normal(0.0, 3.0, size=(x.shape[0], 48))])

    return Task(widen(task.support_x), task.support_y, widen(task.query_x), task.query_y)


POOLS = {
    "isotropic": lambda rng: synth_task(5, 10, 15, 16, 3.0, 1.5, rng),
    "blobs": lambda rng: synth_task(5, 10, 10, 16, 3.0, 1.5, rng),
    "rectified": rectified,
    "nuisance": nuisance,
    "weak": lambda rng: synth_task(5, 10, 15, 16, 1.0, 1.5, rng),
}


def pool(spec):
    """Check a pool spec: a name from POOLS, or sampled with two numbers."""
    if spec not in POOLS:
        name, separation, noise = spec.split(":")
        if name != "sampled":
            raise ValueError(spec)
        float(separation), float(noise)
    return spec


def task_source(spec, base_seed):
    """The function i -> task i of the pool spec."""
    if spec in POOLS:
        return lambda i: POOLS[spec](np.random.default_rng([base_seed, i]))
    separation, noise = (float(v) for v in spec.split(":")[1:])
    data = synth_dataset(12, 40, 16, separation, noise, np.random.default_rng(base_seed))
    return lambda i: sample_task(data, SamplerConfig(), np.random.default_rng([base_seed, i]))


def arm(text):
    """NAME[:KEY=VALUE,...] -> (NAME, overrides); a grid_coefficients value may
    hold commas of its own."""
    name, _, spec = text.partition(":")
    overrides = {}
    try:
        for item in filter(None, re.split(r",(?=[a-z_]+=)", spec)):
            key, _, value = item.partition("=")
            if key not in ADAPT_KEYS:
                raise ValueError(f"unknown key {key!r}")
            overrides[key] = _PARSERS[key](value)
        AdaptConfig(**overrides)  # a bad value fails here, before any episode
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"arm {name!r}: {exc}") from None
    return name, overrides


def run(task, name, overrides, lr, steps):
    """(query accuracy, head drift, final loss) of one arm on one task."""
    cfg = AdaptConfig(**{"learning_rate": lr, "steps": steps, **overrides})
    if name == "identity":
        head = LinearHead.identity(task.support_x.shape[1])
        preds = ncc_predict(head, (task.support_x, task.support_y), task.query_x,
                            cfg.normalize_features)
        return float((preds == task.query_y).mean()), 0.0, math.nan
    result = run_episode(task, cfg)
    theta = result.final_head.theta
    drift = float(np.linalg.norm(theta - np.eye(theta.shape[0])))
    return result.query_accuracy, drift, (result.loss_trace or [math.nan])[-1]


def se(x):
    return x.std(ddof=1) / math.sqrt(x.size) if x.size > 1 else math.nan


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pools", type=pool, nargs="+", default=list(POOLS))
    ap.add_argument("--arms", type=arm, nargs="+", default=[arm("identity"), arm("mokd")],
                    help="NAME[:KEY=VALUE,...]; the first arm is the baseline")
    ap.add_argument("--learning-rates", type=float, nargs="+", default=[0.25])
    ap.add_argument("--steps", type=int, nargs="+", default=[40])
    ap.add_argument("--tasks", type=int, default=20)
    ap.add_argument("--base-seed", type=int, default=0)
    args = ap.parse_args(argv)

    print(f"{'pool':>14} {'lr':>7} {'steps':>5} {'arm':>10} {'acc':>8} {'se':>8} "
          f"{'diff':>9} {'se':>8} {'drift_min':>9} {'drift_max':>9} {'loss':>10}")
    for spec in args.pools:
        draw = task_source(spec, args.base_seed)
        for lr in args.learning_rates:
            for steps in args.steps:
                cells = [np.array([run(draw(i), name, overrides, lr, steps)
                                   for i in range(args.tasks)]).T
                         for name, overrides in args.arms]
                for (name, _), (acc, drift, loss) in zip(args.arms, cells):
                    diff = acc - cells[0][0]
                    ran = loss[~np.isnan(loss)]
                    print(f"{spec:>14} {lr:7.2f} {steps:5d} {name:>10} {acc.mean():8.5f} "
                          f"{se(acc):8.5f} {diff.mean():+9.5f} {se(diff):8.5f} "
                          f"{drift.min():9.2e} {drift.max():9.2e} "
                          f"{ran.mean() if ran.size else math.nan:10.4g}")


if __name__ == "__main__":
    main()
