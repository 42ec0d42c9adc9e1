"""Paired ablation of the self-dependence penalty under optimization pressure.

For each (learning_rate, steps) cell, runs the same synthetic tasks twice,
once with gamma > 0 and once with gamma = 0, and reports the paired mean
accuracy difference with a t statistic. At gentle settings the two runs tie;
at high learning rates the gamma = 0 head degrades with more steps while the
penalized head holds, which is where the positive differences come from.
"""

import argparse
import math

import numpy as np

from kerndep.adapt import AdaptConfig, run_episode
from kerndep.tasks import synth_task


def paired_diffs(gamma, lr, steps, n_seeds, base):
    with_penalty = AdaptConfig(gamma=gamma, steps=steps, learning_rate=lr)
    without = AdaptConfig(gamma=0.0, steps=steps, learning_rate=lr)
    diffs = np.empty(n_seeds)
    for seed in range(n_seeds):
        task = synth_task(5, 10, 10, 16, 3.0, 1.5,
                          np.random.default_rng([base, seed]))
        acc_with = run_episode(task, with_penalty).query_accuracy
        task = synth_task(5, 10, 10, 16, 3.0, 1.5,
                          np.random.default_rng([base, seed]))
        acc_without = run_episode(task, without).query_accuracy
        diffs[seed] = acc_with - acc_without
    return diffs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gamma", type=float, default=3.0)
    ap.add_argument("--learning-rates", type=float, nargs="+",
                    default=[0.25, 1.0, 2.0])
    ap.add_argument("--steps", type=int, nargs="+", default=[40, 160, 480])
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--base-seed", type=int, default=707070)
    args = ap.parse_args()

    print(f"{'lr':>6} {'steps':>6} {'mean diff':>10} {'se':>8} {'t':>7}")
    for lr in args.learning_rates:
        for steps in args.steps:
            d = paired_diffs(args.gamma, lr, steps, args.seeds, args.base_seed)
            se = d.std(ddof=1) / math.sqrt(d.size)
            t = d.mean() / se if se > 0 else float("inf")
            print(f"{lr:6.2f} {steps:6d} {d.mean():+10.4f} {se:8.4f} {t:7.2f}")


if __name__ == "__main__":
    main()
