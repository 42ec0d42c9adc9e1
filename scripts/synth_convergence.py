"""Sweep class separation and noise on synthetic pools, report episode accuracy.

Each grid cell evaluates n episodes of 5-way 10-shot adaptation on a fresh
Gaussian-blob pool and prints mean accuracy with a 95% interval. Useful for
picking separation/noise settings where adaptation is neither trivial nor
hopeless.
"""

import argparse

import numpy as np

from kerndep.adapt import AdaptConfig
from kerndep.evaluation import evaluate
from kerndep.tasks import SamplerConfig, synth_dataset


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--separations", type=float, nargs="+",
                    default=[2.0, 4.0, 6.0])
    ap.add_argument("--noises", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    ap.add_argument("--episodes", type=int, default=30)
    ap.add_argument("--steps", type=int, default=40)
    ap.add_argument("--gamma", type=float, default=3.0)
    ap.add_argument("--dim", type=int, default=16)
    ap.add_argument("--classes", type=int, default=12)
    ap.add_argument("--per-class", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    adapt_cfg = AdaptConfig(gamma=args.gamma, steps=args.steps)
    sampler_cfg = SamplerConfig(seed=args.seed)

    print(f"{'sep':>6} {'noise':>6} {'accuracy':>10} {'ci95':>8}")
    for sep in args.separations:
        for noise in args.noises:
            pool = synth_dataset(args.classes, args.per_class, args.dim,
                                 sep, noise, np.random.default_rng(args.seed))
            report = evaluate(pool, sampler_cfg, adapt_cfg, args.episodes)
            print(f"{sep:6.1f} {noise:6.1f} {report.mean_accuracy:10.4f} "
                  f"{report.ci95:8.4f}")


if __name__ == "__main__":
    main()
