"""Multi-episode evaluation and similarity-matrix export.

Episodes run one after another. Episode i draws its task from its own
random stream, seeded by (SamplerConfig.seed, i), so repeated runs are
bit-identical and a run's first k episodes are those of any longer run.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adapt import AdaptConfig, EpisodeResult, run_episode
from .tasks import EmbeddingDataset, SamplerConfig, _check_integer, sample_task


@dataclass(frozen=True)
class EpisodeSummary:
    """Per-episode record: the episode index (its stream is seeded by
    (SamplerConfig.seed, index)), query accuracy, selected bandwidth, and
    last loss value (NaN when the episode ran no step)."""

    seed: int
    accuracy: float
    sigma_zy: float
    final_loss: float


@dataclass
class EvalReport:
    """One summary per episode; the aggregates are computed from them."""

    per_episode: list[EpisodeSummary]

    @property
    def episodes(self) -> int:
        return len(self.per_episode)

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([ep.accuracy for ep in self.per_episode]))

    @property
    def ci95(self) -> float:
        return ci95([ep.accuracy for ep in self.per_episode])

    @property
    def stepless_episodes(self) -> int:
        """Episodes that ran no step (final_loss NaN): a mokd episode whose
        support set has no class with two rows keeps the identity head, and
        its accuracy is averaged into mean_accuracy all the same."""
        return sum(math.isnan(ep.final_loss) for ep in self.per_episode)


def episode_rng(seed: int, episode: int) -> np.random.Generator:
    """Independent generator for one episode of one run."""
    return np.random.default_rng([int(seed), int(episode)])


def ci95(accuracies) -> float:
    """Normal-approximation half-width: 1.96 * sample std / sqrt(n).

    Zero when there are fewer than two episodes.
    """
    acc = np.asarray(accuracies, dtype=np.float64)
    n = acc.size
    if n < 2:
        return 0.0
    return float(1.96 * acc.std(ddof=1) / math.sqrt(n))


def evaluate(dataset: EmbeddingDataset, sampler_cfg: SamplerConfig,
             adapt_cfg: AdaptConfig, n_episodes: int,
             on_episode: Callable[[int, EpisodeResult], None] | None = None) -> EvalReport:
    """Run n_episodes independent episodes in order and aggregate their accuracies.

    Episode i samples its task with episode_rng(sampler_cfg.seed, i). The
    first failing episode stops the run with a RuntimeError that names it
    and wraps the cause. As each episode ends, on_episode(i, result) sees
    its EpisodeResult, task arrays included; an error it raises propagates
    as it is. The run keeps nothing of a finished episode but its summary.
    """
    _check_integer("n_episodes", n_episodes)
    if n_episodes < 1:
        raise ValueError(f"need at least one episode, got {n_episodes}")
    per_episode = []
    for i in range(n_episodes):
        try:
            task = sample_task(dataset, sampler_cfg, episode_rng(sampler_cfg.seed, i))
            result = run_episode(task, adapt_cfg)
        except Exception as exc:
            raise RuntimeError(f"episode {i} failed: {exc}") from exc
        per_episode.append(EpisodeSummary(
            seed=i, accuracy=result.query_accuracy, sigma_zy=result.sigma_zy,
            final_loss=result.loss_trace[-1] if result.loss_trace else math.nan))
        if on_episode is not None:
            on_episode(i, result)
        del task, result  # not held while the next episode runs
    return EvalReport(per_episode)


def similarity_export(result: EpisodeResult, path, fmt: str = "csv",
                      which: str = "support") -> None:
    """Write one of the episode's similarity matrices.

    csv: comma-separated rows preceded by a comment line listing the start
    index of each support class block. pgm: binary 8-bit grayscale with
    pixel = round(255 * (value + 1) / 2), so -1 maps to 0 and +1 to 255.
    """
    if which not in ("support", "query"):
        raise ValueError(f"which must be 'support' or 'query', got {which!r}")
    mat = result.support_similarity if which == "support" else result.query_support_similarity
    path = Path(path)
    if fmt == "csv":
        lines = ["# class_boundaries: " + ",".join(str(b) for b in result.class_boundaries)]
        for row in mat:
            lines.append(",".join(format(v, ".10g") for v in row))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif fmt == "pgm":
        pixels = np.rint(255.0 * (np.clip(mat, -1.0, 1.0) + 1.0) / 2.0)
        pixels = np.clip(pixels, 0, 255).astype(np.uint8)
        header = f"P5\n{mat.shape[1]} {mat.shape[0]}\n255\n".encode("ascii")
        path.write_bytes(header + pixels.tobytes())
    else:
        raise ValueError(f"format must be 'csv' or 'pgm', got {fmt!r}")
