"""Multi-episode evaluation and similarity-matrix export.

Every episode derives its own random stream from (base_seed, episode index),
so results do not depend on execution order and repeated runs are
bit-identical.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adapt import AdaptConfig, EpisodeResult, run_episode
from .tasks import EmbeddingDataset, SamplerConfig, sample_task


@dataclass(frozen=True)
class EpisodeSummary:
    """Per-episode record: stream seed (the episode index under the base
    seed), query accuracy, selected bandwidth, and last loss value (NaN when
    the episode ran no step)."""

    seed: int
    accuracy: float
    sigma_zy: float
    final_loss: float


@dataclass
class EvalReport:
    episodes: int
    mean_accuracy: float
    ci95: float
    per_episode: list[EpisodeSummary]
    episode_results: list[EpisodeResult] | None = None


def episode_rng(base_seed: int, episode: int) -> np.random.Generator:
    """Independent generator for one episode of one run."""
    return np.random.default_rng([int(base_seed), int(episode)])


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
             adapt_cfg: AdaptConfig, n_episodes: int, base_seed: int,
             jobs: int = 1, keep_results: bool = False) -> EvalReport:
    """Run n_episodes independent episodes and aggregate their accuracies.

    Episodes may run concurrently (jobs > 1); the report is always ordered
    by episode index and identical to a serial run.
    """
    if n_episodes < 1:
        raise ValueError(f"need at least one episode, got {n_episodes}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")

    def one(i: int) -> EpisodeResult:
        try:
            rng = episode_rng(base_seed, i)
            task = sample_task(dataset, sampler_cfg, rng)
            return run_episode(task, adapt_cfg)
        except Exception as exc:
            raise RuntimeError(f"episode {i} failed: {exc}") from exc

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one, range(n_episodes)))
    else:
        results = [one(i) for i in range(n_episodes)]

    accuracies = [r.query_accuracy for r in results]
    per_episode = [
        EpisodeSummary(seed=i, accuracy=r.query_accuracy, sigma_zy=r.sigma_zy,
                       final_loss=r.loss_trace[-1] if r.loss_trace else math.nan)
        for i, r in enumerate(results)
    ]
    return EvalReport(
        episodes=n_episodes,
        mean_accuracy=float(np.mean(accuracies)),
        ci95=ci95(accuracies),
        per_episode=per_episode,
        episode_results=list(results) if keep_results else None,
    )


def _select_matrix(result: EpisodeResult, which: str) -> np.ndarray:
    if which == "support":
        return np.asarray(result.support_similarity, dtype=np.float64)
    if which == "query":
        return np.asarray(result.query_support_similarity, dtype=np.float64)
    raise ValueError(f"which must be 'support' or 'query', got {which!r}")


def similarity_export(result: EpisodeResult, path, fmt: str = "csv",
                      which: str = "support") -> None:
    """Write one of the episode's similarity matrices.

    csv: comma-separated rows preceded by a comment line listing the start
    index of each support class block. pgm: binary 8-bit grayscale with
    pixel = round(255 * (value + 1) / 2), so -1 maps to 0 and +1 to 255.
    """
    mat = _select_matrix(result, which)
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
