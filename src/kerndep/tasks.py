"""Vary-way vary-shot task sampling, synthetic datasets, and embedding file I/O.

Datasets hold one float32 matrix per class (matching the 32-bit file
payloads); tasks hand float64 copies to the adaptation code. The sampler
draws the way count, a class subset, a query size shared by all classes,
a support budget, and per-class shot counts, in that order, from a single
random stream.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"EMB1"
FORMAT_VERSION = 1

LOG_HALF = math.log(0.5)
LOG_TWO = math.log(2.0)


class EmbeddingFormatError(ValueError):
    """Raised for malformed embedding files; carries the offending byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass
class EmbeddingDataset:
    """Per-class embedding matrices sharing one dimensionality.

    Matrices are stored as float32 so that a save/load round trip through
    either file format is bit-exact.
    """

    classes: list[np.ndarray]
    d: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        if len(self.classes) == 0:
            raise ValueError("dataset must contain at least one class")
        cast = []
        for i, mat in enumerate(self.classes):
            mat = np.asarray(mat, dtype=np.float32)
            if mat.ndim != 2:
                raise ValueError(f"class {i} matrix must be 2-D, got shape {mat.shape}")
            if mat.shape[1] != self.d:
                raise ValueError(
                    f"class {i} has dimension {mat.shape[1]}, expected {self.d}"
                )
            cast.append(mat)
        if self.d < 1:
            raise ValueError(f"embedding dimension must be positive, got {self.d}")
        self.classes = cast

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def sizes(self) -> list[int]:
        return [mat.shape[0] for mat in self.classes]


@dataclass
class SamplerConfig:
    n_max: int = 50
    max_support: int = 500
    max_query_per_class: int = 10
    max_shots_per_class: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_max < 5:
            raise ValueError(f"n_max must be at least 5, got {self.n_max}")
        if self.max_support < 1 or self.max_query_per_class < 1 or self.max_shots_per_class < 1:
            raise ValueError("sampler caps must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class TaskProvenance:
    dataset: str
    seed: int
    episode: int


@dataclass
class Task:
    support_x: np.ndarray
    support_y: np.ndarray
    query_x: np.ndarray
    query_y: np.ndarray
    provenance: TaskProvenance


def sample_way_count(rng: np.random.Generator, available_classes: int, n_max: int) -> int:
    """Uniform way count in [5, min(n_max, available_classes)]."""
    upper = min(int(n_max), int(available_classes))
    if upper < 5:
        raise ValueError(f"need at least 5 classes to sample a task, got {available_classes}")
    return int(rng.integers(5, upper + 1))


def compute_query_size(selected_class_sizes, max_query: int = 10) -> int:
    """Shared per-class query count: min(max_query, floor(smallest class / 2))."""
    sizes = [int(s) for s in selected_class_sizes]
    if any(s < 2 for s in sizes):
        raise ValueError("every selected class needs at least 2 examples")
    return min(int(max_query), min(s // 2 for s in sizes))


def compute_support_size(rng: np.random.Generator, selected_class_sizes, q: int,
                         max_support: int = 500, max_shots: int = 100) -> int:
    """Support budget s = min(max_support, sum_c ceil(beta * min(max_shots, |c| - q)))
    with beta drawn from (0, 1]."""
    sizes = [int(s) for s in selected_class_sizes]
    if any(s - q < 1 for s in sizes):
        raise ValueError("every selected class needs at least one row left after the query split")
    beta = 1.0 - float(rng.random())
    total = sum(math.ceil(beta * min(int(max_shots), s - q)) for s in sizes)
    return min(int(max_support), total)


def compute_shots(rng: np.random.Generator, selected_class_sizes, q: int, s: int) -> list[int]:
    """Per-class shot counts from log-uniform class weights.

    alpha_c ~ uniform[log 0.5, log 2); R_c = exp(alpha_c)|c| / sum; the class
    gets min(floor(R_c (s - N)) + 1, |c| - q) shots.
    """
    sizes = np.asarray([int(v) for v in selected_class_sizes], dtype=np.float64)
    n = sizes.size
    if s < n:
        raise ValueError(f"support budget {s} is below the class count {n}")
    alphas = rng.uniform(LOG_HALF, LOG_TWO, size=n)
    weights = np.exp(alphas) * sizes
    ratios = weights / weights.sum()
    shots = np.floor(ratios * (s - n)).astype(np.int64) + 1
    caps = sizes.astype(np.int64) - q
    return [int(min(k, c)) for k, c in zip(shots, caps)]


def sample_task(dataset: EmbeddingDataset, cfg: SamplerConfig, rng: np.random.Generator,
                seed: int | None = None, episode: int = 0) -> Task:
    """Draw one vary-way vary-shot task.

    Stream order: way count, class subset, support-budget beta, shot alphas,
    then one index draw per selected class. Support and query indices within
    a class are disjoint. Every task has at least 5 classes, each with at
    least one support row, so it meets the episode preconditions of at least
    4 support rows over at least 2 classes.
    """
    eligible = [i for i, size in enumerate(dataset.sizes) if size >= 2]
    if len(eligible) < 5:
        raise ValueError(
            f"dataset needs at least 5 classes with 2+ examples, got {len(eligible)}"
        )
    provenance = TaskProvenance(
        dataset=dataset.name,
        seed=int(seed) if seed is not None else cfg.seed,
        episode=int(episode),
    )
    n_way = sample_way_count(rng, len(eligible), cfg.n_max)
    chosen = rng.choice(len(eligible), size=n_way, replace=False)
    class_ids = [eligible[i] for i in chosen]
    sizes = [dataset.sizes[c] for c in class_ids]
    q = compute_query_size(sizes, cfg.max_query_per_class)
    s = compute_support_size(rng, sizes, q, cfg.max_support, cfg.max_shots_per_class)
    shots = compute_shots(rng, sizes, q, s)
    support_parts = []
    query_parts = []
    for class_id, k in zip(class_ids, shots):
        mat = dataset.classes[class_id]
        idx = rng.choice(mat.shape[0], size=k + q, replace=False)
        support_parts.append(mat[idx[:k]])
        query_parts.append(mat[idx[k:]])
    support_x = np.concatenate(support_parts).astype(np.float64)
    query_x = np.concatenate(query_parts).astype(np.float64)
    support_y = np.repeat(np.arange(n_way, dtype=np.int64), shots)
    query_y = np.repeat(np.arange(n_way, dtype=np.int64), q)
    return Task(support_x, support_y, query_x, query_y, provenance)


def synth_dataset(n_classes: int, per_class: int, d: int, separation: float,
                  noise: float, rng: np.random.Generator) -> EmbeddingDataset:
    """Gaussian blob dataset with class means on orthonormal directions.

    Means are separation * (orthonormal vectors) obtained by QR decomposition
    of a random matrix, so any two means are separation * sqrt(2) apart. When
    n_classes exceeds d an orthonormal set does not exist and random unit
    directions are used instead. Samples add isotropic noise to the mean.
    """
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    if per_class < 2:
        raise ValueError(f"need at least 2 examples per class, got {per_class}")
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if separation < 0 or noise < 0:
        raise ValueError("separation and noise must be non-negative")
    if n_classes <= d:
        a = rng.standard_normal((d, n_classes))
        q_mat, r_mat = np.linalg.qr(a)
        signs = np.sign(np.diag(r_mat))
        signs[signs == 0] = 1.0
        directions = (q_mat * signs).T
    else:
        g = rng.standard_normal((n_classes, d))
        directions = g / np.linalg.norm(g, axis=1, keepdims=True)
    means = separation * directions
    classes = [
        means[c] + noise * rng.standard_normal((per_class, d))
        for c in range(n_classes)
    ]
    return EmbeddingDataset(classes=classes, d=d, name="synthetic")


def synth_task(n_way: int, n_shot: int, n_query: int, d: int, separation: float,
               noise: float, rng: np.random.Generator, seed: int = 0,
               episode: int = 0) -> Task:
    """Fixed-way fixed-shot synthetic task (rows are i.i.d., so the first
    n_shot rows of each class serve as support and the rest as query)."""
    if n_shot < 1 or n_query < 1:
        raise ValueError("n_shot and n_query must be positive")
    ds = synth_dataset(n_way, n_shot + n_query, d, separation, noise, rng)
    support_x = np.concatenate([mat[:n_shot] for mat in ds.classes]).astype(np.float64)
    query_x = np.concatenate([mat[n_shot:] for mat in ds.classes]).astype(np.float64)
    support_y = np.repeat(np.arange(n_way, dtype=np.int64), n_shot)
    query_y = np.repeat(np.arange(n_way, dtype=np.int64), n_query)
    return Task(support_x, support_y, query_x, query_y,
                TaskProvenance("synthetic", int(seed), int(episode)))


def flatten_dataset(dataset: EmbeddingDataset) -> tuple[np.ndarray, np.ndarray]:
    """Stack all rows into one float64 matrix with block labels.

    Empty classes are skipped and the remaining ids are compacted so the
    label vector covers a contiguous range.
    """
    mats = [np.asarray(mat, dtype=np.float64) for mat in dataset.classes if mat.shape[0] > 0]
    if not mats:
        raise ValueError("dataset contains no samples")
    z = np.concatenate(mats)
    y = np.repeat(np.arange(len(mats), dtype=np.int64), [mat.shape[0] for mat in mats])
    return z, y


def _write_emb1(dataset: EmbeddingDataset, path: Path) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("B", FORMAT_VERSION))
        fh.write(struct.pack("<I", dataset.n_classes))
        for mat in dataset.classes:
            fh.write(struct.pack("<II", mat.shape[0], dataset.d))
            fh.write(np.ascontiguousarray(mat, dtype="<f4").tobytes())


def _read_exact(fh, n: int, offset: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise EmbeddingFormatError(f"truncated file while reading {what}", offset + len(buf))
    return buf


def _read_emb1(path: Path) -> EmbeddingDataset:
    with open(path, "rb") as fh:
        offset = 0
        magic = _read_exact(fh, 4, offset, "magic")
        if magic != MAGIC:
            raise EmbeddingFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
        offset += 4
        version = _read_exact(fh, 1, offset, "version")[0]
        if version != FORMAT_VERSION:
            raise EmbeddingFormatError(
                f"unsupported format version {version}, expected {FORMAT_VERSION}", offset
            )
        offset += 1
        n_classes = struct.unpack("<I", _read_exact(fh, 4, offset, "class count"))[0]
        offset += 4
        if n_classes == 0:
            raise EmbeddingFormatError("file contains no classes", offset)
        classes = []
        d = None
        for c in range(n_classes):
            header = _read_exact(fh, 8, offset, f"class {c} header")
            n_rows, class_d = struct.unpack("<II", header)
            if d is None:
                if class_d == 0:
                    raise EmbeddingFormatError(f"class {c} declares dimension 0", offset)
                d = class_d
            elif class_d != d:
                raise EmbeddingFormatError(
                    f"class {c} dimension {class_d} disagrees with {d}", offset
                )
            offset += 8
            n_bytes = n_rows * class_d * 4
            payload = _read_exact(fh, n_bytes, offset, f"class {c} payload")
            offset += n_bytes
            mat = np.frombuffer(payload, dtype="<f4").reshape(n_rows, class_d)
            classes.append(mat.copy())
        trailing = fh.read(1)
        if trailing:
            raise EmbeddingFormatError("trailing data after the last class payload", offset)
    return EmbeddingDataset(classes=classes, d=int(d), name=path.stem)


def _float32_repr(value: np.float32) -> str:
    # numpy's shortest repr round-trips through float32 exactly
    return str(np.float32(value))


def _write_csv(dataset: EmbeddingDataset, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i}" for i in range(dataset.d)])
        for label, mat in enumerate(dataset.classes):
            for row in mat:
                writer.writerow([label] + [_float32_repr(v) for v in row])


def _read_csv(path: Path) -> EmbeddingDataset:
    try:
        return _read_csv_inner(path)
    except (csv.Error, UnicodeDecodeError) as exc:
        # binary or mis-encoded bytes reaching the text parser
        raise EmbeddingFormatError(f"not a readable CSV file: {exc}") from None


def _read_csv_inner(path: Path) -> EmbeddingDataset:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmbeddingFormatError("empty CSV file", 0) from None
        if len(header) < 2 or header[0] != "label":
            raise EmbeddingFormatError(
                f"bad CSV header {header!r}: expected label,f0,...", 0
            )
        d = len(header) - 1
        expected = ["label"] + [f"f{i}" for i in range(d)]
        if header != expected:
            raise EmbeddingFormatError(
                f"bad CSV header {header!r}: expected {expected!r}", 0
            )
        rows_by_label: dict[int, list[np.ndarray]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise EmbeddingFormatError(
                    f"line {lineno}: expected {d + 1} fields, got {len(row)}"
                )
            try:
                label = int(row[0])
                values = np.array([np.float32(v) for v in row[1:]], dtype=np.float32)
            except ValueError as exc:
                raise EmbeddingFormatError(f"line {lineno}: {exc}") from None
            rows_by_label.setdefault(label, []).append(values)
        if not rows_by_label:
            raise EmbeddingFormatError("CSV file contains no data rows")
        labels = sorted(rows_by_label)
        if labels != list(range(len(labels))):
            raise EmbeddingFormatError(
                f"labels must cover a contiguous range starting at 0, got {labels}"
            )
        classes = [np.vstack(rows_by_label[label]) for label in labels]
    return EmbeddingDataset(classes=classes, d=d, name=path.stem)


def save_embeddings(dataset: EmbeddingDataset, path) -> None:
    """Write the dataset; a .csv suffix selects the text format, anything
    else the binary one. Labels are implicit in the class-block order."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        _write_csv(dataset, path)
    else:
        _write_emb1(dataset, path)


def load_embeddings(path) -> EmbeddingDataset:
    """Read a dataset, sniffing the binary magic before falling back to CSV."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return _read_emb1(path)
    return _read_csv(path)
