"""Synthetic long-tailed datasets, CSV ingestion and deterministic splits.

The synthetic generator draws an isotropic Gaussian blob per class, with
class sizes decaying geometrically so a single knob controls the
imbalance ratio. CSV files use the header ``f0,...,f{d-1},label`` with
floats written in shortest round-trip decimal.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IngestionError, UsageError, check_fields


@dataclass(frozen=True)
class DatasetTable:
    """Feature matrix with integer class labels in [0, k)."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray    # (n,) int64
    k: int

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2 or labels.ndim != 1 or features.shape[0] != labels.size:
            raise ConfigError(
                f"inconsistent table: features {features.shape}, labels {labels.shape}")
        if not np.isfinite(features).all():
            raise ConfigError("features contain NaN or inf")
        if labels.size and (labels.min() < 0 or labels.max() >= self.k):
            raise ConfigError(f"labels must lie in [0, {self.k})")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def onehot(self) -> np.ndarray:
        out = np.zeros((self.n, self.k))
        out[np.arange(self.n), self.labels] = 1.0
        return out

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)

    def take(self, indices) -> "DatasetTable":
        idx = np.asarray(indices, dtype=np.int64)
        return DatasetTable(self.features[idx], self.labels[idx], self.k)


@dataclass(frozen=True)
class LongTailSpec:
    """Shape of a synthetic long-tailed mixture.

    Class j receives round(head_count * decay^j) samples (at least one),
    drawn from an isotropic Gaussian of the given spread around class
    means placed at pairwise distance >= separation.
    """

    k: int
    head_count: int
    decay: float
    d: int
    separation: float
    spread: float
    seed: int

    def __post_init__(self):
        check_fields(self)
        if self.k < 1 or self.head_count < 1 or self.d < 1:
            raise ConfigError(f"k, head_count and d must be >= 1: {self}")
        if not (0.0 < self.decay <= 1.0):
            raise ConfigError(f"decay must lie in (0, 1], got {self.decay}")
        if self.spread <= 0.0 or self.separation < 0.0:
            raise ConfigError(f"need spread > 0 and separation >= 0: {self}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def class_counts(self) -> list[int]:
        return [max(1, round(self.head_count * self.decay ** j)) for j in range(self.k)]


def _regular_simplex(k: int) -> np.ndarray:
    """k vertices of a regular simplex in R^(k-1), unit circumradius."""
    v = np.zeros((k, k - 1))
    for i in range(k - 1):
        v[i, i] = math.sqrt(1.0 - float(v[i, :i] @ v[i, :i]))
        for j in range(i + 1, k):
            v[j, i] = (-1.0 / (k - 1) - float(v[j, :i] @ v[i, :i])) / v[i, i]
    return v


def class_means(spec: LongTailSpec) -> np.ndarray:
    """Deterministic mean placement with pairwise distance >= separation."""
    k, d = spec.k, spec.d
    if k == 1:
        return np.zeros((1, d))
    if d >= k - 1:
        verts = _regular_simplex(k)
        # unit circumradius -> pairwise distance sqrt(2k/(k-1))
        verts = verts * (spec.separation / math.sqrt(2.0 * k / (k - 1)))
        means = np.zeros((k, d))
        means[:, : k - 1] = verts
        return means
    rng = np.random.default_rng([spec.seed, 17])
    means = rng.standard_normal((k, d))
    diff = means[:, None, :] - means[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    min_pair = dist[np.triu_indices(k, 1)].min()
    if min_pair <= 0.0:
        raise ConfigError(f"cannot separate {k} class means in {d} dimensions")
    return means * (spec.separation / min_pair)


def generate_longtail(spec: LongTailSpec) -> DatasetTable:
    """Draw the mixture; identical spec and seed give identical bytes."""
    counts = spec.class_counts()
    means = class_means(spec)
    rng = np.random.default_rng([spec.seed, 0])
    blocks = [means[j] + spec.spread * rng.standard_normal((cnt, spec.d))
              for j, cnt in enumerate(counts)]
    labels = np.repeat(np.arange(spec.k, dtype=np.int64), counts)
    return DatasetTable(np.concatenate(blocks, axis=0), labels, spec.k)


def save_csv(table: DatasetTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(table.d)] + ["label"])
        for row, label in zip(table.features, table.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def load_csv(path, k: int | None = None) -> DatasetTable:
    """Parse a dataset CSV; errors cite the 1-based data row.

    Without k, the class count is the largest label L plus one, and
    L + 1 may not exceed the number of data rows.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            features, labels = _parse_rows(csv.reader(fh), path, k)
    except UnicodeDecodeError:
        raise IngestionError(f"{path}: not valid UTF-8") from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise IngestionError(f"{path}: unreadable CSV: {exc}") from None

    if not labels:
        raise IngestionError(f"{path}: no data rows")
    labels_arr = np.array(labels, dtype=np.int64)
    if k is None:
        k = int(labels_arr.max()) + 1
        if k > labels_arr.size:  # cite the first row that holds the largest label
            raise IngestionError(f"{path}: label {k - 1} implies {k} classes, more than the "
                                 f"{labels_arr.size} data rows", int(np.argmax(labels_arr)) + 1)
    present = np.unique(labels_arr)
    n_empty = k - present.size
    if n_empty:
        # the first 10 empty classes lie among the first present.size + 10 labels
        candidates = np.arange(min(k, present.size + 10))
        first = np.setdiff1d(candidates, present)[:10].tolist()
        more = ", ..." if n_empty > len(first) else ""
        warnings.warn(f"{path}: {n_empty} of {k} classes have no samples: "
                      f"{', '.join(map(str, first))}{more}")
    return DatasetTable(np.array(features), labels_arr, k)


def _parse_rows(reader, path, k: int | None) -> tuple[list[list[float]], list[int]]:
    try:
        header = next(reader)
    except StopIteration:
        raise IngestionError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    if "label" not in header:
        raise IngestionError(f"{path}: missing 'label' column")
    d = len(header) - 1
    expected = [f"f{i}" for i in range(d)] + ["label"]
    if header != expected:
        raise IngestionError(f"{path}: header must be f0,...,f{d-1},label, got {header}")

    features: list[list[float]] = []
    labels: list[int] = []
    for row_no, row in enumerate(reader, start=1):
        if len(row) != d + 1:
            raise IngestionError(f"{path}: expected {d + 1} cells, got {len(row)}", row_no)
        try:
            feats = [float(cell) for cell in row[:d]]
        except ValueError as exc:
            raise IngestionError(f"{path}: bad float {exc}", row_no) from None
        if not all(math.isfinite(v) for v in feats):
            raise IngestionError(f"{path}: non-finite feature", row_no)
        try:
            label = int(row[d])
        except ValueError:
            raise IngestionError(f"{path}: bad label {row[d]!r}", row_no) from None
        if label < 0:
            raise IngestionError(f"{path}: negative label {label}", row_no)
        if label > np.iinfo(np.int64).max:
            raise IngestionError(f"{path}: label {label} exceeds the int64 range", row_no)
        if k is not None and label >= k:
            raise IngestionError(f"{path}: label {label} >= declared k={k}", row_no)
        features.append(feats)
        labels.append(label)
    return features, labels


def _allocate(count: int, fractions: np.ndarray) -> np.ndarray:
    """Largest-remainder apportionment of `count` items to `fractions`."""
    raw = count * fractions
    base = np.floor(raw).astype(np.int64)
    short = count - int(base.sum())
    order = np.argsort(-(raw - base), kind="stable")
    base[order[:short]] += 1
    return base


def split_fractions(table: DatasetTable, fractions, seed: int) -> tuple[DatasetTable, ...]:
    """Stratified split into len(fractions) parts; deterministic under seed."""
    fractions = np.asarray(fractions, dtype=np.float64)
    if abs(fractions.sum() - 1.0) > 1e-9 or (fractions < 0).any():
        raise UsageError(f"fractions must be non-negative and sum to 1, got {fractions}")
    rng = np.random.default_rng([seed, 1])
    parts: list[list[int]] = [[] for _ in fractions]
    for j in range(table.k):
        idx = np.nonzero(table.labels == j)[0]
        if idx.size == 0:
            continue
        idx = idx[rng.permutation(idx.size)]
        sizes = _allocate(idx.size, fractions)
        start = 0
        for p, size in enumerate(sizes):
            parts[p].extend(idx[start:start + size].tolist())
            start += size
    tables = tuple(table.take(sorted(p)) for p in parts)
    for p, part in enumerate(tables):
        missing = np.nonzero(part.class_counts() == 0)[0]
        if missing.size:
            warnings.warn(f"split part {p} has no samples for classes {missing.tolist()}")
    return tables
