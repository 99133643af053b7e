"""Labeled numeric datasets: CSV IO, seeded synthetic blobs, label bookkeeping."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "LabelAssignment",
    "BlobSpec",
    "DatasetError",
    "load_dataset",
    "save_dataset",
    "load_labels",
    "save_labels",
    "generate_blobs",
    "relabel",
    "preset",
    "preset_blob_spec",
    "PRESET_NAMES",
]


class DatasetError(ValueError):
    """Malformed dataset input or invalid construction parameters."""


@dataclass(frozen=True)
class Dataset:
    """An N x m matrix of finite feature values with unique row ids.

    Rows are the instances the relationship graphs are built over; ids
    default to 0..N-1 and stay in bijection with rows.
    """

    values: np.ndarray
    ids: tuple[int, ...] | None = None

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2:
            raise DatasetError(f"values must be 2-D, got shape {values.shape}")
        n, m = values.shape
        if n < 2:
            raise DatasetError(f"need at least 2 rows, got {n}")
        if m < 1:
            raise DatasetError("need at least 1 feature column")
        if not np.isfinite(values).all():
            r, c = np.argwhere(~np.isfinite(values))[0]
            raise DatasetError(f"non-finite value at row {r}, feature {c}")
        # the summed squared per-feature ranges bound every squared
        # pairwise distance, so a finite sum means no distance overflows;
        # distinct rows with a sum below the smallest normal double would
        # get squared distances that underflow to zero or lose precision
        with np.errstate(over="ignore", under="ignore"):
            ranges = values.max(axis=0) - values.min(axis=0)
            spread = np.sum(ranges ** 2)
        if not np.isfinite(spread):
            raise DatasetError(
                "coordinates out of range: squared distances between rows "
                "overflow double precision; rescale the features"
            )
        if ranges.max() > 0 and spread < np.finfo(float).tiny:
            raise DatasetError(
                "coordinates out of range: squared distances between rows "
                "underflow double precision; rescale the features"
            )
        ids = self.ids
        if ids is None:
            ids = tuple(range(n))
        else:
            ids = tuple(int(i) for i in ids)
            if len(ids) != n:
                raise DatasetError(f"{len(ids)} ids for {n} rows")
            if len(set(ids)) != len(ids):
                raise DatasetError("row ids must be unique")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ids", ids)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LabelAssignment:
    """Dense integer label per vertex plus the ordered label vocabulary."""

    labels: np.ndarray
    vocabulary: tuple[str, ...]

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise DatasetError("labels must be a non-empty 1-D sequence")
        vocab = tuple(str(v) for v in self.vocabulary)
        if not vocab:
            raise DatasetError("vocabulary must not be empty")
        if len(set(vocab)) != len(vocab):
            raise DatasetError("vocabulary entries must be distinct")
        if len(vocab) > labels.size:
            raise DatasetError(
                f"vocabulary size {len(vocab)} exceeds vertex count {labels.size}"
            )
        if labels.min() < 0 or labels.max() >= len(vocab):
            raise DatasetError("label ids must index the vocabulary")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "vocabulary", vocab)

    @property
    def n(self) -> int:
        return int(self.labels.size)

    def name_of(self, vertex: int) -> str:
        return self.vocabulary[int(self.labels[vertex])]

    def counts(self) -> np.ndarray:
        """Member count per vocabulary entry (entries may be unused)."""
        return np.bincount(self.labels, minlength=len(self.vocabulary))


@dataclass(frozen=True)
class BlobSpec:
    """Mixture of isotropic Gaussian clusters with a fixed sampling seed.

    clusters is a sequence of (center, stddev, count) triples; all centers
    must share one dimension and the counts must sum to at least 2.
    """

    clusters: tuple[tuple[tuple[float, ...], float, int], ...]
    seed: int = 0

    def __post_init__(self):
        if not self.clusters:
            raise DatasetError("need at least one cluster")
        canon = []
        dim = None
        for center, stddev, count in self.clusters:
            center = tuple(float(x) for x in center)
            if dim is None:
                dim = len(center)
            if len(center) != dim or dim == 0:
                raise DatasetError("cluster centers must share one nonzero dimension")
            if not all(math.isfinite(x) for x in center):
                raise DatasetError("cluster centers must be finite")
            stddev = float(stddev)
            if not (stddev > 0 and math.isfinite(stddev)):
                raise DatasetError(f"stddev must be positive and finite, got {stddev}")
            count = int(count)
            if count < 1:
                raise DatasetError(f"cluster count must be positive, got {count}")
            canon.append((center, stddev, count))
        if sum(c for _, _, c in canon) < 2:
            raise DatasetError("cluster counts must sum to at least 2")
        seed = int(self.seed)
        if seed < 0:
            raise DatasetError("seed must be a nonnegative integer")
        object.__setattr__(self, "clusters", tuple(canon))
        object.__setattr__(self, "seed", seed)

    @property
    def total(self) -> int:
        return sum(count for _, _, count in self.clusters)

    @property
    def dim(self) -> int:
        return len(self.clusters[0][0])

    def to_dict(self) -> dict:
        return {
            "clusters": [
                {"center": list(center), "stddev": stddev, "count": count}
                for center, stddev, count in self.clusters
            ],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "BlobSpec":
        try:
            clusters = tuple(
                (tuple(c["center"]), c["stddev"], c["count"]) for c in doc["clusters"]
            )
            seed = doc.get("seed", 0)
        except (KeyError, TypeError) as exc:
            raise DatasetError(f"bad blob spec document: {exc}") from None
        return cls(clusters=clusters, seed=seed)


def _box_muller(rng: np.random.Generator, count: int) -> np.ndarray:
    # Normals from 53-bit uniform doubles via Box-Muller.  The transform is
    # pinned here (instead of using the generator's native method) so one
    # seed yields the same bytes on any platform and numpy version.
    pairs = (count + 1) // 2
    u = rng.random((pairs, 2))
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))  # 1-u lies in (0, 1]
    theta = (2.0 * np.pi) * u[:, 1]
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(theta)
    out[1::2] = radius * np.sin(theta)
    return out[:count]


def generate_blobs(spec: BlobSpec) -> tuple[Dataset, LabelAssignment]:
    """Sample the clusters of `spec` in order; label = cluster index.

    Deterministic: the PCG64 stream seeded with spec.seed is consumed
    cluster by cluster, so equal specs give bitwise-equal outputs.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    blocks = []
    labels = []
    for index, (center, stddev, count) in enumerate(spec.clusters):
        z = _box_muller(rng, count * spec.dim).reshape(count, spec.dim)
        blocks.append(np.asarray(center) + stddev * z)
        labels.append(np.full(count, index, dtype=np.int64))
    values = np.vstack(blocks)
    vocabulary = tuple(str(i) for i in range(len(spec.clusters)))
    return Dataset(values), LabelAssignment(np.concatenate(labels), vocabulary)


def load_dataset(path, label_column: str = "label") -> tuple[Dataset, LabelAssignment]:
    """Read a comma-separated, UTF-8, header-first file into a labeled dataset.

    Every column other than `label_column` must parse as a finite float;
    the offending row and column are named otherwise.  Data rows are
    numbered from 1.  Label names are interned in first-appearance order.
    """
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        hits = [i for i, name in enumerate(header) if name == label_column]
        if not hits:
            raise DatasetError(f"{path}: no column named {label_column!r}")
        if len(hits) > 1:
            raise DatasetError(f"{path}: duplicate label column {label_column!r}")
        label_at = hits[0]
        feature_cols = [i for i in range(len(header)) if i != label_at]
        if not feature_cols:
            raise DatasetError(f"{path}: no feature columns besides {label_column!r}")
        rows = []
        names = []
        for rix, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DatasetError(
                    f"{path}: row {rix} has {len(row)} cells, expected {len(header)}"
                )
            feats = []
            for c in feature_cols:
                try:
                    x = float(row[c])
                except ValueError:
                    raise DatasetError(
                        f"{path}: row {rix}, column {header[c]!r}: "
                        f"not numeric: {row[c]!r}"
                    ) from None
                if not math.isfinite(x):
                    raise DatasetError(
                        f"{path}: row {rix}, column {header[c]!r}: "
                        f"non-finite value {row[c]!r}"
                    )
                feats.append(x)
            rows.append(feats)
            names.append(row[label_at])
    if len(rows) < 2:
        raise DatasetError(f"{path}: need at least 2 data rows, got {len(rows)}")
    label_ids, vocabulary = _intern(names)
    return Dataset(np.array(rows)), LabelAssignment(label_ids, vocabulary)


def _intern(names: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    table: dict[str, int] = {}
    ids = np.empty(len(names), dtype=np.int64)
    for i, name in enumerate(names):
        ids[i] = table.setdefault(name, len(table))
    return ids, tuple(table)


def save_dataset(dataset: Dataset, labels: LabelAssignment, path,
                 label_column: str = "label") -> None:
    """Write features as x0..x{m-1} plus a label column, full precision."""
    if labels.n != dataset.n:
        raise DatasetError(
            f"label count {labels.n} != dataset row count {dataset.n}"
        )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{j}" for j in range(dataset.dim)] + [label_column])
        for i in range(dataset.n):
            cells = [repr(float(v)) for v in dataset.values[i]]
            cells.append(labels.name_of(i))
            writer.writerow(cells)


def load_labels(path, n_vertices: int) -> LabelAssignment:
    """Read an external label file: header `id,label`, ids covering 0..N-1."""
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        try:
            id_at = header.index("id")
            label_at = header.index("label")
        except ValueError:
            raise DatasetError(f"{path}: header must contain 'id' and 'label'") from None
        names: dict[int, str] = {}
        for rix, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DatasetError(
                    f"{path}: row {rix} has {len(row)} cells, expected {len(header)}"
                )
            try:
                vid = int(row[id_at])
            except ValueError:
                raise DatasetError(
                    f"{path}: row {rix}: id {row[id_at]!r} is not an integer"
                ) from None
            if not 0 <= vid < n_vertices:
                raise DatasetError(
                    f"{path}: row {rix}: id {vid} outside 0..{n_vertices - 1}"
                )
            if vid in names:
                raise DatasetError(f"{path}: row {rix}: duplicate id {vid}")
            names[vid] = row[label_at]
    if len(names) != n_vertices:
        raise DatasetError(
            f"{path}: {len(names)} labels for {n_vertices} vertices"
        )
    label_ids, vocabulary = _intern([names[v] for v in range(n_vertices)])
    return LabelAssignment(label_ids, vocabulary)


def save_labels(labels: LabelAssignment, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "label"])
        for v in range(labels.n):
            writer.writerow([v, labels.name_of(v)])


def relabel(labels: LabelAssignment, mapping: dict[int, int]) -> LabelAssignment:
    """Apply a bijective label-id renaming, permuting the vocabulary to match.

    Each vertex keeps its label *name*; only the id layout changes, so
    any derived grouping of vertices is untouched.
    """
    size = len(labels.vocabulary)
    keys = sorted(mapping)
    values = sorted(mapping.values())
    if keys != list(range(size)) or values != list(range(size)):
        raise DatasetError("mapping must be a bijection over label ids 0..L-1")
    table = np.empty(size, dtype=np.int64)
    vocabulary: list[str] = [""] * size
    for old, new in mapping.items():
        table[old] = new
        vocabulary[new] = labels.vocabulary[old]
    return LabelAssignment(table[labels.labels], tuple(vocabulary))


PRESET_NAMES = ("three-blobs", "split-labels")

_PRESET_CENTERS = ((0.0, 0.0), (20.0, 0.0), (0.0, 20.0))


def preset_blob_spec(seed: int = 7) -> BlobSpec:
    """Three well-separated 2-D clusters of 50 points each (stddev 1)."""
    return BlobSpec(
        clusters=tuple((center, 1.0, 50) for center in _PRESET_CENTERS),
        seed=seed,
    )


def preset(name: str, seed: int = 7) -> tuple[Dataset, LabelAssignment]:
    """Built-in synthetic datasets.

    three-blobs: the spec above, labeled by cluster.
    split-labels: identical geometry, but each cluster's points are split
    into two labels (suffixes 'a'/'b'), so labels deliberately do not
    match the spatial clusters.
    """
    if name == "three-blobs":
        return generate_blobs(preset_blob_spec(seed))
    if name == "split-labels":
        data, base = generate_blobs(preset_blob_spec(seed))
        spec = preset_blob_spec(seed)
        vocabulary = []
        for i in range(len(spec.clusters)):
            vocabulary += [f"{i}a", f"{i}b"]
        ids = np.empty(data.n, dtype=np.int64)
        start = 0
        for i, (_, _, count) in enumerate(spec.clusters):
            half = (count + 1) // 2
            ids[start:start + half] = 2 * i
            ids[start + half:start + count] = 2 * i + 1
            start += count
        return data, LabelAssignment(ids, tuple(vocabulary))
    raise DatasetError(f"unknown preset {name!r} (expected one of {PRESET_NAMES})")


def load_blob_spec(path) -> BlobSpec:
    """Read a BlobSpec from a small JSON document."""
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"no such file: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path}: invalid JSON: {exc}") from None
    return BlobSpec.from_dict(doc)
