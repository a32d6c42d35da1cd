"""Synthetic benchmark generators, CSV ingestion, and feature standardization.

All generators draw from a call-local ``numpy`` Generator, so the same spec
(seed included) reproduces the same matrix bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadSpec,
    EmptyFile,
    EmptyRequest,
    IoError,
    MissingLabelColumn,
    ParseError,
)

SYNTHETIC_KINDS = ("blobs", "moons", "circles", "aniso-blobs")

# Fixed shear applied on top of the blob generator for the anisotropic variant.
_ANISO_TRANSFORM = np.array([[0.6, -0.6], [-0.4, 0.8]])

# Blob centers are redrawn until they are at least this far apart (capped).
_MIN_CENTER_SEPARATION = 2.0
_MAX_CENTER_REDRAWS = 100

# Radius of the inner circle, relative to the outer one.
_CIRCLES_FACTOR = 0.5


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic 2-D dataset.

    ``noise`` is the within-cluster standard deviation for blob kinds and the
    additive Gaussian jitter for moons/circles. ``centers`` is only used by
    the blob kinds.
    """

    kind: str
    n: int
    noise: float = 0.1
    centers: int = 3
    seed: int = 0

    def validate(self):
        if self.kind not in SYNTHETIC_KINDS:
            raise BadSpec(f"unknown synthetic kind {self.kind!r}")
        if self.n == 0:
            raise EmptyRequest("n = 0 points requested")
        if self.n < 0:
            raise BadSpec(f"n must be positive, got {self.n}")
        if not self.noise >= 0:
            raise BadSpec(f"noise must be nonnegative, got {self.noise}")
        if self.kind in ("blobs", "aniso-blobs"):
            if self.centers == 0:
                raise BadSpec("blobs need at least one center")
            if self.centers < 0:
                raise BadSpec(f"centers must be positive, got {self.centers}")
            if self.n < self.centers:
                raise BadSpec(f"n={self.n} is below the cluster count {self.centers}")
        elif self.n < 2:
            raise BadSpec(f"{self.kind} needs at least 2 points")


def generate_synthetic(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Generate one 2-D dataset, returning (points, labels).

    Points are n x 2 float64; labels identify the generating cluster and are
    contiguous from 0. Identical specs produce bit-identical output.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "blobs":
        return _blobs(spec.n, spec.centers, spec.noise, rng)
    if spec.kind == "aniso-blobs":
        X, y = _blobs(spec.n, spec.centers, spec.noise, rng)
        return X @ _ANISO_TRANSFORM.T, y
    if spec.kind == "moons":
        return _moons(spec.n, spec.noise, rng)
    return _circles(spec.n, spec.noise, rng)


def _blobs(n, centers, noise, rng):
    # Redraw the center set until every pair is separated; keeps small-noise
    # blob instances actually cluster-shaped instead of occasionally merged.
    for _ in range(_MAX_CENTER_REDRAWS):
        locs = rng.uniform(-10.0, 10.0, size=(centers, 2))
        if centers == 1 or _min_pairwise_distance(locs) >= _MIN_CENTER_SEPARATION:
            break
    counts = np.full(centers, n // centers)
    counts[: n % centers] += 1
    X = np.empty((n, 2))
    y = np.empty(n, dtype=np.int64)
    start = 0
    for c in range(centers):
        stop = start + counts[c]
        X[start:stop] = locs[c] + rng.normal(scale=noise, size=(counts[c], 2))
        y[start:stop] = c
        start = stop
    return X, y


def _min_pairwise_distance(points):
    diffs = points[:, None, :] - points[None, :, :]
    d = np.sqrt((diffs**2).sum(axis=2))
    return d[np.triu_indices(len(points), k=1)].min()


def _moons(n, noise, rng):
    n_outer = n - n // 2
    n_inner = n // 2
    t_outer = np.linspace(0.0, np.pi, n_outer)
    t_inner = np.linspace(0.0, np.pi, n_inner)
    X = np.empty((n, 2))
    X[:n_outer, 0] = np.cos(t_outer)
    X[:n_outer, 1] = np.sin(t_outer)
    X[n_outer:, 0] = 1.0 - np.cos(t_inner)
    X[n_outer:, 1] = 0.5 - np.sin(t_inner)
    if noise > 0:
        X += rng.normal(scale=noise, size=X.shape)
    y = np.r_[np.zeros(n_outer, dtype=np.int64), np.ones(n_inner, dtype=np.int64)]
    return X, y


def _circles(n, noise, rng):
    n_outer = n - n // 2
    n_inner = n // 2
    t_outer = np.linspace(0.0, 2.0 * np.pi, n_outer, endpoint=False)
    t_inner = np.linspace(0.0, 2.0 * np.pi, n_inner, endpoint=False)
    X = np.empty((n, 2))
    X[:n_outer, 0] = np.cos(t_outer)
    X[:n_outer, 1] = np.sin(t_outer)
    X[n_outer:, 0] = _CIRCLES_FACTOR * np.cos(t_inner)
    X[n_outer:, 1] = _CIRCLES_FACTOR * np.sin(t_inner)
    if noise > 0:
        X += rng.normal(scale=noise, size=X.shape)
    y = np.r_[np.zeros(n_outer, dtype=np.int64), np.ones(n_inner, dtype=np.int64)]
    return X, y


def load_csv(
    path,
    label_column,
    delimiter: str = ",",
    header: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Read a delimited file into (points, labels).

    ``label_column`` is a zero-based column index or, when the file has a
    header row, a column name. Every non-label column must parse as a finite
    number. Label values are mapped to contiguous integer ids in sorted order
    (numeric sort when every label parses as a number, lexicographic
    otherwise).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh, delimiter=delimiter) if row]
    except OSError as exc:
        raise IoError(str(exc), path=str(path)) from exc
    names = None
    if header:
        if not rows:
            raise EmptyFile(f"{path} has no rows")
        names = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
    if not rows:
        raise EmptyFile(f"{path} has no data rows")

    width = len(rows[0])
    label_idx = _resolve_label_column(label_column, names, width)

    features = np.empty((len(rows), width - 1))
    raw_labels = []
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(
                f"row {r} has {len(row)} columns, expected {width}", row=r
            )
        raw_labels.append(row[label_idx].strip())
        dest = 0
        for c, cell in enumerate(row):
            if c == label_idx:
                continue
            try:
                value = float(cell)
            except ValueError:
                value = np.nan
            if not np.isfinite(value):
                raise ParseError(
                    f"row {r}, column {c}: {cell.strip()!r} is not a finite number",
                    row=r,
                    column=c,
                )
            features[r, dest] = value
            dest += 1
    return features, _encode_labels(raw_labels)


def _resolve_label_column(label_column, names, width):
    if isinstance(label_column, str):
        if names is None:
            raise MissingLabelColumn(
                "label column given by name but the file has no header"
            )
        if label_column not in names:
            raise MissingLabelColumn(f"no column named {label_column!r}")
        return names.index(label_column)
    idx = int(label_column)
    if not 0 <= idx < width:
        raise MissingLabelColumn(f"label column index {idx} outside 0..{width - 1}")
    return idx


def _encode_labels(raw_labels):
    unique = sorted(set(raw_labels), key=_label_sort_key)
    mapping = {value: i for i, value in enumerate(unique)}
    return np.array([mapping[v] for v in raw_labels], dtype=np.int64)


def _label_sort_key(value):
    try:
        return (0, float(value), "")
    except ValueError:
        return (1, 0.0, value)


def standardize(X: np.ndarray) -> np.ndarray:
    """Shift each column to mean 0 and scale to population variance 1.

    Zero-variance columns map to all-zeros instead of dividing by zero.
    """
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    std = X.std(axis=0)  # population (1/n) convention
    centered = X - mean
    out = np.divide(centered, std, out=np.zeros_like(centered), where=std > 0)
    return out
