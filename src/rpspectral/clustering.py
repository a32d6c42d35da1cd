"""K-means, agreement scoring, and a dense spectral reference.

The k-means here is deliberately plain Lloyd iteration with distance-weighted
seeding; every tie is broken toward the lower index so runs are reproducible
bit for bit. ARI is computed from the pair confusion counts in exact integer
arithmetic, which matters once pair counts pass 2**53.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

_ORACLE_LIMIT = 2000  # dense eigendecomposition guard
# Lloyd runs per kmeans call (the lowest scatter wins), the iteration cap of
# one run, and the center movement at which a run stops early.
_RESTARTS = 10
_MAX_ITERATIONS = 300
_TOLERANCE = 1e-6


@dataclass
class KmeansResult:
    labels: np.ndarray
    centers: np.ndarray
    inertia: float


def _squared_distances(points, centers):
    d2 = (
        (points * points).sum(axis=1)[:, None]
        + (centers * centers).sum(axis=1)[None, :]
        - 2.0 * points @ centers.T
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def _seed_centers(points, k, rng):
    """Distance-weighted seeding: each new center is drawn with probability
    proportional to squared distance from the centers chosen so far."""
    n = len(points)
    chosen = [int(rng.integers(0, n))]
    d2 = _squared_distances(points, points[chosen])[:, 0]
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0.0:
            # Every remaining point coincides with a chosen center; fall
            # back to the lowest index not already used.
            used = set(chosen)
            nxt = next(i for i in range(n) if i not in used)
        else:
            r = rng.random() * total
            nxt = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            nxt = min(nxt, n - 1)
        chosen.append(nxt)
        np.minimum(d2, _squared_distances(points, points[[nxt]])[:, 0], out=d2)
    return points[chosen].copy()


def _lloyd(points, k, centers):
    n = len(points)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(_MAX_ITERATIONS):
        d2 = _squared_distances(points, centers)
        labels = d2.argmin(axis=1)  # argmin ties go to the lower center

        new_centers = centers.copy()
        counts = np.bincount(labels, minlength=k)
        for c in range(k):
            if counts[c] > 0:
                new_centers[c] = points[labels == c].mean(axis=0)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            # Reseed each empty cluster from the point farthest from its
            # assigned center, never reusing a point within this pass.
            own = d2[np.arange(n), labels].copy()
            for c in empties:
                far = int(own.argmax())
                new_centers[c] = points[far]
                own[far] = -1.0

        movement = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if movement <= _TOLERANCE:
            break

    d2 = _squared_distances(points, centers)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    return labels, centers, inertia


def kmeans(points, n_clusters, rng):
    """Best of ``_RESTARTS`` Lloyd runs from ``rng`` by scatter; k outside 1..n is an InputError."""
    if n_clusters < 1:
        raise InputError("n_clusters must be at least 1")
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if n_clusters > n:
        raise InputError(f"k={n_clusters} exceeds the {n} available points")

    best = None
    for _ in range(_RESTARTS):
        centers = _seed_centers(points, n_clusters, rng)
        labels, centers, inertia = _lloyd(points, n_clusters, centers)
        if best is None or inertia < best.inertia:
            best = KmeansResult(labels=labels, centers=centers, inertia=inertia)
    return best


def _label_codes(labels):
    """Each label's rank among the distinct labels, and how many there are.

    A sort and a ``searchsorted``, which give the inverse of ``np.unique``
    without importing ``numpy.ma`` as ``np.unique`` does (numpy 2.4).
    """
    ordered = np.sort(labels)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    return np.searchsorted(distinct, labels), len(distinct)


def ari(first, second):
    """Adjusted Rand index from the pair confusion counts.

    The unordered point pairs that both labelings, only the first, only the
    second or neither group together are counted from the contingency
    table as exact Python ints. Returns None when the index is undefined
    (both labelings are constant or both split every pair), rather than
    guessing a value.
    """
    first = np.asarray(first).ravel()
    second = np.asarray(second).ravel()
    if len(first) != len(second):
        raise InputError(
            f"labelings have {len(first)} and {len(second)} points"
        )
    n = len(first)
    if n < 2:
        raise InputError("need at least 2 points to form a pair")

    fi, rows = _label_codes(first)
    si, columns = _label_codes(second)
    table = np.bincount(fi * columns + si, minlength=rows * columns).reshape(rows, columns)

    def pairs_of(counts):
        return sum(int(c) * (int(c) - 1) // 2 for c in counts)

    n11 = pairs_of(table.ravel())
    same_first = pairs_of(table.sum(axis=1))
    same_second = pairs_of(table.sum(axis=0))
    n10, n01 = same_first - n11, same_second - n11
    n00 = n * (n - 1) // 2 - same_first - same_second + n11
    numerator = 2 * (n00 * n11 - n10 * n01)
    denominator = (n00 + n01) * (n01 + n11) + (n00 + n10) * (n10 + n11)
    if denominator == 0:
        return None
    return numerator / denominator


def spectral_oracle(laplacian, n_clusters):
    """Dense eigensolver reference for the spectral net.

    Solves the ``Laplacian`` it is handed, such as the one the net trained
    on, with no graph of its own: its dense matrix is ``apply`` on the
    identity. Returns all n eigenvalues, ascending, and the bottom
    ``n_clusters`` eigenvectors as columns. Labels are one ``kmeans`` call
    away. Restricted to small inputs, since the decomposition is dense.
    """
    n = len(laplacian.degrees)
    if n > _ORACLE_LIMIT:
        raise InputError(f"the oracle is dense; {n} points exceed {_ORACLE_LIMIT}")
    if not 1 <= n_clusters <= n:
        raise InputError(f"n_clusters={n_clusters} is outside 1..{n}")

    eigenvalues, vectors = np.linalg.eigh(laplacian.apply(np.eye(n)))
    return eigenvalues, vectors[:, :n_clusters]
