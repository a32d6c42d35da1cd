"""Mining positive/negative training pairs from k-nn graphs or tree leaves.

Pairs are unordered, deduplicated, and self-pair free. The raw directed count
(before merging) is kept alongside: n*k for k-nn, the sum of squared leaf
sizes for tree leaves.

Memory is bounded by the output plus one int64 key per raw pair. Each pair is
written straight into its key ``min * width + max``; an in-place sort of the
keys deduplicates them and the kept keys decode into the result, so no
(rows, 2) intermediate is built. The k-nn distances are computed in blocks of
``_KNN_BLOCK`` entries whatever n, and the tree route's other temporaries are
one group of raw pairs (one leaf size, or one partner-leaf size) at a time.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import KTooLarge, NonFiniteInput
from .rptree import check_finite

_EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)
# Squared distances per block in _knn_indices: 2 MiB of float64, so the two
# reused block buffers, np.partition's copy and the <= mask stay a few MiB at
# any n. A fixed row count would grow with n: 512 rows at n=5k are 39 MiB.
_KNN_BLOCK = 1 << 18
# Rows per writerows call in save_pairs_csv; a block's Python lists are ~1 MiB.
_CSV_BLOCK = 8192
# Widest index range PairSet.validate keys: 2 * width**2 must fit in an int64.
_VALIDATE_WIDTH = 1 << 31


@dataclass
class PairSet:
    """Positive and negative index pairs, each row (i, j) with i < j."""

    positives: np.ndarray
    negatives: np.ndarray
    source: str
    raw_positive_count: int
    warning: str | None = None

    def validate(self):
        """Raise ValueError when any pair-set invariant is broken.

        Rows must be canonical (i < j), neither polarity may repeat a row,
        and no row may sit in both. The repeat checks run on one sort of an
        int64 key per row, ``2 * (row key) + polarity`` with the row key
        lexicographic: a repeat within a polarity is two equal keys, and a
        row in both polarities is a positive key followed by its successor.
        """
        positives = self.positives.reshape(-1, 2)
        negatives = self.negatives.reshape(-1, 2)
        keys = np.empty(len(positives) + len(negatives), dtype=np.int64)
        if len(keys):
            lo = min(int(positives.min(initial=0)), int(negatives.min(initial=0)))
            width = max(int(positives.max(initial=0)), int(negatives.max(initial=0))) - lo + 1
            if width > _VALIDATE_WIDTH:
                raise ValueError(f"pair indices span {width} values, more than {_VALIDATE_WIDTH}")
            for polarity, rows in enumerate((positives, negatives)):
                out = keys[polarity * len(positives) :][: len(rows)]
                np.subtract(rows[:, 0], lo, out=out)
                out *= width
                out += rows[:, 1]
                out -= lo
                out *= 2
                out += polarity
            keys.sort()
        step = np.diff(keys)
        repeated = keys[1:][step == 0] & 1
        crossing = keys[:-1][step == 1] & 1 == 0
        del step
        for polarity, (name, pairs) in enumerate(
            (("positives", positives), ("negatives", negatives))
        ):
            if (pairs[:, 0] >= pairs[:, 1]).any():
                raise ValueError(f"{name} contain self-pairs or unnormalized rows")
            if (repeated == polarity).any():
                raise ValueError(f"{name} contain duplicates")
        if crossing.any():
            raise ValueError("a pair appears in both polarities")


def knn_pairs(X, k, rng) -> PairSet:
    """Pairs from the exact k-nearest-neighbor graph.

    Each point contributes its k nearest Euclidean neighbors (brute force,
    distance ties broken toward the lower index) as positive pairs, and k
    uniform draws (without replacement) from the points it shares no positive
    pair with as negatives. The closure keeps the polarities disjoint even
    when neighborhoods are not mutual. A NaN or an infinity in ``X`` raises
    NonFiniteInput.

    A point's draw is a set of ranks among its candidates, mapped past its
    sorted excluded set (itself and its partners), so each point costs O(k)
    rather than a pass over all n points. The ranks of all points come from
    ``_distinct_ranks``, k vectorised steps of Floyd's sampling algorithm.
    """
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    if not 1 <= k < n:
        raise KTooLarge(f"k={k} needs 1 <= k < n={n}")
    check_finite(X)

    points = np.arange(n)
    keys = np.empty(n * k, dtype=np.int64)
    _write_keys(np.repeat(points, k), _knn_indices(X, k).reshape(-1), n, keys)
    positives = _unique_pairs(keys, n)

    # Point i's excluded set is excluded[bounds[i]:bounds[i + 1]], sorted.
    owner = np.concatenate([positives[:, 0], positives[:, 1], points])
    excluded = np.concatenate([positives[:, 1], positives[:, 0], points])
    order = np.lexsort((excluded, owner))
    owner, excluded = owner[order], excluded[order]
    bounds = np.searchsorted(owner, np.arange(n + 1))
    # Subtracting each excluded point's rank within its set leaves the number
    # of candidates below it, so candidate rank r is r plus the count of
    # these at or below r. Keyed by owner, all sets search as one array.
    below = owner * n + excluded - (np.arange(len(excluded)) - bounds[owner])

    available = n - np.diff(bounds)
    takes = np.minimum(k, available)
    ranks = _distinct_ranks(available, takes, rng)
    ranks = ranks[np.arange(ranks.shape[1]) < takes[:, None]]
    owners = np.repeat(points, takes)
    drawn = ranks + np.searchsorted(below, owners * n + ranks, side="right") - bounds[owners]
    keys = np.empty(len(drawn), dtype=np.int64)
    _write_keys(owners, drawn, n, keys)
    return PairSet(
        positives=positives,
        negatives=_unique_pairs(keys, n),
        source=f"knn:k={k}",
        raw_positive_count=n * k,
    )


def _distinct_ranks(available, takes, rng):
    """Row i holds ``takes[i]`` distinct ranks uniform over ``range(available[i])``.

    Floyd's algorithm, one column for every row at a time: column s draws t
    uniformly from ``range(top + 1)`` with ``top = available - takes + s``
    and keeps t unless an earlier column of the row holds it, in which case
    it keeps ``top``. Every subset of ``takes[i]`` ranks is equally likely.
    Returns an (n, max take) array, -1 past each row's take.
    """
    ranks = np.full((len(takes), int(takes.max(initial=0))), -1, dtype=np.int64)
    for s in range(ranks.shape[1]):
        rows = np.flatnonzero(takes > s)
        top = available[rows] - takes[rows] + s
        drawn = rng.integers(0, top + 1)
        seen = (ranks[rows, :s] == drawn[:, None]).any(axis=1)
        ranks[rows, s] = np.where(seen, top, drawn)
    return ranks


def _knn_indices(X, k, chunk=None):
    """Row-chunked brute-force k-nn; returns an n x k neighbor index matrix.

    Each row lists its neighbors by squared distance, exact ties broken
    toward the lower index, i.e. the first k columns of a stable argsort.
    Only the entries at or below the row's k-th smallest distance (found by
    ``np.partition``) are ordered, by (distance, index). Blocks hold
    ``chunk`` rows, by default as many as fit in ``_KNN_BLOCK`` entries.
    Ties are ties of the computed distances: where ``X``'s products are
    inexact, the last bit of ``block @ X.T`` can depend on the BLAS kernel
    that the block's height selects.
    Points that are non-finite, or large enough for a squared distance to
    overflow, raise NonFiniteInput.
    """
    n = len(X)
    chunk = chunk or max(1, _KNN_BLOCK // n)
    with np.errstate(over="ignore"):  # an overflow is reported below
        sq_norms = (X**2).sum(axis=1)
        # Below this bound sq_i + sq_j and 2 * g_ij are finite, so no
        # squared distance can be inf - inf = NaN.
        if not np.isfinite(4.0 * sq_norms.max()):
            raise NonFiniteInput("squared distances are not all finite")
    out = np.empty((n, k), dtype=np.int64)
    # Two block buffers, reused: doubling is exact and d -= g equals
    # d + (-g), so d2 has the bits of sq_i + sq_j - 2.0 * (block @ X.T).
    gram = np.empty((min(chunk, n), n))
    dist = np.empty_like(gram)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        g = gram[: stop - start]
        d2 = dist[: stop - start]
        np.matmul(X[start:stop], X.T, out=g)
        g *= 2.0
        np.add(sq_norms[start:stop, None], sq_norms, out=d2)
        d2 -= g
        np.maximum(d2, 0.0, out=d2)
        local = np.arange(stop - start)
        d2[local, start + local] = np.inf
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        # Row-major like np.nonzero, which is ~10x slower on a 2-D mask.
        row, col = np.divmod(np.flatnonzero(d2 <= kth[:, None]), n)
        counts = np.bincount(row, minlength=stop - start)
        order = np.lexsort((col, d2[row, col], row))
        first = np.cumsum(counts) - counts
        out[start:stop] = col[order][first[:, None] + np.arange(k)]
    return out


def rptree_pairs(tree, rng) -> PairSet:
    """Pairs from tree leaves.

    Positives are all within-leaf pairs. For negatives, every leaf picks one
    other leaf uniformly and contributes the full cross product. With a
    single leaf there is nothing to pair against; negatives come back empty
    with a warning attached.

    Both polarities are keyed from ``tree.points``, every leaf's members laid
    out leaf after leaf: positives one (leaves, s) block per leaf size s,
    negatives one (members, t) block per partner-leaf size t.
    """
    members, sizes = tree.points, tree.leaf_sizes
    # Ordered-with-self convention of the estimate.
    raw_count = int((sizes * sizes).sum())
    starts = np.cumsum(sizes) - sizes
    width = int(members.max(initial=0)) + 1

    keys = np.empty(int((sizes * (sizes - 1) // 2).sum()), dtype=np.int64)
    filled = 0
    for s in np.unique(sizes[sizes >= 2]).tolist():
        # Each block row sorted, column a < b holds the smaller index.
        block = np.sort(members[starts[sizes == s][:, None] + np.arange(s)], axis=1)
        a, b = np.triu_indices(s, k=1)
        out = keys[filled : filled + len(block) * len(a)].reshape(len(block), len(a))
        np.multiply(block[:, a], width, out=out)
        out += block[:, b]
        filled += out.size
    positives = _unique_pairs(keys, width)
    del keys

    warning = None
    if len(sizes) < 2:
        negatives = _EMPTY_PAIRS
        warning = "tree has a single leaf; no negative pairs generated"
    else:
        partner = _partner_leaves(len(sizes), rng)
        # Every member meets each member of its leaf's partner leaf; members
        # whose partner leaf has t members form one (members, t) block.
        partner_size = np.repeat(sizes[partner], sizes)
        partner_start = np.repeat(starts[partner], sizes)
        keys = np.empty(int(partner_size.sum()), dtype=np.int64)
        filled = 0
        for t in np.unique(partner_size).tolist():
            group = np.flatnonzero(partner_size == t)
            theirs = members[(partner_start[group, None] + np.arange(t)).reshape(-1)]
            own = np.repeat(members[group], t)
            _write_keys(own, theirs, width, keys[filled : filled + len(own)])
            filled += len(own)
        negatives = _unique_pairs(keys, width)
    return PairSet(
        positives=positives,
        negatives=negatives,
        source="rptree",
        raw_positive_count=raw_count,
        warning=warning,
    )


def _partner_leaves(count, rng):
    """For each of ``count`` leaves, one other leaf drawn uniformly, in one draw."""
    other = rng.integers(0, count - 1, size=count)
    return other + (other >= np.arange(count))


def _write_keys(a, b, width, out):
    """Write each row's key ``min * width + max`` into ``out``; ``a`` is overwritten."""
    np.minimum(a, b, out=out)
    np.maximum(a, b, out=a)
    out *= width
    out += a


def _unique_pairs(keys, width):
    """The distinct rows (key // width, key % width) of ``keys``, sorted.

    With keys ``lo * width + hi`` (indices nonnegative, ``width`` above every
    ``hi``) key order is lexicographic row order, so the result equals
    ``np.unique`` with ``axis=0`` on the (lo, hi) rows. ``keys`` is sorted in
    place; adjacent repeats are dropped and ``divmod`` decodes the rest
    straight into the result's columns.
    """
    if not len(keys):
        return _EMPTY_PAIRS
    keys.sort()
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    kept = keys[keep]
    del keep
    out = np.empty((len(kept), 2), dtype=np.int64)
    np.divmod(kept, width, out=(out[:, 0], out[:, 1]))
    return out


def save_pairs_csv(pairs: PairSet, positives_path, negatives_path):
    """Write each polarity as a two-column CSV with an i,j header.

    Rows go out ``_CSV_BLOCK`` at a time, so only one block is ever held as
    Python lists.
    """
    for path, rows in ((positives_path, pairs.positives), (negatives_path, pairs.negatives)):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "j"])
            for start in range(0, len(rows), _CSV_BLOCK):
                writer.writerows(rows[start : start + _CSV_BLOCK].tolist())
