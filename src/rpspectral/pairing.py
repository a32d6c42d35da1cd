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
from .rptree import check_finite, leaves

_EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)
# Squared distances per block in _knn_indices: 2 MiB of float64, so the two
# reused block buffers, np.partition's copy and the <= mask stay a few MiB at
# any n. A fixed row count would grow with n: 512 rows at n=5k are 39 MiB.
_KNN_BLOCK = 1 << 18
# Rows per writerows call in save_pairs_csv; a block's Python lists are ~1 MiB.
_CSV_BLOCK = 8192


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
        and no row may sit in both. The repeat checks run on one stable
        lexicographic sort of both polarities, exact for any integer indices:
        equal rows end up adjacent, positives ahead of negatives.
        """
        positives = self.positives.reshape(-1, 2)
        negatives = self.negatives.reshape(-1, 2)
        rows = np.concatenate([positives, negatives])
        tag = np.repeat([0, 1], [len(positives), len(negatives)])
        order = np.lexsort((rows[:, 1], rows[:, 0]))
        rows, tag = rows[order], tag[order]
        repeat = (rows[1:, 0] == rows[:-1, 0]) & (rows[1:, 1] == rows[:-1, 1])
        same_tag = tag[1:] == tag[:-1]
        for polarity, (name, pairs) in enumerate(
            (("positives", positives), ("negatives", negatives))
        ):
            if (pairs[:, 0] >= pairs[:, 1]).any():
                raise ValueError(f"{name} contain self-pairs or unnormalized rows")
            if (repeat & same_tag & (tag[1:] == polarity)).any():
                raise ValueError(f"{name} contain duplicates")
        if (repeat & ~same_tag).any():
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
    rather than a pass over all n points; the ranks come from
    ``rng.choice(count, ...)``, which consumes the stream exactly as drawing
    from the candidate array itself would.
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
    # these at or below r.
    below = excluded - (np.arange(len(excluded)) - bounds[owner])

    available = n - np.diff(bounds)
    takes = np.minimum(k, available)
    drawn = np.empty(int(takes.sum()), dtype=np.int64)
    filled = 0
    for i, (count, take) in enumerate(zip(available.tolist(), takes.tolist())):
        if take:
            ranks = rng.choice(count, size=take, replace=False)
            drawn[filled : filled + take] = ranks + np.searchsorted(
                below[bounds[i] : bounds[i + 1]], ranks, side="right"
            )
            filled += take
    keys = np.empty(len(drawn), dtype=np.int64)
    _write_keys(np.repeat(points, takes), drawn, n, keys)
    return PairSet(
        positives=positives,
        negatives=_unique_pairs(keys, n),
        source=f"knn:k={k}",
        raw_positive_count=n * k,
    )


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
        row, col = np.nonzero(d2 <= kth[:, None])
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

    Both polarities are keyed from one array of every leaf's members, laid
    out leaf after leaf: positives one (leaves, s) block per leaf size s,
    negatives one (members, t) block per partner-leaf size t.
    """
    leaf_sets = leaves(tree)
    sizes = np.array([len(idx) for idx in leaf_sets], dtype=np.int64)
    # Ordered-with-self convention of the estimate.
    raw_count = sum(s * s for s in sizes.tolist())
    members = np.concatenate(leaf_sets)
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
    if len(leaf_sets) < 2:
        negatives = _EMPTY_PAIRS
        warning = "tree has a single leaf; no negative pairs generated"
    else:
        # One draw per leaf, in leaf order: a single vectorised draw would
        # consume the stream differently.
        partner = np.empty(len(leaf_sets), dtype=np.int64)
        for x in range(len(leaf_sets)):
            other = int(rng.integers(0, len(leaf_sets) - 1))
            partner[x] = other + (other >= x)
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
