"""Mining positive/negative training pairs from k-nn graphs or tree leaves.

Pairs are unordered, deduplicated, and self-pair free. The raw directed count
(before merging) is kept alongside: n*k for k-nn, the sum of squared leaf
sizes for tree leaves.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import KTooLarge
from .rptree import leaves

_EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)


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
    when neighborhoods are not mutual.

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

    neighbor_lists = _knn_indices(X, k)
    directed = np.empty((n * k, 2), dtype=np.int64)
    directed[:, 0] = np.repeat(np.arange(n), k)
    directed[:, 1] = neighbor_lists.reshape(-1)
    positives = _unique_unordered(directed)

    # Point i's excluded set is excluded[bounds[i]:bounds[i + 1]], sorted.
    points = np.arange(n)
    owner = np.concatenate([positives[:, 0], positives[:, 1], points])
    excluded = np.concatenate([positives[:, 1], positives[:, 0], points])
    order = np.lexsort((excluded, owner))
    owner, excluded = owner[order], excluded[order]
    bounds = np.searchsorted(owner, np.arange(n + 1))
    # Subtracting each excluded point's rank within its set leaves the number
    # of candidates below it, so candidate rank r is r plus the count of
    # these at or below r.
    below = excluded - (np.arange(len(excluded)) - bounds[owner])

    negatives = np.empty((n * k, 2), dtype=np.int64)
    filled = 0
    for i in range(n):
        lo, hi = bounds[i], bounds[i + 1]
        available = n - (hi - lo)
        take = min(k, available)
        if take:
            ranks = rng.choice(available, size=take, replace=False)
            negatives[filled : filled + take, 0] = i
            negatives[filled : filled + take, 1] = ranks + np.searchsorted(
                below[lo:hi], ranks, side="right"
            )
            filled += take
    return PairSet(
        positives=positives,
        negatives=_unique_unordered(negatives[:filled]),
        source=f"knn:k={k}",
        raw_positive_count=n * k,
    )


def _knn_indices(X, k, chunk=512):
    """Row-chunked brute-force k-nn; returns an n x k neighbor index matrix.

    Each row lists its neighbors by squared distance, exact ties broken
    toward the lower index, i.e. the first k columns of a stable argsort.
    Only the entries at or below the row's k-th smallest distance (found by
    ``np.partition``) are ordered, by (distance, index).
    """
    n = len(X)
    sq_norms = (X**2).sum(axis=1)
    out = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = X[start:stop]
        d2 = sq_norms[start:stop, None] + sq_norms[None, :] - 2.0 * (block @ X.T)
        np.maximum(d2, 0.0, out=d2)
        local = np.arange(stop - start)
        d2[local, start + local] = np.inf
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        row, col = np.nonzero(d2 <= kth[:, None])
        counts = np.bincount(row, minlength=stop - start)
        if (counts < k).any():
            # NaN compares false; it comes from non-finite or overflowing X.
            raise ValueError("squared distances are not all finite")
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

    Both polarities are built from one array of every leaf's members, laid
    out leaf after leaf: positives as one (leaves, s) block per leaf size s,
    negatives by repeat and offset arithmetic over the partner choices.
    """
    leaf_sets = leaves(tree)
    sizes = np.array([len(idx) for idx in leaf_sets], dtype=np.int64)
    # Ordered-with-self convention of the estimate.
    raw_count = sum(s * s for s in sizes.tolist())
    members = np.concatenate(leaf_sets)
    starts = np.cumsum(sizes) - sizes

    positive_rows = [_EMPTY_PAIRS]
    for s in np.unique(sizes[sizes >= 2]).tolist():
        block = members[starts[sizes == s][:, None] + np.arange(s)]
        a, b = np.triu_indices(s, k=1)
        positive_rows.append(
            np.stack([block[:, a].reshape(-1), block[:, b].reshape(-1)], axis=1)
        )
    positives = _unique_unordered(np.concatenate(positive_rows))

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
        # Each member of leaf x, in order, meets every member of leaf
        # partner[x] in turn: runs[i] rows for member i, step counting
        # through the partner leaf.
        runs = np.repeat(sizes[partner], sizes)
        member = np.repeat(np.arange(len(members)), runs)
        step = np.arange(len(member)) - np.repeat(np.cumsum(runs) - runs, runs)
        partner_start = np.repeat(starts[partner], sizes)
        negatives = _unique_unordered(
            np.stack([members[member], members[partner_start[member] + step]], axis=1)
        )
    return PairSet(
        positives=positives,
        negatives=negatives,
        source="rptree",
        raw_positive_count=raw_count,
        warning=warning,
    )


def _unique_unordered(pairs):
    """Normalize rows to (min, max) and drop duplicates; sorted output.

    The result equals ``np.unique`` with ``axis=0`` on the normalized rows.
    Each row is encoded as one int64 key ``lo * width + hi`` (indices are
    nonnegative and ``width`` exceeds every ``hi``), so a 1-D ``np.sort``
    orders the rows lexicographically; adjacent repeats are dropped and
    ``divmod`` decodes the rest.
    """
    if not len(pairs):
        return _EMPTY_PAIRS
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    width = hi.max() + 1
    keys = np.sort(lo * width + hi)
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    lo, hi = np.divmod(keys[keep], width)
    return np.stack([lo, hi], axis=1)


def save_pairs_csv(pairs: PairSet, positives_path, negatives_path):
    """Write each polarity as a two-column CSV with an i,j header."""
    for path, rows in ((positives_path, pairs.positives), (negatives_path, pairs.negatives)):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "j"])
            writer.writerows(rows.tolist())
