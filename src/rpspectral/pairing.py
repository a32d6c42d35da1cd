"""Mining positive/negative training pairs from k-nn graphs or tree leaves.

Pairs are unordered, deduplicated, and self-pair free. The raw directed count
(before merging) is kept alongside: n*k for k-nn, the sum of squared leaf
sizes for tree leaves.

The tree route sorts no pair keys. A built tree lists each leaf's members
in ascending order (see ``Tree``), so a point's partners above it are the
tail of one sorted list: its own leaf for positives, the union of the leaves
its leaf meets for negatives. Building those unions takes one sort of about
2n keys, and the rows are then written point by point in their final order,
``_ROW_BLOCK`` rows at a time, straight into the returned array. At n=40k
(leaf size 20, 0.76M pairs, 5.8 MiB of int32 rows) its traced peak is the
output plus 1.7 MiB.

The k-nn route keys each pair ``min * width + max`` in one int64, sorts
the keys, keeps the first of each run of equal keys and decodes the kept
ones by a shift and a mask into int32 rows (see ``_unique_pairs``); the
width is a power of two (see ``_key_width``). Mined rows are int32 on both
routes, and point ids from 2^31 on are refused with InputError.

The k-nn search is exact without scanning all n^2 distances: kd leaves with
bounding boxes prune the points that cannot be a neighbor (Friedman, Bentley
and Finkel, ACM TOMS 1977), and leaves the boxes cannot prune fall back to
BLAS Gram rows. Every distance it ranks is computed in one direct form, so
its neighbor lists do not depend on block sizes, and its temporaries hold
about ``_KNN_BLOCK`` entries whatever n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError
from .rptree import check_finite
from .serialize import write_csv

_EMPTY_PAIRS = np.empty((0, 2), dtype=np.int32)
# Point ids the int32 rows of a mined pair set can hold. A caller that keeps
# many pair sets (the benchmark keeps every operation's) holds half the bytes
# of int64 rows: 5.9 instead of 11.8 MiB per n=40k rptree pair set.
_INT32_WIDTH = 1 << 31
# Rows per block of the tree route's emitter: each block's temporaries (its
# row sources) stay within 256 KiB whatever the number of pairs.
_ROW_BLOCK = 1 << 15
# Entries per temporary in _knn_indices: 2 MiB of float64, so the Gram
# fallback's two reused block buffers, np.partition's copy and the <= mask,
# and each group of candidate pairs, stay a few MiB at any n.
_KNN_BLOCK = 1 << 18
# Points per kd leaf at most; leaves hold between half this and this many.
_KNN_LEAF = 32
# Neighbors on either side in leaf order that give each point's upper bound.
_KNN_WINDOW = 8
# A leaf whose boxes keep more than this share of its n-wide rows is answered
# from Gram rows: there a BLAS product beats direct-form differences.
_PRUNE_SHARE = 0.5
# Widest index range PairSet.validate keys: 2 * width**2 must fit in an int64.
_VALIDATE_WIDTH = 1 << 31


@dataclass
class PairSet:
    """Positive and negative index pairs, each row (i, j) with i < j.

    Mined pair sets hold int32 indices; point ids from 2^31 on are refused.
    """

    positives: np.ndarray
    negatives: np.ndarray
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

    Each point contributes its k nearest Euclidean neighbors (an exact
    search pruned by kd boxes; squared distances summed coordinate by
    coordinate, ties broken toward the lower index) as positive pairs, and k
    uniform draws (without replacement) from the points it shares no positive
    pair with as negatives. The closure keeps the polarities disjoint even
    when neighborhoods are not mutual. An ``X`` that is not 2-D, a ``k``
    outside ``1..n - 1`` and a NaN or an infinity in ``X`` raise InputError.

    A point's draw is a set of ranks among its candidates, mapped past its
    sorted excluded set (itself and its partners), so each point costs O(k)
    rather than a pass over all n points. The ranks of all points come from
    ``_distinct_ranks``, k vectorised steps of Floyd's sampling algorithm.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 1:
        raise InputError("X must be a nonempty 2-D matrix")
    n = len(X)
    if not 1 <= k < n:
        raise InputError(f"k={k} needs 1 <= k < n={n}")
    check_finite(X)

    points = np.arange(n)
    width = _key_width(n)
    positives = _unique_pairs(np.repeat(points, k), _knn_indices(X, k).reshape(-1), width)

    # Point i's excluded set is excluded[bounds[i]:bounds[i + 1]], sorted.
    # The (owner, excluded) rows are distinct, so one sort of their keys
    # orders them as a lexsort would.
    keys = np.concatenate([positives[:, 0], positives[:, 1], points])
    keys *= width
    keys += np.concatenate([positives[:, 1], positives[:, 0], points])
    keys.sort()
    owner, excluded = _split_keys(keys, width)
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
    return PairSet(
        positives=positives,
        negatives=_unique_pairs(owners, drawn, width),
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


def _knn_indices(X, k):
    """Exact k-nn by kd-box pruning; returns an n x k neighbor index matrix.

    Distances are squared coordinate differences summed in coordinate order
    (the direct form) on every path, so the result is the first k columns of
    a stable argsort of those distances: ties go to the lower index, and no
    block size or BLAS kernel enters the bits.

    The points are cut level by level into kd leaves of at most
    ``_KNN_LEAF`` points, each cut a median split on the widest coordinate
    of its node, and each leaf keeps its bounding box. A point's k-th
    smallest distance to its ``_KNN_WINDOW`` neighbors on either side in
    leaf order bounds its k-th neighbor's distance from above. Exact
    distances are computed only to the points of leaves whose box lies
    within that bound, tested box to box, then point to box. A box bound
    sums rounded terms that are each no larger than the distance's, so it
    never exceeds a computed distance and the pruning drops nothing that
    could be a neighbor.

    Where the boxes keep more than ``_PRUNE_SHARE`` of a leaf's n-wide rows
    (high intrinsic dimension, or k near n), that leaf's points are answered
    from Gram rows instead; see ``_gram_rows``. Every temporary stays within
    about ``_KNN_BLOCK`` entries. Points that are non-finite, or large
    enough for a squared distance to overflow, raise InputError.
    """
    n, dim = X.shape
    with np.errstate(over="ignore"):  # reported below
        # Coordinates of X and of X minus its mean are within 2 * top, so no
        # norm, product or distance below exceeds 16 * dim * top**2.
        top = np.abs(X).max(initial=0.0)
        if not np.isfinite(16.0 * dim * top * top):
            raise InputError("squared distances are not all finite")
    order, sizes = _kd_leaves(X)
    coords = np.ascontiguousarray(np.take(X, order, axis=0).T)
    starts = np.cumsum(sizes) - sizes
    lo = np.minimum.reduceat(coords, starts, axis=1)
    hi = np.maximum.reduceat(coords, starts, axis=1)
    bound = _window_bounds(coords, k)
    leaf_bound = np.maximum.reduceat(bound, starts)

    out = np.empty((n, k), dtype=np.int64)
    gram_leaves = []
    step = max(1, _KNN_BLOCK // len(sizes))
    for first in range(0, len(sizes), step):
        leaves = np.arange(first, min(first + step, len(sizes)))
        near = _box_gaps(lo[:, leaves, None], hi[:, leaves, None], lo, hi)
        near = near <= leaf_bound[leaves, None]
        pairs = sizes[leaves] * (near @ sizes)
        # A leaf past a group's budget on its own goes to Gram rows too.
        pruned = pairs <= np.minimum(_PRUNE_SHARE * n * sizes[leaves], _KNN_BLOCK)
        gram_leaves.append(leaves[~pruned])
        # Pruned leaves in groups of about _KNN_BLOCK candidate pairs.
        group = (np.cumsum(pairs[pruned]) - pairs[pruned]) // _KNN_BLOCK
        for rows in np.split(np.flatnonzero(pruned), np.flatnonzero(np.diff(group)) + 1):
            if len(rows):
                i, j = _pruned_candidates(
                    coords, starts, sizes, lo, hi, bound, leaves[rows], near[rows]
                )
                _write_nearest(coords, order, i, j, bound, k, out)
    gram_leaves = np.concatenate(gram_leaves)
    if len(gram_leaves):
        rows = _members(starts[gram_leaves], sizes[gram_leaves])
        _gram_rows(coords, order, rows, k, out)
    return out


def _kd_leaves(X):
    """Median kd leaves of at most ``_KNN_LEAF`` points: (order, sizes).

    Every node of a depth is cut in one pass, as ``build_tree`` cuts: each
    node's points are stably sorted on the node's widest coordinate and its
    first half becomes the left child. Sizes within a depth differ by at
    most one, so all nodes stop at the same depth, and the sort runs on one
    (nodes, widest node) grid padded with inf. ``order`` lists the points
    leaf after leaf and ``sizes`` gives each leaf's count.
    """
    n = len(X)
    order = np.arange(n)
    sizes = np.array([n])
    while sizes.max() > _KNN_LEAF:
        points = np.take(X, order, axis=0)
        starts = np.cumsum(sizes) - sizes
        widths = np.maximum.reduceat(points, starts) - np.minimum.reduceat(points, starts)
        axis = widths.argmax(axis=1)
        node = np.repeat(np.arange(len(sizes)), sizes)
        grid = np.full((len(sizes), sizes.max()), np.inf)
        grid[node, np.arange(n) - starts[node]] = points[np.arange(n), axis[node]]
        ranked = np.argsort(grid, axis=1, kind="stable")
        order = order[(starts[:, None] + ranked)[ranked < sizes[:, None]]]
        half = sizes // 2
        sizes = np.stack([half, sizes - half], axis=1).reshape(-1)
    return order, sizes


def _members(starts, sizes):
    """Positions ``starts[t] + arange(sizes[t])`` for every t, concatenated."""
    offsets = np.cumsum(sizes) - sizes
    return np.repeat(starts - offsets, sizes) + np.arange(int(sizes.sum()))


def _sq_sum(diffs):
    """Sum of the squares of per-coordinate differences, in coordinate order.

    The one summation every distance and box bound uses; each difference
    array is squared in place.
    """
    out = None
    for diff in diffs:
        diff *= diff
        if out is None:
            out = diff
        else:
            out += diff
    return out


def _sq_dist(coords, i, j):
    """Direct-form squared distances between points ``i`` and ``j``.

    ``coords`` holds one row per coordinate.
    """
    return _sq_sum(x[i] - x[j] for x in coords)


def _box_gaps(lo_a, hi_a, lo_b, hi_b):
    """Squared gaps between boxes (a point is a box with lo = hi).

    For points x in box a and y in box b, each rounded gap is at most the
    rounded ``|x_c - y_c|``, and the sum runs in the same order, so it is
    at most their computed distance.
    """

    def gaps():
        for c in range(len(lo_b)):
            gap = np.maximum(lo_b[c] - hi_a[c], lo_a[c] - hi_b[c])
            yield np.maximum(gap, 0.0, out=gap)

    return _sq_sum(gaps())


def _window_bounds(coords, k):
    """Each point's k-th smallest distance to a window of points in leaf order.

    The window holds the ``_KNN_WINDOW`` (at least k) positions on either
    side; positions past either end read as inf, and at least k others
    remain. The window rows are strided views of the coordinates padded
    with inf, ``_KNN_BLOCK`` entries at a time, so nothing is gathered.
    """
    n = coords.shape[1]
    reach = max(_KNN_WINDOW, k)
    padded = np.full((len(coords), n + 2 * reach), np.inf)
    padded[:, reach : reach + n] = coords
    bound = np.empty(n)
    step = max(1, _KNN_BLOCK // (2 * reach + 1))
    for start in range(0, n, step):
        rows = min(step, n - start)
        # Row r of a view holds the points r - reach positions on.
        dist = _sq_sum(
            x[start + reach : start + reach + rows]
            - sliding_window_view(x[start : start + rows + 2 * reach], rows)
            for x in padded
        )
        dist[reach] = np.inf
        bound[start : start + rows] = np.partition(dist, k - 1, axis=0)[k - 1]
    return bound


def _pruned_candidates(coords, starts, sizes, lo, hi, bound, leaves, near):
    """Candidate pairs (i, j) of positions for the points of ``leaves``.

    ``near[a, b]`` says leaf b's box lies within the bound of leaf
    ``leaves[a]``. Each member i of a query leaf is tested against those
    boxes on its own, and pairs with every point of the boxes it keeps.
    """
    a, b = np.nonzero(near)
    i = _members(starts[leaves[a]], sizes[leaves[a]])
    b = np.repeat(b, sizes[leaves[a]])
    x = np.take(coords, i, axis=1)
    keep = _box_gaps(x, x, np.take(lo, b, axis=1), np.take(hi, b, axis=1)) <= bound[i]
    i, b = i[keep], b[keep]
    return np.repeat(i, sizes[b]), _members(starts[b], sizes[b])


def _gram_rows(coords, order, rows, k, out):
    """The k-nn of positions ``rows`` from full Gram rows, refined in direct form.

    A Gram block ``|y_i|^2 + |y_j|^2 - 2 y_i.y_j`` on the centred points y
    runs at BLAS speed but rounds differently from the direct form. The two
    differ by at most ``margin_i``, a multiple of the unit roundoff times
    ``|y_i|^2 + max_j |y_j|^2``, so every point whose direct-form distance
    ties or beats the k-th one is within the row's k-th Gram distance plus
    twice that margin. Only those candidates are refined in direct form,
    about ``_KNN_BLOCK`` at a time.
    """
    dim, n = coords.shape
    centred = coords - coords.mean(axis=1, keepdims=True)
    sq_norms = np.einsum("ij,ij->j", centred, centred)
    # (8 * dim + 32) unit roundoffs: about twice the Gram form's, the
    # centring's and the direct form's error bounds together.
    margin = (4 * dim + 16) * np.finfo(np.float64).eps * (sq_norms + sq_norms.max())
    step = max(1, _KNN_BLOCK // n)
    gram = np.empty((min(step, len(rows)), n))
    dist = np.empty_like(gram)
    found, held = [], 0
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        g = gram[: len(block)]
        d2 = dist[: len(block)]
        np.matmul(centred[:, block].T, centred, out=g)
        g *= 2.0
        np.add(sq_norms[block, None], sq_norms, out=d2)
        d2 -= g
        d2[np.arange(len(block)), block] = np.inf
        limit = np.partition(d2, k - 1, axis=1)[:, k - 1] + 2.0 * margin[block]
        # Row-major like np.nonzero, which is ~10x slower on a 2-D mask.
        r, j = np.divmod(np.flatnonzero(d2 <= limit[:, None]), n)
        found.append((block[r], j))
        held += len(j)
        if held >= _KNN_BLOCK or start + step >= len(rows):
            i, j = (np.concatenate(part) for part in zip(*found))
            _write_nearest(coords, order, i, j, None, k, out)
            found, held = [], 0


def _write_nearest(coords, order, i, j, bound, k, out):
    """Write each query's k candidates of least (distance, index) into ``out``.

    ``i`` and ``j`` are positions in leaf order, and each query needs k
    candidates other than itself. Given ``bound``, the query itself and
    candidates beyond ``bound[i]`` are dropped before the sort, since k
    others lie within it.
    """
    dist = _sq_dist(coords, i, j)
    if bound is not None:
        keep = (dist <= bound[i]) & (i != j)
        i, j, dist = i[keep], j[keep], dist[keep]
    labels = order[j]
    ranked = _ranked(i, dist, labels)
    i = i[ranked]
    first = np.flatnonzero(np.concatenate(([True], i[1:] != i[:-1])))
    out[order[i[first]]] = labels[ranked][first[:, None] + np.arange(k)]


def _ranked(rows, dist, labels):
    """The order of entries by (row, distance, label), all nonnegative.

    With no (row, label) repeated, the same order as
    ``np.lexsort((labels, dist, rows))``, from three sorts
    of unique keys, which run several times faster here: equal distances
    share a tier, (tier, label) ranks the entries, and (row, rank) orders
    them.
    """
    count = len(dist)
    by_dist = np.argsort(dist)
    tier = np.empty(count, dtype=np.int64)
    sorted_dist = dist[by_dist]
    tier[by_dist] = np.cumsum(np.concatenate(([0], sorted_dist[1:] != sorted_dist[:-1])))
    rank = np.empty(count, dtype=np.int64)
    rank[np.argsort(tier * (int(labels.max(initial=0)) + 1) + labels)] = np.arange(count)
    return np.argsort(rows * count + rank)


def rptree_pairs(tree, rng) -> PairSet:
    """Pairs from tree leaves.

    Positives are all within-leaf pairs. For negatives, every leaf picks one
    other leaf uniformly and contributes the full cross product. With a
    single leaf there is nothing to pair against; negatives come back empty
    with a warning attached.

    No key is sorted: both polarities are written point by point in their
    final order, ascending points each followed by its ascending partners
    above it (see ``_emit_rows``). Those partners are the tail of one sorted
    list: the point's own leaf for positives, and for negatives the union of
    the leaves its leaf meets (see ``_met_keys``). Rows hold int32 indices;
    a tree with a point id from 2^31 on raises InputError before any row is
    written.
    """
    sizes = tree.leaf_sizes
    # Ordered-with-self convention of the estimate.
    raw_count = int((sizes * sizes).sum())
    starts = np.cumsum(sizes) - sizes
    n = len(tree.points)
    # Each leaf's members ascending, as ``build_tree`` lays them out (see
    # ``Tree``); a tree built otherwise is sorted within its leaves first.
    members = tree.points
    leaf = np.repeat(np.arange(len(sizes)), sizes)
    if not ((members[1:] > members[:-1]) | (leaf[1:] != leaf[:-1])).all():
        members = members[np.lexsort((members, leaf))]
    del leaf
    top = int(members.max(initial=0))
    width = _key_width(top + 1)
    # The positions of the points in ascending index order, the order their
    # rows are written in.
    if top + 1 == n:
        order = np.empty(n, dtype=np.int64)
        order[members] = np.arange(n)
    else:
        order = np.argsort(members)
    firsts = np.take(members, order).astype(np.int32)

    # A point's positives are the members after it in its leaf.
    begin = order + 1
    counts = np.take(np.repeat(starts + sizes, sizes), order)
    counts -= begin
    positives = _emit_rows(firsts, begin, counts, members.astype(np.int32))
    del begin, counts
    warning = None
    if len(sizes) < 2:
        negatives = _EMPTY_PAIRS
        warning = "tree has a single leaf; no negative pairs generated"
    else:
        # A point's negatives are the members above it in its leaf's union.
        met = _met_keys(members, sizes, starts, _partner_leaves(len(sizes), rng), width)
        leaf_keys = np.arange(len(sizes)) * width
        # The queries ascend in tree order, which searchsorted walks several
        # times faster than queries in random order.
        queries = np.repeat(leaf_keys, sizes)
        queries += members
        begin = np.take(np.searchsorted(met, queries, side="right"), order)
        del queries
        counts = np.take(np.repeat(np.searchsorted(met, leaf_keys + width), sizes), order)
        counts -= begin
        # A key's low bits are its member, decoded in place. The keys and
        # ``order`` go before the output is made, so that past it the
        # emitter holds only its inputs and one block.
        met &= width - 1
        met = met.astype(np.int32)
        del order
        negatives = _emit_rows(firsts, begin, counts, met)
    return PairSet(
        positives=positives,
        negatives=negatives,
        raw_positive_count=raw_count,
        warning=warning,
    )


def _met_keys(members, sizes, starts, partner, width):
    """Keys ``leaf * width + member`` of the members each leaf meets, sorted.

    A leaf meets its partner leaf when it contributes their cross product,
    and every leaf that drew it and contributes theirs. Two leaves that drew
    each other share one cross product, which only the lower-numbered of
    them contributes; no other two leaves' products meet, so no negative is
    met twice. Leaf x's run of keys is therefore its ascending union.
    """
    ids = np.arange(len(sizes))
    gives = (partner[partner] != ids) | (ids < partner)
    givers = np.flatnonzero(gives)
    drawn = partner[givers]
    # A giver meets its partner's members, and the partner the giver's.
    keys = np.concatenate(
        [
            np.repeat(givers * width, sizes[drawn])
            + members[_members(starts[drawn], sizes[drawn])],
            np.repeat(drawn * width, sizes[givers]) + members[np.repeat(gives, sizes)],
        ]
    )
    keys.sort()
    return keys


def _emit_rows(firsts, begin, counts, source):
    """Rows ``(firsts[t], source[begin[t] + r])`` for ``r < counts[t]``, t ascending.

    Written into one (count, 2) array of ``source``'s dtype, block by block:
    a block holds up to ``_ROW_BLOCK`` points and about as many rows (more
    only where one point has more rows), so that past the output the
    temporaries stay block-sized. ``begin`` and ``counts`` are taken over.
    """
    # Row r of point t reads source[r + begin[t] - (first row of t)].
    begin += counts
    row_ends = np.cumsum(counts, out=counts)
    begin -= row_ends
    out = np.empty((int(row_ends[-1]) if len(row_ends) else 0, 2), dtype=source.dtype)
    first = row = 0
    while row < len(out):
        last = int(np.searchsorted(row_ends, row + _ROW_BLOCK, side="right"))
        last = min(max(first + 1, last), first + _ROW_BLOCK)
        stop = int(row_ends[last - 1])
        taken = np.diff(row_ends[first:last], prepend=row)
        out[row:stop, 0] = np.repeat(firsts[first:last], taken)
        at = np.repeat(begin[first:last], taken)
        at += np.arange(row, stop)
        out[row:stop, 1] = np.take(source, at)
        first, row = last, stop
    return out


def _partner_leaves(count, rng):
    """For each of ``count`` leaves, one other leaf drawn uniformly, in one draw."""
    other = rng.integers(0, count - 1, size=count)
    return other + (other >= np.arange(count))


def _key_width(count):
    """The least power of two not below ``count``, for point ids in ``range(count)``.

    A key ``lo * width + hi`` then decodes by a shift and a mask (see
    ``_split_keys``). Ids from ``_INT32_WIDTH`` on do not fit the int32 rows
    mining returns, so a ``count`` above it raises InputError.
    """
    if count > _INT32_WIDTH:
        raise InputError(f"point ids reach {count - 1}; pair mining takes ids below 2^31")
    return 1 << max(count - 1, 0).bit_length()


def _split_keys(keys, width):
    """The (key // width, key % width) parts of ``keys``; ``width`` is a power of two."""
    return keys >> (width.bit_length() - 1), keys & (width - 1)


def _unique_pairs(a, b, width):
    """The distinct unordered pairs {a[t], b[t]} as sorted (lo, hi) int32 rows.

    Each pair is keyed ``lo * width + hi``, so with ``width`` from
    ``_key_width`` key order is row order: the first key of each run of
    equal sorted keys is kept and decoded into a fresh (count, 2) array.
    The same rows as ``np.unique`` with ``axis=0``, which would import
    ``numpy.ma``.
    """
    keys = np.minimum(a, b) * width + np.maximum(a, b)
    keys.sort()
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    rows = np.empty((int(keep.sum()), 2), dtype=np.int32)
    rows[:, 0], rows[:, 1] = _split_keys(keys[keep], width)
    return rows


def save_pairs_csv(pairs: PairSet, positives_path, negatives_path):
    """Write each polarity as a two-column CSV with an i,j header."""
    write_csv(positives_path, ("i", "j"), pairs.positives)
    write_csv(negatives_path, ("i", "j"), pairs.negatives)
