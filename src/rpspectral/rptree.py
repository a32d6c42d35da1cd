"""Random projection trees with configurable leaf size and split direction.

A tree recursively halves a point set: project the node's points onto a unit
direction, cut at a random fraction of the projected range, recurse until a
node holds at most ``leaf_size`` points. The direction rule is
``TreeConfig.strategy``, one of the exact strings "random", "pca" or
"bestof:N". Leaves are the unit of pair mining downstream, and they are all
a built tree keeps: a tree with L leaves was cut L - 1 times.

The build runs one depth at a time. The nodes of a depth are contiguous
segments of one array of point ids, so a single pass of segment operations
(``reduceat`` over the segments, one draw per node) splits all of them, and a
stable partition inside each segment puts a node's left child ahead of its
right one. That array therefore always lists the points in the tree's
left-to-right order, and the finished tree is three flat arrays.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import InputError

_SPLIT_BAND = (0.25, 0.75)  # cut fraction drawn uniformly inside this band
# Fresh random directions a node tries after a cut that leaves a side empty,
# before it freezes into a degenerate leaf.
_MAX_SPLIT_RETRIES = 3
# Covariance entries per block of nodes in the pca strategy: 8 MiB of
# float64, so a level of many high-dimensional nodes is done a block at a time.
_COV_BLOCK = 1 << 20
# The exact spellings of TreeConfig.strategy.
_STRATEGY = re.compile(r"random|pca|bestof:[1-9][0-9]*")


@dataclass(frozen=True)
class TreeConfig:
    """Leaf size bound and the rule that picks each node's direction.

    ``strategy`` "random" draws one direction uniformly on the unit sphere;
    "bestof:N" draws N candidates and keeps the one with maximum projected
    variance; "pca" uses the node's first principal component. "bestof:1"
    coincides with "random" draw for draw.
    """

    leaf_size: int
    strategy: str = "random"

    def __post_init__(self):
        if self.leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        if not (isinstance(self.strategy, str) and _STRATEGY.fullmatch(self.strategy)):
            raise ValueError(
                f"strategy must be 'random', 'pca' or 'bestof:N' with N >= 1, "
                f"got {self.strategy!r}"
            )


@dataclass(frozen=True, eq=False)
class Tree:
    """A built tree as its leaves.

    ``points`` holds every point id once, leaf after leaf, leaves left to
    right; leaf ``j`` owns the next ``leaf_sizes[j]`` of them. ``degenerate``
    flags the leaves frozen because no direction could separate their points
    (duplicates); those may exceed the leaf size bound. A tree with L leaves
    was cut L - 1 times; the cuts themselves are not kept.

    ``build_tree`` lists each leaf's members in ascending index order: it
    starts from ``arange(n)`` and every partition it makes is stable.
    ``rptree_pairs`` emits its pairs in order from that layout, and sorts
    the leaves of a tree laid out otherwise first.
    """

    points: np.ndarray  # (n,) int64
    leaf_sizes: np.ndarray  # (leaves,) int64
    degenerate: np.ndarray  # (leaves,) bool


def _starts(sizes):
    """First position of each segment when segments of ``sizes`` lie end to end."""
    return np.cumsum(sizes) - sizes


def _project(points, directions, sizes):
    """Each row of ``points`` projected on its segment's direction."""
    return np.einsum("pd,pd->p", points, np.repeat(directions, sizes, axis=0))


def random_directions(shape, rng):
    """Directions uniform on the unit sphere, normalized Gaussian draws.

    ``shape`` ends with the dimension; one ``standard_normal`` call draws them
    all, and any draw too short to normalize is drawn again. A dimension
    below 1 has no unit vector to draw and raises InputError.
    """
    if shape[-1] < 1:
        raise InputError(f"directions need a dimension of at least 1, got {shape[-1]}")
    v = rng.standard_normal(shape)
    norms = np.linalg.norm(v, axis=-1)
    short = norms <= 1e-12
    while short.any():
        v[short] = rng.standard_normal((int(short.sum()), shape[-1]))
        norms[short] = np.linalg.norm(v[short], axis=-1)
        short = norms <= 1e-12
    return v / norms[..., None]


def principal_directions(points, sizes):
    """First principal component of each segment of ``points``.

    ``points`` holds the segments' rows end to end, segment i ``sizes[i]``
    rows long. Each segment's scatter matrix is summed with ``reduceat``,
    one column at a time, and a block of them goes to one batched ``eigh``.
    Rows are sign-canonicalized so the first nonzero component is positive.
    A segment of identical points, whose scatter is all-zero, has no
    principal direction and gets the zero vector, which no cut can split.
    """
    m, dim = len(sizes), points.shape[1]
    starts = _starts(sizes)
    centered = points - np.repeat(np.add.reduceat(points, starts) / sizes[:, None], sizes, axis=0)
    out = np.empty((m, dim))
    step = max(1, _COV_BLOCK // dim**2)
    for first in range(0, m, step):
        last = min(first + step, m)
        block = centered[starts[first] : starts[last - 1] + sizes[last - 1]]
        local = starts[first:last] - starts[first]
        scatter = np.empty((last - first, dim, dim))
        for column in range(dim):
            scatter[:, column] = np.add.reduceat(block * block[:, column, None], local)
        top = np.linalg.eigh(scatter)[1][:, :, -1]
        top[~scatter.any(axis=(1, 2))] = 0.0
        out[first:last] = top
    lead = out[np.arange(m), np.argmax(out != 0, axis=1)]
    out[lead < 0] *= -1.0
    return out


def choose_directions(points, sizes, strategy, rng):
    """One projection direction per segment of ``points``.

    ``points`` holds m segments' rows end to end, segment i ``sizes[i]`` rows
    long, and ``strategy`` is a ``TreeConfig.strategy`` spelling. Returns the
    (m, dim) directions; bestof keeps, per segment, the candidate of largest
    projected variance. The random and bestof candidates come from one
    (m, N, dim) draw, so "random" is "bestof:1" draw for draw.
    """
    m, dim = len(sizes), points.shape[1]
    if strategy == "pca":
        return principal_directions(points, sizes)
    n_try = 1 if strategy == "random" else int(strategy.split(":")[1])
    candidates = random_directions((m, n_try, dim), rng)
    if strategy == "random":
        return candidates[:, 0]
    starts = _starts(sizes)
    scores = np.empty((m, n_try))
    for t in range(n_try):
        projected = _project(points, candidates[:, t], sizes)
        projected -= np.repeat(np.add.reduceat(projected, starts) / sizes, sizes)
        scores[:, t] = np.add.reduceat(projected * projected, starts) / sizes
    return candidates[np.arange(m), scores.argmax(axis=1)]


def _cut_segments(points, sizes, directions, rng):
    """Cut every segment of ``points`` by a thresholded projection at once.

    Segment i's threshold sits at a Uniform[0.25, 0.75] fraction of its
    projected range along ``directions[i]``, and its points at or below it
    go left. Segments that come up with an empty side (all projections
    equal, or the cut rounded onto an extreme) are retried together, each
    with a fresh random direction, up to ``_MAX_SPLIT_RETRIES`` times. A retry
    draws its directions first; every attempt then draws one cut fraction
    per segment it tries.

    Returns (left, thresholds, directions, split): the per-point side, and
    per segment the last attempt's threshold and direction and whether it
    split.
    """
    m = len(sizes)
    directions = np.array(directions, dtype=np.float64)
    thresholds = np.empty(m)
    left = np.zeros(len(points), dtype=bool)
    split = np.zeros(m, dtype=bool)
    todo = np.arange(m)  # segments still to cut
    rows = np.arange(len(points))  # their points
    for attempt in range(_MAX_SPLIT_RETRIES + 1):
        if attempt:
            directions[todo] = random_directions((len(todo), points.shape[1]), rng)
        todo_sizes = sizes[todo]
        starts = _starts(todo_sizes)
        projected = _project(points, directions[todo], todo_sizes)
        lo = np.minimum.reduceat(projected, starts)
        hi = np.maximum.reduceat(projected, starts)
        cut = lo + rng.uniform(*_SPLIT_BAND, size=len(todo)) * (hi - lo)
        below = projected <= np.repeat(cut, todo_sizes)
        count = np.add.reduceat(below, starts)
        ok = (count > 0) & (count < todo_sizes)
        thresholds[todo] = cut
        split[todo[ok]] = True
        done = np.repeat(ok, todo_sizes)
        if attempt:
            left[rows[done]] = below[done]
        else:  # every point takes part, each in its own row
            np.logical_and(below, done, out=left)
        todo = todo[~ok]
        if not len(todo):
            break
        points, rows = points[~done], rows[~done]
    return left, thresholds, directions, split


def split_node(indices, X, direction, rng):
    """Partition ``indices`` by a thresholded projection.

    The one-segment case of the level-wise build's cut: the threshold sits
    at a Uniform[0.25, 0.75] fraction of the projected range, points at or
    below it go left, and a cut with an empty side is retried with a fresh
    random direction up to ``_MAX_SPLIT_RETRIES`` (3) times before raising
    InputError.

    Returns (left, right, threshold, direction_used).
    """
    indices = np.asarray(indices, dtype=np.int64)
    left, thresholds, used, split = _cut_segments(
        np.asarray(X, dtype=np.float64)[indices],
        np.array([len(indices)]),
        np.asarray(direction, dtype=np.float64)[None],
        rng,
    )
    if not split[0]:
        raise InputError(
            f"no separating direction found for {len(indices)} points "
            f"after {_MAX_SPLIT_RETRIES} retries"
        )
    return indices[left], indices[~left], thresholds[0], used[0]


def check_finite(X):
    """Raise InputError if the float array ``X`` holds a NaN or an infinity."""
    if not np.isfinite(X).all():
        bad = np.count_nonzero(~np.isfinite(X))
        raise InputError(f"{bad} input value(s) are NaN or infinite")


def build_tree(X, config, rng):
    """Build a tree over all rows of ``X``, drawing from generator ``rng``.

    Nodes larger than ``config.leaf_size`` are split; smaller ones become
    leaves. Nodes whose points cannot be separated (duplicates) freeze into
    leaves flagged degenerate, which may exceed the size bound. All nodes of
    one depth are split together, so the draws go depth by depth: each
    depth's directions, then its cut fractions, then its retries'. The tree
    is deterministic given the generator's state. A NaN or an infinity in
    ``X`` raises InputError: no projection could order such a point, and so
    does an ``X`` that is not a 2-D matrix of at least one row and one
    column.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) < 1 or X.shape[1] < 1:
        raise InputError("X must be a nonempty 2-D matrix")
    check_finite(X)
    n = len(X)
    points = np.arange(n, dtype=np.int64)
    # A leaf is a run of ``points``: mark where each run starts and whether
    # its node froze.
    leaf_start = np.zeros(n, dtype=bool)
    frozen = np.zeros(n, dtype=bool)

    def admit(start, size):
        """Mark the small nodes as leaves; return the mask of the others."""
        small = size <= config.leaf_size
        leaf_start[start[small]] = True
        return ~small

    # Nodes still to split: where their points start in ``points`` and how
    # many there are.
    start, size = np.zeros(1, np.int64), np.array([n])
    ids = points.copy() if admit(start, size)[0] else points[:0]
    while len(ids):
        local = np.take(X, ids, axis=0)
        directions = choose_directions(local, size, config.strategy, rng)
        left, _, _, ok = _cut_segments(local, size, directions, rng)
        leaf_start[start[~ok]] = frozen[start[~ok]] = True

        # Stable partition inside each segment, left side first; a frozen
        # segment has no left side, so it keeps its order. The level's j-th
        # left point lands at j plus the right sides of the segments before
        # its own; its j-th right point at j plus the left sides of the
        # segments up to its own.
        n_left = np.add.reduceat(left, _starts(size))
        n_right = size - n_left
        dest = np.empty_like(ids)
        for side, count, shift in (
            (left, n_left, _starts(n_right)),
            (~left, n_right, np.cumsum(n_left)),
        ):
            at = np.flatnonzero(side)
            dest[at] = np.arange(len(at)) + np.repeat(shift, count)
        ids_after = np.empty_like(ids)
        ids_after[dest] = ids
        points[dest + np.repeat(start - _starts(size), size)] = ids

        sides = np.stack([n_left, n_right], axis=1)
        child_start = np.stack([start, start + n_left], axis=1)[ok].reshape(-1)
        child_size = sides[ok].reshape(-1)
        active = admit(child_start, child_size)
        keep = np.zeros(sides.shape, dtype=bool)
        keep[ok] = active.reshape(-1, 2)
        ids = ids_after[np.repeat(keep.reshape(-1), sides.reshape(-1))]
        start, size = child_start[active], child_size[active]

    starts = np.flatnonzero(leaf_start)
    return Tree(points=points, leaf_sizes=np.diff(starts, append=n), degenerate=frozen[starts])


@dataclass(frozen=True)
class LeafStats:
    count: int
    min_size: int
    max_size: int
    mean_size: float
    degenerate_count: int


def leaf_size_stats(tree):
    """Exact size statistics over the tree's leaves."""
    sizes = tree.leaf_sizes
    return LeafStats(
        count=len(sizes),
        min_size=int(sizes.min()),
        max_size=int(sizes.max()),
        mean_size=float(sizes.mean()),
        degenerate_count=int(np.count_nonzero(tree.degenerate)),
    )
