"""Random projection trees with configurable leaf size and split direction.

A tree recursively halves a point set: project the node's points onto a unit
direction, cut at a random fraction of the projected range, recurse until a
node holds at most ``leaf_size`` points. Leaves are the unit of pair mining
downstream, so the structure exposes them directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, DegenerateSplit, NonFiniteInput

_SPLIT_BAND = (0.25, 0.75)  # cut fraction drawn uniformly inside this band
_POWER_ITERATIONS = 100
_POWER_TOL = 1e-9


@dataclass(frozen=True)
class DirectionStrategy:
    """How a node picks its projection direction.

    kind "random" draws one direction uniformly on the unit sphere; "bestof"
    draws ``n_try`` candidates and keeps the one with maximum projected
    variance; "pca" uses the subset's first principal component. bestof with
    n_try=1 coincides with random draw for draw.
    """

    kind: str = "random"
    n_try: int = 1

    def __post_init__(self):
        if self.kind not in ("random", "bestof", "pca"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.n_try < 1:
            raise ValueError("n_try must be >= 1")

    @classmethod
    def random(cls):
        return cls("random")

    @classmethod
    def best_of(cls, n_try):
        return cls("bestof", n_try)

    @classmethod
    def pca(cls):
        return cls("pca")

    @classmethod
    def parse(cls, text):
        text = text.strip().lower()
        if text == "random":
            return cls.random()
        if text == "pca":
            return cls.pca()
        if text.startswith("bestof:"):
            return cls.best_of(int(text.split(":", 1)[1]))
        raise ValueError(f"cannot parse strategy {text!r}")

    @property
    def label(self):
        if self.kind == "bestof":
            return f"bestof:{self.n_try}"
        return self.kind


@dataclass(frozen=True)
class TreeConfig:
    leaf_size: int
    strategy: DirectionStrategy = DirectionStrategy.random()
    max_split_retries: int = 3

    def __post_init__(self):
        if self.leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        if self.max_split_retries < 1:
            raise ValueError("max_split_retries must be >= 1")


class Internal:
    """Split node: unit direction, threshold in projected coordinates."""

    __slots__ = ("direction", "threshold", "left", "right")

    def __init__(self, direction, threshold, left=None, right=None):
        self.direction = direction
        self.threshold = threshold
        self.left = left
        self.right = right


class Leaf:
    """Terminal node holding point indices.

    ``degenerate`` marks leaves frozen because no direction could separate
    their points (duplicates); those may exceed the leaf size bound.
    """

    __slots__ = ("indices", "degenerate")

    def __init__(self, indices, degenerate=False):
        self.indices = np.asarray(indices, dtype=np.int64)
        self.degenerate = degenerate


def random_direction(dim, rng):
    """Uniform direction on the unit sphere via a normalized Gaussian draw."""
    while True:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def principal_direction(points):
    """First principal component of ``points`` by power iteration.

    Sign-canonicalized so the first nonzero component is positive. Raises
    DegenerateGeometry when the subset covariance is all-zero (identical
    points), where no principal direction exists.
    """
    points = np.asarray(points, dtype=np.float64)
    centered = points - points.mean(axis=0)
    cov = centered.T @ centered / len(points)
    if not np.any(cov):
        raise DegenerateGeometry("subset covariance is all-zero")
    # Deterministic start that cannot be orthogonal to every eigenvector.
    v = np.ones(cov.shape[0]) / np.sqrt(cov.shape[0])
    for _ in range(_POWER_ITERATIONS):
        w = cov @ v
        norm = np.linalg.norm(w)
        if norm <= 1e-300:
            # Start vector sat in the null space; nudge along the largest
            # diagonal entry, which any nonzero PSD covariance has.
            w = np.zeros_like(v)
            w[int(np.argmax(np.diag(cov)))] = 1.0
            norm = 1.0
        w = w / norm
        if np.linalg.norm(w - v) < _POWER_TOL:
            v = w
            break
        v = w
    nonzero = np.flatnonzero(v)
    if nonzero.size and v[nonzero[0]] < 0:
        v = -v
    return v


def choose_direction(points, strategy, rng):
    """Pick a projection direction for a node's point subset."""
    direction, _ = choose_direction_scored(points, strategy, rng)
    return direction


def choose_direction_scored(points, strategy, rng):
    """As choose_direction, also returning per-candidate variance scores.

    Scores are None for the random and pca strategies; for bestof they are
    the projected variances of every candidate, aligned with draw order.
    """
    points = np.asarray(points, dtype=np.float64)
    dim = points.shape[1]
    if strategy.kind == "random":
        return random_direction(dim, rng), None
    if strategy.kind == "pca":
        return principal_direction(points), None
    candidates = [random_direction(dim, rng) for _ in range(strategy.n_try)]
    scores = np.array([np.var(points @ c) for c in candidates])
    return candidates[int(np.argmax(scores))], scores


def split_node(indices, X, direction, rng, max_retries=3):
    """Partition ``indices`` by a thresholded projection.

    The threshold sits at a Uniform[0.25, 0.75] fraction of the projected
    range, points at or below it go left. When a side comes up empty (all
    projections equal, or the cut rounded onto the extreme), the split is
    retried with a fresh random direction up to ``max_retries`` times before
    raising DegenerateSplit.

    Returns (left, right, threshold, direction_used).
    """
    indices = np.asarray(indices, dtype=np.int64)
    current = direction
    for attempt in range(max_retries + 1):
        projected = X[indices] @ current
        lo = projected.min()
        hi = projected.max()
        if hi > lo:
            beta = rng.uniform(_SPLIT_BAND[0], _SPLIT_BAND[1])
            threshold = lo + beta * (hi - lo)
            mask = projected <= threshold
            if mask.any() and not mask.all():
                return indices[mask], indices[~mask], threshold, current
        if attempt < max_retries:
            current = random_direction(X.shape[1], rng)
    raise DegenerateSplit(
        f"no separating direction found for {len(indices)} points "
        f"after {max_retries} retries"
    )


def check_finite(X):
    """Raise NonFiniteInput if the float array ``X`` holds a NaN or an infinity."""
    if not np.isfinite(X).all():
        bad = np.count_nonzero(~np.isfinite(X))
        raise NonFiniteInput(f"{bad} input value(s) are NaN or infinite")


def build_tree(X, config, rng):
    """Build a tree over all rows of ``X``, drawing from generator ``rng``.

    Nodes larger than ``config.leaf_size`` are split; smaller ones become
    leaves. Nodes whose points cannot be separated (duplicates) freeze into
    leaves flagged degenerate, which may exceed the size bound. Deterministic
    given the generator's state. A NaN or an infinity in ``X`` raises
    NonFiniteInput: no projection could order such a point.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) < 1:
        raise ValueError("X must be a nonempty 2-D matrix")
    check_finite(X)

    def make_node(indices):
        if len(indices) <= config.leaf_size:
            return Leaf(indices), None
        try:
            direction = choose_direction(X[indices], config.strategy, rng)
            left, right, threshold, used = split_node(
                indices, X, direction, rng, config.max_split_retries
            )
        except (DegenerateSplit, DegenerateGeometry):
            return Leaf(indices, degenerate=True), None
        return Internal(used, threshold), (left, right)

    root, children = make_node(np.arange(len(X), dtype=np.int64))
    # Explicit stack instead of recursion: adversarial spacings can make the
    # tree arbitrarily deep. Expansion order is fixed (left subtree first),
    # so the rng stream and hence the tree are reproducible.
    stack = [(root, children)]
    while stack:
        node, pending = stack.pop()
        if pending is None:
            continue
        left_indices, right_indices = pending
        node.left, left_children = make_node(left_indices)
        node.right, right_children = make_node(right_indices)
        stack.append((node.right, right_children))
        stack.append((node.left, left_children))
    return root


def leaves(tree):
    """In-order (left to right) list of leaf index arrays."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(node.indices)
        else:
            stack.append(node.right)
            stack.append(node.left)
    return out


@dataclass(frozen=True)
class LeafStats:
    count: int
    min_size: int
    max_size: int
    mean_size: float
    degenerate_count: int


def leaf_size_stats(tree):
    """Exact size statistics over the tree's leaves."""
    sizes = []
    degenerate = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            sizes.append(len(node.indices))
            degenerate += int(node.degenerate)
        else:
            stack.append(node.right)
            stack.append(node.left)
    return LeafStats(
        count=len(sizes),
        min_size=min(sizes),
        max_size=max(sizes),
        mean_size=float(np.mean(sizes)),
        degenerate_count=degenerate,
    )
