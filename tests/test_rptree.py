import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpspectral.errors import DegenerateGeometry, DegenerateSplit
from rpspectral.rptree import (
    DirectionStrategy,
    Internal,
    Leaf,
    TreeConfig,
    build_tree,
    choose_direction_scored,
    leaf_size_stats,
    leaves,
    principal_direction,
    random_direction,
    split_node,
)


def same_tree(a, b):
    """Whether two trees have identical structure, cuts and leaves."""
    if isinstance(a, Leaf) or isinstance(b, Leaf):
        return (
            isinstance(a, Leaf)
            and isinstance(b, Leaf)
            and np.array_equal(a.indices, b.indices)
            and a.degenerate == b.degenerate
        )
    return (
        np.array_equal(a.direction, b.direction)
        and a.threshold == b.threshold
        and same_tree(a.left, b.left)
        and same_tree(a.right, b.right)
    )


def walk_and_check(tree, X, leaf_size):
    """Re-derive the partition from stored directions/thresholds.

    Verifies, per internal node: unit direction, threshold strictly inside
    the middle band of that node's projected range, and that the children
    actually sit on the correct sides of the cut. Returns all leaf nodes.
    """
    found = []
    stack = [(tree, np.arange(len(X), dtype=np.int64))]
    while stack:
        node, indices = stack.pop()
        if isinstance(node, Leaf):
            assert np.array_equal(np.sort(node.indices), np.sort(indices))
            if not node.degenerate:
                assert len(node.indices) <= leaf_size
            found.append(node)
            continue
        assert abs(np.linalg.norm(node.direction) - 1.0) < 1e-9
        projected = X[indices] @ node.direction
        lo, hi = projected.min(), projected.max()
        assert lo + 0.25 * (hi - lo) <= node.threshold <= lo + 0.75 * (hi - lo)
        mask = projected <= node.threshold
        assert mask.any() and not mask.all()
        stack.append((node.left, indices[mask]))
        stack.append((node.right, indices[~mask]))
    return found


def test_tree_partitions_all_points():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 3))
    tree = build_tree(X, TreeConfig(leaf_size=10), rng=np.random.default_rng(4))
    parts = leaves(tree)
    merged = np.concatenate(parts)
    assert len(merged) == 200
    assert np.array_equal(np.sort(merged), np.arange(200))
    walk_and_check(tree, X, leaf_size=10)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 120),
    dim=st.integers(1, 4),
    leaf_size=st.integers(1, 30),
    seed=st.integers(0, 1000),
)
def test_partition_invariant_property(n, dim, leaf_size, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim))
    tree = build_tree(X, TreeConfig(leaf_size=leaf_size), rng=np.random.default_rng(seed))
    merged = np.concatenate(leaves(tree))
    assert np.array_equal(np.sort(merged), np.arange(n))
    walk_and_check(tree, X, leaf_size=leaf_size)


def test_small_input_is_single_leaf():
    X = np.random.default_rng(1).normal(size=(10, 2))
    tree = build_tree(X, TreeConfig(leaf_size=20), rng=np.random.default_rng(0))
    assert isinstance(tree, Leaf)
    assert len(tree.indices) == 10


def test_leaf_count_lower_bound():
    X = np.random.default_rng(2).normal(size=(100, 2))
    tree = build_tree(X, TreeConfig(leaf_size=20), rng=np.random.default_rng(0))
    stats = leaf_size_stats(tree)
    assert stats.count >= 5  # 100 points cannot fit in fewer 20-point leaves
    assert stats.max_size <= 20
    assert stats.degenerate_count == 0


def test_build_is_deterministic():
    X = np.random.default_rng(3).normal(size=(150, 2))
    config = TreeConfig(leaf_size=15)
    a = build_tree(X, config, rng=np.random.default_rng(9))
    b = build_tree(X, config, rng=np.random.default_rng(9))
    assert same_tree(a, b)


def test_seed_changes_tree():
    X = np.random.default_rng(3).normal(size=(150, 2))
    a = build_tree(X, TreeConfig(leaf_size=15), rng=np.random.default_rng(0))
    b = build_tree(X, TreeConfig(leaf_size=15), rng=np.random.default_rng(1))
    assert not same_tree(a, b)


def test_duplicates_freeze_into_degenerate_leaf():
    X = np.ones((40, 2))
    tree = build_tree(X, TreeConfig(leaf_size=8), rng=np.random.default_rng(0))
    assert isinstance(tree, Leaf)
    assert tree.degenerate
    assert len(tree.indices) == 40  # exceeds the bound, flagged instead


def test_mixed_duplicates_still_partition():
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(size=(30, 2)), np.zeros((30, 2))])
    tree = build_tree(X, TreeConfig(leaf_size=5), rng=np.random.default_rng(1))
    merged = np.concatenate(leaves(tree))
    assert np.array_equal(np.sort(merged), np.arange(60))
    stats = leaf_size_stats(tree)
    assert stats.degenerate_count >= 1
    assert stats.max_size >= 30  # the duplicate block cannot be divided


# --- directions ---


def test_random_direction_is_unit():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 7):
        d = random_direction(dim, rng)
        assert d.shape == (dim,)
        assert abs(np.linalg.norm(d) - 1.0) < 1e-9


def test_principal_direction_axis_case():
    # Points spread only along the first axis: the component is +/- e1, and
    # sign canonicalization makes it +e1.
    X = np.array([[-2.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    d = principal_direction(X)
    assert np.allclose(d, [1.0, 0.0], atol=1e-8)


def test_principal_direction_matches_eigh():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, 3)) @ np.diag([3.0, 1.0, 0.2])
    d = principal_direction(X)
    centered = X - X.mean(axis=0)
    w, v = np.linalg.eigh(centered.T @ centered / len(X))
    top = v[:, np.argmax(w)]
    assert min(np.linalg.norm(d - top), np.linalg.norm(d + top)) < 1e-6


def test_principal_direction_rejects_identical_points():
    with pytest.raises(DegenerateGeometry):
        principal_direction(np.full((5, 3), 2.5))


def test_best_of_picks_max_variance_candidate():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(80, 2)) @ np.diag([5.0, 0.5])
    direction, scores = choose_direction_scored(X, DirectionStrategy.best_of(8), rng)
    assert scores.shape == (8,)
    assert np.isclose(np.var(X @ direction), scores.max())


def test_best_of_beats_single_draw_on_average():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(100, 2)) @ np.diag([10.0, 0.1])
    wide = [
        np.var(X @ choose_direction_scored(X, DirectionStrategy.best_of(10), rng)[0])
        for _ in range(20)
    ]
    single = [
        np.var(X @ choose_direction_scored(X, DirectionStrategy.random(), rng)[0])
        for _ in range(20)
    ]
    assert np.mean(wide) > np.mean(single)


def test_strategy_parse_round_trip():
    for text in ("random", "pca", "bestof:5"):
        assert DirectionStrategy.parse(text).label == text
    assert DirectionStrategy.parse(" PCA ").label == "pca"
    with pytest.raises(ValueError):
        DirectionStrategy.parse("kd")
    with pytest.raises(ValueError):
        DirectionStrategy("bestof", 0)


# --- splitting ---


def test_split_two_points_threshold_band():
    X = np.array([[0.0], [1.0]])
    rng = np.random.default_rng(0)
    left, right, threshold, _ = split_node(
        np.array([0, 1]), X, np.array([1.0]), rng
    )
    assert 0.25 < threshold < 0.75
    assert left.tolist() == [0]
    assert right.tolist() == [1]


def test_split_retries_recover_from_orthogonal_direction():
    # First direction is orthogonal to the data spread; retries must find one
    # that separates.
    X = np.column_stack([np.linspace(0, 1, 20), np.zeros(20)])
    rng = np.random.default_rng(2)
    left, right, _, used = split_node(
        np.arange(20), X, np.array([0.0, 1.0]), rng, max_retries=5
    )
    assert len(left) + len(right) == 20
    assert abs(used[0]) > 0  # the replacement direction sees the spread


def test_split_duplicates_raises():
    X = np.zeros((6, 2))
    rng = np.random.default_rng(0)
    with pytest.raises(DegenerateSplit):
        split_node(np.arange(6), X, np.array([1.0, 0.0]), rng, max_retries=2)


def test_tree_config_validation():
    with pytest.raises(ValueError):
        TreeConfig(leaf_size=0)
    with pytest.raises(ValueError):
        TreeConfig(leaf_size=5, max_split_retries=0)
    with pytest.raises(ValueError):
        build_tree(np.zeros((0, 2)), TreeConfig(leaf_size=5), rng=np.random.default_rng(0))
