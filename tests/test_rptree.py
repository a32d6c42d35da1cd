import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpspectral import rptree
from rpspectral.errors import DegenerateSplit
from rpspectral.rptree import (
    TreeConfig,
    build_tree,
    choose_directions,
    leaf_size_stats,
    leaves,
    principal_directions,
    random_directions,
    split_node,
)

TREE_FIELDS = ("points", "leaf_sizes", "degenerate", "directions", "thresholds", "children")


def same_tree(a, b):
    """Whether two trees have identical structure, cuts and leaves."""
    return all(
        getattr(a, name).shape == getattr(b, name).shape
        and np.array_equal(getattr(a, name), getattr(b, name))
        for name in TREE_FIELDS
    )


def walk_and_check(tree, X, leaf_size):
    """Re-derive the partition from stored directions/thresholds.

    Verifies, per split: unit direction, threshold inside the middle band of
    that node's projected range, and that its children hold exactly the
    points on each side of the cut. Every leaf must be reached once, in
    left-to-right order, holding the points that reach it. Returns the
    number of splits on the deepest root-to-leaf path.
    """
    assert tree.points.dtype == tree.leaf_sizes.dtype == tree.children.dtype == np.int64
    assert np.array_equal(np.sort(tree.points), np.arange(len(X)))
    assert tree.leaf_sizes.sum() == len(X) and (tree.leaf_sizes >= 1).all()
    assert len(tree.degenerate) == len(tree.leaf_sizes)
    assert len(tree.directions) == len(tree.thresholds) == len(tree.children)
    parts = leaves(tree)
    visited, depth = [], 0
    root = 0 if len(tree.children) else ~0
    stack = [(root, np.arange(len(X), dtype=np.int64), 0)]
    while stack:
        node, indices, level = stack.pop()
        depth = max(depth, level)
        if node < 0:
            leaf = ~node
            visited.append(leaf)
            assert np.array_equal(np.sort(parts[leaf]), np.sort(indices))
            if not tree.degenerate[leaf]:
                assert len(indices) <= leaf_size
            continue
        direction = tree.directions[node]
        assert abs(np.linalg.norm(direction) - 1.0) < 1e-9
        projected = X[indices] @ direction
        lo, hi = projected.min(), projected.max()
        threshold = tree.thresholds[node]
        assert lo + 0.25 * (hi - lo) <= threshold <= lo + 0.75 * (hi - lo)
        mask = projected <= threshold
        assert mask.any() and not mask.all()
        left, right = tree.children[node]
        stack.append((right, indices[~mask], level + 1))
        stack.append((left, indices[mask], level + 1))
    assert visited == list(range(len(tree.leaf_sizes)))
    return depth


def test_tree_partitions_all_points():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 3))
    tree = build_tree(X, TreeConfig(leaf_size=10), rng=np.random.default_rng(4))
    merged = np.concatenate(leaves(tree))
    assert np.array_equal(merged, tree.points)
    assert np.array_equal(np.sort(merged), np.arange(200))
    walk_and_check(tree, X, leaf_size=10)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 120),
    dim=st.integers(1, 4),
    leaf_size=st.integers(1, 30),
    copies=st.integers(1, 3),
    strategy=st.sampled_from(["random", "bestof:3", "pca"]),
    seed=st.integers(0, 1000),
)
def test_partition_invariant_property(n, dim, leaf_size, copies, strategy, seed):
    # Repeated rows make cuts fail, so retries run and degenerate leaves freeze.
    X = np.repeat(np.random.default_rng(seed).normal(size=(n, dim)), copies, axis=0)
    config = TreeConfig(leaf_size=leaf_size, strategy=strategy)
    tree = build_tree(X, config, rng=np.random.default_rng(seed))
    walk_and_check(tree, X, leaf_size=leaf_size)


def test_chain_input_builds_one_level_per_point():
    # Each cut of 1.5**i sheds only the top few points, so the tree is about
    # as deep as it has points.
    X = 1.5 ** np.arange(600.0)[:, None]
    tree = build_tree(X, TreeConfig(leaf_size=1), rng=np.random.default_rng(0))
    assert walk_and_check(tree, X, leaf_size=1) > 200
    assert len(tree.leaf_sizes) == 600 and not tree.degenerate.any()


def test_small_input_is_single_leaf():
    X = np.random.default_rng(1).normal(size=(10, 2))
    tree = build_tree(X, TreeConfig(leaf_size=20), rng=np.random.default_rng(0))
    assert tree.children.shape == (0, 2)
    assert tree.directions.shape == (0, 2)
    assert tree.leaf_sizes.tolist() == [10]
    assert tree.points.tolist() == list(range(10))


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
    for strategy in ("random", "bestof:3", "pca"):
        config = TreeConfig(leaf_size=8, strategy=strategy)
        tree = build_tree(X, config, rng=np.random.default_rng(0))
        assert tree.children.shape == (0, 2)
        assert tree.degenerate.tolist() == [True]
        assert tree.leaf_sizes.tolist() == [40]  # exceeds the bound, flagged instead


def test_mixed_duplicates_still_partition():
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(size=(30, 2)), np.zeros((30, 2))])
    tree = build_tree(X, TreeConfig(leaf_size=5), rng=np.random.default_rng(1))
    walk_and_check(tree, X, leaf_size=5)
    stats = leaf_size_stats(tree)
    assert stats.degenerate_count >= 1
    assert stats.max_size >= 30  # the duplicate block cannot be divided


# --- directions ---


def test_random_direction_is_unit():
    rng = np.random.default_rng(0)
    for shape in ((1,), (5, 2), (4, 3, 7)):
        d = random_directions(shape, rng)
        assert d.shape == shape
        assert np.allclose(np.linalg.norm(d, axis=-1), 1.0, atol=1e-9)


def segments(*parts):
    """The rows of ``parts`` laid end to end, and their sizes."""
    return np.concatenate(parts), np.array([len(p) for p in parts])


def eigh_top(points):
    centered = points - points.mean(axis=0)
    w, v = np.linalg.eigh(centered.T @ centered / len(points))
    return v[:, np.argmax(w)]


def test_principal_direction_axis_case():
    # Points spread only along the first axis: the component is +/- e1, and
    # sign canonicalization makes it +e1.
    X = np.array([[-2.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    d = principal_directions(X, np.array([4]))
    assert np.allclose(d, [[1.0, 0.0]], atol=1e-8)


def test_principal_direction_matches_eigh():
    rng = np.random.default_rng(7)
    parts = [
        rng.normal(size=(60, 3)) @ np.diag([3.0, 1.0, 0.2]),
        rng.normal(size=(2, 3)),
        rng.normal(size=(25, 3)) @ np.diag([0.1, 0.5, 4.0]) + 10.0,
    ]
    points, sizes = segments(*parts)
    got = principal_directions(points, sizes)
    for d, part in zip(got, parts):
        top = eigh_top(part)
        assert min(np.linalg.norm(d - top), np.linalg.norm(d + top)) < 1e-6
        assert d[np.flatnonzero(d)[0]] > 0


def test_principal_direction_in_blocks_matches_one_block(monkeypatch):
    # A block of 8 covariance entries holds two 2-d nodes, so five nodes take
    # three blocks.
    rng = np.random.default_rng(8)
    points, sizes = segments(*(rng.normal(size=(s, 2)) for s in (3, 9, 2, 30, 5)))
    want = principal_directions(points, sizes)
    monkeypatch.setattr(rptree, "_COV_BLOCK", 8)
    assert np.array_equal(principal_directions(points, sizes), want)


def test_principal_direction_of_identical_points_is_zero():
    points, sizes = segments(np.full((5, 3), 2.5), np.eye(3))
    d = principal_directions(points, sizes)
    assert not d[0].any()
    assert abs(np.linalg.norm(d[1]) - 1.0) < 1e-9


def test_best_of_picks_max_variance_candidate():
    rng = np.random.default_rng(11)
    parts = [rng.normal(size=(80, 2)) @ np.diag([5.0, 0.5]), rng.normal(size=(30, 2))]
    points, sizes = segments(*parts)
    directions, scores = choose_directions(points, sizes, "bestof:8", rng)
    assert directions.shape == (2, 2)
    assert scores.shape == (2, 8)
    for d, part, row in zip(directions, parts, scores):
        assert np.isclose(np.var(part @ d), row.max())


def test_best_of_one_is_random_draw_for_draw():
    points, sizes = segments(*(np.random.default_rng(12).normal(size=(s, 3)) for s in (4, 9)))
    a, _ = choose_directions(points, sizes, "random", np.random.default_rng(3))
    b, scores = choose_directions(points, sizes, "bestof:1", np.random.default_rng(3))
    assert np.array_equal(a, b)
    assert scores.shape == (2, 1)


def test_best_of_beats_single_draw_on_average():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(100, 2)) @ np.diag([10.0, 0.1])
    points, sizes = segments(*([X] * 20))
    variances = {}
    for strategy in ("bestof:10", "random"):
        directions, _ = choose_directions(points, sizes, strategy, rng)
        variances[strategy] = np.var(X @ directions.T, axis=0)
    assert np.mean(variances["bestof:10"]) > np.mean(variances["random"])


def test_tree_config_takes_only_the_exact_strategy_spellings():
    for strategy in ("random", "pca", "bestof:1", "bestof:5", "bestof:12"):
        assert TreeConfig(leaf_size=4, strategy=strategy).strategy == strategy
    for strategy in ("kd", "PCA", " pca ", "Random", "bestof", "bestof:0", "bestof:03", "bestof:x", 3):
        with pytest.raises(ValueError, match="strategy must be"):
            TreeConfig(leaf_size=4, strategy=strategy)


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
        np.arange(20), X, np.array([0.0, 1.0]), rng
    )
    assert len(left) + len(right) == 20
    assert abs(used[0]) > 0  # the replacement direction sees the spread


def test_split_duplicates_raises():
    X = np.zeros((6, 2))
    rng = np.random.default_rng(0)
    with pytest.raises(DegenerateSplit):
        split_node(np.arange(6), X, np.array([1.0, 0.0]), rng)


def test_tree_config_validation():
    with pytest.raises(ValueError):
        TreeConfig(leaf_size=0)
    with pytest.raises(ValueError):
        build_tree(np.zeros((0, 2)), TreeConfig(leaf_size=5), rng=np.random.default_rng(0))
