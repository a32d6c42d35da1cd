import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpspectral import rptree
from rpspectral.errors import InputError
from rpspectral.rptree import (
    TreeConfig,
    build_tree,
    choose_directions,
    leaf_size_stats,
    principal_directions,
    random_directions,
    split_node,
)

TREE_FIELDS = ("points", "leaf_sizes", "degenerate")


def leaves(tree):
    """Left-to-right list of leaf index arrays (views into ``tree.points``)."""
    return np.split(tree.points, np.cumsum(tree.leaf_sizes)[:-1])


def same_tree(a, b):
    """Whether two trees have identical leaves."""
    return all(
        getattr(a, name).shape == getattr(b, name).shape
        and np.array_equal(getattr(a, name), getattr(b, name))
        for name in TREE_FIELDS
    )


def check_partition(tree, X, leaf_size):
    """The leaves cover every row of ``X`` once; each leaf not flagged
    degenerate is within ``leaf_size``, and each flagged one is a node that
    was too large and froze."""
    assert tree.points.dtype == tree.leaf_sizes.dtype == np.int64
    assert tree.degenerate.dtype == bool
    assert np.array_equal(np.sort(tree.points), np.arange(len(X)))
    assert tree.leaf_sizes.sum() == len(X) and (tree.leaf_sizes >= 1).all()
    assert len(tree.degenerate) == len(tree.leaf_sizes)
    assert (tree.leaf_sizes[~tree.degenerate] <= leaf_size).all()
    assert (tree.leaf_sizes[tree.degenerate] > leaf_size).all()


def test_tree_partitions_all_points():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 3))
    tree = build_tree(X, TreeConfig(leaf_size=10), rng=np.random.default_rng(4))
    merged = np.concatenate(leaves(tree))
    assert np.array_equal(merged, tree.points)
    assert np.array_equal(np.sort(merged), np.arange(200))
    check_partition(tree, X, leaf_size=10)


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
    check_partition(tree, X, leaf_size=leaf_size)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=150, unique=True
    ),
    leaf_size=st.integers(1, 20),
    strategy=st.sampled_from(["random", "bestof:3", "pca"]),
    seed=st.integers(0, 1000),
)
def test_leaves_of_distinct_1d_values_are_runs_of_the_sorted_values(
    values, leaf_size, strategy, seed
):
    # On a line every cut is a threshold on the value, so each node, and each
    # leaf, holds a run of the sorted values; a partition that sends a point
    # to the wrong child breaks a run.
    X = np.array(values)[:, None]
    tree = build_tree(X, TreeConfig(leaf_size, strategy), rng=np.random.default_rng(seed))
    check_partition(tree, X, leaf_size=leaf_size)
    rank = np.argsort(np.argsort(X[:, 0]))
    for leaf in leaves(tree):
        assert rank[leaf].max() - rank[leaf].min() + 1 == len(leaf)


def test_chain_input_builds_one_level_per_point(monkeypatch):
    # Each cut of 1.5**i sheds only the top few points, so the tree is about
    # as deep as it has points. The build chooses directions once per depth.
    depths = 0
    choose = rptree.choose_directions

    def counting(*args):
        nonlocal depths
        depths += 1
        return choose(*args)

    monkeypatch.setattr(rptree, "choose_directions", counting)
    X = 1.5 ** np.arange(600.0)[:, None]
    tree = build_tree(X, TreeConfig(leaf_size=1), rng=np.random.default_rng(0))
    check_partition(tree, X, leaf_size=1)
    assert depths > 200
    assert len(tree.leaf_sizes) == 600 and not tree.degenerate.any()


def test_a_tree_with_l_leaves_was_cut_l_minus_1_times(monkeypatch):
    cuts = []
    cut_segments = rptree._cut_segments

    def counting(*args):
        result = cut_segments(*args)
        cuts.append(int(result[3].sum()))
        return result

    monkeypatch.setattr(rptree, "_cut_segments", counting)
    rng = np.random.default_rng(6)
    X = np.vstack([rng.normal(size=(300, 3)), np.zeros((40, 3))])
    for strategy in ("random", "bestof:3", "pca"):
        for leaf_size in (1, 6, 20, 400):
            cuts.clear()
            tree = build_tree(X, TreeConfig(leaf_size, strategy), np.random.default_rng(leaf_size))
            assert leaf_size_stats(tree).count - 1 == sum(cuts)


def test_small_input_is_single_leaf():
    X = np.random.default_rng(1).normal(size=(10, 2))
    tree = build_tree(X, TreeConfig(leaf_size=20), rng=np.random.default_rng(0))
    assert tree.leaf_sizes.tolist() == [10]
    assert tree.degenerate.tolist() == [False]
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
        assert tree.degenerate.tolist() == [True]
        assert tree.leaf_sizes.tolist() == [40]  # exceeds the bound, flagged instead


def test_mixed_duplicates_still_partition():
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(size=(30, 2)), np.zeros((30, 2))])
    tree = build_tree(X, TreeConfig(leaf_size=5), rng=np.random.default_rng(1))
    check_partition(tree, X, leaf_size=5)
    stats = leaf_size_stats(tree)
    assert stats.degenerate_count >= 1
    assert stats.max_size >= 30  # the duplicate block cannot be divided
    frozen = [leaf for leaf, flag in zip(leaves(tree), tree.degenerate) if flag]
    assert np.array_equal(np.sort(np.concatenate(frozen)), np.arange(30, 60))


# --- directions ---


def test_random_direction_is_unit():
    rng = np.random.default_rng(0)
    for shape in ((1,), (5, 2), (4, 3, 7)):
        d = random_directions(shape, rng)
        assert d.shape == shape
        assert np.allclose(np.linalg.norm(d, axis=-1), 1.0, atol=1e-9)


def test_zero_length_directions_are_refused():
    # Every draw on a zero-length axis has norm 0, so redrawing short ones
    # would never end.
    with pytest.raises(InputError, match="^directions need a dimension of at least 1, got 0$"):
        random_directions((2, 0), np.random.default_rng(0))


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
    directions = choose_directions(points, sizes, "bestof:8", np.random.default_rng(3))
    # The same draw from a generator in the same state: each segment's 8
    # candidates, in draw order.
    candidates = random_directions((2, 8, 2), np.random.default_rng(3))
    assert directions.shape == (2, 2)
    for d, part, tries in zip(directions, parts, candidates):
        variances = np.var(part @ tries.T, axis=0)
        assert np.array_equal(d, tries[np.argmax(variances)])
        assert np.isclose(np.var(part @ d), variances.max())


def test_best_of_one_is_random_draw_for_draw():
    points, sizes = segments(*(np.random.default_rng(12).normal(size=(s, 3)) for s in (4, 9)))
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    a = choose_directions(points, sizes, "random", rng_a)
    b = choose_directions(points, sizes, "bestof:1", rng_b)
    assert np.array_equal(a, b)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_best_of_beats_single_draw_on_average():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(100, 2)) @ np.diag([10.0, 0.1])
    points, sizes = segments(*([X] * 20))
    variances = {}
    for strategy in ("bestof:10", "random"):
        directions = choose_directions(points, sizes, strategy, rng)
        variances[strategy] = np.var(X @ directions.T, axis=0)
    assert np.mean(variances["bestof:10"]) > np.mean(variances["random"])


def test_tree_config_takes_only_the_exact_strategy_spellings():
    for strategy in ("random", "pca", "bestof:1", "bestof:5", "bestof:12"):
        assert TreeConfig(leaf_size=4, strategy=strategy).strategy == strategy
    for strategy in ("kd", "PCA", " pca ", "Random", "bestof", "bestof:0", "bestof:03", "bestof:x", 3):
        with pytest.raises(ValueError, match="strategy must be"):
            TreeConfig(leaf_size=4, strategy=strategy)


def reference_build(X, config, rng):
    """build_tree with each level's partition done node by node in plain loops.

    The draws are build_tree's: per level, choose_directions then
    _cut_segments on all nodes still to split, in left-to-right order. Each
    node's ids are then split into its left ids, then its right ids.
    """
    X = np.asarray(X, dtype=np.float64)
    points = np.arange(len(X), dtype=np.int64)
    leaf_list = []  # (start, size, frozen)
    nodes = []  # (start, ids) of the nodes still to split, left to right

    def admit(start, ids):
        points[start : start + len(ids)] = ids
        if len(ids) <= config.leaf_size:
            leaf_list.append((start, len(ids), False))
        else:
            nodes.append((start, ids))

    admit(0, points.copy())
    while nodes:
        level, nodes = nodes, []
        sizes = np.array([len(ids) for _, ids in level])
        local = X[np.concatenate([ids for _, ids in level])]
        directions = rptree.choose_directions(local, sizes, config.strategy, rng)
        left, _, _, split = rptree._cut_segments(local, sizes, directions, rng)
        offset = 0
        for (start, ids), size, ok in zip(level, sizes.tolist(), split.tolist()):
            side = left[offset : offset + size].tolist()
            offset += size
            if not ok:
                leaf_list.append((start, size, True))
                continue
            left_ids = [i for i, goes_left in zip(ids.tolist(), side) if goes_left]
            right_ids = [i for i, goes_left in zip(ids.tolist(), side) if not goes_left]
            admit(start, np.array(left_ids, dtype=np.int64))
            admit(start + len(left_ids), np.array(right_ids, dtype=np.int64))
    leaf_list.sort()
    return rptree.Tree(
        points=points,
        leaf_sizes=np.array([size for _, size, _ in leaf_list], dtype=np.int64),
        degenerate=np.array([frozen for _, _, frozen in leaf_list], dtype=bool),
    )


def vertical_directions(points, sizes, strategy, rng):
    """Direction (0, 1) for every node: flat-in-y points all project to 0."""
    return np.tile([0.0, 1.0], (len(sizes), 1))


REFERENCE_INPUTS = {
    "blobs": lambda rng: rng.normal(size=(700, 3)) + rng.integers(0, 3, size=(700, 1)) * 4.0,
    "duplicates": lambda rng: np.vstack(
        [np.repeat(rng.normal(size=(1, 2)), 40, axis=0), rng.normal(size=(200, 2))]
    )[rng.permutation(240)],
}


@pytest.mark.parametrize("strategy", ["random", "bestof:3", "pca"])
@pytest.mark.parametrize("name", sorted(REFERENCE_INPUTS))
@pytest.mark.parametrize("seed", [0, 1])
def test_build_tree_matches_the_per_node_reference(strategy, name, seed):
    X = REFERENCE_INPUTS[name](np.random.default_rng(seed))
    config = TreeConfig(leaf_size=6, strategy=strategy)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = build_tree(X, config, rng=got_rng), reference_build(X, config, want_rng)
    assert same_tree(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    if name == "duplicates":
        assert got.degenerate.any()  # the 40 copies freeze


def test_build_tree_matches_the_per_node_reference_when_nodes_split_on_a_retry(monkeypatch):
    # Every node's first direction sees none of the spread, so every node
    # splits on a retry or, past the retries, freezes.
    monkeypatch.setattr(rptree, "choose_directions", vertical_directions)
    rng = np.random.default_rng(5)
    X = np.column_stack([rng.normal(size=300), np.zeros(300)])
    config = TreeConfig(leaf_size=5)
    got_rng, want_rng = np.random.default_rng(6), np.random.default_rng(6)
    got, want = build_tree(X, config, rng=got_rng), reference_build(X, config, want_rng)
    assert same_tree(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert len(got.leaf_sizes) > 30


# --- splitting ---


class RecordingRng:
    """A generator that logs the size of each draw ``_cut_segments`` makes."""

    def __init__(self, seed):
        self.rng, self.normal, self.uniform_sizes = np.random.default_rng(seed), [], []

    def standard_normal(self, shape):
        self.normal.append(shape)
        return self.rng.standard_normal(shape)

    def uniform(self, low, high, size):
        self.uniform_sizes.append(size)
        return self.rng.uniform(low, high, size)


def test_cut_segments_cuts_inside_the_band_and_freezes_identical_points():
    rng = np.random.default_rng(21)
    parts = [
        np.column_stack([np.linspace(0.0, 1.0, 12), np.zeros(12)]),  # flat in y
        np.full((7, 2), 3.0),  # identical points
        np.array([[0.0, 0.0], [1.0, 1.0]]),
        *(rng.normal(size=(s, 2)) for s in (30, 5, 17, 9, 40, 3, 12, 25)),
    ]
    points, sizes = segments(*parts)
    # The first segment's first direction sees none of its spread, so it
    # splits only on a retry; the second never splits.
    given_directions = np.vstack([[0.0, 1.0], [1.0, 0.0], random_directions((9, 2), rng)])
    draws = RecordingRng(22)
    left, thresholds, directions, split = rptree._cut_segments(
        points, sizes, given_directions, draws
    )
    assert split.tolist() == [True, False] + [True] * 9
    assert not np.array_equal(directions[0], given_directions[0])
    bounds = np.cumsum(sizes) - sizes
    for i, part in enumerate(parts):
        side = left[bounds[i] : bounds[i] + sizes[i]]
        if not split[i]:
            assert not side.any()  # a frozen segment sends nothing left
            continue
        assert abs(np.linalg.norm(directions[i]) - 1.0) < 1e-9
        projected = part @ directions[i]
        lo, hi = projected.min(), projected.max()
        assert lo + 0.25 * (hi - lo) <= thresholds[i] <= lo + 0.75 * (hi - lo)
        assert np.array_equal(side, projected <= thresholds[i])
        assert side.any() and not side.all()
    # One cut per attempt; the identical points take part in every retry.
    assert len(draws.uniform_sizes) == rptree._MAX_SPLIT_RETRIES + 1
    assert draws.uniform_sizes[0] == len(parts) and draws.uniform_sizes[-1] >= 1
    assert len(draws.normal) == rptree._MAX_SPLIT_RETRIES


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
    with pytest.raises(
        InputError, match="^no separating direction found for 6 points after 3 retries$"
    ):
        split_node(np.arange(6), X, np.array([1.0, 0.0]), rng)


def test_split_without_coordinates_raises():
    # The zero-length direction splits nothing, and a retry has no direction
    # to draw.
    with pytest.raises(InputError, match="^directions need a dimension of at least 1, got 0$"):
        split_node(np.arange(3), np.zeros((3, 0)), np.empty(0), np.random.default_rng(0))


def test_tree_config_validation():
    with pytest.raises(ValueError, match="^leaf_size must be >= 1$"):
        TreeConfig(leaf_size=0)
    with pytest.raises(InputError, match="^X must be a nonempty 2-D matrix$"):
        build_tree(np.zeros((0, 2)), TreeConfig(leaf_size=5), rng=np.random.default_rng(0))
