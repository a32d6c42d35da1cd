import csv
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpspectral import pairing
from rpspectral.datasets import SyntheticSpec, generate_synthetic
from rpspectral.errors import InputError
from rpspectral.pairing import (
    _KEY_BLOCK,
    PairSet,
    _distinct_ranks,
    _key_width,
    _knn_indices,
    _pairs_from_keys,
    _partner_leaves,
    _write_keys,
    knn_pairs,
    rptree_pairs,
    save_pairs_csv,
)
from rpspectral.rptree import Tree, TreeConfig, build_tree


def leaves(tree):
    """Left-to-right list of leaf index arrays (views into ``tree.points``)."""
    return np.split(tree.points, np.cumsum(tree.leaf_sizes)[:-1])


def brute_force_knn(X, k):
    """Quadratic reference: the k nearest neighbours of every point, ties
    broken toward the lower index (matching a stable sort on distance)."""
    n = len(X)
    d = np.sqrt(((X[:, None] - X[None]) ** 2).sum(-1))
    np.fill_diagonal(d, np.inf)
    out = set()
    for i in range(n):
        order = np.argsort(d[i], kind="stable")[:k]
        for j in order:
            out.add((min(i, j), max(i, j)))
    return out


def as_set(array):
    return {(int(a), int(b)) for a, b in array}


def test_knn_pairs_match_quadratic_reference():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 3))
    pairs = knn_pairs(X, 4, np.random.default_rng(1))
    assert as_set(pairs.positives) == brute_force_knn(X, 4)


def test_knn_raw_count_and_dedup_bounds():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 2))
    pairs = knn_pairs(X, 3, np.random.default_rng(0))
    assert pairs.raw_positive_count == 50 * 3
    # Unordered dedup keeps between half (all mutual) and all (none mutual).
    assert 75 <= len(pairs.positives) <= 150


def test_knn_pair_arrays_hold_no_bytes_of_their_repeats():
    # Mutual neighbours key one pair twice; the compacted keys shrink to the
    # rows returned, so a kept pair set holds nothing past them.
    X = np.random.default_rng(2).normal(size=(300, 2))
    pairs = knn_pairs(X, 5, np.random.default_rng(0))
    assert len(pairs.positives) < 300 * 5
    for array in (pairs.positives, pairs.negatives):
        assert array.base is None or array.base.nbytes == array.nbytes


def test_knn_negative_budget_and_disjointness():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 2))
    pairs = knn_pairs(X, 2, np.random.default_rng(7))
    # Every point draws 2 distinct negatives; two points drawing each other
    # give one row, so there are between 40 and 80 rows.
    assert (np.bincount(pairs.negatives.reshape(-1), minlength=40) >= 2).all()
    assert 40 <= len(pairs.negatives) <= 40 * 2
    positives = as_set(pairs.positives)
    for a, b in pairs.negatives:
        assert (int(a), int(b)) not in positives
        assert a < b


def test_knn_rejects_bad_k():
    X = np.zeros((5, 2))
    with pytest.raises(InputError, match="^k=5 needs 1 <= k < n=5$"):
        knn_pairs(X, 5, np.random.default_rng(0))
    with pytest.raises(InputError, match="^k=0 needs 1 <= k < n=5$"):
        knn_pairs(X, 0, np.random.default_rng(0))


def test_knn_pair_rows_are_canonical():
    X = np.random.default_rng(4).normal(size=(30, 2))
    pairs = knn_pairs(X, 3, np.random.default_rng(0))
    for arr in (pairs.positives, pairs.negatives):
        assert arr.dtype == np.int32
        assert (arr[:, 0] < arr[:, 1]).all()
        # no duplicate rows
        assert len(as_set(arr)) == len(arr)


def test_leaf_pairs_hand_case():
    # Two leaves {0,1} and {2}: one positive inside the pair leaf, and the
    # cross products as negatives.
    tree = hand_tree([0, 1], [2])
    pairs = rptree_pairs(tree, np.random.default_rng(0))
    assert as_set(pairs.positives) == {(0, 1)}
    assert as_set(pairs.negatives) == {(0, 2), (1, 2)}
    assert pairs.raw_positive_count == 2 * 2 + 1 * 1
    assert pairs.warning is None


def test_leaf_pairs_cover_leaves_exactly():
    X = np.random.default_rng(5).normal(size=(120, 2))
    tree = build_tree(X, TreeConfig(leaf_size=10), rng=np.random.default_rng(0))
    pairs = rptree_pairs(tree, np.random.default_rng(1))
    expected = set()
    raw = 0
    for part in leaves(tree):
        raw += len(part) ** 2
        for idx, a in enumerate(part):
            for b in part[idx + 1 :]:
                expected.add((min(int(a), int(b)), max(int(a), int(b))))
    assert as_set(pairs.positives) == expected
    assert pairs.raw_positive_count == raw


def test_leaf_negatives_come_from_other_leaves():
    X = np.random.default_rng(6).normal(size=(80, 2))
    tree = build_tree(X, TreeConfig(leaf_size=8), rng=np.random.default_rng(3))
    leaf_of = {}
    for leaf_id, part in enumerate(leaves(tree)):
        for index in part:
            leaf_of[int(index)] = leaf_id
    pairs = rptree_pairs(tree, np.random.default_rng(2))
    assert len(pairs.negatives) > 0
    for a, b in pairs.negatives:
        assert leaf_of[int(a)] != leaf_of[int(b)]
    positives = as_set(pairs.positives)
    assert not positives & as_set(pairs.negatives)


def test_single_leaf_tree_warns_and_has_no_negatives():
    tree = hand_tree(np.arange(6))
    pairs = rptree_pairs(tree, np.random.default_rng(0))
    assert len(pairs.positives) == 15
    assert pairs.negatives.shape == (0, 2)
    assert pairs.warning is not None


def test_rptree_pairs_deterministic_given_rng_seed():
    X = np.random.default_rng(8).normal(size=(100, 2))
    tree = build_tree(X, TreeConfig(leaf_size=10), rng=np.random.default_rng(0))
    a = rptree_pairs(tree, np.random.default_rng(5))
    b = rptree_pairs(tree, np.random.default_rng(5))
    assert np.array_equal(a.positives, b.positives)
    assert np.array_equal(a.negatives, b.negatives)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(4, 80),
    k=st.integers(1, 3),
    seed=st.integers(0, 500),
)
def test_knn_property_reference_agreement(n, k, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    pairs = knn_pairs(X, k, np.random.default_rng(seed + 1))
    pairs.validate()
    assert as_set(pairs.positives) == brute_force_knn(X, k)
    assert pairs.raw_positive_count == n * k


def test_save_pairs_csv_round_trip(tmp_path):
    X = np.random.default_rng(9).normal(size=(30, 2))
    pairs = knn_pairs(X, 2, np.random.default_rng(0))
    pos = tmp_path / "pos.csv"
    neg = tmp_path / "neg.csv"
    save_pairs_csv(pairs, pos, neg)
    loaded = np.loadtxt(pos, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    assert np.array_equal(loaded, pairs.positives)
    loaded_neg = np.loadtxt(neg, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    assert np.array_equal(loaded_neg, pairs.negatives)


def reference_save_pairs_csv(pairs, positives_path, negatives_path):
    """save_pairs_csv with each polarity written as one list of rows."""
    for path, rows in ((positives_path, pairs.positives), (negatives_path, pairs.negatives)):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "j"])
            writer.writerows(rows.tolist())


def test_save_pairs_csv_writes_the_unblocked_bytes_in_bounded_memory(tmp_path, peak_traced_bytes):
    # 50k positive rows as Python lists take ~7 MiB; one 8192-row block ~1 MiB.
    # The negatives end one row past a block, and an empty polarity keeps its header.
    rng = np.random.default_rng(10)
    for negatives in (rng.integers(0, 10**6, size=(2 * 8192 + 1, 2)), np.empty((0, 2), np.int64)):
        pairs = PairSet(rng.integers(0, 10**6, size=(50_000, 2)), negatives, 0)
        got, want = tmp_path / "got", tmp_path / "want"
        got.mkdir(exist_ok=True)
        want.mkdir(exist_ok=True)
        peak = peak_traced_bytes(
            lambda: save_pairs_csv(pairs, got / "pos.csv", got / "neg.csv")
        )
        reference_save_pairs_csv(pairs, want / "pos.csv", want / "neg.csv")
        for name in ("pos.csv", "neg.csv"):
            assert (got / name).read_bytes() == (want / name).read_bytes()
        assert peak < 2 * 2**20


# --- reference loop versions of the pair-mining kernels ---


def reference_unique_unordered(pairs):
    if not len(pairs):
        return np.empty((0, 2), dtype=np.int64)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


def reference_knn_indices(X, k):
    """Full stable argsort of every direct-form distance row, first k columns
    kept: squared coordinate differences summed in coordinate order. Rows
    are independent, so they are done 256 at a time to bound memory."""
    blocks = []
    for start in range(0, len(X), 256):
        rows = np.arange(start, min(start + 256, len(X)))
        d2 = np.zeros((len(rows), len(X)))
        for c in range(X.shape[1]):
            d2 += (X[rows, None, c] - X[None, :, c]) ** 2
        d2[np.arange(len(rows)), rows] = np.inf
        blocks.append(np.argsort(d2, axis=1, kind="stable")[:, :k].copy())
    return np.concatenate(blocks)


def reference_distinct_ranks(available, takes, rng):
    """Floyd's sampling per row, drawing column by column as _distinct_ranks does."""
    ranks = [[] for _ in takes]
    for s in range(int(takes.max(initial=0))):
        rows = [i for i, take in enumerate(takes.tolist()) if take > s]
        tops = np.array([available[i] - takes[i] + s for i in rows], dtype=np.int64)
        for i, top, t in zip(rows, tops.tolist(), rng.integers(0, tops + 1).tolist()):
            ranks[i].append(top if t in ranks[i] else t)
    return ranks


def reference_knn_pairs(X, k, rng):
    """knn_pairs with partner sets and an n-wide candidate mask per point."""
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    directed = np.empty((n * k, 2), dtype=np.int64)
    directed[:, 0] = np.repeat(np.arange(n), k)
    directed[:, 1] = reference_knn_indices(X, k).reshape(-1)
    positives = reference_unique_unordered(directed)
    partner = [set() for _ in range(n)]
    for i, j in positives.tolist():
        partner[i].add(j)
        partner[j].add(i)

    def candidates(i):
        mask = np.ones(n, dtype=bool)
        mask[i] = False
        mask[list(partner[i])] = False
        return np.flatnonzero(mask)

    available = np.array([n - 1 - len(partner[i]) for i in range(n)], dtype=np.int64)
    ranks = reference_distinct_ranks(available, np.minimum(k, available), rng)
    negative_rows = [
        np.stack([np.full(len(r), i), candidates(i)[r]], axis=1)
        for i, r in enumerate(ranks)
        if r
    ]
    negatives = (
        reference_unique_unordered(np.concatenate(negative_rows))
        if negative_rows
        else np.empty((0, 2), dtype=np.int64)
    )
    return PairSet(positives, negatives, n * k)


def reference_rptree_pairs(tree, rng):
    """rptree_pairs with one triu/meshgrid block per leaf."""
    leaf_sets = leaves(tree)
    positive_rows = [np.empty((0, 2), dtype=np.int64)]
    raw_count = 0
    for idx in leaf_sets:
        raw_count += len(idx) ** 2
        a, b = np.triu_indices(len(idx), k=1)
        positive_rows.append(np.stack([idx[a], idx[b]], axis=1))
    positives = reference_unique_unordered(np.concatenate(positive_rows))
    if len(leaf_sets) < 2:
        negatives = np.empty((0, 2), dtype=np.int64)
        warning = "tree has a single leaf; no negative pairs generated"
    else:
        negative_rows = []
        partners = rng.integers(0, len(leaf_sets) - 1, size=len(leaf_sets)).tolist()
        for x, (idx, other) in enumerate(zip(leaf_sets, partners)):
            if other >= x:
                other += 1
            grid_a, grid_b = np.meshgrid(idx, leaf_sets[other], indexing="ij")
            negative_rows.append(np.stack([grid_a.reshape(-1), grid_b.reshape(-1)], axis=1))
        negatives = reference_unique_unordered(np.concatenate(negative_rows))
        warning = None
    return PairSet(positives, negatives, raw_count, warning)


def assert_same_pairs(got, want, got_rng, want_rng):
    for name in ("positives", "negatives"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == np.int32
        assert a.shape == b.shape
        assert np.array_equal(a, b), name
    assert got.raw_positive_count == want.raw_positive_count
    assert got.warning == want.warning
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    got.validate()


def rows_repeating_across_key_blocks(first, stop):
    """Distinct canonical rows, three key blocks long, in random order,
    except that the rows sorted to positions ``first`` to ``stop - 1`` all
    repeat one row."""
    rng = np.random.default_rng(3)
    width = 3_000
    count = 3 * _KEY_BLOCK
    keys = np.unique(rng.integers(0, width * width, size=3 * count))
    keys = keys[keys // width < keys % width][:count]
    keys[first:stop] = keys[first]
    return np.stack(np.divmod(keys, width), axis=1)[rng.permutation(count)]


@pytest.mark.parametrize(
    "pairs",
    [
        np.empty((0, 2), dtype=np.int64),
        np.array([[4, 1]]),
        np.array([[5, 0], [3, 2], [9, 7], [2, 3], [0, 5]]),
        np.random.default_rng(0).integers(0, 6, size=(400, 2)),
        rows_repeating_across_key_blocks(_KEY_BLOCK - 3, _KEY_BLOCK + 4),
        rows_repeating_across_key_blocks(_KEY_BLOCK - 5, 2 * _KEY_BLOCK + 5),
        np.array([[2**31, 0], [5, 2**31 - 1], [0, 2**31], [2**31 - 2, 2**31], [7, 3]]),
    ],
    ids=[
        "empty",
        "one-row",
        "reversed-rows",
        "heavy-duplicates",
        "repeats-straddle-a-block-boundary",
        "repeats-span-a-block",
        "indices-past-int32",
    ],
)
def test_unique_unordered_matches_np_unique(pairs):
    # Keyed as the mining routes key their rows, deduplicated from the keys.
    width = _key_width(int(pairs.max(initial=0)) + 1)
    keys = np.empty(len(pairs), dtype=np.int64)
    _write_keys(pairs[:, 0].copy(), pairs[:, 1], width, keys)
    got = _pairs_from_keys(keys, width)
    want = reference_unique_unordered(pairs)
    # Indices from 2^31 on do not fit the int32 rows the keys' bytes hold.
    assert got.dtype == (np.int32 if width <= 2**31 else np.int64)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "count", [1, 2, 3, 10, 255, 256, 257, 2**31 - 1, 2**31, 2**31 + 1, 2**40 + 5]
)
def test_key_width_is_a_power_of_two_up_to_int32_indices(count):
    width = _key_width(count)
    if count > 2**31:
        assert width == count
    else:
        assert width >= count and width & (width - 1) == 0
        assert width == 1 or width // 2 < count


def hand_tree(*leaf_members, degenerate=()):
    """A tree whose leaves, left to right, hold ``leaf_members``; the leaves
    numbered in ``degenerate`` are flagged."""
    flags = np.zeros(len(leaf_members), dtype=bool)
    flags[list(degenerate)] = True
    return Tree(
        points=np.concatenate([np.asarray(m, dtype=np.int64) for m in leaf_members]),
        leaf_sizes=np.array([len(m) for m in leaf_members], dtype=np.int64),
        degenerate=flags,
    )


HAND_TREES = {
    "mixed-sizes": hand_tree([7, 2, 9], [4, 1], [3, 8, 5, 6, 10], [0, 11, 12]),
    "size-1-leaves": hand_tree([3], [0, 2], [1], [4]),
    "only-size-1": hand_tree([1], [0]),
    "degenerate": hand_tree([0, 1], np.arange(2, 14)[::-1], [14], degenerate=[1]),
    "single-leaf": hand_tree([5, 3, 0, 1, 4, 2]),
    "single-point": hand_tree([0]),
}


def test_two_leaf_tree_negatives_are_the_cross_product_once_each():
    # Two leaves always draw each other; their shared cross product is keyed
    # once, so the negatives fill their buffer with no repeat compacted out.
    left, right = [6, 0, 3], [5, 1, 7, 2, 4]
    tree = hand_tree(left, right)
    for seed in range(3):
        negatives = rptree_pairs(tree, np.random.default_rng(seed)).negatives
        assert len(negatives) == 15
        assert as_set(negatives) == {(min(i, j), max(i, j)) for i in left for j in right}
        assert negatives.base is None or negatives.base.nbytes == negatives.nbytes


@pytest.mark.parametrize("name", sorted(HAND_TREES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rptree_pairs_match_reference_loop(name, seed):
    tree = HAND_TREES[name]
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same_pairs(
        rptree_pairs(tree, got_rng), reference_rptree_pairs(tree, want_rng), got_rng, want_rng
    )


def test_partner_leaves_are_other_leaves_drawn_uniformly():
    rng = np.random.default_rng(16)
    draws = np.stack([_partner_leaves(5, rng) for _ in range(12_000)])
    counts = np.stack([np.bincount(draws[:, x], minlength=5) for x in range(5)])
    assert not np.diag(counts).any()
    off_diagonal = counts[~np.eye(5, dtype=bool)] / len(draws)
    assert np.abs(off_diagonal - 1 / 4).max() < 0.01


def test_distinct_ranks_draw_uniform_subsets():
    # Four candidates and two draws per row: each of the 6 subsets should
    # hold a sixth of 60k rows.
    ranks = _distinct_ranks(np.full(60_000, 4), np.full(60_000, 2), np.random.default_rng(17))
    assert (ranks[:, 0] != ranks[:, 1]).all() and ranks.min() >= 0 and ranks.max() <= 3
    subsets, counts = np.unique(np.sort(ranks, axis=1), axis=0, return_counts=True)
    assert len(subsets) == 6
    assert np.abs(counts / len(ranks) - 1 / 6).max() < 0.01


def test_distinct_ranks_stop_at_each_rows_take():
    available, takes = np.array([5, 3, 1, 0, 2]), np.array([3, 3, 1, 0, 2])
    ranks = _distinct_ranks(available, takes, np.random.default_rng(18))
    assert ranks.shape == (5, 3)
    for row, a, t in zip(ranks.tolist(), available, takes):
        assert row[t:] == [-1] * (3 - t)
        assert len(set(row[:t])) == t and all(0 <= r < a for r in row[:t])
    assert sorted(ranks[1]) == [0, 1, 2]


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 200),
    leaf_size=st.integers(1, 12),
    copies=st.integers(1, 3),
    seed=st.integers(0, 500),
)
def test_rptree_pairs_property_reference_agreement(n, leaf_size, copies, seed):
    # Repeated points freeze into degenerate leaves above the size bound.
    X = np.repeat(np.random.default_rng(seed).normal(size=(n, 2)), copies, axis=0)
    tree = build_tree(X, TreeConfig(leaf_size=leaf_size), rng=np.random.default_rng(seed))
    got_rng, want_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    assert_same_pairs(
        rptree_pairs(tree, got_rng), reference_rptree_pairs(tree, want_rng), got_rng, want_rng
    )


@pytest.mark.parametrize("n", [2, 3, 255, 256, 257, 4096, 4097])
def test_both_routes_match_their_references_at_power_of_two_boundaries(n):
    # The key width is the least power of two from n on: n = 256 keys at
    # width 256, n = 257 at 512.
    X = np.random.default_rng(n).normal(size=(n, 2))
    tree = build_tree(X, TreeConfig(leaf_size=8), rng=np.random.default_rng(0))
    got_rng, want_rng = np.random.default_rng(1), np.random.default_rng(1)
    assert_same_pairs(
        rptree_pairs(tree, got_rng), reference_rptree_pairs(tree, want_rng), got_rng, want_rng
    )
    k = min(2, n - 1)
    got_rng, want_rng = np.random.default_rng(2), np.random.default_rng(2)
    assert_same_pairs(
        knn_pairs(X, k, got_rng), reference_knn_pairs(X, k, want_rng), got_rng, want_rng
    )


@pytest.mark.parametrize("bits", [1, 8, 12])
def test_rptree_pairs_match_reference_when_the_largest_index_is_a_power_of_two_less_one(bits):
    # Members of a subset of range(2**bits) that holds its top index, so the
    # keys are exactly 2**bits wide and the top index fills every low bit.
    rng = np.random.default_rng(bits)
    top = 2**bits - 1
    members = rng.permutation(np.union1d(rng.choice(top, size=top // 2 + 1, replace=False), [top]))
    cuts = np.sort(rng.choice(np.arange(1, len(members)), size=len(members) // 8 + 1, replace=False))
    tree = hand_tree(*np.split(members, cuts))
    assert int(tree.points.max()) == top
    for seed in range(3):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_pairs(
            rptree_pairs(tree, got_rng), reference_rptree_pairs(tree, want_rng), got_rng, want_rng
        )


def test_pair_mining_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call in a process (numpy 2.4),
    # which costs about 1.6 MiB of resident memory; mining has no use for it.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from rpspectral import TreeConfig, build_tree, knn_pairs, rptree_pairs\n"
        "X = np.random.default_rng(0).normal(size=(500, 2))\n"
        "rng = np.random.default_rng(1)\n"
        "rptree_pairs(build_tree(X, TreeConfig(leaf_size=10), rng=rng), rng)\n"
        "knn_pairs(X, 3, rng)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(pairing.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def integer_grid(side):
    return np.stack(np.meshgrid(np.arange(side), np.arange(side)), axis=-1).reshape(-1, 2)


KNN_INPUTS = {
    "grid": integer_grid(6),
    "duplicated-points": np.repeat(np.random.default_rng(1).normal(size=(10, 3)), 3, axis=0),
    "collinear-integers": np.arange(20.0)[:, None] % 7,
    "gaussian": np.random.default_rng(2).normal(size=(45, 2)),
}


@pytest.mark.parametrize("name", sorted(KNN_INPUTS))
@pytest.mark.parametrize("k", ["1", "2", "n-1"])
def test_knn_pairs_match_reference_argsort(name, k):
    X = KNN_INPUTS[name]
    k = len(X) - 1 if k == "n-1" else int(k)
    got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
    assert_same_pairs(
        knn_pairs(X, k, got_rng), reference_knn_pairs(X, k, want_rng), got_rng, want_rng
    )


# Tie-heavy points on a dyadic lattice: every difference, square and sum in a
# squared distance is exact, so many distances tie exactly.
TIE_HEAVY = {
    "grid": integer_grid(26).astype(np.float64),
    "quarter-gaussian": np.round(np.random.default_rng(11).normal(size=(700, 2)) * 4) / 4,
    "integer-gaussian": np.round(np.random.default_rng(12).normal(size=(600, 3))),
}

# Inputs for each search path of _knn_indices, with the paths each takes at
# k=4: "pruned" answers rows from the leaves whose boxes lie within a point's
# bound, "gram" from full Gram rows refined in direct form. On the lattices
# with many ties, one call sends some leaves down each path.
KNN_PATH_INPUTS = {
    "one-leaf": (np.random.default_rng(16).normal(size=(20, 2)), {"gram"}),
    "many-leaves": (np.random.default_rng(17).uniform(size=(2000, 2)), {"pruned"}),
    "gaussian-d10": (np.random.default_rng(18).normal(size=(600, 10)), {"gram"}),
    "gaussian-d32": (np.random.default_rng(19).normal(size=(600, 32)), {"gram"}),
    "duplicated-points": (
        np.repeat(np.random.default_rng(20).uniform(size=(300, 2)), 3, axis=0),
        {"pruned"},
    ),
    "tie-heavy-grid": (TIE_HEAVY["grid"], {"pruned"}),
    "tie-heavy-quarter-gaussian": (TIE_HEAVY["quarter-gaussian"], {"pruned", "gram"}),
    "tie-heavy-integer-gaussian": (TIE_HEAVY["integer-gaussian"], {"pruned", "gram"}),
}


@pytest.mark.parametrize("name", sorted(KNN_PATH_INPUTS))
@pytest.mark.parametrize("k", [1, 4, 9])
def test_knn_indices_match_reference_on_each_path(name, k):
    X, _ = KNN_PATH_INPUTS[name]
    assert np.array_equal(_knn_indices(X, k), reference_knn_indices(X, k))


@pytest.mark.parametrize("name", sorted(KNN_PATH_INPUTS))
def test_knn_path_inputs_take_their_paths(name, monkeypatch):
    X, paths = KNN_PATH_INPUTS[name]
    taken = set()
    for path, function in (("pruned", "_pruned_candidates"), ("gram", "_gram_rows")):

        def spy(*args, path=path, original=getattr(pairing, function)):
            taken.add(path)
            return original(*args)

        monkeypatch.setattr(pairing, function, spy)
    _knn_indices(X, 4)
    assert taken == paths


@pytest.mark.parametrize("seed", range(4))
def test_knn_indices_break_ties_by_direct_form_distances(seed):
    # Coordinates rounded to 0.1 are inexact in binary, so the Gram form
    # |x|^2 + |y|^2 - 2 x.y rounds apart from the direct form and its last
    # bits depend on the BLAS kernel that a block's shape selects. Near-ties
    # must fall as the direct form orders them, whatever path answers a row.
    rng = np.random.default_rng(seed)
    for n, dim in ((1500, 2), (700, 3), (600, 10)):
        X = np.round(rng.normal(size=(n, dim)), 1)
        for k in (1, 2, 5):
            assert np.array_equal(_knn_indices(X, k), reference_knn_indices(X, k)), (n, dim, k)


def test_knn_indices_reject_non_finite_points():
    X = np.random.default_rng(4).normal(size=(12, 2))
    X[5, 1] = np.nan
    with pytest.raises(InputError, match="^squared distances are not all finite$"):
        _knn_indices(X, 2)


def test_knn_indices_reject_overflowing_points():
    # Finite points whose squared norms overflow make NaN distances.
    X = np.random.default_rng(4).normal(size=(12, 2)) * 1e200
    with pytest.raises(InputError, match="^squared distances are not all finite$"):
        _knn_indices(X, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_both_routes_reject_non_finite_points(bad):
    X = np.random.default_rng(13).normal(size=(300, 2))
    X[7, 0] = bad
    with pytest.raises(InputError, match=r"^1 input value\(s\) are NaN or infinite$"):
        knn_pairs(X, 2, np.random.default_rng(0))
    with pytest.raises(InputError, match=r"^1 input value\(s\) are NaN or infinite$"):
        build_tree(X, TreeConfig(leaf_size=20), rng=np.random.default_rng(0))


# --- memory bounds ---


def test_rptree_pairs_peak_memory_is_output_plus_4_mib(peak_traced_bytes):
    # A 40k-point tree gives ~0.26M positives and ~0.5M negatives: 5.8 MiB of
    # int32 output. Each polarity is built in its own key array, so the peak
    # adds only the grouped temporaries to it. A second copy of the
    # negatives' keys, or the keys apart from the output, would fail.
    X = np.random.default_rng(14).normal(size=(40_000, 2))
    tree = build_tree(X, TreeConfig(leaf_size=20), rng=np.random.default_rng(0))
    mined = []
    peak = peak_traced_bytes(lambda: mined.append(rptree_pairs(tree, np.random.default_rng(1))))
    output = mined[0].positives.nbytes + mined[0].negatives.nbytes
    assert output > 5.5 * 2**20
    assert peak < output + 4 * 2**20


def test_kept_rptree_pair_sets_hold_nothing_but_their_arrays(retained_traced_bytes):
    # A caller that keeps many pair sets (the benchmark keeps every
    # operation's) holds their arrays' bytes and no more: no key buffer
    # outlives mining, and no returned array views a larger buffer.
    X = np.random.default_rng(14).normal(size=(40_000, 2))
    tree = build_tree(X, TreeConfig(leaf_size=20), rng=np.random.default_rng(0))
    rptree_pairs(tree, np.random.default_rng(0))  # the first call's lazy imports
    kept, retained = retained_traced_bytes(
        lambda: [rptree_pairs(tree, np.random.default_rng(seed)) for seed in range(5)]
    )
    arrays = [array for pairs in kept for array in (pairs.positives, pairs.negatives)]
    assert retained == sum(array.nbytes for array in arrays)
    for array in arrays:
        assert array.base is None or array.base.nbytes == array.nbytes


def test_knn_pairs_peak_memory_is_independent_of_block_height(peak_traced_bytes):
    # The output is tiny; the bound holds a few 2 MiB distance blocks. Blocks
    # of a fixed row count grow with n: 512 rows of 5k distances are 20 MiB.
    X = np.random.default_rng(15).normal(size=(5_000, 2))
    assert peak_traced_bytes(lambda: knn_pairs(X, 2, np.random.default_rng(1))) < 16 * 2**20


def test_knn_pairs_peak_memory_on_blobs_stays_under_a_gram_block_set(peak_traced_bytes):
    # The pruned search keeps its candidate pairs in groups of the block
    # budget; it must not cost more than the Gram blocks it replaces did
    # (8.3 MiB traced on these inputs).
    spec = SyntheticSpec(kind="blobs", n=5_000, noise=0.05, centers=5, seed=1301)
    X = generate_synthetic(spec)[0]
    peak = peak_traced_bytes(lambda: knn_pairs(X, 2, np.random.default_rng(1)))
    assert peak <= 8.5 * 2**20


# --- PairSet.validate ---


def test_validate_peak_memory_is_one_key_per_row(peak_traced_bytes):
    # ~0.76M rows: one int64 key per row is 6 MiB. A (rows, 2) copy of both
    # polarities and a lexsort order would pass the bound.
    X = np.random.default_rng(14).normal(size=(40_000, 2))
    tree = build_tree(X, TreeConfig(leaf_size=20), rng=np.random.default_rng(0))
    pairs = rptree_pairs(tree, np.random.default_rng(1))
    assert peak_traced_bytes(pairs.validate) < 24 * 2**20


def test_validate_rejects_indices_too_wide_to_key():
    pairs = pair_set([[0, 2**31]], [])
    with pytest.raises(ValueError, match="span"):
        pairs.validate()


def reference_validate(pairs):
    """The set-based PairSet.validate; returns its message or None."""
    for name, rows in (("positives", pairs.positives), ("negatives", pairs.negatives)):
        if rows.size and (rows[:, 0] >= rows[:, 1]).any():
            return f"{name} contain self-pairs or unnormalized rows"
        if len(np.unique(rows, axis=0)) != len(rows):
            return f"{name} contain duplicates"
    if {tuple(p) for p in pairs.positives.tolist()} & {tuple(p) for p in pairs.negatives.tolist()}:
        return "a pair appears in both polarities"
    return None


def validate_message(pairs):
    try:
        pairs.validate()
    except ValueError as exc:
        return str(exc)
    return None


def pair_set(positives, negatives):
    as_rows = lambda rows: np.asarray(rows, dtype=np.int64).reshape(-1, 2)
    return PairSet(as_rows(positives), as_rows(negatives), 0)


@pytest.mark.parametrize(
    "positives, negatives, message",
    [
        ([], [], None),
        ([[-3, -1], [-1, 0]], [[-3, 0]], None),
        ([[0, 1], [2, 2]], [], "positives contain self-pairs or unnormalized rows"),
        ([[-1, -2]], [], "positives contain self-pairs or unnormalized rows"),
        ([[0, 1]], [[3, 2]], "negatives contain self-pairs or unnormalized rows"),
        ([[0, 1], [2, 5], [0, 1]], [], "positives contain duplicates"),
        ([[-4, -2], [-4, -2]], [], "positives contain duplicates"),
        ([[0, 1], [0, 2], [0, 1]], [], "positives contain duplicates"),
        ([], [[1, 2], [0, 3], [1, 2]], "negatives contain duplicates"),
        ([[0, 1], [2, 3]], [[1, 4], [2, 3]], "a pair appears in both polarities"),
        ([[-5, -1]], [[-5, -1]], "a pair appears in both polarities"),
        ([[0, 1]], [[0, 2], [0, 1]], "a pair appears in both polarities"),
        # The checks keep their order: a duplicate is named before an overlap.
        ([[0, 1], [0, 1]], [[0, 1]], "positives contain duplicates"),
        ([[0, 1]], [[0, 1], [0, 1]], "negatives contain duplicates"),
        # Indices as wide as the int64 keys allow.
        ([[0, 2**31 - 1]], [[1, 2**31 - 2], [0, 2**31 - 1]], "a pair appears in both polarities"),
    ],
)
def test_validate_names_the_broken_invariant(positives, negatives, message):
    pairs = pair_set(positives, negatives)
    assert validate_message(pairs) == message == reference_validate(pairs)


@settings(max_examples=60, deadline=None)
@given(
    positives=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=8),
    negatives=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=8),
)
def test_validate_agrees_with_set_reference(positives, negatives):
    pairs = pair_set(positives, negatives)
    assert validate_message(pairs) == reference_validate(pairs)
