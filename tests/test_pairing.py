import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpspectral.errors import KTooLarge, NonFiniteInput
from rpspectral.pairing import (
    PairSet,
    _knn_indices,
    _unique_pairs,
    _write_keys,
    knn_pairs,
    rptree_pairs,
    save_pairs_csv,
)
from rpspectral.rptree import Internal, Leaf, TreeConfig, build_tree, leaves


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
    assert pairs.source == "knn:k=3"


def test_knn_negative_budget_and_disjointness():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 2))
    pairs = knn_pairs(X, 2, np.random.default_rng(7))
    assert len(pairs.negatives) == 40 * 2
    positives = as_set(pairs.positives)
    for a, b in pairs.negatives:
        assert (int(a), int(b)) not in positives
        assert a < b


def test_knn_rejects_bad_k():
    X = np.zeros((5, 2))
    with pytest.raises(KTooLarge):
        knn_pairs(X, 5, np.random.default_rng(0))
    with pytest.raises(KTooLarge):
        knn_pairs(X, 0, np.random.default_rng(0))


def test_knn_pair_rows_are_canonical():
    X = np.random.default_rng(4).normal(size=(30, 2))
    pairs = knn_pairs(X, 3, np.random.default_rng(0))
    for arr in (pairs.positives, pairs.negatives):
        assert arr.dtype == np.int64
        assert (arr[:, 0] < arr[:, 1]).all()
        # no duplicate rows
        assert len(as_set(arr)) == len(arr)


def test_leaf_pairs_hand_case():
    # Two leaves {0,1} and {2}: one positive inside the pair leaf, and the
    # cross products as negatives.
    tree = Internal(
        np.array([1.0]), 0.5, left=Leaf(np.array([0, 1])), right=Leaf(np.array([2]))
    )
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
    assert pairs.source == "rptree"


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
    tree = Leaf(np.arange(6))
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
        pairs = PairSet(rng.integers(0, 10**6, size=(50_000, 2)), negatives, "test", 0)
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


def reference_knn_indices(X, k, chunk=512):
    """Full stable argsort of every distance row, first k columns kept."""
    n = len(X)
    sq_norms = (X**2).sum(axis=1)
    out = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = X[start:stop]
        d2 = sq_norms[start:stop, None] + sq_norms[None, :] - 2.0 * (block @ X.T)
        np.maximum(d2, 0.0, out=d2)
        for r in range(stop - start):
            d2[r, start + r] = np.inf
        out[start:stop] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return out


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
    negative_rows = []
    mask = np.empty(n, dtype=bool)
    for i in range(n):
        mask[:] = True
        mask[i] = False
        mask[list(partner[i])] = False
        candidates = np.flatnonzero(mask)
        take = min(k, len(candidates))
        if take:
            chosen = rng.choice(candidates, size=take, replace=False)
            negative_rows.append(np.stack([np.full(take, i), chosen], axis=1))
    negatives = (
        reference_unique_unordered(np.concatenate(negative_rows))
        if negative_rows
        else np.empty((0, 2), dtype=np.int64)
    )
    return PairSet(positives, negatives, f"knn:k={k}", n * k)


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
        for x, idx in enumerate(leaf_sets):
            other = int(rng.integers(0, len(leaf_sets) - 1))
            if other >= x:
                other += 1
            grid_a, grid_b = np.meshgrid(idx, leaf_sets[other], indexing="ij")
            negative_rows.append(np.stack([grid_a.reshape(-1), grid_b.reshape(-1)], axis=1))
        negatives = reference_unique_unordered(np.concatenate(negative_rows))
        warning = None
    return PairSet(positives, negatives, "rptree", raw_count, warning)


def assert_same_pairs(got, want, got_rng, want_rng):
    for name in ("positives", "negatives"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64
        assert a.shape == b.shape
        assert np.array_equal(a, b), name
    assert got.raw_positive_count == want.raw_positive_count
    assert got.warning == want.warning
    assert got.source == want.source
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    got.validate()


@pytest.mark.parametrize(
    "pairs",
    [
        np.empty((0, 2), dtype=np.int64),
        np.array([[4, 1]]),
        np.array([[5, 0], [3, 2], [9, 7], [2, 3], [0, 5]]),
        np.random.default_rng(0).integers(0, 6, size=(400, 2)),
    ],
    ids=["empty", "one-row", "reversed-rows", "heavy-duplicates"],
)
def test_unique_unordered_matches_np_unique(pairs):
    # Keyed as the mining routes key their rows, deduplicated from the keys.
    width = int(pairs.max(initial=0)) + 1
    keys = np.empty(len(pairs), dtype=np.int64)
    _write_keys(pairs[:, 0].copy(), pairs[:, 1], width, keys)
    got = _unique_pairs(keys, width)
    want = reference_unique_unordered(pairs)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def chain_tree(*leaf_nodes):
    """A right-leaning chain of splits whose in-order leaves are leaf_nodes."""
    node = leaf_nodes[-1]
    for leaf in reversed(leaf_nodes[:-1]):
        node = Internal(np.array([1.0]), 0.0, left=leaf, right=node)
    return node


HAND_TREES = {
    "mixed-sizes": chain_tree(
        Leaf([7, 2, 9]), Leaf([4, 1]), Leaf([3, 8, 5, 6, 10]), Leaf([0, 11, 12])
    ),
    "size-1-leaves": chain_tree(Leaf([3]), Leaf([0, 2]), Leaf([1]), Leaf([4])),
    "only-size-1": chain_tree(Leaf([1]), Leaf([0])),
    "degenerate": chain_tree(
        Leaf([0, 1]), Leaf(np.arange(2, 14)[::-1], degenerate=True), Leaf([14])
    ),
    "single-leaf": Leaf([5, 3, 0, 1, 4, 2]),
    "single-point": Leaf([0]),
}


@pytest.mark.parametrize("name", sorted(HAND_TREES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rptree_pairs_match_reference_loop(name, seed):
    tree = HAND_TREES[name]
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same_pairs(
        rptree_pairs(tree, got_rng), reference_rptree_pairs(tree, want_rng), got_rng, want_rng
    )


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


# Tie-heavy points on a dyadic lattice: every product and sum in a squared
# distance is exact, so tied distances tie exactly whichever BLAS kernel (one
# per block height) computes them.
TIE_HEAVY = {
    "grid": integer_grid(26).astype(np.float64),
    "quarter-gaussian": np.round(np.random.default_rng(11).normal(size=(700, 2)) * 4) / 4,
    "integer-gaussian": np.round(np.random.default_rng(12).normal(size=(600, 3))),
}


def test_knn_indices_match_reference_across_chunks():
    # The default block height is only safe to shrink while every height
    # breaks ties the same: 1 row, 7 rows, 16 rows, all rows and the default.
    for name, X in TIE_HEAVY.items():
        for k in (1, 4, 9):
            want = reference_knn_indices(X, k, chunk=len(X))
            for chunk in (1, 7, 16, len(X), None):
                assert np.array_equal(_knn_indices(X, k, chunk=chunk), want), (name, k, chunk)


def test_knn_indices_reject_non_finite_points():
    X = np.random.default_rng(4).normal(size=(12, 2))
    X[5, 1] = np.nan
    with pytest.raises(NonFiniteInput, match="not all finite"):
        _knn_indices(X, 2)


def test_knn_indices_reject_overflowing_points():
    # Finite points whose squared norms overflow make NaN distances.
    X = np.random.default_rng(4).normal(size=(12, 2)) * 1e200
    with pytest.raises(NonFiniteInput, match="not all finite"):
        _knn_indices(X, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_both_routes_reject_non_finite_points(bad):
    X = np.random.default_rng(13).normal(size=(300, 2))
    X[7, 0] = bad
    with pytest.raises(NonFiniteInput, match="1 input value"):
        knn_pairs(X, 2, np.random.default_rng(0))
    with pytest.raises(NonFiniteInput, match="1 input value"):
        build_tree(X, TreeConfig(leaf_size=20), rng=np.random.default_rng(0))


# --- memory bounds ---


def test_rptree_pairs_peak_memory_is_keys_plus_output(peak_traced_bytes):
    # A 40k-point tree gives ~0.26M positives and ~0.5M negatives: 12 MiB of
    # output and 6 MiB of keys. A (rows, 2) copy of the raw pairs on the way
    # to deduplication would pass the bound.
    X = np.random.default_rng(14).normal(size=(40_000, 2))
    tree = build_tree(X, TreeConfig(leaf_size=20), rng=np.random.default_rng(0))
    assert peak_traced_bytes(lambda: rptree_pairs(tree, np.random.default_rng(1))) < 32 * 2**20


def test_knn_pairs_peak_memory_is_independent_of_block_height(peak_traced_bytes):
    # The output is tiny; the bound holds a few 2 MiB distance blocks. Blocks
    # of a fixed row count grow with n: 512 rows of 5k distances are 20 MiB.
    X = np.random.default_rng(15).normal(size=(5_000, 2))
    assert peak_traced_bytes(lambda: knn_pairs(X, 2, np.random.default_rng(1))) < 16 * 2**20


# --- PairSet.validate ---


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
    return PairSet(as_rows(positives), as_rows(negatives), "test", 0)


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
