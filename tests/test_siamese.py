import numpy as np
import pytest

from rpspectral.errors import (
    AllZeroDistances,
    BadSigma,
    EmptyPairSet,
    IndexOutOfRange,
    MissingPolarity,
    NonFiniteInput,
    ShapeMismatch,
)
from rpspectral.mlp import _BLOCK_FLOATS, Mlp, block_rows
from rpspectral.pairing import PairSet
from rpspectral.siamese import (
    SiameseConfig,
    _contrastive_batch,
    _twin_gradients,
    contrastive_loss,
    heat_kernel,
    pairwise_distances,
    select_bandwidth,
    siamese_distances,
    train_siamese,
)


def make_pairs(positives, negatives):
    return PairSet(
        positives=np.asarray(positives, dtype=np.int64).reshape(-1, 2),
        negatives=np.asarray(negatives, dtype=np.int64).reshape(-1, 2),
        raw_positive_count=len(positives),
    )


# --- contrastive loss ---


def test_negative_pair_inside_margin():
    z1 = np.array([0.0, 0.0])
    z2 = np.array([0.4, 0.0])
    loss, g1, g2 = contrastive_loss(z1, z2, is_positive=False)
    assert loss == pytest.approx(0.6, abs=1e-12)
    # descent step (minus gradient) pushes the points apart
    assert g1[0] > 0 and g2[0] < 0


def test_negative_pair_past_margin_is_free():
    z1 = np.zeros(2)
    z2 = np.array([1.5, 0.0])
    loss, g1, g2 = contrastive_loss(z1, z2, is_positive=False)
    assert loss == 0.0
    assert not g1.any() and not g2.any()


def test_negative_pair_exactly_at_margin_is_free():
    loss, g1, _ = contrastive_loss(np.zeros(1), np.array([1.0]), is_positive=False)
    assert loss == 0.0 and not g1.any()


def test_positive_pair_squared_distance():
    z1 = np.array([1.0, 2.0])
    z2 = np.array([0.0, 0.0])
    loss, g1, g2 = contrastive_loss(z1, z2, is_positive=True)
    assert loss == pytest.approx(5.0)
    assert np.allclose(g1, [2.0, 4.0])
    assert np.allclose(g2, -g1)


def test_loss_is_swap_invariant():
    rng = np.random.default_rng(0)
    for is_positive in (True, False):
        z1, z2 = rng.normal(size=(2, 4))
        a = contrastive_loss(z1, z2, is_positive)[0]
        b = contrastive_loss(z2, z1, is_positive)[0]
        assert a == b  # exact, not approximate


def test_contrastive_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    eps = 1e-6
    for is_positive in (True, False):
        z1 = rng.normal(size=3) * 0.3  # keep negatives inside the margin
        z2 = rng.normal(size=3) * 0.3
        _, g1, g2 = contrastive_loss(z1, z2, is_positive)
        for k in range(3):
            bump = np.zeros(3)
            bump[k] = eps
            up = contrastive_loss(z1 + bump, z2, is_positive)[0]
            down = contrastive_loss(z1 - bump, z2, is_positive)[0]
            assert (up - down) / (2 * eps) == pytest.approx(g1[k], abs=1e-6)
            up = contrastive_loss(z1, z2 + bump, is_positive)[0]
            down = contrastive_loss(z1, z2 - bump, is_positive)[0]
            assert (up - down) / (2 * eps) == pytest.approx(g2[k], abs=1e-6)


def test_contrastive_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        contrastive_loss(np.zeros(2), np.zeros(3), True)


def batch_case(seed=2, m=12, scale=0.3):
    """Embedded pairs, half positive, with negatives on both hinge sides."""
    rng = np.random.default_rng(seed)
    Z1 = rng.normal(size=(m, 3)) * scale
    Z2 = rng.normal(size=(m, 3)) * scale
    Z2[-1] = Z1[-1] + [2.0, 0.0, 0.0]  # a negative past the margin
    mask = np.arange(m) < m // 2
    return Z1, Z2, mask


def test_contrastive_batch_is_mean_of_pair_losses():
    Z1, Z2, mask = batch_case()
    loss, G1, G2 = _contrastive_batch(Z1, Z2, mask)
    per_pair = [
        contrastive_loss(z1, z2, positive)
        for z1, z2, positive in zip(Z1, Z2, mask)
    ]
    m = len(Z1)
    assert loss == pytest.approx(np.mean([l for l, _, _ in per_pair]), rel=1e-12)
    assert np.allclose(G1, [g1 / m for _, g1, _ in per_pair], rtol=1e-12, atol=0)
    assert np.allclose(G2, [g2 / m for _, _, g2 in per_pair], rtol=1e-12, atol=0)
    assert not G1[-1].any()  # the negative past the margin costs nothing


def test_contrastive_batch_matches_finite_differences():
    Z1, Z2, mask = batch_case(seed=3)
    _, G1, G2 = _contrastive_batch(Z1, Z2, mask)
    eps = 1e-6
    for Z, G in ((Z1, G1), (Z2, G2)):
        for index in np.ndindex(Z.shape):
            saved = Z[index]
            Z[index] = saved + eps
            up = _contrastive_batch(Z1, Z2, mask)[0]
            Z[index] = saved - eps
            down = _contrastive_batch(Z1, Z2, mask)[0]
            Z[index] = saved
            assert (up - down) / (2 * eps) == pytest.approx(G[index], abs=1e-8)


def reference_twin_gradients(net, X, left, right, mask):
    """The two-pass step: each side forward and backward, gradients summed."""
    Z1, cache1 = net.forward(X[left])
    Z2, cache2 = net.forward(X[right])
    loss, G1, G2 = _contrastive_batch(Z1, Z2, mask)
    grads1 = net.backward(cache1, G1)
    grads2 = net.backward(cache2, G2)
    total = [
        (gw1 + gw2, gb1 + gb2) for (gw1, gb1), (gw2, gb2) in zip(grads1, grads2)
    ]
    return loss, total


TWIN_BATCHES = {
    # point 0 sits in both polarities; 1, 2 and 3 repeat as well
    "repeated": ([(0, 1), (1, 2), (0, 2), (2, 3)], [(0, 5), (1, 6), (3, 7), (0, 8)]),
    # one pair drawn twice, as resampling with replacement does
    "duplicate-pair": ([(0, 1), (0, 1)], [(0, 2), (3, 4)]),
    "no-repeats": ([(0, 1), (2, 3)], [(4, 5), (6, 7)]),
}


@pytest.mark.parametrize("case", sorted(TWIN_BATCHES))
def test_twin_gradients_match_two_pass_reference(case):
    positives, negatives = TWIN_BATCHES[case]
    rng = np.random.default_rng(5)
    X = rng.normal(size=(10, 3))
    net = Mlp.init([3, 8, 8, 4], seed=6)
    pairs = np.array(positives + negatives)
    mask = np.arange(len(pairs)) < len(positives)
    ends = np.concatenate([pairs[:, 0], pairs[:, 1]])
    slot = np.full(len(X), len(X) - 1, dtype=np.intp)  # stale content is fine
    loss, grads = _twin_gradients(net, X, ends, mask, slot)
    ref_loss, ref_grads = reference_twin_gradients(
        net, X, pairs[:, 0], pairs[:, 1], mask
    )
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    for got, want in zip(grads, ref_grads):
        assert [g.shape for g in got] == [w.shape for w in want]
    # Relative to the largest entry: the output bias gradient sums to zero.
    got = np.concatenate([g.ravel() for pair in grads for g in pair])
    want = np.concatenate([w.ravel() for pair in ref_grads for w in pair])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_float32_twin_gradients_stay_float32_and_track_float64():
    positives, negatives = TWIN_BATCHES["repeated"]
    rng = np.random.default_rng(7)
    X = rng.normal(size=(10, 3))
    narrow = Mlp.init([3, 8, 8, 4], seed=8).astype(np.float32)
    pairs = np.array(positives + negatives)
    mask = np.arange(len(pairs)) < len(positives)
    ends = np.concatenate([pairs[:, 0], pairs[:, 1]])
    slot = np.empty(len(X), dtype=np.intp)

    Z = narrow.forward(X)[0]
    _, G1, G2 = _contrastive_batch(Z[pairs[:, 0]], Z[pairs[:, 1]], mask)
    assert G1.dtype == G2.dtype == np.float32
    # forward and backward cast what they are handed, so that is checked too
    handed = []
    forward, backward = narrow.forward, narrow.backward
    narrow.forward = lambda batch: handed.append(batch.dtype) or forward(batch)
    narrow.backward = lambda cache, G, out=None: (
        handed.append(G.dtype) or backward(cache, G, out=out)
    )
    loss, grads = _twin_gradients(narrow, X.astype(np.float32), ends, mask, slot)
    del narrow.forward, narrow.backward
    assert handed == [np.float32, np.float32]
    assert all(g.dtype == np.float32 for pair in grads for g in pair)

    wide_loss, wide_grads = _twin_gradients(
        narrow.astype(np.float64), X.astype(np.float32).astype(np.float64),
        ends, mask, slot,
    )
    assert loss == pytest.approx(wide_loss, rel=1e-4)
    got = np.concatenate([g.ravel() for pair in grads for g in pair])
    want = np.concatenate([w.ravel() for pair in wide_grads for w in pair])
    assert np.abs(got - want).max() <= 1e-4 * np.abs(want).max()


def test_twin_gradients_scatter_like_a_two_d_scatter_bit_for_bit():
    # Point 0 ends five pairs and point 2 four, so their endpoint gradients
    # are float32 sums of several terms, whose bits depend on the order.
    positives = [(0, 1), (0, 2), (2, 3), (0, 2), (9, 0)]
    negatives = [(0, 4), (2, 5), (6, 0), (1, 7), (8, 9)]
    X = np.random.default_rng(9).normal(size=(10, 3)).astype(np.float32)
    net = Mlp.init([3, 16, 16, 8], seed=10).astype(np.float32)
    pairs = np.array(positives + negatives)
    mask = np.arange(len(pairs)) < len(positives)
    ends = np.concatenate([pairs[:, 0], pairs[:, 1]])
    handed = []
    backward = net.backward
    net.backward = lambda cache, G, out=None: (
        handed.append(G) or backward(cache, G, out=out)
    )
    _twin_gradients(net, X, ends, mask, np.empty(len(X), dtype=np.intp))
    del net.backward

    # The same distinct points and rows, summed by a 2-D scatter of rows.
    slot = np.empty(len(X), dtype=np.intp)
    count = np.arange(len(ends))
    slot[ends] = count
    first = slot[ends] == count
    slot[ends[first]] = np.arange(first.sum())
    local = slot[ends]
    Z = net.forward(X[ends[first]])[0]
    half = len(ends) // 2
    _, G1, G2 = _contrastive_batch(Z[local[:half]], Z[local[half:]], mask)
    G_ends = np.concatenate([G1, G2])
    G = G_ends[first]
    np.add.at(G, local[~first], G_ends[~first])
    assert np.bincount(local).max() >= 3
    assert handed[0].dtype == G.dtype == np.float32
    assert handed[0].tobytes() == G.tobytes()


# --- bandwidth ---


def test_bandwidth_is_median():
    assert select_bandwidth(np.array([1.0, 2.0, 3.0])) == 2.0


def test_bandwidth_all_equal():
    assert select_bandwidth(np.full(7, 0.25)) == 0.25


def test_bandwidth_zero_median_falls_back_to_smallest_nonzero():
    assert select_bandwidth(np.array([0.0, 0.0, 0.0, 0.5, 0.7])) == 0.5


def test_bandwidth_all_zero_raises():
    with pytest.raises(AllZeroDistances):
        select_bandwidth(np.zeros(5))
    with pytest.raises(AllZeroDistances):
        select_bandwidth(np.array([]))


@pytest.mark.parametrize(
    "distances, bad",
    [
        ([np.nan, 1.0, 2.0], 1),  # the median would be NaN
        ([np.nan, np.nan], 2),  # every entry NaN, not all zero
        ([0.0, 0.0, np.inf, 0.5], 1),
        ([1.0, -np.inf, np.nan, 3.0], 2),
    ],
)
def test_bandwidth_refuses_non_finite_distances(distances, bad):
    with pytest.raises(NonFiniteInput, match=f"^{bad} of {len(distances)} distance"):
        select_bandwidth(np.array(distances))


# --- distance matrix and kernel ---


def test_pairwise_distances_against_loops():
    rng = np.random.default_rng(2)
    Z = rng.normal(size=(20, 3))
    D = pairwise_distances(Z)
    for i in range(20):
        for j in range(20):
            assert D[i, j] == pytest.approx(np.linalg.norm(Z[i] - Z[j]), abs=1e-10)
    assert np.array_equal(D, D.T)
    assert not np.diag(D).any()


def test_heat_kernel_reference_point():
    sigma = 0.8
    d = np.array([[0.0, sigma * np.sqrt(2.0)], [sigma * np.sqrt(2.0), 0.0]])
    A = heat_kernel(d, sigma)
    assert A[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)
    assert A[0, 1] == pytest.approx(0.36787944117, abs=1e-9)
    assert A[0, 0] == 0.0  # self-affinity removed


def test_heat_kernel_range_and_monotone():
    d = np.array([[0.0, 0.1, 2.0], [0.1, 0.0, 1.0], [2.0, 1.0, 0.0]])
    A = heat_kernel(d, 1.0)
    off = A[~np.eye(3, dtype=bool)]
    assert ((0 < off) & (off <= 1)).all()
    assert A[0, 1] > A[1, 2] > A[0, 2]  # larger distance, smaller affinity


def test_heat_kernel_errors():
    with pytest.raises(BadSigma):
        heat_kernel(np.zeros((2, 2)), 0.0)
    with pytest.raises(BadSigma):
        heat_kernel(np.zeros((2, 2)), -1.0)
    with pytest.raises(ShapeMismatch):
        heat_kernel(np.zeros((2, 3)), 1.0)


# --- training ---


def two_cluster_data():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(20, 2)) * 0.2
    b = rng.normal(size=(20, 2)) * 0.2 + [4.0, 0.0]
    X = np.vstack([a, b])
    pos = [(i, j) for i in range(20) for j in range(i + 1, 20) if j < i + 3]
    pos += [(i, j) for i in range(20, 40) for j in range(i + 1, 40) if j < i + 3]
    neg = [(i, i + 20) for i in range(20)]
    return X, make_pairs(pos, neg)


def test_training_reduces_loss():
    X, pairs = two_cluster_data()
    config = SiameseConfig(epochs=30, batch_size=16, hidden_sizes=(16,), embedding_dim=4)
    net, history = train_siamese(X, pairs, config, rng=np.random.default_rng(0))
    assert len(history) == 30
    assert history[-1] < 0.5 * history[0]
    # learned geometry: positives closer than negatives on average
    Z = net.predict(X)
    pos_d = siamese_distances(Z, pairs.positives)
    neg_d = siamese_distances(Z, pairs.negatives)
    assert pos_d.mean() < neg_d.mean()


def test_training_is_deterministic():
    X, pairs = two_cluster_data()
    config = SiameseConfig(epochs=5, batch_size=16, hidden_sizes=(8,), embedding_dim=3)
    net1, hist1 = train_siamese(X, pairs, config, rng=np.random.default_rng(4))
    net2, hist2 = train_siamese(X, pairs, config, rng=np.random.default_rng(4))
    assert hist1 == hist2
    for a, b in zip(net1.layers, net2.layers):
        assert np.array_equal(a.weights, b.weights)


def test_training_returns_a_float64_net_widened_from_float32():
    X, pairs = two_cluster_data()
    config = SiameseConfig(epochs=2, batch_size=16, hidden_sizes=(8,), embedding_dim=3)
    net, _ = train_siamese(X, pairs, config, rng=np.random.default_rng(5))
    for layer in net.layers:
        for param in (layer.weights, layer.biases):
            assert param.dtype == np.float64
            assert np.array_equal(param, param.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
def test_training_rejects_values_float32_cannot_hold(bad):
    X, pairs = two_cluster_data()
    X[7, 1] = bad
    config = SiameseConfig(epochs=1, batch_size=16, hidden_sizes=(8,), embedding_dim=3)
    with pytest.raises(NonFiniteInput, match="1 input value"):
        train_siamese(X, pairs, config, rng=np.random.default_rng(0))
    # Ahead of the pair-set checks: a bad value is named even when the pair
    # set is unusable too.
    with pytest.raises(NonFiniteInput):
        train_siamese(X, make_pairs([], []), config, rng=np.random.default_rng(0))


def test_training_pair_set_errors():
    X = np.zeros((4, 2))
    config = SiameseConfig(epochs=1, batch_size=2)
    with pytest.raises(EmptyPairSet):
        train_siamese(X, make_pairs([], []), config, rng=np.random.default_rng(0))
    with pytest.raises(MissingPolarity):
        train_siamese(X, make_pairs([(0, 1)], []), config, rng=np.random.default_rng(0))
    with pytest.raises(MissingPolarity):
        train_siamese(X, make_pairs([], [(0, 1)]), config, rng=np.random.default_rng(0))


def test_training_leaves_rng_after_the_documented_draws():
    # One draw seeds the net; each epoch then orders the larger polarity by
    # permutation and resamples the smaller with replacement.
    X, pairs = two_cluster_data()
    config = SiameseConfig(epochs=3, batch_size=16, hidden_sizes=(8,), embedding_dim=3)
    rng = np.random.default_rng(12)
    train_siamese(X, pairs, config, rng)
    n_pos, n_neg = len(pairs.positives), len(pairs.negatives)
    assert n_pos > n_neg
    expected = np.random.default_rng(12)
    expected.integers(0, 2**63 - 1)
    for _ in range(config.epochs):
        expected.permutation(n_pos)
        expected.integers(0, n_neg, size=n_pos)
    assert rng.bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize(
    "positives, negatives",
    [
        ([(0, 1)], [(-1, 2)]),
        ([(-2, 1)], [(0, 2)]),
        ([(0, 1)], [(2, 4)]),
        ([(1, 5)], [(0, 2)]),
    ],
)
def test_training_rejects_out_of_range_pair_indices(positives, negatives):
    X = np.zeros((4, 2))
    config = SiameseConfig(epochs=1, batch_size=2)
    with pytest.raises(IndexOutOfRange):
        train_siamese(X, make_pairs(positives, negatives), config, rng=np.random.default_rng(0))


def test_config_validation():
    with pytest.raises(ValueError):
        SiameseConfig(batch_size=1).validate()
    for rate in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="learning_rate"):
            SiameseConfig(learning_rate=rate).validate()
    with pytest.raises(ValueError, match="embedding_dim"):
        SiameseConfig(embedding_dim=0).validate()
    with pytest.raises(ValueError, match="hidden_sizes"):
        SiameseConfig(hidden_sizes=(8, 0)).validate()
    SiameseConfig().validate()  # defaults are fine


def test_siamese_distances_identity_net():
    # Points taken as their own embedding, as an identity twin would map
    # them: pair distances are the input distances.
    X = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]])
    d = siamese_distances(X, [(0, 1), (0, 2)])
    assert np.allclose(d, [5.0, 1.0])
    with pytest.raises(IndexOutOfRange):
        siamese_distances(X, [(0, 3)])
    with pytest.raises(IndexOutOfRange):
        siamese_distances(X, [(-1, 1)])


@pytest.mark.parametrize(
    "index_pairs",
    [
        [],
        [1, 2],
        [[0, 1, 2]],
        [[0.5, 1.7]],
        np.zeros((0, 2)),
        np.zeros((1, 2), dtype=bool),
        np.zeros((1, 2, 1), dtype=np.int64),
    ],
    ids=["empty-list", "one-flat-pair", "three-columns", "floats", "empty-floats",
         "bools", "three-dims"],
)
def test_siamese_distances_rejects_malformed_pair_indices(index_pairs):
    Z = np.random.default_rng(0).normal(size=(5, 3))
    with pytest.raises(ShapeMismatch):
        siamese_distances(Z, index_pairs)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
def test_siamese_distances_takes_any_integer_pairs_including_none(dtype):
    Z = np.random.default_rng(0).normal(size=(5, 3))
    d = siamese_distances(Z, np.empty((0, 2), dtype=dtype))
    assert d.dtype == np.float64 and d.shape == (0,)
    pairs = np.array([[0, 4], [3, 1]], dtype=dtype)
    expected = siamese_distances(Z, pairs.astype(np.int64))
    assert siamese_distances(Z, pairs).tobytes() == expected.tobytes()


def reference_distances(Z, index_pairs):
    diff = Z[index_pairs[:, 0]] - Z[index_pairs[:, 1]]
    return np.sqrt((diff * diff).sum(axis=1))


def test_siamese_distances_across_a_block_boundary_match_one_pass():
    rng = np.random.default_rng(3)
    Z = Mlp.init([2, 16, 16, 32], seed=4).predict(rng.normal(size=(300, 2)))
    # four pair blocks and one pair past them
    pairs = rng.integers(0, len(Z), size=(4 * block_rows(32) + 1, 2))
    d = siamese_distances(Z, pairs)
    assert d.tobytes() == reference_distances(Z, pairs).tobytes()


def test_siamese_distances_keep_no_activation_cache(peak_traced_bytes):
    # Beside the distances, gathering the pairs of a 32-wide embedding holds
    # a few blocks of _BLOCK_FLOATS values at any n: two gathered pair
    # blocks and their difference. Gathering all pairs at once would hold
    # two 65k x 32 arrays.
    blocks = 4 * _BLOCK_FLOATS * 8
    for n in (10_000, 40_000):
        rng = np.random.default_rng(5)
        Z = rng.normal(size=(n, 32))
        pairs = rng.integers(0, n, size=(65_286, 2))
        needed = len(pairs) * 8
        peak = peak_traced_bytes(lambda: siamese_distances(Z, pairs))
        assert peak < needed + blocks, n
