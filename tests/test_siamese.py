import numpy as np
import pytest

from rpspectral.errors import (
    AllZeroDistances,
    BadSigma,
    EmptyPairSet,
    IndexOutOfRange,
    MissingPolarity,
    ShapeMismatch,
)
from rpspectral.mlp import Mlp
from rpspectral.pairing import PairSet
from rpspectral.siamese import (
    SiameseConfig,
    contrastive_loss,
    heat_kernel,
    load_twin_checkpoint,
    pairwise_distances,
    save_twin_checkpoint,
    select_bandwidth,
    siamese_distances,
    train_siamese,
)


def make_pairs(positives, negatives):
    return PairSet(
        positives=np.asarray(positives, dtype=np.int64).reshape(-1, 2),
        negatives=np.asarray(negatives, dtype=np.int64).reshape(-1, 2),
        source="test",
        raw_positive_count=len(positives),
    )


# --- contrastive loss ---


def test_negative_pair_inside_margin():
    z1 = np.array([0.0, 0.0])
    z2 = np.array([0.4, 0.0])
    loss, g1, g2 = contrastive_loss(z1, z2, is_positive=False, margin=1.0)
    assert loss == pytest.approx(0.6, abs=1e-12)
    # descent step (minus gradient) pushes the points apart
    assert g1[0] > 0 and g2[0] < 0


def test_negative_pair_past_margin_is_free():
    z1 = np.zeros(2)
    z2 = np.array([1.5, 0.0])
    loss, g1, g2 = contrastive_loss(z1, z2, is_positive=False, margin=1.0)
    assert loss == 0.0
    assert not g1.any() and not g2.any()


def test_negative_pair_exactly_at_margin_is_free():
    loss, g1, _ = contrastive_loss(
        np.zeros(1), np.array([1.0]), is_positive=False, margin=1.0
    )
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
    pos_d = siamese_distances(net, X, pairs.positives)
    neg_d = siamese_distances(net, X, pairs.negatives)
    assert pos_d.mean() < neg_d.mean()


def test_training_is_deterministic():
    X, pairs = two_cluster_data()
    config = SiameseConfig(epochs=5, batch_size=16, hidden_sizes=(8,), embedding_dim=3)
    net1, hist1 = train_siamese(X, pairs, config, rng=np.random.default_rng(4))
    net2, hist2 = train_siamese(X, pairs, config, rng=np.random.default_rng(4))
    assert hist1 == hist2
    for a, b in zip(net1.layers, net2.layers):
        assert np.array_equal(a.weights, b.weights)


def test_training_pair_set_errors():
    X = np.zeros((4, 2))
    config = SiameseConfig(epochs=1, batch_size=2)
    with pytest.raises(EmptyPairSet):
        train_siamese(X, make_pairs([], []), config, rng=np.random.default_rng(0))
    with pytest.raises(MissingPolarity):
        train_siamese(X, make_pairs([(0, 1)], []), config, rng=np.random.default_rng(0))
    with pytest.raises(MissingPolarity):
        train_siamese(X, make_pairs([], [(0, 1)]), config, rng=np.random.default_rng(0))


def test_config_validation():
    with pytest.raises(ValueError):
        SiameseConfig(margin=0.0).validate()
    with pytest.raises(ValueError):
        SiameseConfig(batch_size=1).validate()
    with pytest.raises(ValueError):
        SiameseConfig(activation="gelu").validate()
    SiameseConfig().validate()  # defaults are fine


def test_siamese_distances_identity_net():
    # A 1-layer identity-weight linear net embeds points as themselves, so
    # pair distances are the input distances.
    net = Mlp.init([2, 2], activation="identity", seed=0)
    net.layers[0].weights = np.eye(2)
    net.layers[0].biases = np.zeros(2)
    X = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]])
    d = siamese_distances(net, X, [(0, 1), (0, 2)])
    assert np.allclose(d, [5.0, 1.0])
    with pytest.raises(IndexOutOfRange):
        siamese_distances(net, X, [(0, 3)])
    with pytest.raises(IndexOutOfRange):
        siamese_distances(net, X, [(-1, 1)])


def test_twin_checkpoint_round_trip(tmp_path):
    X, pairs = two_cluster_data()
    config = SiameseConfig(epochs=2, batch_size=16, hidden_sizes=(8,), embedding_dim=3)
    net, _ = train_siamese(X, pairs, config, rng=np.random.default_rng(1))
    path = tmp_path / "twin.json"
    save_twin_checkpoint(net, 0.42, "rptree:leaf_size=20", path)
    loaded, bandwidth, source = load_twin_checkpoint(path)
    assert bandwidth == 0.42
    assert source == "rptree:leaf_size=20"
    assert np.array_equal(loaded.forward(X)[0], net.forward(X)[0])
