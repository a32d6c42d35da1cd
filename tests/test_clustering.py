from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpspectral.clustering import (
    _lloyd,
    _seed_centers,
    ari,
    kmeans,
    spectral_oracle,
)
from rpspectral.datasets import SyntheticSpec, generate_synthetic
from rpspectral.errors import InputError
from rpspectral.siamese import heat_kernel, pairwise_distances, select_bandwidth
from rpspectral.spectralnet import Laplacian


def enumerate_confusion(first, second):
    """Literal definition: walk every unordered pair and bucket it."""
    counts = [0, 0, 0, 0]  # both, first only, second only, neither
    for i, j in combinations(range(len(first)), 2):
        a = first[i] == first[j]
        b = second[i] == second[j]
        if a and b:
            counts[0] += 1
        elif a:
            counts[1] += 1
        elif b:
            counts[2] += 1
        else:
            counts[3] += 1
    return tuple(counts)


def ari_from_enumeration(first, second):
    """Adjusted Rand index in exact rational arithmetic from pair buckets,
    using the expected-index form rather than the confusion-matrix form."""
    n11, n10, n01, n00 = enumerate_confusion(first, second)
    total = n11 + n10 + n01 + n00
    index = Fraction(n11)
    expected = Fraction((n11 + n10) * (n11 + n01), total)
    maximum = Fraction(n11 + n10 + n11 + n01, 2)
    if maximum == expected:
        return None
    return (index - expected) / (maximum - expected)


label_lists = st.integers(2, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
    )
)


def test_identity_labeling_scores_one():
    labels = [0, 0, 1, 1, 2, 2]
    assert ari(labels, labels) == 1.0
    # relabeling does not matter
    assert ari(labels, [5, 5, 9, 9, 7, 7]) == 1.0


def test_crossed_pairs_score_minus_half():
    assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == -0.5


def test_undefined_cases_return_none():
    assert ari([0, 0, 0], [1, 1, 1]) is None  # both constant
    assert ari([0, 1, 2], [2, 0, 1]) is None  # both all-singletons
    # one-sided constant is defined (and zero: no information)
    assert ari([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0


def test_ari_matches_the_enumerated_pair_counts_exactly():
    # The same integer formula on the walked pair buckets: any miscounted
    # bucket changes the quotient, so the floats must agree bit for bit.
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        first = rng.integers(0, 4, size=n)
        second = rng.integers(0, 4, size=n)
        n11, n10, n01, n00 = enumerate_confusion(first, second)
        denominator = (n00 + n01) * (n01 + n11) + (n00 + n10) * (n10 + n11)
        want = 2 * (n00 * n11 - n10 * n01) / denominator if denominator else None
        assert ari(first, second) == want


@settings(max_examples=200, deadline=None)
@given(label_lists)
def test_ari_agrees_with_exact_enumeration(pair):
    first, second = pair
    fast = ari(first, second)
    slow = ari_from_enumeration(first, second)
    if slow is None:
        assert fast is None
    else:
        assert abs(fast - float(slow)) < 1e-12
    # symmetry in the two labelings
    assert ari(second, first) == fast


def test_ari_input_errors():
    with pytest.raises(InputError, match="^labelings have 2 and 3 points$"):
        ari([0, 1], [0, 1, 2])
    with pytest.raises(InputError, match="^need at least 2 points to form a pair$"):
        ari([0], [0])


def test_labels_accept_strings():
    assert ari(["a", "a", "b", "b"], [0, 0, 1, 1]) == 1.0


def ari_through_np_unique(first, second):
    """``ari`` as it was when ``np.unique`` coded the labels."""
    first, second = np.asarray(first).ravel(), np.asarray(second).ravel()
    n = len(first)
    _, fi = np.unique(first, return_inverse=True)
    _, si = np.unique(second, return_inverse=True)
    table = np.zeros((int(fi.max()) + 1, int(si.max()) + 1), dtype=np.int64)
    np.add.at(table, (fi, si), 1)

    def pairs_of(counts):
        return sum(int(c) * (int(c) - 1) // 2 for c in counts)

    n11 = pairs_of(table.ravel())
    same_first = pairs_of(table.sum(axis=1))
    same_second = pairs_of(table.sum(axis=0))
    n10, n01 = same_first - n11, same_second - n11
    n00 = n * (n - 1) // 2 - same_first - same_second + n11
    denominator = (n00 + n01) * (n01 + n11) + (n00 + n10) * (n10 + n11)
    return 2 * (n00 * n11 - n10 * n01) / denominator if denominator else None


@pytest.mark.parametrize(
    "alphabet",
    [
        np.array([0, 1, 2]),
        np.array([-7, 3, 40, 2**40]),  # non-contiguous, negative and wide
        np.array([0.5, -1.25, 3.0]),
        np.array(["b", "a", "zz", "c"]),
    ],
)
def test_ari_gives_the_bits_of_the_np_unique_coding(alphabet):
    rng = np.random.default_rng(len(alphabet))
    for n in (2, 3, 10, 11, 300):
        for _ in range(20):
            first = rng.choice(alphabet, size=n)
            second = rng.choice(alphabet[: int(rng.integers(1, len(alphabet) + 1))], size=n)
            assert ari(first, second) == ari_through_np_unique(first, second)


# --- kmeans ---


def test_kmeans_recovers_separated_blobs():
    X, y = generate_synthetic(SyntheticSpec(kind="blobs", n=150, noise=0.05, seed=0))
    result = kmeans(X, 3, rng=np.random.default_rng(0))
    assert ari(y, result.labels) == 1.0
    assert result.centers.shape == (3, 2)
    assert result.inertia >= 0.0


def test_kmeans_two_points():
    result = kmeans(np.array([[0.0], [1.0]]), 2, rng=np.random.default_rng(0))
    assert set(result.labels.tolist()) == {0, 1}
    assert result.inertia == 0.0


def test_kmeans_k_one_center_is_mean():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 2))
    result = kmeans(X, 1, rng=np.random.default_rng(0))
    assert not result.labels.any()
    assert np.allclose(result.centers[0], X.mean(axis=0))


def test_kmeans_is_deterministic():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 2))
    a = kmeans(X, 4, rng=np.random.default_rng(7))
    b = kmeans(X, 4, rng=np.random.default_rng(7))
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centers, b.centers)
    assert a.inertia == b.inertia


def test_kmeans_restarts_never_hurt():
    # kmeans's first restart is one seeding and one Lloyd pass on the same
    # generator; the best of all restarts can only lower its scatter.
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 2))
    first = np.random.default_rng(0)
    _, _, single = _lloyd(X, 5, _seed_centers(X, 5, first))
    many = kmeans(X, 5, rng=np.random.default_rng(0))
    assert many.inertia <= single + 1e-12


def test_kmeans_inertia_is_true_scatter():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    result = kmeans(X, 3, rng=np.random.default_rng(1))
    scatter = sum(
        np.sum((X[i] - result.centers[result.labels[i]]) ** 2) for i in range(40)
    )
    assert result.inertia == pytest.approx(scatter, rel=1e-12)


def test_kmeans_errors():
    X = np.zeros((3, 2))
    with pytest.raises(InputError, match="^k=4 exceeds the 3 available points$"):
        kmeans(X, 4, rng=np.random.default_rng(0))
    with pytest.raises(InputError):
        kmeans(X, 0, rng=np.random.default_rng(0))


# --- dense spectral reference ---


def raw_heat_graph(X, bandwidth=None):
    """Heat kernel on raw distances; the bandwidth defaults to the median
    over all pairs."""
    distances = pairwise_distances(X)
    if bandwidth is None:
        bandwidth = select_bandwidth(distances[np.triu_indices(len(X), k=1)])
    return heat_kernel(distances, bandwidth)


def oracle_labels(A, n_clusters):
    _, vectors = spectral_oracle(Laplacian(A), n_clusters)
    return kmeans(vectors, n_clusters, np.random.default_rng(0)).labels


def test_oracle_recovers_blobs():
    X, y = generate_synthetic(SyntheticSpec(kind="blobs", n=150, noise=0.05, seed=1))
    assert ari(y, oracle_labels(raw_heat_graph(X), 3)) == 1.0


def test_oracle_is_deterministic():
    X, _ = generate_synthetic(SyntheticSpec(kind="blobs", n=90, noise=0.1, seed=2))
    A = raw_heat_graph(X)
    first, second = spectral_oracle(Laplacian(A), 3), spectral_oracle(Laplacian(A), 3)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_oracle_size_guards():
    with pytest.raises(InputError, match="^the oracle is dense; 2001 points exceed 2000$"):
        spectral_oracle(Laplacian(np.broadcast_to(0.0, (2001, 2001))), 2)
    with pytest.raises(InputError, match=r"^n_clusters=6 is outside 1\.\.5$"):
        spectral_oracle(Laplacian(np.zeros((5, 5))), 6)
    with pytest.raises(InputError, match=r"^affinity must be a square matrix, got \(5, 2\)$"):
        spectral_oracle(Laplacian(np.zeros((5, 2))), 2)


def test_oracle_recovers_blobs_at_an_explicit_bandwidth():
    X, y = generate_synthetic(SyntheticSpec(kind="blobs", n=120, noise=0.05, seed=3))
    assert ari(y, oracle_labels(raw_heat_graph(X, bandwidth=0.5), 3)) == 1.0


def disconnected_blocks():
    """A symmetric affinity of 4 components, and their indicators as columns."""
    rng = np.random.default_rng(5)
    sizes = [7, 12, 4, 9]
    n, g = sum(sizes), len(sizes)
    A = np.zeros((n, n))
    indicators = np.zeros((n, g))
    start = 0
    for c, size in enumerate(sizes):
        block = rng.uniform(0.1, 1.0, size=(size, size))
        A[start : start + size, start : start + size] = block + block.T
        indicators[start : start + size, c] = 1.0
        start += size
    np.fill_diagonal(A, 0.0)
    return A, indicators


def test_oracle_on_disconnected_blocks_is_exact():
    # A graph of g components has g zero Laplacian eigenvalues, and their
    # eigenvectors span the g component indicators.
    A, indicators = disconnected_blocks()
    n, g = indicators.shape
    eigenvalues, vectors = spectral_oracle(Laplacian(A), g)
    assert eigenvalues.shape == (n,) and vectors.shape == (n, g)
    assert np.all(np.diff(eigenvalues) >= 0)
    assert np.abs(eigenvalues[:g]).max() < 1e-12
    assert eigenvalues[g] > 0.1
    # Projecting the indicators onto the returned columns leaves them whole.
    assert np.allclose(vectors @ (vectors.T @ indicators), indicators, atol=1e-12)


@pytest.mark.parametrize("graph", ["heat", "blocks"])
def test_oracle_solves_the_dense_laplacian_bit_for_bit(graph):
    # The oracle's matrix is Laplacian.apply on the identity; it must give
    # exactly the eigenpairs of diag(row sums) - A written out.
    if graph == "heat":
        X, _ = generate_synthetic(SyntheticSpec(kind="moons", n=300, noise=0.06, seed=4))
        A, g = raw_heat_graph(X), 2
    else:
        A, indicators = disconnected_blocks()
        g = indicators.shape[1]
    eigenvalues, vectors = spectral_oracle(Laplacian(A), g)
    want_values, want_vectors = np.linalg.eigh(np.diag(A.sum(axis=1)) - A)
    assert eigenvalues.tobytes() == want_values.tobytes()
    assert vectors.tobytes() == want_vectors[:, :g].tobytes()
