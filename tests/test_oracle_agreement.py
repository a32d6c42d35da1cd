"""The trained spectral net agrees with the dense eigensolver on its own graph.

The net approximates the bottom eigenvectors of the Laplacian of the graph it
trains on, so on a graph small enough for ``spectral_oracle`` the two are
compared directly: by the largest principal angle between the net's
embedding and the bottom eigenvectors, and by how far the net's loss sits
above the least loss a white embedding can reach, in units of the
eigengap. Both mean something only where the gap is clear, so each graph
must show one; a graph without it fails rather than being skipped.

Every net here is a (32, 32) tanh net trained full batch on raw features at
a learning rate of 5e-2 for 1024 updates, with the config spelled out so
that no default changes what is tested.
"""

import numpy as np
import pytest

from rpspectral import harness
from rpspectral.clustering import spectral_oracle
from rpspectral.datasets import SyntheticSpec, generate_synthetic
from rpspectral.harness import ExperimentConfig, run_pipeline
from rpspectral.rptree import TreeConfig, build_tree
from rpspectral.siamese import SiameseConfig, heat_kernel, pairwise_distances
from rpspectral.spectralnet import SpectralConfig, embed, spectral_loss, train_spectralnet

N = 300
MAX_ANGLE_DEG = 5.0
MAX_EXCESS = 0.1
MIN_GAP_RATIO = 2.0

NET = SpectralConfig(
    n_clusters=2,
    batch_size=N,
    total_steps=2048,
    hidden_sizes=(32, 32),
    activation="tanh",
    learning_rate=5e-2,
    learning_rate_schedule="constant",
    restarts=1,
    features="raw",
)
# The twin of the benchmark's tuned moons config, one epoch.
TWIN = SiameseConfig(
    epochs=1, batch_size=128, hidden_sizes=(64, 64), embedding_dim=16, learning_rate=5e-4
)


def agreement(Y, A, g):
    """(largest principal angle in degrees, excess over the gap, λ_g, λ_{g+1}).

    The angle is between the column spans of ``Y`` and of the bottom ``g``
    eigenvectors of the Laplacian of ``A``. The excess is the loss of the
    white ``Y`` above the least loss (2/n)(λ_1 + … + λ_g), over (2/n)(λ_{g+1}
    - λ_g).
    """
    n = len(A)
    eigenvalues, vectors = spectral_oracle(A, g)
    cosines = np.linalg.svd(np.linalg.qr(Y)[0].T @ vectors, compute_uv=False)
    angle = float(np.degrees(np.arccos(np.clip(cosines.min(), -1.0, 1.0))))
    loss, _ = spectral_loss(A, Y)
    least = 2.0 / n * eigenvalues[:g].sum()
    excess = (loss - least) / (2.0 / n * (eigenvalues[g] - eigenvalues[g - 1]))
    return angle, float(excess), float(eigenvalues[g - 1]), float(eigenvalues[g])


def assert_agrees(Y, A, g):
    angle, excess, low, high = agreement(Y, A, g)
    where = f"angle {angle:.2f} deg, excess {excess:.4f}, lambda_g {low:.3e}, lambda_g+1 {high:.3e}"
    assert high >= MIN_GAP_RATIO * low, f"no clear eigengap: {where}"
    assert angle <= MAX_ANGLE_DEG, where
    assert excess <= MAX_EXCESS, where


def forest_graph(X, rng, trees=5, leaf_size=20):
    """The co-leaf mask of a forest times the heat kernel on raw distances.

    The bandwidth is the median distance over the first tree's co-leaf pairs.
    """
    n = len(X)
    distances = pairwise_distances(X)
    mask = np.zeros((n, n), dtype=bool)
    bandwidth = None
    for _ in range(trees):
        tree = build_tree(X, TreeConfig(leaf_size=leaf_size), rng)
        leaf = np.empty(n, dtype=np.int64)
        leaf[tree.points] = np.repeat(np.arange(len(tree.leaf_sizes)), tree.leaf_sizes)
        same = leaf[:, None] == leaf[None, :]
        if bandwidth is None:
            bandwidth = float(np.median(distances[np.triu(same, k=1)]))
        mask |= same
    return mask * heat_kernel(distances, bandwidth)


@pytest.mark.parametrize("noise", [0.06, 0.1])
@pytest.mark.parametrize("seed", [100, 101, 102])
def test_net_agrees_with_the_oracle_on_a_forest_graph(noise, seed):
    X, _ = generate_synthetic(SyntheticSpec(kind="moons", n=N, noise=noise, seed=seed))
    A = forest_graph(X, np.random.default_rng(seed))
    model = train_spectralnet(
        X, lambda rows: A[np.ix_(rows, rows)], NET, np.random.default_rng(seed)
    )
    assert_agrees(embed(model, X), A, NET.n_clusters)


@pytest.mark.parametrize("seed", [21, 25, 26, 27])
def test_net_agrees_with_the_oracle_on_the_pipelines_graph(seed, monkeypatch):
    # The affinity callable is caught on its way into the spectral stage, so
    # the oracle solves exactly the matrix the net trained on.
    caught = []
    original = harness.train_spectralnet

    def catching(features, affinity, config, rng):
        caught.append(affinity)
        return original(features, affinity, config, rng)

    monkeypatch.setattr(harness, "train_spectralnet", catching)
    config = ExperimentConfig(
        dataset=SyntheticSpec(kind="moons", n=N, noise=0.06, seed=seed),
        n_clusters=2,
        runs=1,
        base_seed=1000 * seed,
        siamese=TWIN,
        spectral=NET,
    )
    X, y = generate_synthetic(config.dataset)
    run = run_pipeline(X, y, config, 0)
    (affinity,) = caught
    assert_agrees(run.embedding, affinity(np.arange(N)), NET.n_clusters)
