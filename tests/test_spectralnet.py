from dataclasses import replace

import numpy as np
import pytest

from rpspectral import spectralnet
from rpspectral.datasets import SyntheticSpec, generate_synthetic
from rpspectral.errors import ConfigError, InputError, NumericalError
from rpspectral.mlp import _BLOCK_FLOATS, Adam, Mlp
from rpspectral.siamese import heat_kernel, pairwise_distances
from rpspectral.spectralnet import (
    Laplacian,
    SpectralConfig,
    SpectralModel,
    _whitened_loss,
    embed,
    ortho_residual,
    orthogonalize,
    spectral_loss,
    train_spectralnet,
)

# The message of a 20-row batch that cannot be whitened; {} is the residual.
RESIDUAL_FAILURE = (
    r"^batch outputs are rank-deficient or non-finite; whitening residual {} "
    r"exceeds 2\.000e-05$"
)


def heat_graph(Z, bandwidth):
    """The Laplacian of rows of ``Z``: of the heat kernel of their distances."""
    return lambda rows: Laplacian(heat_kernel(pairwise_distances(Z[rows]), bandwidth))


# --- orthogonalization ---


def test_orthogonalize_random_batch():
    rng = np.random.default_rng(0)
    Y_raw = rng.normal(size=(32, 4))
    Y, transform, residual = orthogonalize(Y_raw)
    assert residual == ortho_residual(Y, 32) <= 1e-6 * 32
    # the map is what whitened the batch
    assert np.allclose(Y_raw @ transform, Y)


def test_orthogonalize_fixed_point():
    # A batch that is already white should come back essentially unchanged.
    rng = np.random.default_rng(1)
    Y, _, _ = orthogonalize(rng.normal(size=(40, 3)))
    again, transform, _ = orthogonalize(Y)
    assert np.abs(again - Y).max() < 1e-8 * 40
    assert np.abs(transform - np.eye(3)).max() < 1e-8


def test_orthogonalize_needs_enough_rows():
    with pytest.raises(
        InputError, match="^need at least 4 points to orthogonalize 4 outputs, got 2$"
    ):
        orthogonalize(np.zeros((2, 4)))


def test_orthogonalize_rank_deficient_without_jitter():
    # A rank-1 batch of three columns: the jitter is far too small to whiten
    # the two lost directions, so the batch must be rejected.
    rng = np.random.default_rng(2)
    col = rng.normal(size=(20, 1))
    Y_raw = np.hstack([col, 2.0 * col, -col])  # rank 1
    with pytest.raises(NumericalError, match=RESIDUAL_FAILURE.format(r"2\.828e\+01")):
        orthogonalize(Y_raw)


def test_orthogonalize_rank_deficient_with_jitter_still_fails_residual():
    # Jitter makes the Cholesky succeed but cannot restore a lost rank; the
    # residual check must reject the result rather than return a bad map.
    col = np.random.default_rng(3).normal(size=(20, 1))
    Y_raw = np.hstack([col, col])
    with pytest.raises(NumericalError, match=RESIDUAL_FAILURE.format(r"2\.000e\+01")):
        orthogonalize(Y_raw)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_orthogonalize_rejects_a_non_finite_batch(bad):
    # A NaN residual compares False against the tolerance either way round;
    # the guard must treat it as a failure, not a pass.
    Y_raw = np.random.default_rng(0).normal(size=(20, 3))
    Y_raw[4, 1] = bad
    with pytest.raises(NumericalError, match=RESIDUAL_FAILURE.format("nan")):
        orthogonalize(Y_raw)


def test_orthogonalize_near_singular_recovers_via_jitter():
    rng = np.random.default_rng(4)
    base = rng.normal(size=(50, 2))
    Y_raw = np.hstack([base, base[:, :1] + 1e-9 * rng.normal(size=(50, 1))])
    Y, _, _ = orthogonalize(Y_raw)
    assert ortho_residual(Y, 50) <= 1e-6 * 50


# --- loss ---


def test_spectral_loss_hand_case():
    affinity = np.array([[0.0, 1.0], [1.0, 0.0]])
    Y = np.array([[0.0, 0.0], [1.0, 0.0]])
    loss, grad = spectral_loss(Laplacian(affinity), Y)
    assert loss == pytest.approx(0.5, abs=1e-15)
    assert grad.shape == (2, 2)


def test_spectral_loss_equals_double_sum():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m, g = rng.integers(2, 12), rng.integers(1, 4)
        A = rng.uniform(size=(m, m))
        A = 0.5 * (A + A.T)
        np.fill_diagonal(A, 0.0)
        Y = rng.normal(size=(m, g))
        loss, grad = spectral_loss(Laplacian(A), Y)
        brute = sum(
            A[i, j] * np.sum((Y[i] - Y[j]) ** 2)
            for i in range(m)
            for j in range(m)
        ) / (m * m)
        assert abs(loss - brute) < 1e-10


def test_spectral_loss_scale_covariance():
    rng = np.random.default_rng(6)
    A = rng.uniform(size=(8, 8))
    A = 0.5 * (A + A.T)
    Y = rng.normal(size=(8, 3))
    base, _ = spectral_loss(Laplacian(A), Y)
    scaled, _ = spectral_loss(Laplacian(A), 2.5 * Y)
    assert scaled == pytest.approx(2.5**2 * base, rel=1e-12)


def test_spectral_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    A = rng.uniform(size=(6, 6))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    Y = rng.normal(size=(6, 2))
    _, grad = spectral_loss(Laplacian(A), Y)
    eps = 1e-6
    for i in range(6):
        for k in range(2):
            up = Y.copy()
            up[i, k] += eps
            down = Y.copy()
            down[i, k] -= eps
            numeric = (
                spectral_loss(Laplacian(A), up)[0] - spectral_loss(Laplacian(A), down)[0]
            ) / (2 * eps)
            assert numeric == pytest.approx(grad[i, k], abs=1e-8)


def test_spectral_loss_zero_for_constant_embedding():
    A = np.random.default_rng(8).uniform(size=(5, 5))
    loss, grad = spectral_loss(Laplacian(A), np.ones((5, 2)))
    assert loss == 0.0
    assert np.abs(grad).max() < 1e-15


def test_spectral_loss_shape_mismatch():
    with pytest.raises(InputError, match=r"^affinity \(3, 3\) does not match batch of 4$"):
        spectral_loss(Laplacian(np.zeros((3, 3))), np.zeros((4, 2)))


def test_loss_and_whitening_ignore_row_order():
    # The full-batch path trains on rows in their natural order instead of a
    # permutation; that is sound because neither of these depends on order.
    rng = np.random.default_rng(9)
    A = rng.uniform(size=(30, 30))
    A = 0.5 * (A + A.T)
    Y = rng.normal(size=(30, 3))
    p = rng.permutation(30)
    loss, grad = spectral_loss(Laplacian(A), Y)
    loss_p, grad_p = spectral_loss(Laplacian(A[np.ix_(p, p)]), Y[p])
    assert abs(loss_p - loss) <= 1e-12 * max(1.0, abs(loss))
    assert np.abs(grad_p - grad[p]).max() <= 1e-12
    _, transform, _ = orthogonalize(Y)
    _, transform_p, _ = orthogonalize(Y[p])
    assert np.abs(transform_p - transform).max() <= 1e-12


def test_whitened_gradient_matches_finite_differences():
    # The training step backpropagates the gradient of the loss of the
    # whitened output with respect to the raw output, whitening map included.
    rng = np.random.default_rng(10)
    m, g = 40, 3
    A = rng.uniform(size=(m, m))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    O = rng.normal(size=(m, g)) + rng.normal(size=g)

    def whitened(raw):
        return spectral_loss(Laplacian(A), orthogonalize(raw)[0])[0]

    loss, grad, residual = _whitened_loss(O, Laplacian(A))
    assert loss == whitened(O)
    assert residual <= 1e-6 * m
    eps = 1e-5
    numeric = np.zeros_like(O)
    for i in range(m):
        for k in range(g):
            up = O.copy()
            up[i, k] += eps
            down = O.copy()
            down[i, k] -= eps
            numeric[i, k] = (whitened(up) - whitened(down)) / (2 * eps)
    assert np.linalg.norm(grad - numeric) <= 1e-6 * np.linalg.norm(numeric)


# --- training ---


def blobs_case():
    X, y = generate_synthetic(SyntheticSpec(kind="blobs", n=200, noise=0.05, seed=0))
    return X, y


def test_training_progress_and_orthogonality():
    X, _ = blobs_case()
    # Learning rate low enough that the loss decay spans the whole run,
    # keeping the first-vs-last comparison out of the plateau noise.
    config = SpectralConfig(
        n_clusters=3,
        batch_size=64,
        total_steps=400,
        hidden_sizes=(16, 16),
        learning_rate=1e-4,
    )
    model = train_spectralnet(
        X, heat_graph(X, 0.5), config=config, rng=np.random.default_rng(0)
    )
    assert len(model.loss_history) == 200  # one per gradient step
    assert len(model.ortho_residuals) == 201  # plus the trailing refit
    assert np.mean(model.loss_history[-20:]) < np.mean(model.loss_history[:20])
    assert max(model.ortho_residuals) <= 1e-6 * 64


def test_training_is_deterministic():
    X, _ = blobs_case()
    config = SpectralConfig(
        n_clusters=3, batch_size=32, total_steps=50, hidden_sizes=(8,)
    )
    graph = heat_graph(X, 0.5)
    a = train_spectralnet(X, graph, config, rng=np.random.default_rng(3))
    b = train_spectralnet(X, graph, config, rng=np.random.default_rng(3))
    assert a.loss_history == b.loss_history
    assert np.array_equal(embed(a, X), embed(b, X))
    assert a.transform.tobytes() == b.transform.tobytes()


def test_embedding_shape_and_dataset_whiteness():
    X, _ = blobs_case()
    config = SpectralConfig(
        n_clusters=3, batch_size=48, total_steps=100, hidden_sizes=(8, 8)
    )
    model = train_spectralnet(
        X, heat_graph(X, 0.5), config, rng=np.random.default_rng(1)
    )
    Y = embed(model, X)
    assert Y.shape == (len(X), 3)
    # the stored map was refit on every point, so the whole embedding is white
    n = len(X)
    assert ortho_residual(Y, n) <= 1e-6 * n
    assert model.ortho_residuals[-1] == ortho_residual(Y, n)


def test_sampled_training_refits_the_map_on_every_point():
    # The refit draws nothing: the generator ends where the init seed and
    # the per-step batch draws leave it, and the map is the whitening of
    # the trained net's output over the whole dataset.
    X, _ = blobs_case()
    n = len(X)
    config = SpectralConfig(
        n_clusters=3, batch_size=32, total_steps=30, hidden_sizes=(8,)
    )
    rng = np.random.default_rng(5)
    model = train_spectralnet(X, heat_graph(X, 0.5), config, rng=rng)
    replay = np.random.default_rng(5)
    replay.integers(0, 2**63 - 1)
    for _ in range(config.total_steps // 2):
        replay.choice(n, size=32, replace=False)
    assert rng.bit_generator.state == replay.bit_generator.state
    Y, transform, _ = orthogonalize(model.net.predict(X))
    assert transform.tobytes() == model.transform.tobytes()
    assert np.array_equal(embed(model, X), Y)


def test_sampled_training_builds_no_dataset_affinity(peak_traced_bytes):
    # A drawn batch asks for its own m x m affinity, so training on a few
    # batches of n points never holds an n x n matrix.
    n = 4000
    X = np.random.default_rng(2).normal(size=(n, 2))
    config = SpectralConfig(
        n_clusters=2, batch_size=64, total_steps=4, hidden_sizes=(8,)
    )
    peak = peak_traced_bytes(
        lambda: train_spectralnet(
            X, heat_graph(X, 0.5), config, rng=np.random.default_rng(0)
        )
    )
    assert peak < n * n * 8 // 10


@pytest.mark.parametrize("restarts", [1, 2])
def test_full_batch_training(restarts):
    X, _ = blobs_case()
    n = len(X)
    config = SpectralConfig(
        n_clusters=3,
        batch_size=n,
        total_steps=40,
        hidden_sizes=(8,),
        restarts=restarts,
    )
    graph = heat_graph(X, 0.5)
    a = train_spectralnet(X, graph, config, rng=np.random.default_rng(4))
    b = train_spectralnet(X, graph, config, rng=np.random.default_rng(4))
    assert a.loss_history == b.loss_history
    assert np.array_equal(embed(a, X), embed(b, X))
    assert ortho_residual(embed(a, X), n) <= 1e-6 * n
    assert a.ortho_residuals[-1] == ortho_residual(embed(a, X), n)
    assert len(a.loss_history) == config.total_steps // 2


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "kind, n_clusters, bandwidth, total_steps",
    [("moons", 2, 0.3, 2000), ("blobs", 3, 3.0, 1000)],
)
def test_full_batch_training_reaches_the_dense_optimum(
    kind, n_clusters, bandwidth, total_steps, seed
):
    # On whitened outputs (Y^T Y = n I) the loss is at least 2/n times the
    # sum of the bottom n_clusters eigenvalues of D - A; training on the
    # exact whitened gradient gets within 5% of it. Following the gradient
    # through a frozen whitening map raised NumericalError on these moons and
    # stalled 1.4-3.6x above the optimum on these blobs.
    n = 200
    X, _ = generate_synthetic(
        SyntheticSpec(kind=kind, n=n, noise=0.05, centers=n_clusters, seed=0)
    )
    A = heat_kernel(pairwise_distances(X), bandwidth)
    optimum = 2.0 * np.linalg.eigvalsh(np.diag(A.sum(axis=1)) - A)[:n_clusters].sum() / n
    config = SpectralConfig(
        n_clusters=n_clusters,
        batch_size=n,
        total_steps=total_steps,
        hidden_sizes=(16, 16),
        activation="tanh",
        learning_rate=1e-2,
    )
    model = train_spectralnet(
        X, lambda rows: Laplacian(A[np.ix_(rows, rows)]), config,
        rng=np.random.default_rng(seed),
    )
    assert np.mean(model.loss_history[-10:]) <= 1.05 * optimum


def test_training_rejects_undersized_dataset():
    X = np.zeros((10, 2))
    config = SpectralConfig(n_clusters=2, batch_size=32, total_steps=10)
    with pytest.raises(InputError, match="^dataset has 10 points, batch size is 32$"):
        train_spectralnet(
            X, heat_graph(X, 0.5), config, rng=np.random.default_rng(0)
        )


def test_config_validation():
    with pytest.raises(ConfigError):
        SpectralConfig(n_clusters=0).validate()
    with pytest.raises(ConfigError):
        SpectralConfig(n_clusters=4, batch_size=2).validate()
    with pytest.raises(ConfigError):
        SpectralConfig(n_clusters=2, total_steps=7).validate()
    with pytest.raises(ConfigError):
        SpectralConfig(n_clusters=2, learning_rate=0.0).validate()
    with pytest.raises(ConfigError):
        SpectralConfig(n_clusters=2, activation="gelu").validate()
    with pytest.raises(ConfigError):
        SpectralConfig(n_clusters=2, learning_rate_schedule="linear").validate()
    with pytest.raises(ConfigError):
        SpectralConfig(n_clusters=2, restarts=0).validate()
    with pytest.raises(ConfigError):
        SpectralConfig(n_clusters=2, features="pca").validate()
    with pytest.raises(ConfigError, match="hidden_sizes"):
        SpectralConfig(n_clusters=2, hidden_sizes=(0,)).validate()
    SpectralConfig(n_clusters=2).validate()


# --- the graph callable ---


def counting_graph(Z, bandwidth):
    """``heat_graph`` that also keeps the rows of every call."""
    calls = []
    inner = heat_graph(Z, bandwidth)

    def graph(rows):
        calls.append(np.array(rows))
        return inner(rows)

    return graph, calls


def test_full_batch_asks_for_the_affinity_once():
    X, _ = blobs_case()
    n = len(X)
    config = SpectralConfig(
        n_clusters=3, batch_size=n, total_steps=20, hidden_sizes=(8,), restarts=2
    )
    graph, calls = counting_graph(X, 0.5)
    model = train_spectralnet(X, graph, config, rng=np.random.default_rng(0))
    assert len(calls) == 1
    assert np.array_equal(calls[0], np.arange(n))
    # the same bits as a graph built for every step
    fresh = train_spectralnet(
        X, heat_graph(X, 0.5), config, rng=np.random.default_rng(0)
    )
    assert model.loss_history == fresh.loss_history


def test_drawn_batches_ask_for_the_affinity_of_the_rows_the_net_sees(monkeypatch):
    X, _ = blobs_case()
    config = SpectralConfig(
        n_clusters=3, batch_size=32, total_steps=20, hidden_sizes=(8,)
    )
    graph, calls = counting_graph(X, 0.5)
    forward = Mlp.forward
    batches = []

    def spy_forward(net, batch):
        batches.append(np.array(batch))
        return forward(net, batch)

    monkeypatch.setattr(Mlp, "forward", spy_forward)
    train_spectralnet(X, graph, config, rng=np.random.default_rng(0))
    assert len(calls) == len(batches) == config.total_steps // 2
    for rows, batch in zip(calls, batches):
        assert len(np.unique(rows)) == config.batch_size
        assert np.array_equal(X[rows].astype(np.float32), batch)


# A square affinity of the wrong size fails in spectral_loss; a flat one
# fails when its Laplacian is built.
MISSIZED = r"^affinity \(.*\) does not match batch of \d+$"
NOT_SQUARE = r"^affinity must be a square matrix, got \(\d+,\)$"


@pytest.mark.parametrize("full", [True, False], ids=["full", "sampled"])
@pytest.mark.parametrize(
    "shape, message",
    [
        (lambda m: (m + 1, m + 1), MISSIZED),
        (lambda m: (m - 1, m - 1), MISSIZED),
        (lambda m: (m,), NOT_SQUARE),
    ],
    ids=["larger", "smaller", "flat"],
)
def test_an_affinity_of_the_wrong_shape_is_refused(full, shape, message):
    X, _ = blobs_case()
    config = SpectralConfig(
        n_clusters=3, batch_size=len(X) if full else 32, total_steps=10,
        hidden_sizes=(8,),
    )
    with pytest.raises(InputError, match=message):
        train_spectralnet(
            X, lambda rows: Laplacian(np.zeros(shape(len(rows)))), config,
            rng=np.random.default_rng(0),
        )


# --- restarts, schedules, features ---


def test_cosine_schedule_is_deterministic_and_changes_the_run():
    X, _ = blobs_case()
    graph = heat_graph(X, 0.5)
    config = SpectralConfig(
        n_clusters=3,
        batch_size=32,
        total_steps=60,
        hidden_sizes=(8,),
        learning_rate_schedule="cosine",
    )
    a = train_spectralnet(X, graph, config, rng=np.random.default_rng(2))
    b = train_spectralnet(X, graph, config, rng=np.random.default_rng(2))
    assert a.loss_history == b.loss_history
    constant = train_spectralnet(
        X,
        graph,
        replace(config, learning_rate_schedule="constant"),
        rng=np.random.default_rng(2),
    )
    # identical draws, different step sizes: histories diverge after step one
    assert a.loss_history[0] == constant.loss_history[0]
    assert a.loss_history != constant.loss_history


def test_restart_selection_follows_documented_derivation():
    # restarts train on generators seeded by consecutive 63-bit draws from
    # the caller's rng, and the lowest tail-loss candidate wins; rebuild the
    # candidates by hand and check the winner matches.
    X, _ = blobs_case()
    graph = heat_graph(X, 0.5)
    config = SpectralConfig(
        n_clusters=3,
        batch_size=32,
        total_steps=40,
        hidden_sizes=(8,),
        restarts=3,
    )
    model = train_spectralnet(X, graph, config, rng=np.random.default_rng(11))

    rng = np.random.default_rng(11)
    seeds = [int(rng.integers(0, 2**63 - 1)) for _ in range(3)]
    single = replace(config, restarts=1)
    candidates = [
        train_spectralnet(X, graph, single, rng=np.random.default_rng(s))
        for s in seeds
    ]
    tails = [float(np.mean(c.loss_history[-10:])) for c in candidates]
    best = int(np.argmin(tails))
    assert model.selected_restart == best
    assert model.loss_history == candidates[best].loss_history
    assert np.array_equal(embed(model, X), embed(candidates[best], X))


def test_single_restart_keeps_the_plain_stream():
    # restarts=1 must behave exactly like a config without the field at all
    X, _ = blobs_case()
    graph = heat_graph(X, 0.5)
    base = SpectralConfig(
        n_clusters=3, batch_size=32, total_steps=50, hidden_sizes=(8,)
    )
    a = train_spectralnet(X, graph, base, rng=np.random.default_rng(3))
    b = train_spectralnet(
        X, graph, replace(base, restarts=1), rng=np.random.default_rng(3)
    )
    assert a.loss_history == b.loss_history
    assert np.array_equal(embed(a, X), embed(b, X))


def test_twin_feature_training_and_embedding():
    # The pipeline's features="twin": the net reads the twin embedding,
    # which also builds the affinity.
    X, _ = blobs_case()
    Z = Mlp.init([2, 6, 4], activation="tanh", seed=9).predict(X)
    config = SpectralConfig(
        n_clusters=3,
        batch_size=32,
        total_steps=60,
        hidden_sizes=(8,),
        features="twin",
    )
    model = train_spectralnet(
        Z, heat_graph(Z, 0.5), config, rng=np.random.default_rng(6)
    )
    Y = embed(model, Z)
    assert Y.shape == (len(X), 3)
    # the embedding really is body(twin(x)) through the stored map
    out, _ = model.net.forward(Z)
    assert np.array_equal(Y, out @ model.transform)
    assert ortho_residual(Y, len(X)) <= 1e-6 * len(X)
    assert model.ortho_residuals[-1] == ortho_residual(Y, len(X))


# --- failing steps ---


@pytest.mark.parametrize("full", [True, False], ids=["full", "sampled"])
def test_outputs_that_cannot_be_whitened_fail_at_their_step(full):
    # Identical feature rows give identical output rows, whose rank-1 Gram
    # matrix has no whitening map.
    X = np.zeros((200, 2))
    config = SpectralConfig(
        n_clusters=3, batch_size=len(X) if full else 32, total_steps=10,
        hidden_sizes=(8,),
    )
    with pytest.raises(
        NumericalError,
        match="^spectral training failed at step 1 of 5: batch Gram matrix is singular",
    ):
        train_spectralnet(
            X, heat_graph(X, 0.5), config, rng=np.random.default_rng(0)
        )


@pytest.mark.filterwarnings("error")
def test_an_overflowing_bias_sum_fails_at_its_step(monkeypatch):
    # One linear layer, full batch, and the first 100 feature rows zero. On
    # step 3 the output gradient is 1.5 x float32's max / 100 on those rows
    # and 0 on the rest: every weight gradient is exactly 0, but the bias
    # sum overflows. The bias reduction does not report overflow itself, so
    # this checks that the step it feeds still fails, and is named.
    X, _ = blobs_case()
    features = X.copy()
    features[:100] = 0.0
    config = SpectralConfig(
        n_clusters=2, batch_size=len(X), total_steps=10, hidden_sizes=()
    )
    whitened = spectralnet._whitened_loss
    calls = []

    def overflowing_on_step_3(out, laplacian):
        loss, grad_out, residual = whitened(out, laplacian)
        calls.append(len(calls) + 1)
        if len(calls) == 3:
            grad_out = np.zeros_like(grad_out)
            grad_out[:100] = 1.5 * float(np.finfo(np.float32).max) / 100
        return loss, grad_out, residual

    monkeypatch.setattr(spectralnet, "_whitened_loss", overflowing_on_step_3)
    with pytest.raises(NumericalError, match="^spectral training failed at step 3 of 5: "):
        train_spectralnet(
            features, heat_graph(X, 0.5), config, rng=np.random.default_rng(0)
        )
    assert calls == [1, 2, 3]


# --- float32 body ---


def float32_cases():
    """Both batch branches, with restarts, cosine steps and twin features."""
    n = len(blobs_case()[0])
    base = SpectralConfig(
        n_clusters=3, batch_size=48, total_steps=40, hidden_sizes=(8, 8),
        activation="tanh",
    )
    return {
        "sampled": base,
        "full": replace(base, batch_size=n),
        "sampled-twin-restarts": replace(
            base, features="twin", restarts=2, learning_rate_schedule="cosine"
        ),
        "full-twin-restarts": replace(
            base, batch_size=n, features="twin", restarts=2,
            learning_rate_schedule="cosine",
        ),
    }


def float32_features(config):
    """The blobs, or with twin features a tanh twin's embedding of them."""
    X, _ = blobs_case()
    if config.features == "twin":
        return Mlp.init([2, 6, 4], activation="tanh", seed=9).predict(X)
    return X


def float32_train(config, seed=0, features=None):
    if features is None:
        features = float32_features(config)
    rng = np.random.default_rng(seed)
    model = train_spectralnet(
        features, heat_graph(features, 0.5), config, rng=rng
    )
    return features, rng, model


@pytest.mark.parametrize("seed", range(3))
def test_float32_step_tracks_the_float64_step(seed):
    # One training step's loss and parameter gradients from a float32 body,
    # against the same weights widened to float64. The tolerance is set from
    # float32's ~1.2e-7 unit roundoff with room for the whitening's
    # conditioning, not fitted to the result.
    X, _ = blobs_case()
    A = heat_kernel(pairwise_distances(X), 0.5)
    narrow = Mlp.init([2, 8, 8, 3], activation="tanh", seed=seed).astype(np.float32)
    X32 = X.astype(np.float32)
    out, cache = narrow.forward(X32)
    loss, grad_out, _ = _whitened_loss(out.astype(np.float64), Laplacian(A))
    grads = narrow.backward(cache, grad_out)

    wide = narrow.astype(np.float64)
    out64, cache64 = wide.forward(X32.astype(np.float64))
    wide_loss, grad_out64, _ = _whitened_loss(out64, Laplacian(A))
    wide_grads = wide.backward(cache64, grad_out64)
    assert loss == pytest.approx(wide_loss, rel=1e-4)
    got = np.concatenate([g.ravel() for pair in grads for g in pair])
    want = np.concatenate([w.ravel() for pair in wide_grads for w in pair])
    assert np.abs(got - want).max() <= 1e-4 * np.abs(want).max()


@pytest.mark.parametrize("case", list(float32_cases()))
def test_training_steps_run_in_float32(case, monkeypatch):
    config = float32_cases()[case]
    features = float32_features(config)
    forward, predict = Mlp.forward, Mlp.predict
    backward, step = Mlp.backward, Adam.step
    seen = {"forward": 0, "backward": 0, "adam": 0, "widened": 0}

    def spy_forward(net, batch):
        out, cache = forward(net, batch)
        seen["forward"] += 1
        assert net.dtype == np.float32
        # what the loop hands in, not only what forward casts it to
        assert batch.dtype == np.float32
        assert out.dtype == np.float32
        assert all(a.dtype == np.float32 for entry in cache for a in entry)
        return out, cache

    def spy_predict(net, batch):
        # the refit after the last update, which needs no gradient and so
        # keeps no cache
        seen["widened"] += 1
        assert net.dtype == np.float64
        return predict(net, batch)

    def spy_backward(net, cache, output_grad, out=None):
        seen["backward"] += 1
        assert net.dtype == np.float32
        assert all(a.dtype == np.float32 for entry in cache for a in entry)
        assert out is not None  # the optimizer's buffer, written in place
        grads = backward(net, cache, output_grad, out=out)
        assert grads is out
        assert all(g.dtype == np.float32 for pair in grads for g in pair)
        return grads

    def spy_step(optimizer, net):
        seen["adam"] += 1
        assert net.dtype == np.float32
        step(optimizer, net)
        for pair in optimizer.m + optimizer.v:
            assert all(moment.dtype == np.float32 for moment in pair)
        # a NumPy float64 step size would run the update in float64
        assert np.result_type(optimizer.m[0][0], optimizer.learning_rate) == np.float32
        assert all(
            p.dtype == np.float32 for l in net.layers for p in (l.weights, l.biases)
        )

    monkeypatch.setattr(Mlp, "forward", spy_forward)
    monkeypatch.setattr(Mlp, "predict", spy_predict)
    monkeypatch.setattr(Mlp, "backward", spy_backward)
    monkeypatch.setattr(Adam, "step", spy_step)
    float32_train(config, features=features)
    updates = config.restarts * config.total_steps // 2
    assert seen == {
        "forward": updates,
        "backward": updates,
        "adam": updates,
        "widened": config.restarts,  # one refit per restart
    }


@pytest.mark.parametrize("case", list(float32_cases()))
def test_float32_training_returns_a_widened_float64_net(case):
    config = float32_cases()[case]
    features, _, model = float32_train(config)
    for layer in model.net.layers:
        for param in (layer.weights, layer.biases):
            assert param.dtype == np.float64
            assert np.array_equal(param, param.astype(np.float32).astype(np.float64))
    assert max(model.ortho_residuals) <= 1e-6 * config.batch_size
    # the stored map was fitted with the float64 net that embed() runs, on
    # every point it maps
    Y = embed(model, features)
    n = len(features)
    assert Y.dtype == np.float64
    assert ortho_residual(Y, n) <= 1e-6 * n
    assert model.ortho_residuals[-1] == ortho_residual(Y, n)


@pytest.mark.parametrize("case", list(float32_cases()))
def test_float32_training_is_reproducible(case):
    config = float32_cases()[case]
    _, rng_a, a = float32_train(config, seed=12)
    _, rng_b, b = float32_train(config, seed=12)
    assert a.loss_history == b.loss_history
    assert a.ortho_residuals == b.ortho_residuals
    assert a.selected_restart == b.selected_restart
    for la, lb in zip(a.net.layers, b.net.layers):
        assert la.weights.tobytes() == lb.weights.tobytes()
        assert la.biases.tobytes() == lb.biases.tobytes()
    assert a.transform.tobytes() == b.transform.tobytes()
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize("full", [True, False], ids=["full", "sampled"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39])
def test_training_rejects_values_float32_cannot_hold(bad, full):
    # Checked before the affinity is first asked for.
    X, _ = blobs_case()
    X[7, 1] = bad
    config = SpectralConfig(
        n_clusters=3, batch_size=len(X) if full else 48, total_steps=10,
        hidden_sizes=(8,),
    )
    graph, calls = counting_graph(X, 0.5)
    with pytest.raises(
        InputError, match=r"^1 input value\(s\) are NaN, infinite or beyond float32 range$"
    ):
        train_spectralnet(X, graph, config, rng=np.random.default_rng(0))
    assert calls == []


@pytest.mark.parametrize("features", ["raw", "twin"])
def test_embed_keeps_no_activation_cache(features, peak_traced_bytes):
    # As for Mlp.predict: beside the n x 3 output and its product with the
    # map, a pass through 128-wide layers holds a few blocks of
    # _BLOCK_FLOATS values at any n, not n x 128 activations, whether the
    # features are raw points or a 32-wide twin embedding.
    width = 32 if features == "twin" else 2
    model = SpectralModel(
        net=Mlp.init([width, 128, 128, 3], seed=9),
        transform=np.eye(3),
        config=SpectralConfig(n_clusters=3, features=features),
    )
    blocks = 4 * _BLOCK_FLOATS * 8
    for n in (10_000, 40_000):
        rows = np.random.default_rng(7).normal(size=(n, width))
        needed = 2 * n * 3 * 8
        assert peak_traced_bytes(lambda: embed(model, rows)) < needed + blocks, n
