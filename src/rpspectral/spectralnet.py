"""Spectral embedding network with batch orthogonalization.

The network maps feature rows to a g-dimensional embedding trained to
minimize the graph Laplacian quadratic form over batch affinities, subject
to the batch outputs being orthonormal. The graph is an input: a callable
that returns the ``Laplacian`` of any set of rows, so the graph the net
trains on is chosen by the caller, not here. Each training step whitens the
raw outputs of one batch with a Cholesky factor of their Gram matrix and
follows the exact gradient of the whitened loss, whitening map included,
back into the network weights.

The network body trains in float32: its forward pass, backward pass and
Adam update. Each step's raw output is widened to float64 before whitening,
so the Gram matrix, the Cholesky whitening and its residual check, the loss
on the float64 Laplacian and the gradient through the whitening map are all
float64. The trained net is handed back widened to float64, exactly, and the
stored whitening map is fitted with it on every row of the features, so
their embedding is white. Float32 keeps about seven significant digits, so
features are expected at standardized scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, NumericalError
from .mlp import ACTIVATIONS, Adam, Mlp, finite_float32

_ORTHO_TOL = 1e-6  # relative Frobenius tolerance on Y^T Y = m I
# Diagonal bump, relative to the mean Gram eigenvalue, tried once when a
# batch Gram matrix has no Cholesky factor.
_JITTER = 1e-6


@dataclass(frozen=True)
class SpectralConfig:
    n_clusters: int
    batch_size: int = 64
    # One whitening plus one gradient update counts as two steps, so a net
    # makes total_steps // 2 updates.
    total_steps: int = 1024
    hidden_sizes: tuple = (128, 128)
    activation: str = "relu"
    learning_rate: float = 1e-3
    learning_rate_schedule: str = "constant"  # or "cosine" (decay to zero)
    restarts: int = 1  # train this many nets, keep the lowest-loss one
    # Or "twin". Only run_pipeline reads it: there "twin" feeds the net the
    # twin embedding. train_spectralnet trains on the features it is given.
    features: str = "raw"

    def validate(self):
        """Raise ConfigError naming the bad field; ExperimentConfig.validate adds the section."""
        if self.n_clusters < 1:
            raise ConfigError("n_clusters must be at least 1")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(
                f"activation must be one of {ACTIVATIONS}, got {self.activation!r}"
            )
        if any(width < 1 for width in self.hidden_sizes):
            raise ConfigError(
                f"hidden_sizes must be at least 1, got {self.hidden_sizes}"
            )
        if self.batch_size < self.n_clusters:
            raise ConfigError(
                "batch_size must be at least n_clusters "
                f"({self.batch_size} < {self.n_clusters})"
            )
        if self.total_steps < 2 or self.total_steps % 2 != 0:
            raise ConfigError("total_steps must be even and at least 2")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")
        if self.learning_rate_schedule not in ("constant", "cosine"):
            raise ConfigError(
                "learning_rate_schedule must be 'constant' or 'cosine', got "
                f"{self.learning_rate_schedule!r}"
            )
        if self.restarts < 1:
            raise ConfigError("restarts must be at least 1")
        if self.features not in ("raw", "twin"):
            raise ConfigError(f"features must be 'raw' or 'twin', got {self.features!r}")


def _whitening_map(gram, m):
    """sqrt(m) * L^-T from a Cholesky factor, jittering once if needed.

    When ``gram`` has no Cholesky factor, its diagonal is bumped once by
    ``_JITTER`` times its mean eigenvalue before NumericalError is raised.
    """
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        g = gram.shape[0]
        bump = _JITTER * np.trace(gram) / g
        try:
            L = np.linalg.cholesky(gram + bump * np.eye(g))
        except np.linalg.LinAlgError:
            raise NumericalError(
                "batch Gram matrix is singular even after jitter"
            ) from None
    return np.sqrt(m) * np.linalg.inv(L).T


def ortho_residual(Y, m):
    """Frobenius distance of Y^T Y from m I.

    Computed in place on the g x g Gram matrix, with no identity built: its
    diagonal minus m, then the root of the flat entries' dot product, as
    ``np.linalg.norm`` computes it.
    """
    G = Y.T @ Y
    flat = G.reshape(-1)
    flat[:: G.shape[0] + 1] -= m
    return math.sqrt(flat.dot(flat))


def orthogonalize(Y_raw):
    """Whiten a batch of raw outputs so the result satisfies Y^T Y = m I.

    Returns (Y_ortho, transform, residual), where ``Y_raw @ transform`` is
    Y_ortho and ``residual`` is its ``ortho_residual``. A Gram matrix
    without a Cholesky factor is jittered once by ``_JITTER`` (relative to
    its mean eigenvalue). A single whitening pass is refined with a second
    one when rounding (or the jitter itself) leaves the Gram residual above
    ``_ORTHO_TOL * m``; batches whose outputs are genuinely rank-deficient
    cannot be whitened and raise NumericalError.
    """
    Y_raw = np.asarray(Y_raw, dtype=np.float64)
    m, g = Y_raw.shape
    if m < g:
        raise InputError(
            f"need at least {g} points to orthogonalize {g} outputs, got {m}"
        )
    transform = _whitening_map(Y_raw.T @ Y_raw, m)
    Y = Y_raw @ transform
    residual = ortho_residual(Y, m)
    # Written so that a NaN residual (a NaN or infinite output) fails too.
    if not residual <= _ORTHO_TOL * m:
        second = _whitening_map(Y.T @ Y, m)
        transform = transform @ second
        Y = Y_raw @ transform
        residual = ortho_residual(Y, m)
        if not residual <= _ORTHO_TOL * m:
            raise NumericalError(
                "batch outputs are rank-deficient or non-finite; whitening "
                f"residual {residual:.3e} exceeds {_ORTHO_TOL * m:.3e}"
            )
    return Y, transform, residual


class Laplacian:
    """M = diag(degrees) - A, degrees the row sums of a square float64 A; apply(Y) = M Y."""

    def __init__(self, affinity):
        affinity = np.asarray(affinity, dtype=np.float64)
        if affinity.ndim != 2 or affinity.shape[0] != affinity.shape[1]:
            raise InputError(f"affinity must be a square matrix, got {affinity.shape}")
        self.affinity = affinity
        self.degrees = affinity.sum(axis=1)

    def apply(self, Y):
        return self.degrees[:, None] * Y - self.affinity @ Y


def spectral_loss(laplacian, Y):
    """Laplacian quadratic form (1/m^2) sum_ij a_ij ||y_i - y_j||^2.

    Computed in trace form with the batch ``Laplacian`` M:
    loss = (2/m^2) tr(Y^T M Y), gradient (4/m^2) M Y.
    Returns (loss, grad_Y).
    """
    Y = np.asarray(Y, dtype=np.float64)
    m = Y.shape[0]
    size = len(laplacian.degrees)
    if size != m:
        raise InputError(f"affinity ({size}, {size}) does not match batch of {m}")
    MY = laplacian.apply(Y)
    loss = max(float((Y * MY).sum()) * 2.0 / (m * m), 0.0)
    grad = (4.0 / (m * m)) * MY
    return loss, grad


@dataclass
class SpectralModel:
    net: Mlp
    transform: np.ndarray  # (g, g) whitening map fitted on all n points
    loss_history: list = field(default_factory=list)
    ortho_residuals: list = field(default_factory=list)
    config: SpectralConfig = None
    selected_restart: int = 0


def _whitened_loss(out, laplacian):
    """Loss of the whitened batch output and its exact gradient in ``out``.

    With Y = out @ T whitened so that Y^T Y = m I, the loss equals
    (2/m) tr(G^-1 P) for G = out^T out, P = out^T M out and the batch
    ``laplacian`` M, whatever the choice of T. Its gradient
    in ``out`` is (grad_Y - Y (Y^T grad_Y) / m) T^T, which equals
    (4/m)(M out G^-1 - out G^-1 P G^-1) because T T^T = m G^-1.
    Returns (loss, grad_out, whitening residual).
    """
    Y, transform, residual = orthogonalize(out)
    loss, grad_Y = spectral_loss(laplacian, Y)
    grad_out = (grad_Y - Y @ (Y.T @ grad_Y) / Y.shape[0]) @ transform.T
    return loss, grad_out, residual


_SELECTION_TAIL = 10  # gradient losses averaged when ranking restarts


def train_spectralnet(features, graph, config: SpectralConfig, rng):
    """Train on the whitened Laplacian loss, one batch per step.

    ``features`` is the (n, d) matrix the net reads; ``config.features`` is
    not read here. Only ``run_pipeline`` acts on ``"twin"``, by passing the
    twin embedding, so a direct call trains on the features it is given.
    ``graph(rows)`` returns the ``Laplacian`` of the feature rows ``rows``,
    an integer index array; ``spectral_loss`` refuses one of another size
    with InputError.

    Each of the ``total_steps // 2`` steps (a step counts as one whitening
    plus one gradient update) takes one batch: every row in natural order
    when the batch size equals the dataset size, otherwise m distinct rows
    drawn from ``rng``. It runs the net once over the batch, whitens that
    output (``orthogonalize``), takes ``spectral_loss`` on the batch
    Laplacian and backpropagates the exact gradient of the whitened loss,
    whitening map included (``_whitened_loss``). When the batch is the whole
    dataset, ``graph`` is called once, on ``np.arange(n)``, and every step
    reuses that Laplacian; otherwise it is called once per step, on the
    drawn rows. A final whitening after the last update
    fits the stored map to the trained weights on all n rows, the rows
    ``embed`` maps, so their embedding is white.

    With ``restarts > 1``, that many nets train on generators seeded by
    consecutive 63-bit draws from ``rng``, and the one with the lowest mean
    over its last ten losses wins (ties to the earliest). A single restart
    trains directly on ``rng``. ``learning_rate_schedule="cosine"`` decays
    the step size to zero across the run.

    The body trains in float32: the features and each fresh ``Mlp.init`` net
    are cast once (the generator draws are unchanged), and every forward
    pass, backward pass and Adam update runs in float32. Each step's output
    is widened to float64 for the whitening, the loss and the gradient
    through the whitening map, which ``backward`` casts back. The returned
    net is widened to float64, exactly, and the stored map is fitted with it
    on the float64 features, so ``embed`` reproduces it. Features are
    expected at standardized scale; a value that is NaN, infinite or beyond
    float32's range (about 3.4e38) raises InputError before any
    training. The steps run under ``np.errstate(over="raise",
    invalid="raise")``: a step that overflows or makes a NaN, or whose
    outputs cannot be whitened, raises NumericalError naming the step (and
    the restart, when there are several).
    """
    config.validate()
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    m = config.batch_size
    if n < m:
        raise InputError(f"dataset has {n} points, batch size is {m}")
    narrow = finite_float32(features)

    whole = graph(np.arange(n)) if m == n else None

    sizes = [features.shape[1], *config.hidden_sizes, config.n_clusters]
    half_steps = config.total_steps // 2

    def train_once(run_rng, restart):
        net = Mlp.init(
            sizes, config.activation, seed=int(run_rng.integers(0, 2**63 - 1))
        ).astype(np.float32)
        optimizer = Adam(net, learning_rate=config.learning_rate)
        loss_history = []
        ortho_residuals = []
        # A diverging net fails the step whose overflow or NaN first shows it.
        with np.errstate(over="raise", invalid="raise"):
            for step in range(half_steps):
                if config.learning_rate_schedule == "cosine":
                    # A Python float, so the float32 update stays in float32.
                    optimizer.learning_rate = float(
                        config.learning_rate
                        * 0.5
                        * (1.0 + np.cos(np.pi * step / half_steps))
                    )
                if whole is not None:
                    batch, laplacian = narrow, whole
                else:
                    idx = run_rng.choice(n, size=m, replace=False)
                    batch, laplacian = narrow[idx], graph(idx)
                try:
                    out, cache = net.forward(batch)
                    loss, grad_out, residual = _whitened_loss(
                        out.astype(np.float64), laplacian
                    )
                    net.backward(cache, grad_out, out=optimizer.grads)
                    optimizer.step(net)
                except (FloatingPointError, NumericalError) as err:
                    where = f"step {step + 1} of {half_steps}"
                    if config.restarts > 1:
                        where += f" of restart {restart + 1} of {config.restarts}"
                    raise NumericalError(
                        f"spectral training failed at {where}: {err}"
                    ) from None
                loss_history.append(loss)
                ortho_residuals.append(residual)

        # The last update left the stored map stale; refit it once more, with
        # the float64 net that embed() will run, on every point it will map.
        net = net.astype(np.float64)
        _, transform, residual = orthogonalize(net.predict(features))
        ortho_residuals.append(residual)
        return net, transform, loss_history, ortho_residuals

    if config.restarts == 1:
        candidates = [train_once(rng, 0)]
    else:
        seeds = [int(rng.integers(0, 2**63 - 1)) for _ in range(config.restarts)]
        candidates = [
            train_once(np.random.default_rng(s), r) for r, s in enumerate(seeds)
        ]
    selected = int(np.argmin([np.mean(c[2][-_SELECTION_TAIL:]) for c in candidates]))

    net, transform, loss_history, ortho_residuals = candidates[selected]
    return SpectralModel(
        net=net,
        transform=transform,
        loss_history=loss_history,
        ortho_residuals=ortho_residuals,
        config=config,
        selected_restart=selected,
    )


def embed(model: SpectralModel, features):
    """Spectral embedding of feature rows: the net's output through the map.

    ``features`` are read as the net was trained to read them, the same
    kind of rows that were handed to ``train_spectralnet``.
    """
    return model.net.predict(features) @ model.transform
