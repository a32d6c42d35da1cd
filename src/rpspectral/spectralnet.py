"""Spectral embedding network with batch orthogonalization.

The network maps points to a g-dimensional embedding trained to minimize the
graph Laplacian quadratic form over batch affinities, subject to the batch
outputs being orthonormal. Each training step whitens the raw outputs of one
batch with a Cholesky factor of their Gram matrix and follows the exact
gradient of the whitened loss, whitening map included, back into the
network weights.

The network body trains in float32: its forward pass, backward pass and
Adam update. Each step's raw output is widened to float64 before whitening,
so the Gram matrix, the Cholesky whitening and its residual check, the loss
on the float64 affinity and the gradient through the whitening map are all
float64. The trained net is handed back widened to float64, exactly, and the
stored whitening map is fitted with it. Float32 keeps about seven
significant digits, so inputs are expected at standardized scale, as for
the twin.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    BadArchitecture,
    BatchTooSmall,
    NonFiniteInput,
    ShapeMismatch,
    SingularGram,
)
from .mlp import ACTIVATIONS, Adam, Mlp, finite_float32
from .serialize import read_json, section_from_dict, write_json
from .siamese import heat_kernel, pairwise_distances

_ORTHO_TOL = 1e-6  # relative Frobenius tolerance on Y^T Y = m I
# Diagonal bump, relative to the mean Gram eigenvalue, tried once when a
# batch Gram matrix has no Cholesky factor.
_JITTER = 1e-6


@dataclass(frozen=True)
class SpectralConfig:
    n_clusters: int
    batch_size: int = 64
    total_steps: int = 1024
    hidden_sizes: tuple = (128, 128)
    activation: str = "relu"
    learning_rate: float = 1e-3
    learning_rate_schedule: str = "constant"  # or "cosine" (decay to zero)
    restarts: int = 1  # train this many nets, keep the lowest-loss one
    features: str = "raw"  # or "twin": body consumes the twin embedding

    def validate(self):
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be at least 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.batch_size < self.n_clusters:
            raise ValueError(
                "batch_size must be at least n_clusters "
                f"({self.batch_size} < {self.n_clusters})"
            )
        if self.total_steps < 2 or self.total_steps % 2 != 0:
            raise ValueError("total_steps must be even and at least 2")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.learning_rate_schedule not in ("constant", "cosine"):
            raise ValueError(
                f"unknown learning_rate_schedule {self.learning_rate_schedule!r}"
            )
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.features not in ("raw", "twin"):
            raise ValueError(f"unknown features mode {self.features!r}")


@dataclass(frozen=True)
class OrthoMap:
    """Linear map that whitens the batch it was fitted on: Y^T Y = m I."""

    transform: np.ndarray  # (g, g)
    batch_size: int


def _whitening_map(gram, m, jitter):
    """sqrt(m) * L^-T from a Cholesky factor, jittering once if needed."""
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        if jitter <= 0:
            raise SingularGram("batch Gram matrix is not positive definite")
        g = gram.shape[0]
        bump = jitter * np.trace(gram) / g
        try:
            L = np.linalg.cholesky(gram + bump * np.eye(g))
        except np.linalg.LinAlgError:
            raise SingularGram(
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


def orthogonalize(Y_raw, jitter=_JITTER):
    """Whiten a batch of raw outputs so the result satisfies Y^T Y = m I.

    Returns (Y_ortho, OrthoMap). A single whitening pass is refined with a
    second one when rounding (or the jitter itself) leaves the Gram residual
    above tolerance; batches whose outputs are genuinely rank-deficient
    cannot be whitened and raise SingularGram.
    """
    Y, ortho_map, _ = _orthogonalize(Y_raw, jitter)
    return Y, ortho_map


def _orthogonalize(Y_raw, jitter=_JITTER):
    """``orthogonalize``, also returning ``ortho_residual`` of its output."""
    Y_raw = np.asarray(Y_raw, dtype=np.float64)
    m, g = Y_raw.shape
    if m < g:
        raise BatchTooSmall(
            f"need at least {g} points to orthogonalize {g} outputs, got {m}"
        )
    transform = _whitening_map(Y_raw.T @ Y_raw, m, jitter)
    Y = Y_raw @ transform
    residual = ortho_residual(Y, m)
    # Written so that a NaN residual (a NaN or infinite output) fails too.
    if not residual <= _ORTHO_TOL * m:
        second = _whitening_map(Y.T @ Y, m, jitter)
        transform = transform @ second
        Y = Y_raw @ transform
        residual = ortho_residual(Y, m)
        if not residual <= _ORTHO_TOL * m:
            raise SingularGram(
                "batch outputs are rank-deficient or non-finite; whitening "
                f"residual {residual:.3e} exceeds {_ORTHO_TOL * m:.3e}"
            )
    return Y, OrthoMap(transform=transform, batch_size=m), residual


def spectral_loss(affinity, Y, degrees=None):
    """Laplacian quadratic form (1/m^2) sum_ij a_ij ||y_i - y_j||^2.

    Computed in trace form with M = diag(row sums) - A:
    loss = (2/m^2) tr(Y^T M Y), gradient (4/m^2) M Y.
    ``degrees``, the row sums ``affinity.sum(axis=1)``, are computed here
    unless a caller that reuses one affinity passes them in.
    Returns (loss, grad_Y).
    """
    affinity = np.asarray(affinity, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    m = Y.shape[0]
    if affinity.shape != (m, m):
        raise ShapeMismatch(
            f"affinity {affinity.shape} does not match batch of {m}"
        )
    if degrees is None:
        degrees = affinity.sum(axis=1)
    elif np.shape(degrees) != (m,):
        raise ShapeMismatch(
            f"degrees {np.shape(degrees)} do not match batch of {m}"
        )
    MY = degrees[:, None] * Y - affinity @ Y
    loss = max(float((Y * MY).sum()) * 2.0 / (m * m), 0.0)
    grad = (4.0 / (m * m)) * MY
    return loss, grad


@dataclass
class SpectralModel:
    net: Mlp
    ortho: OrthoMap
    final_batch: np.ndarray
    loss_history: list = field(default_factory=list)
    ortho_residuals: list = field(default_factory=list)
    config: SpectralConfig = None
    twin: Mlp = None  # frozen feature net, consulted when features="twin"
    selected_restart: int = 0


def _whitened_loss(out, affinity, jitter=_JITTER, degrees=None):
    """Loss of the whitened batch output and its exact gradient in ``out``.

    With Y = out @ T whitened so that Y^T Y = m I, the loss equals
    (2/m) tr(G^-1 P) for G = out^T out, P = out^T M out and the batch
    Laplacian M = diag(row sums) - A, whatever the choice of T. Its gradient
    in ``out`` is (grad_Y - Y (Y^T grad_Y) / m) T^T, which equals
    (4/m)(M out G^-1 - out G^-1 P G^-1) because T T^T = m G^-1.
    Returns (loss, grad_out, whitening residual).
    """
    Y, ortho_map, residual = _orthogonalize(out, jitter)
    loss, grad_Y = spectral_loss(affinity, Y, degrees)
    grad_out = (grad_Y - Y @ (Y.T @ grad_Y) / Y.shape[0]) @ ortho_map.transform.T
    return loss, grad_out, residual


_SELECTION_TAIL = 10  # gradient losses averaged when ranking restarts


def train_spectralnet(X, twin_net, bandwidth, config: SpectralConfig, rng):
    """Train on the whitened Laplacian loss, one batch per step.

    Each of the ``total_steps // 2`` steps (a step counts as one whitening
    plus one gradient update) takes one batch: every row in natural order
    when the batch size equals the dataset size, otherwise m distinct rows
    drawn from ``rng``. It runs the net once over the batch, whitens that
    output (``_orthogonalize``), takes ``spectral_loss`` on the batch
    affinity and backpropagates the exact gradient of the whitened loss,
    whitening map included (``_whitened_loss``). A final whitening after the
    last update fits the stored map to the trained weights, on the whole
    dataset or on one more drawn batch; that batch is ``final_batch``.

    Affinities come from the frozen twin network: embed the points, take
    pairwise distances, apply the heat kernel at the supplied bandwidth. The
    full n x n affinity is built once and cached whenever n * n <= 16M, and
    always when the batch is the whole dataset; otherwise each batch builds
    its own.

    The body network consumes raw coordinates by default; with
    ``features="twin"`` it consumes the frozen twin's embedding instead
    (the affinity is built from twin distances either way).

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
    on the float64 features, so ``embed`` reproduces it. Inputs are expected
    at standardized scale. An input or twin-feature value that is NaN,
    infinite or beyond float32's range (about 3.4e38), or a non-finite value
    in the twin embedding that builds the affinity, raises NonFiniteInput
    before any training.
    """
    config.validate()
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    m = config.batch_size
    if n < m:
        raise BatchTooSmall(f"dataset has {n} points, batch size is {m}")

    # The input is checked with twin features too: a tanh twin maps an
    # infinite input to a finite embedding.
    narrow = finite_float32(X)

    # The twin net is frozen, so its embedding of the dataset never changes;
    # compute it once. For datasets small enough to hold an n x n matrix the
    # full affinity is also cached and batches just slice it; when the batch
    # is the whole dataset, every step uses it as it stands.
    Z_full = twin_net.predict(X)
    features = X
    if config.features == "twin":
        features = Z_full
        narrow = finite_float32(Z_full, "twin feature")
    if not np.isfinite(Z_full).all():
        raise NonFiniteInput("the twin embedding holds NaN or infinite values")
    full_batch = m == n
    affinity_full = degrees_full = None
    if full_batch or n * n <= 16_000_000:
        affinity_full = heat_kernel(pairwise_distances(Z_full), bandwidth)
    if full_batch:
        degrees_full = affinity_full.sum(axis=1)

    def batch_affinity(idx):
        if affinity_full is not None:
            return affinity_full[np.ix_(idx, idx)]
        return heat_kernel(pairwise_distances(Z_full[idx]), bandwidth)

    sizes = [features.shape[1], *config.hidden_sizes, config.n_clusters]
    half_steps = config.total_steps // 2

    def train_once(run_rng):
        net = Mlp.init(
            sizes, config.activation, seed=int(run_rng.integers(0, 2**63 - 1))
        ).astype(np.float32)
        optimizer = Adam(net, learning_rate=config.learning_rate)
        loss_history = []
        ortho_residuals = []
        for step in range(half_steps):
            if config.learning_rate_schedule == "cosine":
                # A Python float, so the float32 update stays in float32.
                optimizer.learning_rate = float(
                    config.learning_rate
                    * 0.5
                    * (1.0 + np.cos(np.pi * step / half_steps))
                )
            if full_batch:
                batch, affinity = narrow, affinity_full
            else:
                idx = run_rng.choice(n, size=m, replace=False)
                batch, affinity = narrow[idx], batch_affinity(idx)
            out, cache = net.forward(batch)
            loss, grad_out, residual = _whitened_loss(
                out.astype(np.float64), affinity, degrees=degrees_full
            )
            grads = net.backward(cache, grad_out)
            optimizer.step(net, grads)
            loss_history.append(loss)
            ortho_residuals.append(residual)

        # The last update left the stored map stale; refit it once more, with
        # the float64 net that embed() will run.
        net = net.astype(np.float64)
        if full_batch:
            final_idx = np.arange(n)
        else:
            final_idx = run_rng.choice(n, size=m, replace=False)
        Y_raw = net.predict(features[final_idx])
        _, ortho_map, residual = _orthogonalize(Y_raw)
        ortho_residuals.append(residual)
        return net, ortho_map, final_idx, loss_history, ortho_residuals

    if config.restarts == 1:
        candidates = [train_once(rng)]
        selected = 0
    else:
        seeds = [
            int(rng.integers(0, 2**63 - 1)) for _ in range(config.restarts)
        ]
        candidates = [train_once(np.random.default_rng(s)) for s in seeds]
        tails = [
            float(np.mean(c[3][-_SELECTION_TAIL:])) for c in candidates
        ]
        selected = int(np.argmin(tails))

    net, ortho_map, final_idx, loss_history, ortho_residuals = candidates[
        selected
    ]
    return SpectralModel(
        net=net,
        ortho=ortho_map,
        final_batch=np.asarray(final_idx, dtype=np.int64),
        loss_history=loss_history,
        ortho_residuals=ortho_residuals,
        config=config,
        twin=twin_net,
        selected_restart=selected,
    )


def embed(model: SpectralModel, X):
    """Spectral embedding of arbitrary points through the stored map."""
    X = np.asarray(X, dtype=np.float64)
    if model.config is not None and model.config.features == "twin":
        if model.twin is None:
            raise BadArchitecture(
                "model embeds twin features but carries no twin network"
            )
        X = model.twin.predict(X)
    out = model.net.predict(X)
    return out @ model.ortho.transform


def save_spectral_checkpoint(model: SpectralModel, path):
    payload = {
        "network": model.net.to_dict(),
        "transform": model.ortho.transform.tolist(),
        "batch_size": model.ortho.batch_size,
        "final_batch": model.final_batch.tolist(),
        "loss_history": model.loss_history,
        "ortho_residuals": model.ortho_residuals,
        "selected_restart": model.selected_restart,
        "config": asdict(model.config),
    }
    if model.config.features == "twin":
        # Twin-feature models cannot embed without the feature net; keep the
        # checkpoint self-contained by carrying it along.
        payload["twin"] = model.twin.to_dict()
    write_json(path, payload)


def load_spectral_checkpoint(path):
    payload = read_json(path)
    return SpectralModel(
        net=Mlp.from_dict(payload["network"]),
        ortho=OrthoMap(
            transform=np.asarray(payload["transform"], dtype=np.float64),
            batch_size=payload["batch_size"],
        ),
        final_batch=np.asarray(payload["final_batch"], dtype=np.int64),
        loss_history=list(payload["loss_history"]),
        ortho_residuals=list(payload["ortho_residuals"]),
        config=section_from_dict(SpectralConfig, "spectral", payload["config"]),
        twin=Mlp.from_dict(payload["twin"]) if "twin" in payload else None,
        selected_restart=payload.get("selected_restart", 0),
    )
