"""Contrastive twin network and distance-to-affinity conversion.

One shared-parameter network, ReLU between its layers, embeds both sides of
every pair. Positive pairs are pulled together (squared distance), negative
pairs pushed past a fixed margin of ``_MARGIN`` (hinge on the plain
distance). Embedding distances then feed a heat kernel whose bandwidth is
the median positive-pair distance.

The twin trains in float32 and is handed back widened to float64, exactly;
everything after training (distances, bandwidth, kernel) computes in
float64. Float32 keeps about seven significant digits, so inputs
are expected at standardized scale: a large constant offset in a feature
costs the float32 copy its precision. The harness standardizes CSV input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, NumericalError
from .mlp import Adam, Mlp, block_rows, finite_float32

_MARGIN = 1.0  # distance past which a negative pair costs nothing
_NORM_FLOOR = 1e-12  # guards the distance gradient at coincident embeddings


@dataclass(frozen=True)
class SiameseConfig:
    # The graph, not the loss, sets this budget: the loss is flat by epoch
    # 10, and longer training made graphs whose own eigenvectors no longer
    # cluster (tests/test_twin_default.py keeps three such cases).
    epochs: int = 10
    batch_size: int = 128
    hidden_sizes: tuple = (128, 128)
    embedding_dim: int = 32
    learning_rate: float = 1e-3

    def validate(self):
        """Raise ConfigError naming the bad field; ExperimentConfig.validate adds the section."""
        if self.batch_size < 2:
            raise ConfigError("batch_size must be at least 2")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if any(width < 1 for width in self.hidden_sizes):
            raise ConfigError(
                f"hidden_sizes must be at least 1, got {self.hidden_sizes}"
            )
        if self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be at least 1")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")


def _contrastive_batch(Z1, Z2, positive_mask):
    """Mean loss over a pair batch and gradients of that mean wrt Z1, Z2."""
    diff = Z1 - Z2
    sq = (diff * diff).sum(axis=1)
    dist = np.sqrt(sq)
    m = len(Z1)

    losses = np.where(positive_mask, sq, np.maximum(_MARGIN - dist, 0.0))
    # d(mean)/dZ1: positive rows 2*diff/m, active negative rows -diff/(dist*m).
    coeff = np.where(
        positive_mask,
        2.0,
        np.where(dist < _MARGIN, -1.0 / np.maximum(dist, _NORM_FLOOR), 0.0),
    )
    G1 = diff * (coeff / m)[:, None]
    return float(losses.mean()), G1, -G1


def _twin_gradients(net, X, ends, positive_mask, slot, out=None):
    """Mean contrastive loss of one batch and its parameter gradients.

    ``ends`` holds the batch's left endpoints, then its right ones. The twin
    runs forward and backward once, over the distinct points they touch, and
    each point's gradient is the sum over its endpoints. ``slot`` is
    length-n integer scratch, overwritten: after ``slot[ends] = count``
    exactly one endpoint of each point reads its own position back, whichever
    duplicate write won, so the distinct points are found without a sort.
    The gradients are written into ``out`` as ``Mlp.backward`` writes them.
    """
    count = np.arange(len(ends))
    slot[ends] = count
    first = slot[ends] == count
    points = ends[first]
    slot[points] = np.arange(len(points))
    local = slot[ends]  # each endpoint's row among the distinct points

    Z, cache = net.forward(X[points])
    half = len(ends) // 2
    loss, G1, G2 = _contrastive_batch(Z[local[:half]], Z[local[half:]], positive_mask)
    G_ends = np.concatenate([G1, G2])
    # The first occurrences fill every row in order; only repeats scatter,
    # through flat indices row * width + column, which add the same values
    # in the same order as a 2-D scatter of whole rows, on numpy's faster
    # 1-D path.
    G = G_ends[first]
    repeat = ~first
    width = G.shape[1]
    flat = (local[repeat][:, None] * width + np.arange(width)).ravel()
    np.add.at(G.reshape(-1), flat, G_ends[repeat].reshape(-1))
    return loss, net.backward(cache, G, out=out)


def _check_indices(index_pairs, n):
    if index_pairs.size and (index_pairs.min() < 0 or index_pairs.max() >= n):
        raise InputError(f"pair indices outside 0..{n - 1}")


def train_siamese(X, pairs, config: SiameseConfig, rng):
    """Train the shared twin on a pair set; returns (net, epoch_loss_history).

    Every mini-batch holds equal positive and negative counts; the smaller
    polarity is resampled with replacement each epoch so batches stay
    balanced even on heavily skewed pair sets. Each step runs the twin once
    over the distinct points the batch's pairs touch and backpropagates the
    summed endpoint gradients once. Deterministic given the state of the
    generator ``rng``.

    The net and a copy of ``X`` are cast to float32 for training, and the
    net is returned widened to float64, which is exact; ``X`` is expected at
    standardized scale (see the module docstring). Before training starts,
    a value of ``X`` that is NaN, infinite or beyond float32's range (about
    3.4e38) raises InputError, as do pair indices outside ``0..len(X) - 1``
    and a pair set without both polarities. A diverging twin raises
    NumericalError, naming the step and epoch: at the first step whose
    loss, gradient or Adam update overflows or produces a NaN (training runs
    under ``np.errstate(over="raise", invalid="raise")``), and otherwise at
    the first epoch whose mean loss is NaN or infinite, or after the last
    one if a weight is.
    """
    config.validate()
    X = finite_float32(X)
    n_pos = len(pairs.positives)
    n_neg = len(pairs.negatives)
    if n_pos + n_neg == 0:
        raise InputError("no pairs to train on")
    if n_pos == 0 or n_neg == 0:
        missing = "positives" if n_pos == 0 else "negatives"
        raise InputError(f"pair set has no {missing}")
    _check_indices(pairs.positives, len(X))
    _check_indices(pairs.negatives, len(X))

    sizes = [X.shape[1], *config.hidden_sizes, config.embedding_dim]
    net = Mlp.init(sizes, seed=int(rng.integers(0, 2**63 - 1))).astype(np.float32)
    optimizer = Adam(net, learning_rate=config.learning_rate)

    half = config.batch_size // 2
    major = max(n_pos, n_neg)
    slot = np.empty(len(X), dtype=np.intp)
    # Positives first: one mask per batch length, a full batch's and the
    # shorter last one's.
    masks = {k: np.arange(2 * k) < k for k in (min(half, major), major % half or half)}
    history = []
    # An overflow or invalid operation is where a diverging twin first
    # shows; it fails the step it happens in, before Adam can hide an
    # infinite moment behind a zero update.
    with np.errstate(over="raise", invalid="raise"):
        for epoch in range(1, config.epochs + 1):
            pos_order = (
                rng.permutation(n_pos)
                if n_pos == major
                else rng.integers(0, n_pos, size=major)
            )
            neg_order = (
                rng.permutation(n_neg)
                if n_neg == major
                else rng.integers(0, n_neg, size=major)
            )
            pos_rows = np.take(pairs.positives, pos_order, axis=0)
            neg_rows = np.take(pairs.negatives, neg_order, axis=0)
            batch_losses = []
            for step, start in enumerate(range(0, major, half), 1):
                pos_batch = pos_rows[start : start + half]
                neg_batch = neg_rows[start : start + half]
                ends = np.concatenate(
                    [pos_batch[:, 0], neg_batch[:, 0], pos_batch[:, 1], neg_batch[:, 1]]
                )
                try:
                    loss, _ = _twin_gradients(
                        net, X, ends, masks[len(pos_batch)], slot, out=optimizer.grads
                    )
                    optimizer.step(net)
                except FloatingPointError as err:
                    raise NumericalError(
                        f"twin training diverged at step {step} of epoch {epoch} "
                        f"of {config.epochs}: {err}"
                    ) from None
                batch_losses.append(loss)
            history.append(float(np.mean(batch_losses)))
            if not np.isfinite(history[-1]):
                raise NumericalError(
                    f"twin loss is {history[-1]} in epoch {epoch} of {config.epochs}"
                )
    net = net.astype(np.float64)
    if not np.isfinite(net.params).all():
        raise NumericalError(
            f"twin weights are NaN or infinite after epoch {config.epochs}"
        )
    return net, history


def siamese_distances(Z, index_pairs):
    """Euclidean distance between the rows of each (i, j) pair of ``Z``.

    ``Z`` is an embedding, typically the twin's ``predict`` of the dataset.
    ``index_pairs`` must be an integer array of shape (k, 2); k = 0 gives an
    empty float64 array. Any other shape or a non-integer dtype raises
    InputError, as does an index outside ``0..len(Z) - 1``.
    The pairs are gathered and differenced in blocks of ``mlp.block_rows``
    of the embedding width, the same budget as ``Mlp.predict``'s row
    blocks, which gives the same bits as one pass over all of them, since
    each row's sum is its own.
    """
    Z = np.asarray(Z, dtype=np.float64)
    index_pairs = np.asarray(index_pairs)
    if (
        index_pairs.ndim != 2
        or index_pairs.shape[1] != 2
        or not np.issubdtype(index_pairs.dtype, np.integer)
    ):
        raise InputError(
            f"pair indices must be integers of shape (k, 2), got "
            f"{index_pairs.dtype} of shape {index_pairs.shape}"
        )
    _check_indices(index_pairs, len(Z))
    distances = np.empty(len(index_pairs))
    step = block_rows(Z.shape[1])
    for start in range(0, len(index_pairs), step):
        block = index_pairs[start : start + step]
        diff = Z[block[:, 0]] - Z[block[:, 1]]
        diff *= diff
        np.sqrt(diff.sum(axis=1), out=distances[start : start + len(block)])
    return distances


def select_bandwidth(distances):
    """Median heat-kernel bandwidth from a distance sample.

    Falls back to the smallest nonzero distance when the median is zero;
    raises InputError when nothing nonzero exists to set a scale, or when
    the sample holds NaN or infinite distances (a diverged twin), which
    would otherwise poison the median.
    """
    distances = np.asarray(distances, dtype=np.float64).ravel()
    if distances.size == 0:
        raise InputError("empty distance sample")
    bad = distances.size - int(np.count_nonzero(np.isfinite(distances)))
    if bad:
        raise InputError(
            f"{bad} of {distances.size} distance(s) are NaN or infinite"
        )
    # np.median's value from one np.partition: the middle value, or for an
    # even count the mean of the two middle values, the lower of which is
    # the largest value before the middle. np.median imports numpy.ma
    # (numpy 2.4), which nothing else here needs.
    half = distances.size // 2
    part = np.partition(distances, half)
    median = float(part[half] if distances.size % 2 else (part[:half].max() + part[half]) / 2)
    if median > 0:
        return median
    nonzero = distances[distances > 0]
    if nonzero.size == 0:
        raise InputError("all distances are zero")
    return float(nonzero.min())


def pairwise_distances(Z):
    """Dense symmetric Euclidean distance matrix with an exact zero diagonal."""
    Z = np.asarray(Z, dtype=np.float64)
    sq = (Z * Z).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (Z @ Z.T)
    np.maximum(d2, 0.0, out=d2)
    d = np.sqrt(d2)
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return d


def heat_kernel(distances, bandwidth):
    """Affinities exp(-d^2 / (2 bandwidth^2)) with a zero diagonal.

    The exponent is negated so similarity decays with distance, which is what
    a similarity kernel must do.
    """
    if bandwidth <= 0:
        raise InputError(f"bandwidth must be positive, got {bandwidth}")
    distances = np.asarray(distances, dtype=np.float64)
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise InputError(f"distance matrix must be square, got {distances.shape}")
    A = np.exp(-(distances**2) / (2.0 * bandwidth**2))
    np.fill_diagonal(A, 0.0)
    return A
