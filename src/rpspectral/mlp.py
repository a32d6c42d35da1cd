"""Minimal multilayer perceptron: forward pass, manual backprop, Adam.

Shared by the contrastive twin and the spectral embedding network. A net
computes in the dtype of its weights (float64 unless cast with ``astype``):
the forward pass, the backward pass and Adam's buffers all follow it. No
autodiff; gradients are hand-derived and verified by finite differences in
the test suite.

Every weight and bias of a net is a view into one flat parameter vector,
``Mlp.params``, laid out layer by layer, weights before biases. ``Adam``
keeps its gradient and moments in flat buffers of the same layout:
``backward`` writes each layer's gradient straight into the optimizer's
buffer, and a step updates the parameter vector with one op per stage of
the update. A training step allocates only batch-sized arrays: the
activations ``forward`` caches and the products ``backward`` carries down
the layers, never a parameter-sized buffer.

A net runs a batch in one of two ways. ``forward`` keeps every layer's
input and output, which ``backward`` needs; training uses it. ``predict``
keeps nothing and returns only the output; every pass that needs no
gradient uses it. It runs the batch in row blocks of ``block_rows(widest
layer)``, so besides its (n, output) result it holds two activations of at
most ``_BLOCK_FLOATS`` (2^16) values, 512 KiB in float64, at any n; a
128-wide layer's array over all of 10k points would take 10 MB.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

ACTIVATIONS = ("relu", "tanh", "identity")
# Adam's moment decay rates and the denominator's guard.
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
# Values per block in a pass over many rows: 512 rows of a 128-wide layer.
# Every workload of at most 512 points runs predict as one block.
_BLOCK_FLOATS = 1 << 16


def block_rows(width):
    """Rows per block when each row holds ``width`` values."""
    return max(1, _BLOCK_FLOATS // width)


def _activate(name, z, out=None):
    """The activation of z, written into ``out`` when one is given."""
    if name == "relu":
        return np.maximum(z, 0.0, out=out)
    if name == "tanh":
        return np.tanh(z, out=out)
    return z


def _layer_pass(layer, a):
    """One layer's output for input rows ``a``, in a fresh array.

    The bias and the activation are applied in place to the product, which
    gives the same bits as ``activation(a @ W + b)``.
    """
    z = a @ layer.weights
    z += layer.biases
    return _activate(layer.activation, z, out=z)


def _through_activation(name, upstream, a, out=None):
    """upstream times the activation's derivative, in upstream's dtype.

    The derivative is read from the layer's output ``a``. ReLU's mask is
    a > 0, which holds exactly where the pre-activation is positive
    (subgradient 0 at the kink); it multiplies as a boolean, which keeps the
    dtype where a float mask would fix it. tanh's derivative is 1 - a^2. The
    product is written into ``out`` when one is given.
    """
    if name == "relu":
        return np.multiply(upstream, a > 0.0, out=out)
    if name == "tanh":
        return np.multiply(upstream, 1.0 - a * a, out=out)
    return upstream


def _layer_views(flat, layers):
    """Per-layer (weights, biases) views of ``flat``, laid out as ``Mlp.params``."""
    views, start = [], 0
    for layer in layers:
        pair = []
        for shape in (layer.weights.shape, layer.biases.shape):
            size = math.prod(shape)
            pair.append(flat[start : start + size].reshape(shape))
            start += size
        views.append(tuple(pair))
    return views


def finite_float32(values, what="input"):
    """``values`` cast to float32 for a float32 net to train on.

    Raises InputError, naming ``what``, if any value is NaN, infinite
    or beyond float32's range (about 3.4e38), where the cast overflows.
    """
    with np.errstate(over="ignore"):  # an overflowing value is reported below
        values = np.asarray(values, dtype=np.float32)
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise InputError(
            f"{bad} {what} value(s) are NaN, infinite or beyond float32 range"
        )
    return values


class Layer:
    __slots__ = ("weights", "biases", "activation")

    def __init__(self, weights, biases, activation):
        self.weights = weights
        self.biases = biases
        self.activation = activation


class Mlp:
    """Stack of affine-plus-activation layers with hand-written gradients.

    ``Mlp(layers)`` copies the layers' weights and biases into one fresh flat
    vector, ``params``, and holds new layers whose arrays are views of it;
    the caller's arrays are not kept. Writing a layer's weights in place
    writes ``params``. A copy (``copy.deepcopy``, ``pickle``) is rebuilt the
    same way, so it owns its own vector.
    """

    def __init__(self, layers):
        self.params = np.concatenate(
            [p.ravel() for l in layers for p in (l.weights, l.biases)]
        )
        views = _layer_views(self.params, layers)
        self.layers = [
            Layer(weights, biases, layer.activation)
            for (weights, biases), layer in zip(views, layers)
        ]

    def __reduce__(self):
        return Mlp, (self.layers,)

    @classmethod
    def init(cls, layer_sizes, activation="relu", seed=0):
        """Fresh network with scaled-uniform weights and zero biases.

        Hidden layers use ``activation``; the final layer is always linear.
        The uniform scale is sqrt(6 / (fan_in + fan_out)).
        """
        if len(layer_sizes) < 2:
            raise InputError("need at least input and output sizes")
        if any(s < 1 for s in layer_sizes):
            raise InputError(f"zero-width layer in {layer_sizes}")
        if activation not in ACTIVATIONS:
            raise InputError(f"unknown activation {activation!r}")
        rng = np.random.default_rng(seed)
        layers = []
        last = len(layer_sizes) - 2
        for i, (fan_in, fan_out) in enumerate(zip(layer_sizes, layer_sizes[1:])):
            scale = np.sqrt(6.0 / (fan_in + fan_out))
            weights = rng.uniform(-scale, scale, size=(fan_in, fan_out))
            layers.append(
                Layer(weights, np.zeros(fan_out), activation if i < last else "identity")
            )
        return cls(layers)

    def astype(self, dtype):
        """A copy of the net with weights and biases cast to ``dtype``."""
        return Mlp(
            [
                Layer(l.weights.astype(dtype), l.biases.astype(dtype), l.activation)
                for l in self.layers
            ]
        )

    @property
    def dtype(self):
        return self.params.dtype

    @property
    def input_dim(self):
        return self.layers[0].weights.shape[0]

    @property
    def output_dim(self):
        return self.layers[-1].weights.shape[1]

    def _as_batch(self, batch):
        """``batch`` cast to the weights' dtype, checked to feed the net."""
        batch = np.asarray(batch, dtype=self.dtype)
        if batch.ndim != 2 or batch.shape[1] != self.input_dim:
            raise InputError(
                f"batch shape {batch.shape} does not feed a {self.input_dim}-wide net"
            )
        return batch

    def forward(self, batch):
        """Run a batch through the net; returns (output, cache).

        The batch is cast to the weights' dtype. The cache holds each
        layer's input and output and is what backward() consumes; it keeps
        two arrays per layer alive, so a pass that needs no gradient calls
        ``predict`` instead.
        """
        cache = []
        a = self._as_batch(batch)
        for layer in self.layers:
            out = _layer_pass(layer, a)
            cache.append((a, out))
            a = out
        return a, cache

    def predict(self, batch):
        """The net's output for a batch, keeping no cache for ``backward``.

        Casts and checks the batch as ``forward`` does. The rows run in
        blocks of ``block_rows`` of the widest layer, each written into one
        preallocated output; within a block each layer's activation is
        applied in place to its fresh affine output, so at most one layer's
        input and output block are alive. The caller's batch is never
        written.

        On a batch of at most one block the result is exactly
        ``forward(batch)[0]``; on a larger one it is exactly ``forward``
        applied block by block, rows concatenated. That equals one
        ``forward`` over the whole batch wherever the BLAS product's bits do
        not depend on the number of rows. OpenBLAS picks its kernel by
        shape, and on narrow outputs (128 -> 2, 3, 4 and 32 -> 2, 4, seen
        at 10k-40k rows) the last bits can differ, by up to 1.6e-15 seen;
        the result is still deterministic. Wider outputs and every hidden
        layer matched.
        """
        batch = self._as_batch(batch)
        rows = block_rows(max(layer.weights.shape[1] for layer in self.layers))
        out = np.empty((len(batch), self.output_dim), dtype=self.dtype)
        for start in range(0, len(batch), rows):
            a = batch[start : start + rows]
            for layer in self.layers:
                a = _layer_pass(layer, a)
            out[start : start + rows] = a
        return out

    def backward(self, cache, output_grad, out=None):
        """Backpropagate a loss gradient through a cached forward pass.

        The gradient is cast to the weights' dtype. Each layer's (dW, db) is
        written into ``out``, a list of per-layer (dW, db) arrays congruent
        with the layers, such as ``Adam.grads``; when ``out`` is not given,
        one flat buffer laid out as ``params`` is allocated and viewed that
        way. Returns ``out``. Each activation's derivative is applied in
        place to the product that carries the gradient into that layer, which
        backward owns; the output gradient handed in is never written. The
        gradient in the batch itself is not computed: no caller trains the
        input.

        Each db is ``np.einsum("ij->j", dz)``, which adds the rows in order,
        as ``dz.sum(axis=0)`` does on a layer at least two wide, in about
        half the time (a one-wide layer's column is summed pairwise by
        ``sum``, so its last bits can differ). einsum does not report an
        overflow to ``np.errstate``: an overflowing bias sum is inf, and the
        Adam step it feeds fails on it (inf / inf is invalid), so a net that
        diverges there still fails in that training step.
        """
        output_grad = np.asarray(output_grad, dtype=self.dtype)
        if output_grad.shape != cache[-1][1].shape:
            raise InputError(
                f"output grad {output_grad.shape} vs output {cache[-1][1].shape}"
            )
        if out is None:
            out = _layer_views(np.empty_like(self.params), self.layers)
        upstream = output_grad
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            a_in, a_out = cache[i]
            dW, db = out[i]
            owned = None if upstream is output_grad else upstream
            dz = _through_activation(layer.activation, upstream, a_out, out=owned)
            np.matmul(a_in.T, dz, out=dW)
            np.einsum("ij->j", dz, out=db)
            if i:
                upstream = dz @ layer.weights.T
        return out


class Adam:
    """Adaptive-moment optimizer with bias correction, over flat parameters.

    The gradient, each moment and two scratch buffers are one flat vector
    each, laid out as the net's ``params``; ``grads``, ``m`` and ``v`` are
    per-layer (dW, db) views of the gradient and the moments.
    ``net.backward(cache, output_grad, out=optimizer.grads)`` writes a
    step's gradient in place, and ``step`` runs each stage of the update as
    one ufunc call over the whole vector, so a step allocates nothing and
    its cost does not grow with the number of parameter arrays. The buffers
    take the parameters' dtype, so a float32 net is updated in float32. The
    moments decay at ``_BETA1`` = 0.9 and ``_BETA2`` = 0.999, and ``_EPS`` =
    1e-8 guards the update's denominator.
    """

    def __init__(self, net, learning_rate=1e-3):
        self.learning_rate = learning_rate
        self.step_count = 0
        size, dtype = net.params.size, net.dtype
        self._m, self._v = np.zeros(size, dtype), np.zeros(size, dtype)
        # The gradient and two scratch buffers hold the update's
        # intermediates, so a step allocates nothing.
        self._grad, self._a, self._b = (np.empty(size, dtype) for _ in range(3))
        self._tiny, self._normal = np.finfo(dtype).tiny, np.empty(size, bool)
        self.m = _layer_views(self._m, net.layers)
        self.v = _layer_views(self._v, net.layers)
        self.grads = _layer_views(self._grad, net.layers)

    def step(self, net):
        """Apply one update to ``net.params`` in place; increments the counter.

        The gradient is ``self.grads``, which ``backward`` fills. A net of
        another size is refused before anything changes, so a rejected step
        leaves the parameters, the moments and the counter as they were.
        The update is lr * (m / c1) / (sqrt(v / c2) + _EPS), with c1, c2 the
        bias corrections, and m is flushed to zero where it falls below the
        dtype's smallest normal number.
        """
        if net.params.shape != self._grad.shape:
            raise InputError(
                f"net has {net.params.size} parameters, optimizer {self._grad.size}"
            )
        self.step_count += 1
        t = self.step_count
        correction1 = 1.0 - _BETA1**t
        correction2 = 1.0 - _BETA2**t
        g, m, v, a, b = self._grad, self._m, self._v, self._a, self._b
        m *= _BETA1
        np.multiply(1.0 - _BETA1, g, out=a)
        m += a
        # Where the gradient stays zero (a dead ReLU unit), m decays by _BETA1
        # into the subnormal range and sticks there, since _BETA1 * x rounds
        # back to x for the smallest subnormals; every later step would take
        # the processor's slow subnormal path on it. In float32 this starts
        # ~800 steps after the unit dies. Flushing to 0 changes no normal value.
        np.abs(m, out=a)
        np.greater_equal(a, self._tiny, out=self._normal)
        m *= self._normal
        v *= _BETA2
        np.multiply(1.0 - _BETA2, g, out=b)
        b *= g
        v += b
        np.divide(m, correction1, out=a)
        a *= self.learning_rate
        np.divide(v, correction2, out=b)
        np.sqrt(b, out=b)
        b += _EPS
        a /= b
        net.params -= a
