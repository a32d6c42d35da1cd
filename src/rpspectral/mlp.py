"""Minimal multilayer perceptron: forward pass, manual backprop, Adam.

Shared by the contrastive twin and the spectral embedding network. A net
computes in the dtype of its weights (float64 unless cast with ``astype``):
the forward pass, the backward pass and Adam's buffers all follow it. No
autodiff; gradients are hand-derived and verified by finite differences in
the test suite.

A net runs a batch in one of two ways. ``forward`` keeps every layer's
input, pre-activation and output, which ``backward`` needs; training uses
it. ``predict`` keeps nothing and returns only the output, bit-identical to
``forward``'s; every pass that needs no gradient uses it, since at 10k points
each array of a 128-wide layer's cache takes about 10 MB.
"""

from __future__ import annotations

import numpy as np

from .errors import BadArchitecture, NonFiniteInput, ShapeMismatch

ACTIVATIONS = ("relu", "tanh", "identity")
# Adam's moment decay rates and the denominator's guard.
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
# Central-difference step of gradient_check.
_GRADIENT_CHECK_EPS = 1e-5


def _activate(name, z, out=None):
    """The activation of z, written into ``out`` when one is given."""
    if name == "relu":
        return np.maximum(z, 0.0, out=out)
    if name == "tanh":
        return np.tanh(z, out=out)
    return z


def _through_activation(name, upstream, z, a):
    """upstream times the activation's derivative at z, in upstream's dtype.

    ``a`` is the already-computed activation of z, reused where cheaper.
    ReLU multiplies by a boolean mask (subgradient 0 at the kink), which
    keeps the dtype where a float mask would fix it.
    """
    if name == "relu":
        return upstream * (z > 0.0)
    if name == "tanh":
        return upstream * (1.0 - a * a)
    return upstream


def finite_float32(values, what="input"):
    """``values`` cast to float32 for a float32 net to train on.

    Raises NonFiniteInput, naming ``what``, if any value is NaN, infinite
    or beyond float32's range (about 3.4e38), where the cast overflows.
    """
    with np.errstate(over="ignore"):  # an overflowing value is reported below
        values = np.asarray(values, dtype=np.float32)
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise NonFiniteInput(
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
    """Stack of affine-plus-activation layers with hand-written gradients."""

    def __init__(self, layers):
        self.layers = layers

    @classmethod
    def init(cls, layer_sizes, activation="relu", seed=0):
        """Fresh network with scaled-uniform weights and zero biases.

        Hidden layers use ``activation``; the final layer is always linear.
        The uniform scale is sqrt(6 / (fan_in + fan_out)).
        """
        if len(layer_sizes) < 2:
            raise BadArchitecture("need at least input and output sizes")
        if any(s < 1 for s in layer_sizes):
            raise BadArchitecture(f"zero-width layer in {layer_sizes}")
        if activation not in ACTIVATIONS:
            raise BadArchitecture(f"unknown activation {activation!r}")
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
        return self.layers[0].weights.dtype

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
            raise ShapeMismatch(
                f"batch shape {batch.shape} does not feed a {self.input_dim}-wide net"
            )
        return batch

    def forward(self, batch):
        """Run a batch through the net; returns (output, cache).

        The batch is cast to the weights' dtype. The cache holds per-layer
        inputs, pre-activations and outputs and is what backward() consumes;
        it keeps three arrays per layer alive, so a pass that needs no
        gradient calls ``predict`` instead.
        """
        cache = []
        a = self._as_batch(batch)
        for layer in self.layers:
            z = a @ layer.weights + layer.biases
            out = _activate(layer.activation, z)
            cache.append((a, z, out))
            a = out
        return a, cache

    def predict(self, batch):
        """The net's output for a batch, keeping no cache for ``backward``.

        Casts and checks the batch as ``forward`` does and returns exactly
        ``forward(batch)[0]``. Each layer's activation is applied in place
        to its fresh affine output, so at most one layer's input and output
        are alive at a time; the caller's batch is never written.
        """
        a = self._as_batch(batch)
        for layer in self.layers:
            z = a @ layer.weights
            z += layer.biases
            a = _activate(layer.activation, z, out=z)
        return a

    def backward(self, cache, output_grad):
        """Backpropagate a loss gradient through a cached forward pass.

        The gradient is cast to the weights' dtype. Returns the parameter
        gradients, a list of (dW, db) congruent with the layers. The
        gradient in the batch itself is not computed: no caller trains the
        input.
        """
        output_grad = np.asarray(output_grad, dtype=self.dtype)
        if output_grad.shape != cache[-1][2].shape:
            raise ShapeMismatch(
                f"output grad {output_grad.shape} vs output {cache[-1][2].shape}"
            )
        grads = [None] * len(self.layers)
        upstream = output_grad
        for i in range(len(self.layers) - 1, -1, -1):
            a_in, z, a_out = cache[i]
            dz = _through_activation(self.layers[i].activation, upstream, z, a_out)
            grads[i] = (a_in.T @ dz, dz.sum(axis=0))
            if i:
                upstream = dz @ self.layers[i].weights.T
        return grads


class Adam:
    """Adaptive-moment optimizer with bias correction.

    Each moment is one flat buffer over every parameter, layer by layer and
    weights before biases; ``m[i][j]`` and ``v[i][j]`` are views of
    parameter j of layer i into it. A step runs each stage of the update as
    one ufunc call over the whole vector, so its cost does not grow with
    the number of parameter arrays. The buffers take the parameters' dtype,
    so a float32 net is updated in float32. The moments decay at
    ``_BETA1`` = 0.9 and ``_BETA2`` = 0.999, and ``_EPS`` = 1e-8 guards the
    update's denominator.
    """

    def __init__(self, net, learning_rate=1e-3):
        self.learning_rate = learning_rate
        self.step_count = 0
        self._shapes = [p.shape for l in net.layers for p in (l.weights, l.biases)]
        bounds = np.cumsum([0] + [int(np.prod(s)) for s in self._shapes])
        size, dtype = bounds[-1], net.dtype
        self._m, self._v = np.zeros(size, dtype), np.zeros(size, dtype)
        # The gradient copy and two scratch buffers hold the update's
        # intermediates, so a step allocates nothing.
        self._grad, self._a, self._b = (np.empty(size, dtype) for _ in range(3))
        self._tiny, self._normal = np.finfo(dtype).tiny, np.empty(size, bool)

        def views(flat):
            return [
                flat[lo:hi].reshape(shape)
                for lo, hi, shape in zip(bounds, bounds[1:], self._shapes)
            ]

        def per_layer(flat):
            parts = views(flat)
            return list(zip(parts[::2], parts[1::2]))

        self.m = per_layer(self._m)
        self.v = per_layer(self._v)
        self._grad_views = views(self._grad)
        self._update_views = views(self._a)

    def step(self, net, grads):
        """Apply one update in place; increments the step counter.

        Every gradient shape is checked before anything changes, so a
        rejected step leaves the parameters, the moments and the counter as
        they were. The update is lr * (m / c1) / (sqrt(v / c2) + _EPS), with
        c1, c2 the bias corrections, and m is flushed to zero where it falls
        below the dtype's smallest normal number. The gradients are copied
        into one flat buffer first, so they may be any strided arrays.
        """
        params = [p for l in net.layers for p in (l.weights, l.biases)]
        flat_grads = [g for pair in grads for g in pair]
        if len(grads) != len(net.layers) or len(flat_grads) != len(self._shapes):
            raise ShapeMismatch("gradient list length does not match layers")
        for param, grad, shape in zip(params, flat_grads, self._shapes):
            if not param.shape == grad.shape == shape:
                raise ShapeMismatch(
                    f"grad shape {grad.shape} vs param {param.shape}"
                )
        for view, grad in zip(self._grad_views, flat_grads):
            view[...] = grad
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
        for param, update in zip(params, self._update_views):
            param -= update


def gradient_check(net, loss_fn, batch, sample_size=200, seed=0):
    """Max relative error between backprop and central finite differences.

    ``loss_fn`` maps the network output to (scalar loss, gradient wrt the
    output). Every parameter is probed when the net has at most
    ``sample_size`` of them, otherwise a seeded sample of that many.
    """
    batch = np.asarray(batch, dtype=np.float64)
    output, cache = net.forward(batch)
    _, output_grad = loss_fn(output)
    grads = net.backward(cache, output_grad)

    flat = []
    for i, layer in enumerate(net.layers):
        for param, grad in (
            (layer.weights, grads[i][0]),
            (layer.biases, grads[i][1]),
        ):
            for pos in range(param.size):
                flat.append((param, grad, pos))
    if len(flat) > sample_size:
        picker = np.random.default_rng(seed)
        chosen = picker.choice(len(flat), size=sample_size, replace=False)
        flat = [flat[i] for i in chosen]

    worst = 0.0
    for param, grad, pos in flat:
        view = param.reshape(-1)
        original = view[pos]
        view[pos] = original + _GRADIENT_CHECK_EPS
        loss_plus, _ = loss_fn(net.forward(batch)[0])
        view[pos] = original - _GRADIENT_CHECK_EPS
        loss_minus, _ = loss_fn(net.forward(batch)[0])
        view[pos] = original
        numeric = (loss_plus - loss_minus) / (2.0 * _GRADIENT_CHECK_EPS)
        analytic = grad.reshape(-1)[pos]
        scale = max(abs(numeric) + abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / scale)
    return worst
