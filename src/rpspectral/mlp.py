"""Minimal multilayer perceptron: forward pass, manual backprop, Adam.

Shared by the contrastive twin and the spectral embedding network. Everything
is float64 numpy; no autodiff, gradients are hand-derived and verified by
finite differences in the test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import BadArchitecture, ShapeMismatch

ACTIVATIONS = ("relu", "tanh", "identity")


def _activate(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return z


def _activation_grad(name, z, a):
    # a is the already-computed activation of z; reused where it is cheaper.
    if name == "relu":
        return (z > 0.0).astype(np.float64)  # subgradient 0 at the kink
    if name == "tanh":
        return 1.0 - a * a
    return np.ones_like(z)


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

    @property
    def input_dim(self):
        return self.layers[0].weights.shape[0]

    @property
    def output_dim(self):
        return self.layers[-1].weights.shape[1]

    def forward(self, batch):
        """Run a batch through the net; returns (output, cache).

        The cache holds per-layer inputs and pre-activations and is what
        backward() consumes.
        """
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != self.input_dim:
            raise ShapeMismatch(
                f"batch shape {batch.shape} does not feed a {self.input_dim}-wide net"
            )
        cache = []
        a = batch
        for layer in self.layers:
            z = a @ layer.weights + layer.biases
            out = _activate(layer.activation, z)
            cache.append((a, z, out))
            a = out
        return a, cache

    def backward(self, cache, output_grad):
        """Backpropagate a loss gradient through a cached forward pass.

        Returns (param_grads, input_grad) where param_grads is a list of
        (dW, db) congruent with the layers.
        """
        output_grad = np.asarray(output_grad, dtype=np.float64)
        if output_grad.shape != cache[-1][2].shape:
            raise ShapeMismatch(
                f"output grad {output_grad.shape} vs output {cache[-1][2].shape}"
            )
        grads = [None] * len(self.layers)
        upstream = output_grad
        for i in range(len(self.layers) - 1, -1, -1):
            a_in, z, a_out = cache[i]
            dz = upstream * _activation_grad(self.layers[i].activation, z, a_out)
            grads[i] = (a_in.T @ dz, dz.sum(axis=0))
            upstream = dz @ self.layers[i].weights.T
        return grads, upstream

    def to_dict(self):
        return {
            "layers": [
                {
                    "weights": l.weights.tolist(),
                    "biases": l.biases.tolist(),
                    "activation": l.activation,
                }
                for l in self.layers
            ]
        }

    @classmethod
    def from_dict(cls, doc):
        return cls(
            [
                Layer(
                    np.array(l["weights"], dtype=np.float64),
                    np.array(l["biases"], dtype=np.float64),
                    l["activation"],
                )
                for l in doc["layers"]
            ]
        )


class Adam:
    """Adaptive-moment optimizer with bias correction."""

    def __init__(self, net, learning_rate=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [(np.zeros_like(l.weights), np.zeros_like(l.biases)) for l in net.layers]
        self.v = [(np.zeros_like(l.weights), np.zeros_like(l.biases)) for l in net.layers]
        # Two scratch buffers per parameter hold the update's intermediates,
        # so a step allocates nothing.
        self._scratch = [
            [(np.empty_like(p), np.empty_like(p)) for p in (l.weights, l.biases)]
            for l in net.layers
        ]

    def step(self, net, grads):
        """Apply one update in place; increments the step counter.

        Every gradient shape is checked before anything changes, so a
        rejected step leaves the parameters, the moments and the counter as
        they were. The update is lr * (m / c1) / (sqrt(v / c2) + eps), with
        c1, c2 the bias corrections.
        """
        if len(grads) != len(net.layers):
            raise ShapeMismatch("gradient list length does not match layers")
        for layer, (dW, db) in zip(net.layers, grads):
            for param, grad in ((layer.weights, dW), (layer.biases, db)):
                if param.shape != grad.shape:
                    raise ShapeMismatch(
                        f"grad shape {grad.shape} vs param {param.shape}"
                    )
        self.step_count += 1
        t = self.step_count
        correction1 = 1.0 - self.beta1**t
        correction2 = 1.0 - self.beta2**t
        for i, layer in enumerate(net.layers):
            for param, grad, m, v, (a, b) in zip(
                (layer.weights, layer.biases),
                grads[i],
                self.m[i],
                self.v[i],
                self._scratch[i],
            ):
                m *= self.beta1
                np.multiply(1.0 - self.beta1, grad, out=a)
                m += a
                v *= self.beta2
                np.multiply(1.0 - self.beta2, grad, out=b)
                b *= grad
                v += b
                np.divide(m, correction1, out=a)
                a *= self.learning_rate
                np.divide(v, correction2, out=b)
                np.sqrt(b, out=b)
                b += self.eps
                a /= b
                param -= a


def gradient_check(net, loss_fn, batch, eps=1e-5, sample_size=200, seed=0):
    """Max relative error between backprop and central finite differences.

    ``loss_fn`` maps the network output to (scalar loss, gradient wrt the
    output). Every parameter is probed when the net has at most
    ``sample_size`` of them, otherwise a seeded sample of that many.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    batch = np.asarray(batch, dtype=np.float64)
    output, cache = net.forward(batch)
    _, output_grad = loss_fn(output)
    grads, _ = net.backward(cache, output_grad)

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
        view[pos] = original + eps
        loss_plus, _ = loss_fn(net.forward(batch)[0])
        view[pos] = original - eps
        loss_minus, _ = loss_fn(net.forward(batch)[0])
        view[pos] = original
        numeric = (loss_plus - loss_minus) / (2.0 * eps)
        analytic = grad.reshape(-1)[pos]
        scale = max(abs(numeric) + abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / scale)
    return worst
