import copy

import numpy as np
import pytest

from rpspectral.errors import BadArchitecture, ShapeMismatch
from rpspectral.mlp import Adam, Mlp, gradient_check
from rpspectral.serialize import read_json, write_json


def quadratic_loss(output):
    """0.5 * sum of squares; gradient is the output itself."""
    return 0.5 * float((output**2).sum()), output


def test_init_shapes():
    net = Mlp.init([4, 8, 2], seed=0)
    assert [l.weights.shape for l in net.layers] == [(4, 8), (8, 2)]
    assert [l.biases.shape for l in net.layers] == [(8,), (2,)]
    assert net.layers[0].activation == "relu"
    assert net.layers[-1].activation == "identity"
    assert net.input_dim == 4 and net.output_dim == 2


def test_forward_shapes():
    net = Mlp.init([4, 8, 2], seed=1)
    out, cache = net.forward(np.zeros((7, 4)))
    assert out.shape == (7, 2)
    assert len(cache) == 2
    with pytest.raises(ShapeMismatch):
        net.forward(np.zeros((7, 3)))
    with pytest.raises(ShapeMismatch):
        net.forward(np.zeros(4))


def test_init_rejects_bad_architectures():
    with pytest.raises(BadArchitecture):
        Mlp.init([4])
    with pytest.raises(BadArchitecture):
        Mlp.init([4, 0, 2])
    with pytest.raises(BadArchitecture):
        Mlp.init([4, 8, 2], activation="sigmoid")


def test_init_is_deterministic():
    a = Mlp.init([3, 16, 4], seed=5)
    b = Mlp.init([3, 16, 4], seed=5)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
    c = Mlp.init([3, 16, 4], seed=6)
    assert not np.array_equal(a.layers[0].weights, c.layers[0].weights)


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_backprop_matches_finite_differences(activation):
    rng = np.random.default_rng(2)
    net = Mlp.init([5, 12, 8, 3], activation=activation, seed=3)
    batch = rng.normal(size=(16, 5))
    err = gradient_check(net, quadratic_loss, batch, sample_size=250, seed=0)
    assert err < 1e-4


def test_linear_net_gradient_is_exact():
    # Pure affine stack: the quadratic loss has an analytic gradient and
    # finite differences should agree to rounding.
    rng = np.random.default_rng(3)
    net = Mlp.init([4, 6, 2], activation="identity", seed=7)
    err = gradient_check(net, quadratic_loss, rng.normal(size=(10, 4)))
    assert err < 1e-8


def test_backward_input_grad():
    # The gradient with respect to the batch, checked by finite differences.
    rng = np.random.default_rng(4)
    net = Mlp.init([3, 10, 2], activation="tanh", seed=1)
    batch = rng.normal(size=(6, 3))
    out, cache = net.forward(batch)
    _, input_grad = net.backward(cache, out)
    eps = 1e-6
    for _ in range(20):
        r, c = rng.integers(6), rng.integers(3)
        bumped = batch.copy()
        bumped[r, c] += eps
        up, _ = net.forward(bumped)
        bumped[r, c] -= 2 * eps
        down, _ = net.forward(bumped)
        numeric = (quadratic_loss(up)[0] - quadratic_loss(down)[0]) / (2 * eps)
        assert abs(numeric - input_grad[r, c]) < 1e-5 * max(1.0, abs(numeric))


def test_backward_rejects_wrong_grad_shape():
    net = Mlp.init([3, 4, 2], seed=0)
    _, cache = net.forward(np.zeros((5, 3)))
    with pytest.raises(ShapeMismatch):
        net.backward(cache, np.zeros((5, 3)))


def test_adam_reduces_quadratic_loss():
    rng = np.random.default_rng(5)
    net = Mlp.init([4, 16, 2], activation="tanh", seed=2)
    batch = rng.normal(size=(32, 4))
    opt = Adam(net, learning_rate=1e-2)
    first = None
    for step in range(200):
        out, cache = net.forward(batch)
        loss, out_grad = quadratic_loss(out)
        if first is None:
            first = loss
        grads, _ = net.backward(cache, out_grad)
        opt.step(net, grads)
    final, _ = quadratic_loss(net.forward(batch)[0])
    assert opt.step_count == 200
    assert final < 0.1 * first


def test_adam_rejects_mismatched_grads():
    net = Mlp.init([3, 4, 2], seed=0)
    opt = Adam(net)
    with pytest.raises(ShapeMismatch):
        opt.step(net, [(np.zeros((3, 4)), np.zeros(4))])
    with pytest.raises(ShapeMismatch):
        opt.step(net, [(np.zeros((3, 5)), np.zeros(4)), (np.zeros((4, 2)), np.zeros(2))])


def reference_adam_step(net, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The textbook update with explicit bias-corrected temporaries."""
    state["t"] += 1
    t = state["t"]
    for i, layer in enumerate(net.layers):
        for j, param in enumerate((layer.weights, layer.biases)):
            grad = grads[i][j]
            m, v = state["m"][i][j], state["v"][i][j]
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            m_hat = m / (1.0 - beta1**t)
            v_hat = v / (1.0 - beta2**t)
            param -= lr * m_hat / (np.sqrt(v_hat) + eps)


def test_adam_matches_reference_update_bit_for_bit():
    rng = np.random.default_rng(6)
    net = Mlp.init([3, 16, 16, 2], activation="relu", seed=4)
    ref = copy.deepcopy(net)
    opt = Adam(net, learning_rate=3e-3)
    state = {
        "t": 0,
        "m": [[np.zeros_like(p) for p in (l.weights, l.biases)] for l in ref.layers],
        "v": [[np.zeros_like(p) for p in (l.weights, l.biases)] for l in ref.layers],
    }
    for _ in range(120):
        batch = rng.normal(size=(24, 3))
        out, cache = net.forward(batch)
        grads, _ = net.backward(cache, quadratic_loss(out)[1])
        ref_out, ref_cache = ref.forward(batch)
        ref_grads, _ = ref.backward(ref_cache, quadratic_loss(ref_out)[1])
        opt.step(net, grads)
        reference_adam_step(ref, ref_grads, state, lr=3e-3)
        for la, lb in zip(net.layers, ref.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.biases, lb.biases)
    assert opt.step_count == state["t"] == 120
    for i in range(len(net.layers)):
        for j in range(2):
            assert np.array_equal(opt.m[i][j], state["m"][i][j])
            assert np.array_equal(opt.v[i][j], state["v"][i][j])


def test_adam_rejected_step_changes_nothing():
    rng = np.random.default_rng(7)
    net = Mlp.init([3, 4, 4, 2], seed=0)
    opt = Adam(net)
    out, cache = net.forward(rng.normal(size=(5, 3)))
    grads, _ = net.backward(cache, out)
    opt.step(net, grads)  # nonzero moments, so a partial update would show
    before = copy.deepcopy(net)
    moments = [[p.copy() for p in pair] for pair in opt.m + opt.v]
    bad = grads[:-1] + [(grads[-1][0], np.zeros(3))]  # last layer's bias
    with pytest.raises(ShapeMismatch):
        opt.step(net, bad)
    assert opt.step_count == 1
    for la, lb in zip(net.layers, before.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.biases, lb.biases)
    for saved, pair in zip(moments, opt.m + opt.v):
        for a, b in zip(saved, pair):
            assert np.array_equal(a, b)


def test_adam_takes_strided_gradients():
    # Transposed views of transposed copies and reversed views: the same
    # values, so the same update as from contiguous arrays.
    rng = np.random.default_rng(8)
    net = Mlp.init([3, 5, 2], seed=1)
    twin = copy.deepcopy(net)
    plain, strided = Adam(net, learning_rate=1e-2), Adam(twin, learning_rate=1e-2)
    for _ in range(3):
        out, cache = net.forward(rng.normal(size=(6, 3)))
        grads, _ = net.backward(cache, out)
        views = [(dW.T.copy().T, db[::-1].copy()[::-1]) for dW, db in grads]
        assert not any(dW.flags.c_contiguous for dW, _ in views)
        assert not any(db.flags.c_contiguous for _, db in views)
        plain.step(net, grads)
        strided.step(twin, views)
        for la, lb in zip(net.layers, twin.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.biases, lb.biases)


def test_checkpoint_round_trip(tmp_path):
    net = Mlp.init([4, 9, 3], activation="tanh", seed=11)
    path = tmp_path / "net.json"
    write_json(path, net.to_dict())
    loaded = Mlp.from_dict(read_json(path))
    assert [l.activation for l in loaded.layers] == [l.activation for l in net.layers]
    for la, lb in zip(net.layers, loaded.layers):
        assert np.array_equal(la.weights, lb.weights)  # bit-exact via repr
        assert np.array_equal(la.biases, lb.biases)
    rng = np.random.default_rng(0)
    batch = rng.normal(size=(8, 4))
    assert np.array_equal(net.forward(batch)[0], loaded.forward(batch)[0])
