import copy
import re
import types

import numpy as np
import pytest

from rpspectral.errors import InputError
from rpspectral.mlp import _BLOCK_FLOATS, Adam, Layer, Mlp, block_rows

GRADIENT_CHECK_EPS = 1e-5


def quadratic_loss(output):
    """0.5 * sum of squares; gradient is the output itself."""
    return 0.5 * float((output**2).sum()), output


def same_bits(a, b):  # unlike array_equal, tells -0.0 from 0.0
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def gradient_check(net, loss_fn, batch, sample_size=200, seed=0):
    """Max relative error between backprop and central finite differences.

    ``loss_fn`` maps the network output to (scalar loss, gradient wrt the
    output). Every parameter is probed when the net has at most
    ``sample_size`` of them, otherwise a seeded sample of that many, each
    by a central difference of step ``GRADIENT_CHECK_EPS``.
    """
    batch = np.asarray(batch, dtype=np.float64)
    output, cache = net.forward(batch)
    _, output_grad = loss_fn(output)
    grads = net.backward(cache, output_grad)
    flat_grad = np.concatenate([g.ravel() for pair in grads for g in pair])

    positions = range(net.params.size)
    if len(positions) > sample_size:
        picker = np.random.default_rng(seed)
        positions = picker.choice(len(positions), size=sample_size, replace=False)

    params = net.params
    worst = 0.0
    for pos in positions:
        original = params[pos]
        params[pos] = original + GRADIENT_CHECK_EPS
        loss_plus, _ = loss_fn(net.forward(batch)[0])
        params[pos] = original - GRADIENT_CHECK_EPS
        loss_minus, _ = loss_fn(net.forward(batch)[0])
        params[pos] = original
        numeric = (loss_plus - loss_minus) / (2.0 * GRADIENT_CHECK_EPS)
        analytic = flat_grad[pos]
        scale = max(abs(numeric) + abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / scale)
    return worst


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
    with pytest.raises(InputError, match=r"^batch shape \(7, 3\) does not feed a 4-wide net$"):
        net.forward(np.zeros((7, 3)))
    with pytest.raises(InputError, match=r"^batch shape \(4,\) does not feed a 4-wide net$"):
        net.forward(np.zeros(4))


def test_init_rejects_bad_architectures():
    with pytest.raises(InputError, match="^need at least input and output sizes$"):
        Mlp.init([4])
    with pytest.raises(InputError, match=r"^zero-width layer in \[4, 0, 2\]$"):
        Mlp.init([4, 0, 2])
    with pytest.raises(InputError, match="^unknown activation 'sigmoid'$"):
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


def test_backward_rejects_wrong_grad_shape():
    net = Mlp.init([3, 4, 2], seed=0)
    _, cache = net.forward(np.zeros((5, 3)))
    with pytest.raises(InputError, match=r"^output grad \(5, 3\) vs output \(5, 2\)$"):
        net.backward(cache, np.zeros((5, 3)))


def mixed_activation_net(seed):
    """A 4->6->5->3 net whose layers are relu, tanh and identity."""
    rng = np.random.default_rng(seed)
    sizes = [4, 6, 5, 3]
    return Mlp(
        [
            Layer(rng.normal(size=(i, o)), rng.normal(size=o), act)
            for i, o, act in zip(sizes, sizes[1:], ("relu", "tanh", "identity"))
        ]
    )


def test_float64_backward_matches_the_float_derivative_formula():
    # The derivative each activation had as a float array: ReLU's 0/1 mask,
    # tanh's 1 - a^2 and identity's ones, multiplied in.
    net = mixed_activation_net(9)
    net.layers[0].biases[:] = 0.0
    rng = np.random.default_rng(10)
    batch = rng.normal(size=(12, 4))
    batch[0, :] = 0.0  # row 0 sits on every ReLU kink
    out, cache = net.forward(batch)
    output_grad = rng.normal(size=out.shape)
    grads = net.backward(cache, output_grad)

    derivative = {
        "relu": lambda z, a: (z > 0).astype(np.float64),
        "tanh": lambda z, a: 1 - a * a,
        "identity": lambda z, a: np.ones_like(z),
    }

    upstream = output_grad
    for i in range(len(net.layers) - 1, -1, -1):
        # The cache keeps each layer's input and output; the pre-activation
        # z is rebuilt here, so ReLU's mask comes from z as the formula has it.
        a_in, a_out = cache[i]
        z = a_in @ net.layers[i].weights + net.layers[i].biases
        dz = upstream * derivative[net.layers[i].activation](z, a_out)
        assert same_bits(grads[i][0], a_in.T @ dz)
        assert same_bits(grads[i][1], dz.sum(axis=0))
        upstream = dz @ net.layers[i].weights.T


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_float32_net_computes_in_float32(activation):
    net = Mlp.init([3, 7, 6, 2], activation=activation, seed=2).astype(np.float32)
    rng = np.random.default_rng(11)
    out, cache = net.forward(rng.normal(size=(9, 3)))  # a float64 batch
    assert out.dtype == np.float32
    assert all(x.dtype == np.float32 for entry in cache for x in entry)
    grads = net.backward(cache, rng.normal(size=out.shape))
    assert all(g.dtype == np.float32 for pair in grads for g in pair)
    opt = Adam(net, learning_rate=1e-2)
    net.backward(cache, rng.normal(size=out.shape), out=opt.grads)
    opt.step(net)
    assert all(x.dtype == np.float32 for pair in opt.m + opt.v for x in pair)
    assert all(
        p.dtype == np.float32 for l in net.layers for p in (l.weights, l.biases)
    )


def predict_batches(dtype):
    rng = np.random.default_rng(12)
    kink = rng.normal(size=(10, 3))
    kink[0, :] = 0.0  # with zero first-layer biases, on every first-layer kink
    return {"one-row": rng.normal(size=(1, 3)).astype(dtype), "kink": kink.astype(dtype)}


@pytest.mark.parametrize("batch_kind", ["one-row", "kink"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_predict_matches_forward_bit_for_bit(activation, dtype, batch_kind):
    net = Mlp.init([3, 7, 6, 2], activation=activation, seed=4).astype(dtype)
    for layer in net.layers[1:]:
        layer.biases[:] = np.linspace(-0.5, 0.5, len(layer.biases))
    batch = predict_batches(dtype)[batch_kind]
    assert same_bits(net.predict(batch), net.forward(batch)[0])
    # a batch of another dtype is cast as forward casts it
    wide = batch.astype(np.float64 if dtype == np.float32 else np.float32)
    assert same_bits(net.predict(wide), net.forward(wide)[0])


def test_predict_matches_forward_on_a_mixed_net():
    net = mixed_activation_net(9)
    net.layers[0].biases[:] = 0.0
    batch = np.random.default_rng(14).normal(size=(10, 4))
    batch[0, :] = 0.0  # on every first-layer kink
    assert same_bits(net.predict(batch), net.forward(batch)[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_predict_runs_row_blocks_like_forward_block_by_block(activation, dtype):
    net = Mlp.init([3, 128, 64, 2], activation=activation, seed=6).astype(dtype)
    rows = block_rows(128)
    batch = np.random.default_rng(15).normal(size=(3 * rows + 17, 3)).astype(dtype)
    blocks = [batch[i : i + rows] for i in range(0, len(batch), rows)]
    assert len(blocks) == 4 and len(blocks[-1]) == 17
    expected = np.concatenate([net.forward(block)[0] for block in blocks])
    assert same_bits(net.predict(batch), expected)
    # one full block, and no rows, are one forward pass
    assert same_bits(net.predict(blocks[0]), net.forward(blocks[0])[0])
    assert same_bits(net.predict(batch[:0]), net.forward(batch[:0])[0])


def test_block_rows_fills_the_budget():
    assert block_rows(128) == _BLOCK_FLOATS // 128 >= 300  # n=300 runs unblocked
    assert block_rows(1) == _BLOCK_FLOATS
    assert block_rows(_BLOCK_FLOATS + 1) == 1


@pytest.mark.parametrize(
    "shape", [(7, 3), (7, 5), (4,), (0,), (2, 3, 4), ()], ids=str
)
def test_predict_rejects_the_shapes_forward_rejects(shape):
    net = Mlp.init([4, 8, 2], seed=1)
    batch = np.zeros(shape)
    message = f"^batch shape {re.escape(str(shape))} does not feed a 4-wide net$"
    with pytest.raises(InputError, match=message):
        net.forward(batch)
    with pytest.raises(InputError, match=message):
        net.predict(batch)


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_predict_leaves_the_batch_unchanged(activation):
    net = Mlp.init([3, 3], activation=activation, seed=5)
    net.layers[0].activation = activation  # bias and activation land in place
    batch = np.random.default_rng(13).normal(size=(6, 3))  # reaches it uncast
    before = batch.copy()
    out = net.predict(batch)
    assert not np.shares_memory(out, batch)
    assert same_bits(batch, before)


def test_astype_round_trip_through_float32_is_exact():
    net = Mlp.init([3, 5, 2], activation="tanh", seed=3)
    narrow = net.astype(np.float32)
    wide = narrow.astype(np.float64)
    assert [l.activation for l in wide.layers] == [l.activation for l in net.layers]
    for ln, lw in zip(narrow.layers, wide.layers):
        assert lw.weights.dtype == lw.biases.dtype == np.float64
        assert np.array_equal(lw.weights, ln.weights)
        assert np.array_equal(lw.biases, ln.biases)


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
        net.backward(cache, out_grad, out=opt.grads)
        opt.step(net)
    final, _ = quadratic_loss(net.forward(batch)[0])
    assert opt.step_count == 200
    assert final < 0.1 * first


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


def reference_state(net):
    """Zero moments for ``reference_adam_step``, one array per parameter."""
    def zeros():
        return [[np.zeros_like(p) for p in (l.weights, l.biases)] for l in net.layers]

    return {"t": 0, "m": zeros(), "v": zeros()}


def test_adam_matches_reference_update_bit_for_bit():
    rng = np.random.default_rng(6)
    net = Mlp.init([3, 16, 16, 2], activation="relu", seed=4)
    ref = copy.deepcopy(net)
    opt = Adam(net, learning_rate=3e-3)
    state = reference_state(ref)
    for _ in range(120):
        batch = rng.normal(size=(24, 3))
        out, cache = net.forward(batch)
        net.backward(cache, quadratic_loss(out)[1], out=opt.grads)
        ref_out, ref_cache = ref.forward(batch)
        ref_grads = ref.backward(ref_cache, quadratic_loss(ref_out)[1])
        opt.step(net)
        reference_adam_step(ref, ref_grads, state, lr=3e-3)
        for la, lb in zip(net.layers, ref.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.biases, lb.biases)
    assert opt.step_count == state["t"] == 120
    for i in range(len(net.layers)):
        for j in range(2):
            assert np.array_equal(opt.m[i][j], state["m"][i][j])
            assert np.array_equal(opt.v[i][j], state["v"][i][j])


def test_float32_adam_matches_reference_update_bit_for_bit():
    # The textbook update run on float32 arrays with Python-float constants
    # is float32 throughout; any step Adam takes through float64 rounds
    # differently and shows here.
    rng = np.random.default_rng(13)
    net = Mlp.init([3, 16, 16, 2], activation="relu", seed=4).astype(np.float32)
    ref = copy.deepcopy(net)
    opt = Adam(net, learning_rate=3e-3)
    state = reference_state(ref)
    for _ in range(60):
        out, cache = net.forward(rng.normal(size=(24, 3)))
        grads = net.backward(cache, quadratic_loss(out)[1], out=opt.grads)
        opt.step(net)
        reference_adam_step(ref, grads, state, lr=3e-3)
        for la, lb in zip(net.layers, ref.layers):
            assert la.weights.dtype == np.float32
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.biases, lb.biases)
    for i in range(len(net.layers)):
        for j in range(2):
            assert opt.m[i][j].dtype == opt.v[i][j].dtype == np.float32
            assert np.array_equal(opt.m[i][j], state["m"][i][j])
            assert np.array_equal(opt.v[i][j], state["v"][i][j])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_flushes_a_decayed_first_moment_to_zero(dtype):
    # After one nonzero gradient, a zero gradient shrinks m by beta1 per
    # step; at the smallest subnormals beta1 * m rounds back to m, so
    # without the flush m would stick there instead of reaching zero.
    net = Mlp.init([1, 1], activation="identity", seed=0).astype(dtype)
    opt = Adam(net)
    tiny = np.finfo(dtype).tiny
    for grad in opt.grads[0]:
        grad[...] = 1.0
    opt.step(net)
    for grad in opt.grads[0]:
        grad[...] = 0.0
    nonzero = []
    for _ in range(8000 if dtype is np.float64 else 1000):
        opt.step(net)
        m = opt.m[0][0][0, 0]
        assert m == 0 or abs(m) >= tiny
        nonzero.append(m != 0)
    assert nonzero[0] and not nonzero[-1]


def test_adam_rejected_step_changes_nothing():
    rng = np.random.default_rng(7)
    net = Mlp.init([3, 4, 4, 2], seed=0)
    opt = Adam(net)
    out, cache = net.forward(rng.normal(size=(5, 3)))
    net.backward(cache, out, out=opt.grads)
    opt.step(net)  # nonzero moments, so a partial update would show
    other = Mlp.init([3, 4, 2], seed=0)  # one hidden layer fewer
    before, other_before = net.params.copy(), other.params.copy()
    moments = [[p.copy() for p in pair] for pair in opt.m + opt.v]
    message = f"^net has {other.params.size} parameters, optimizer {net.params.size}$"
    with pytest.raises(InputError, match=message):
        opt.step(other)
    assert opt.step_count == 1
    assert np.array_equal(net.params, before)
    assert np.array_equal(other.params, other_before)
    for saved, pair in zip(moments, opt.m + opt.v):
        for a, b in zip(saved, pair):
            assert np.array_equal(a, b)


# --- in-place training over flat buffers ---


def test_layers_are_views_of_one_parameter_vector():
    net = Mlp.init([3, 5, 2], seed=2)
    params = [p for l in net.layers for p in (l.weights, l.biases)]
    assert all(np.shares_memory(p, net.params) for p in params)
    assert same_bits(net.params, np.concatenate([p.ravel() for p in params]))
    # a copy and a cast own their own vectors
    for other in (copy.deepcopy(net), net.astype(np.float32)):
        assert not np.shares_memory(other.params, net.params)
        assert all(
            np.shares_memory(p, other.params)
            for l in other.layers
            for p in (l.weights, l.biases)
        )


def allocating_forward(layers, batch):
    """``a @ W + b`` and the activation in fresh arrays; caches (a, z, out)."""
    activate = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh}
    cache, a = [], batch
    for layer in layers:
        z = a @ layer.weights + layer.biases
        out = activate.get(layer.activation, lambda z: z)(z)
        cache.append((a, z, out))
        a = out
    return a, cache


def allocating_backward(layers, cache, output_grad):
    """Fresh (dW, db) per layer, ReLU's mask taken from z as ``z > 0``."""
    grads = [None] * len(layers)
    upstream = output_grad
    for i in range(len(layers) - 1, -1, -1):
        a_in, z, a_out = cache[i]
        if layers[i].activation == "relu":
            dz = upstream * (z > 0)
        elif layers[i].activation == "tanh":
            dz = upstream * (1.0 - a_out * a_out)
        else:
            dz = upstream
        grads[i] = (a_in.T @ dz, dz.sum(axis=0))
        upstream = dz @ layers[i].weights.T
    return grads


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_in_place_training_matches_an_allocating_reference_bit_for_bit(activation):
    # The path both nets train on (backward into Adam's buffer, a step over
    # the flat vector) against one that allocates every intermediate, over
    # float32 updates whose batches put a row on every first-layer kink
    # while the biases are still zero.
    rng = np.random.default_rng(16)
    net = Mlp.init([3, 16, 16, 4], activation=activation, seed=5).astype(np.float32)
    ref = types.SimpleNamespace(
        layers=[Layer(l.weights.copy(), l.biases.copy(), l.activation) for l in net.layers]
    )
    opt = Adam(net, learning_rate=3e-3)
    state = reference_state(ref)
    for _ in range(60):
        batch = rng.normal(size=(24, 3)).astype(np.float32)
        batch[0] = 0.0
        target = rng.normal(size=(24, 4)).astype(np.float32)
        out, cache = net.forward(batch)
        ref_out, ref_cache = allocating_forward(ref.layers, batch)
        assert same_bits(out, ref_out)
        assert net.backward(cache, out - target, out=opt.grads) is opt.grads
        ref_grads = allocating_backward(ref.layers, ref_cache, ref_out - target)
        opt.step(net)
        reference_adam_step(ref, ref_grads, state, lr=3e-3)
        for la, lb in zip(net.layers, ref.layers):
            assert same_bits(la.weights, lb.weights)
            assert same_bits(la.biases, lb.biases)
    assert opt.step_count == state["t"] == 60
    for i in range(len(net.layers)):
        for j in range(2):
            assert same_bits(opt.m[i][j], state["m"][i][j])
            assert same_bits(opt.v[i][j], state["v"][i][j])


def test_backward_without_out_allocates_and_matches_backward_into_adam():
    rng = np.random.default_rng(17)
    net = Mlp.init([3, 8, 8, 2], activation="tanh", seed=6).astype(np.float32)
    opt = Adam(net)
    out, cache = net.forward(rng.normal(size=(10, 3)))
    output_grad = rng.normal(size=out.shape).astype(np.float32)
    kept = output_grad.copy()
    fresh = net.backward(cache, output_grad)
    net.backward(cache, output_grad, out=opt.grads)
    assert same_bits(output_grad, kept)  # the caller's gradient is not written
    for got, want in zip(fresh, opt.grads):
        for g, w in zip(got, want):
            assert same_bits(g, w) and not np.shares_memory(g, w)


def test_a_training_step_allocates_no_parameter_vector(peak_traced_bytes):
    # 2 -> 128 -> 128 -> 32 in float32 holds 21,024 parameters, 84 KB. After
    # one warm-up update, neither Adam's steps nor a backward pass into its
    # buffer may trace that much; a backward that allocates its gradients
    # does, which shows the bound can fail.
    net = Mlp.init([2, 128, 128, 32], seed=3).astype(np.float32)
    vector = net.params.nbytes
    assert vector == 84_096
    opt = Adam(net)
    rng = np.random.default_rng(18)
    out, cache = net.forward(rng.normal(size=(8, 2)))
    output_grad = rng.normal(size=out.shape).astype(np.float32)
    net.backward(cache, output_grad, out=opt.grads)
    opt.step(net)

    def steps():
        for _ in range(20):
            opt.step(net)

    assert peak_traced_bytes(steps) < vector
    assert peak_traced_bytes(lambda: net.backward(cache, output_grad, out=opt.grads)) < vector
    assert peak_traced_bytes(lambda: net.backward(cache, output_grad)) >= vector
    assert opt.step_count == 21


def test_an_overflowing_bias_sum_fails_the_step_it_feeds():
    # Zero inputs make every weight gradient 0; only the bias sum, 300 rows
    # of 1.2e36, overflows float32. Whether the reduction reports it or
    # leaves inf for Adam, the update fails before any parameter changes.
    net = Mlp.init([2, 2], activation="identity", seed=0).astype(np.float32)
    opt = Adam(net)
    out, cache = net.forward(np.zeros((300, 2), np.float32))
    before = net.params.copy()
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(FloatingPointError):
            net.backward(cache, np.full(out.shape, 1.2e36, np.float32), out=opt.grads)
            opt.step(net)
    assert same_bits(net.params, before)


def test_adam_refuses_a_net_of_another_size():
    opt = Adam(Mlp.init([3, 4, 2], seed=0))
    other = Mlp.init([3, 5, 2], seed=0)
    with pytest.raises(InputError, match="^net has 32 parameters, optimizer 26$"):
        opt.step(other)
    assert opt.step_count == 0
