"""Tests (incl. numerical gradient checks) for the autograd engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn.autograd import Tensor, concatenate, parameter, stack


def numerical_grad(f, x, eps=1e-3):
    """Central-difference gradient of a scalar-valued function of an ndarray."""
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        grad[idx] = (f(xp) - f(xm)) / (2 * eps)
    return grad


def check_gradients(build, x, tol=2e-2):
    """Compare autograd and numerical gradients of ``sum(build(Tensor(x)))``."""
    t = Tensor(x, requires_grad=True)
    out = build(t)
    out.sum().backward()
    num = numerical_grad(lambda arr: float(build(Tensor(arr)).sum().item()), x)
    np.testing.assert_allclose(t.grad, num, atol=tol, rtol=tol)


RNG = np.random.default_rng(0)


class TestBasicOps:
    def test_add_mul_broadcast(self):
        x = RNG.normal(size=(3, 4)).astype(np.float32)
        b = RNG.normal(size=(4,)).astype(np.float32)
        check_gradients(lambda t: (t + Tensor(b)) * 2.0 + t * t, x)

    def test_sub_div(self):
        x = RNG.normal(size=(3, 3)).astype(np.float32) + 3.0
        check_gradients(lambda t: (t - 1.0) / (t + 2.0), x)

    def test_pow(self):
        x = np.abs(RNG.normal(size=(4,))).astype(np.float32) + 0.5
        check_gradients(lambda t: t**3, x)

    def test_matmul(self):
        x = RNG.normal(size=(3, 4)).astype(np.float32)
        w = RNG.normal(size=(4, 5)).astype(np.float32)
        check_gradients(lambda t: t @ Tensor(w), x)

    def test_batched_matmul(self):
        x = RNG.normal(size=(2, 3, 4)).astype(np.float32)
        w = RNG.normal(size=(2, 4, 3)).astype(np.float32)
        check_gradients(lambda t: t @ Tensor(w), x)

    def test_matmul_grad_wrt_second_operand(self):
        a = RNG.normal(size=(3, 4)).astype(np.float32)
        w = RNG.normal(size=(4, 2)).astype(np.float32)
        check_gradients(lambda t: Tensor(a) @ t, w)

    def test_exp_log_sqrt_tanh_sigmoid(self):
        x = np.abs(RNG.normal(size=(5,))).astype(np.float32) + 0.5
        check_gradients(lambda t: t.exp(), x)
        check_gradients(lambda t: t.log(), x)
        check_gradients(lambda t: t.sqrt(), x)
        check_gradients(lambda t: t.tanh(), x)
        check_gradients(lambda t: t.sigmoid(), x)

    def test_relu_and_erf(self):
        x = RNG.normal(size=(8,)).astype(np.float32) + 0.05
        check_gradients(lambda t: t.relu(), x)
        check_gradients(lambda t: t.erf(), x)

    def test_reductions(self):
        x = RNG.normal(size=(3, 4)).astype(np.float32)
        check_gradients(lambda t: t.sum(axis=1), x)
        check_gradients(lambda t: t.mean(axis=0), x)
        check_gradients(lambda t: t.sum(), x)

    def test_max_reduction(self):
        x = RNG.normal(size=(3, 5)).astype(np.float32)
        check_gradients(lambda t: t.max(axis=-1), x)

    def test_reshape_transpose_swapaxes(self):
        x = RNG.normal(size=(2, 3, 4)).astype(np.float32)
        check_gradients(lambda t: t.reshape(6, 4) @ Tensor(np.ones((4, 2), np.float32)), x)
        check_gradients(lambda t: t.transpose(1, 0, 2).sum(axis=0), x)
        check_gradients(lambda t: t.swapaxes(-1, -2).sum(axis=1), x)

    def test_getitem(self):
        x = RNG.normal(size=(4, 5)).astype(np.float32)
        check_gradients(lambda t: t[1:3, ::2], x)

    def test_getitem_integer_array(self):
        x = RNG.normal(size=(6, 3)).astype(np.float32)
        ids = np.array([0, 2, 2, 5])
        t = Tensor(x, requires_grad=True)
        t[ids].sum().backward()
        expected = np.zeros_like(x)
        np.add.at(expected, ids, 1.0)
        np.testing.assert_allclose(t.grad, expected)

    def test_masked_fill(self):
        x = RNG.normal(size=(3, 4)).astype(np.float32)
        mask = RNG.random((3, 4)) > 0.5
        t = Tensor(x, requires_grad=True)
        t.masked_fill(mask, -5.0).sum().backward()
        np.testing.assert_allclose(t.grad, (~mask).astype(np.float32))

    def test_concatenate_and_stack(self):
        a = Tensor(RNG.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
        concatenate([a, b], axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.ones((2, 3)))
        a.zero_grad(); b.zero_grad()
        stack([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))


class TestGraphMechanics:
    def test_gradient_accumulates_on_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_detach_stops_gradient(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        (x.detach() * 3.0 + x).backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(3)).backward()

    def test_no_grad_tracking_for_constants(self):
        x = Tensor(np.ones(3))
        y = x * 2.0
        assert not y.requires_grad and y.node.backward is None

    def test_parameter_helper(self):
        p = parameter(np.zeros(3), name="w")
        assert p.requires_grad and p.name == "w"

    def test_deep_chain_does_not_hit_recursion_limit(self):
        x = Tensor(np.ones(4), requires_grad=True)
        y = x
        for _ in range(2000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(4))

    def test_zero_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None


def _graph(root):
    """Every node reachable from ``root``'s node that requires a gradient,
    in topological order (parents first)."""
    topo, seen = [], set()

    def visit(node):
        seen.add(id(node))
        for child in node.parents:
            if id(child) not in seen and child.requires_grad:
                visit(child)
        topo.append(node)

    visit(root.node)
    return topo


def _run_without_release(root):
    """The backward walk with every interior gradient kept: the oracle the
    releasing :meth:`Tensor.backward` must match bit for bit."""
    topo = _graph(root)
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node.backward is not None and node.grad is not None:
            node.backward(node.grad)


def _classifier(mechanism, num_layers=1):
    from repro.nn import SequenceClassifier, TransformerEncoder

    encoder = TransformerEncoder(
        50, 16, mechanism=mechanism, seed=0, model_dim=16, num_heads=2,
        num_layers=num_layers, ffn_dim=32,
    )
    return SequenceClassifier(encoder, 2, seed=1)


class TestGraphRelease:
    def test_interior_grads_are_released_leaves_kept(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        h = x * 2.0
        y = (h * h).sum()
        y.backward()
        assert h.grad is None and y.grad is None
        np.testing.assert_allclose(x.grad, 8.0 * np.arange(3.0))

    @pytest.mark.parametrize("mechanism", ["dfss_2:4", "full"])
    def test_encoder_step_leaf_grads_unchanged(self, mechanism):
        def model_and_loss():
            model = _classifier(mechanism)
            tokens = np.random.default_rng(2).integers(0, 50, (2, 16))
            return model, model.loss(tokens, np.array([0, 1]))

        released, loss = model_and_loss()
        loss.backward()
        kept, loss = model_and_loss()
        _run_without_release(loss)
        pairs = list(zip(released.parameters(), kept.parameters()))
        assert pairs and all(a.grad is not None for a, _ in pairs)
        for a, b in pairs:
            np.testing.assert_array_equal(a.grad, b.grad)

    def test_second_backward_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 2.0).sum()
        y.backward()
        with pytest.raises(RuntimeError, match="already back-propagated"):
            y.backward()
        np.testing.assert_allclose(x.grad, 2.0)

    def test_backward_through_a_released_subgraph_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        h = x * 2.0
        h.sum().backward()
        with pytest.raises(RuntimeError, match="already back-propagated"):
            # x is reached through a live node before the released h
            (h * 3.0 + x).sum().backward()
        np.testing.assert_allclose(x.grad, 2.0)  # no partial gradient landed


def _closure_values(fn):
    """The objects ``fn``'s closure cells hold, tuples and lists unpacked."""
    values = [cell.cell_contents for cell in fn.__closure__ or ()]
    for value in list(values):
        if isinstance(value, (tuple, list)):
            values.extend(value)
    return values


def _slot_values(node):
    """What ``node`` holds, its parents unpacked."""
    return [getattr(node, slot) for slot in type(node).__slots__] + list(node.parents)


class TestGraphKeepsOnlyWhatBackwardReads:
    """Nodes hold no arrays of their own tensors and closures no Tensor, so
    an activation no backward reads dies with the forward's last name for it."""

    @pytest.mark.parametrize("mechanism", ["dfss_2:4", "full"])
    def test_no_closure_holds_a_tensor(self, mechanism):
        model = _classifier(mechanism, num_layers=2)
        loss = model.loss(np.random.default_rng(2).integers(0, 50, (2, 16)), np.array([0, 1]))
        interior = [node for node in _graph(loss) if node.backward is not None]
        assert len(interior) > 20
        for node in interior:
            assert not any(isinstance(v, Tensor) for v in _closure_values(node.backward)), node
            assert not any(isinstance(v, Tensor) for v in _slot_values(node)), node

    @pytest.mark.parametrize("mechanism", ["dfss_2:4", "full"])
    def test_unread_activations_die_with_the_forward(self, mechanism, monkeypatch):
        import gc
        import weakref

        model = _classifier(mechanism, num_layers=2)
        tokens = np.random.default_rng(2).integers(0, 50, (2, 16))
        sums = []
        add = Tensor.__add__

        def spy(self, other):
            out = add(self, other)
            if out.shape == (2, 16, 16):  # the embedding sum and the residual adds
                sums.append((weakref.ref(out), weakref.ref(out.data)))
            return out

        monkeypatch.setattr(Tensor, "__add__", spy)
        enabled = gc.isenabled()
        gc.disable()
        try:
            loss = model.loss(tokens, np.array([0, 1]))
            assert len(sums) == 5
            assert all(t() is None and a() is None for t, a in sums)
            loss.backward()
        finally:
            if enabled:
                gc.enable()
        assert all(p.grad is not None for p in model.parameters())

    def test_mul_by_a_constant_keeps_nothing_of_the_variable(self):
        x = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.full(3, 2.0))
        out = x * c
        kept = [v for v in _closure_values(out.node.backward) if isinstance(v, np.ndarray)]
        assert len(kept) == 1 and kept[0] is c.data


@settings(max_examples=30, deadline=None)
@given(
    arrays(np.float32, (3, 4), elements=st.floats(-3, 3, width=32)),
    arrays(np.float32, (4, 2), elements=st.floats(-3, 3, width=32)),
)
def test_property_matmul_grad_matches_formula(a, b):
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    (ta @ tb).sum().backward()
    ones = np.ones((3, 2), dtype=np.float32)
    np.testing.assert_allclose(ta.grad, ones @ b.T, atol=1e-4)
    np.testing.assert_allclose(tb.grad, a.T @ ones, atol=1e-4)


# ----------------------------------------------------------- single-node layers
def composed_linear(x, w, b):
    """Oracle: the matmul-plus-broadcast-add composition."""
    out = x @ w
    return out if b is None else out + b


def composed_gelu(x):
    """Oracle: ``x * (erf(x/√2) + 1) / 2`` from elementwise nodes."""
    return x * ((x * float(1.0 / np.sqrt(2.0))).erf() + 1.0) * 0.5


def composed_layer_norm(x, w, b, eps=1e-5):
    """Oracle: ``(x - mean) / sqrt(var + eps) * w + b`` from elementwise nodes."""
    centred = x - x.mean(axis=-1, keepdims=True)
    var = (centred * centred).mean(axis=-1, keepdims=True)
    return centred / (var + eps).sqrt() * w + b


def _layer_case(layer, shape, bias=True):
    """``(fused op, composed oracle, input arrays)`` for one layer on ``shape``."""
    import repro.nn.functional as F

    rng = np.random.default_rng(sum(shape) + 7 * bias)
    x = rng.normal(size=shape).astype(np.float32)
    dim = shape[-1]
    if layer == "linear":
        w = rng.normal(size=(dim, 3)).astype(np.float32)
        b = rng.normal(size=(3,)).astype(np.float32)
        if not bias:
            return (lambda x, w: F.linear(x, w)), (lambda x, w: composed_linear(x, w, None)), [x, w]
        return F.linear, composed_linear, [x, w, b]
    if layer == "gelu":
        return F.gelu, composed_gelu, [x]
    w = rng.normal(1.0, 0.3, size=(dim,)).astype(np.float32)
    b = rng.normal(size=(dim,)).astype(np.float32)
    return F.layer_norm, composed_layer_norm, [x, w, b]


LAYER_CASES = [
    (layer, shape, bias)
    for layer in ("linear", "gelu", "layer_norm")
    for shape in ((3, 5), (2, 3, 5))
    for bias in ((True, False) if layer == "linear" else (True,))
]


def _run(fn, arrays, weights):
    """Forward ``fn`` on fresh leaves, backward ``sum(out * weights)``."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*leaves)
    (out * Tensor(weights)).sum().backward()
    return out, [t.grad for t in leaves]


@pytest.mark.parametrize("layer,shape,bias", LAYER_CASES)
class TestSingleNodeLayers:
    """``F.linear``, ``F.gelu`` and ``F.layer_norm`` are one graph node each,
    with an analytic backward that matches finite differences and the
    composed formulas they replace."""

    def test_numerical_gradients(self, layer, shape, bias):
        fused, _, arrays = _layer_case(layer, shape, bias)
        out_shape = fused(*[Tensor(a) for a in arrays]).shape
        weights = np.random.default_rng(3).normal(size=out_shape).astype(np.float32)
        _, grads = _run(fused, arrays, weights)
        for i, grad in enumerate(grads):

            def loss(arr, i=i):
                args = [Tensor(a) for a in arrays]
                args[i] = Tensor(arr)
                return float((fused(*args).data.astype(np.float64) * weights).sum())

            num = numerical_grad(loss, arrays[i].astype(np.float64)).astype(np.float32)
            np.testing.assert_allclose(grad, num, atol=2e-2, rtol=2e-2)

    def test_matches_composed_oracle(self, layer, shape, bias):
        fused, composed, arrays = _layer_case(layer, shape, bias)
        weights = np.random.default_rng(4).normal(
            size=fused(*[Tensor(a) for a in arrays]).shape
        ).astype(np.float32)
        out, grads = _run(fused, arrays, weights)
        want, want_grads = _run(composed, arrays, weights)
        np.testing.assert_allclose(out.data, want.data, rtol=1e-5, atol=1e-5)
        for grad, want_grad in zip(grads, want_grads):
            assert grad.shape == want_grad.shape
            np.testing.assert_allclose(grad, want_grad, rtol=1e-4, atol=1e-5)

    def test_adds_exactly_one_node(self, layer, shape, bias):
        fused, _, arrays = _layer_case(layer, shape, bias)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = fused(*leaves)
        assert out.node.parents == tuple(leaf.node for leaf in leaves)
        assert all(leaf.node.parents == () for leaf in leaves)
        assert out.name == layer


@pytest.mark.parametrize("bias", [True, False])
def test_linear_module_is_one_node(bias):
    from repro.nn.layers import Linear

    layer = Linear(5, 3, bias=bias, seed=0)
    x = Tensor(RNG.normal(size=(2, 4, 5)).astype(np.float32), requires_grad=True)
    out = layer(x)
    params = (layer.weight,) if not bias else (layer.weight, layer.bias)
    assert out.node.parents == tuple(t.node for t in (x, *params)) and out.name == "linear"


def test_layer_norm_module_is_one_node():
    from repro.nn.layers import LayerNorm

    norm = LayerNorm(5)
    x = Tensor(RNG.normal(size=(2, 4, 5)).astype(np.float32), requires_grad=True)
    out = norm(x)
    parents = tuple(t.node for t in (x, norm.weight, norm.bias))
    assert out.node.parents == parents and out.name == "layer_norm"


# ------------------------------------------------------- rebuilt linear inputs
def _producer(kind, x):
    """``layer_norm`` or ``gelu`` of ``x`` on fresh parameters."""
    import repro.nn.functional as F

    if kind == "gelu":
        return F.gelu(x)
    dim = x.shape[-1]
    w = parameter(np.random.default_rng(5).normal(1.0, 0.3, size=dim).astype(np.float32))
    b = parameter(np.random.default_rng(6).normal(size=dim).astype(np.float32))
    return F.layer_norm(x, w, b)


@pytest.mark.parametrize("kind", ["layer_norm", "gelu"])
class TestLinearRebuildsItsInput:
    """A ``linear`` fed by ``layer_norm`` or ``gelu`` keeps the producer's
    rebuild recipe instead of its input, and the walk drops the recipe
    with the producer's closure."""

    def test_keeps_no_input_sized_array(self, kind):
        import repro.nn.functional as F

        x = Tensor(RNG.normal(size=(3, 4, 8)).astype(np.float32), requires_grad=True)
        w = parameter(RNG.normal(size=(8, 5)).astype(np.float32))
        h = _producer(kind, x)
        assert h.node.rebuild is not None
        out = F.linear(h, w)
        kept = [v for v in _closure_values(out.node.backward) if isinstance(v, np.ndarray)]
        assert len(kept) == 1 and kept[0] is w.data
        assert h.node.rebuild in _closure_values(out.node.backward)
        # a plain input has no recipe and is kept as it is
        plain = Tensor(h.data.copy())
        kept = _closure_values(F.linear(plain, w).node.backward)
        assert any(v is plain.data for v in kept)

    def test_producer_arrays_die_once_its_node_has_run(self, kind):
        import gc
        import weakref

        import repro.nn.functional as F

        x = parameter(RNG.normal(size=(3, 4, 8)).astype(np.float32))
        w1 = parameter(RNG.normal(size=(8, 8)).astype(np.float32))
        w2 = parameter(RNG.normal(size=(8, 5)).astype(np.float32))

        def forward():
            h = _producer(kind, F.linear(x, w1))
            saved = [
                weakref.ref(v) for v in _closure_values(h.node.backward)
                if isinstance(v, np.ndarray) and v.shape == h.shape
            ]
            return F.linear(h, w2).sum(), saved

        enabled = gc.isenabled()
        gc.disable()
        try:
            loss, saved = forward()
            # x̂ for layer_norm; x and Φ for gelu
            assert len(saved) == (1 if kind == "layer_norm" else 2)
            assert all(ref() is not None for ref in saved)
            loss.backward()
            # the graph is still reachable from loss: only the cleared slot
            # and the released closure let the saved arrays die
            assert all(ref() is None for ref in saved)
        finally:
            if enabled:
                gc.enable()

    def test_dw_equals_the_same_linear_on_a_plain_copy(self, kind):
        import repro.nn.functional as F

        x = Tensor(RNG.normal(size=(2, 5, 8)).astype(np.float32), requires_grad=True)
        seed = RNG.normal(size=(2, 5, 6)).astype(np.float32)
        weight = RNG.normal(size=(8, 6)).astype(np.float32)
        bias = RNG.normal(size=6).astype(np.float32)
        h = _producer(kind, x)
        plain = Tensor(h.data.copy(), requires_grad=True)
        grads = []
        for inp in (h, plain):
            w, b = parameter(weight), parameter(bias)
            F.linear(inp, w, b).backward(seed)
            grads.append((w.grad, b.grad))
        for got, want in zip(*grads):
            assert got.tobytes() == want.tobytes()
        assert x.grad is not None and plain.grad is not None


@pytest.mark.parametrize("mechanism", ["dfss_2:4", "full"])
def test_encoder_graph_keeps_no_linear_input(mechanism, monkeypatch):
    """After the forward, a 2-layer encoder step holds, per layer, the two
    LayerNorm outputs and the GELU output fewer than when every ``linear``
    keeps its input, less a few hundred bytes of recipes."""
    import gc
    import tracemalloc

    from repro.nn import SequenceClassifier, TransformerEncoder

    batch, seq, dim, ffn, layers = 2, 64, 32, 64, 2
    tokens = np.random.default_rng(2).integers(0, 50, (batch, seq))
    labels = np.array([0, 1])
    encoder = TransformerEncoder(
        50, seq, mechanism=mechanism, seed=0, model_dim=dim, num_heads=2,
        num_layers=layers, ffn_dim=ffn,
    )
    model = SequenceClassifier(encoder, 2, seed=1)
    model.loss(tokens, labels).backward()  # warm the plan caches

    def held():
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = model.loss(tokens, labels)
            graph = tracemalloc.get_traced_memory()[0] - base
            loss.backward()
            return graph
        finally:
            tracemalloc.stop()

    enabled = gc.isenabled()
    gc.disable()
    try:
        rebuilt = held()
        make = Tensor._make
        monkeypatch.setattr(
            Tensor, "_make",
            staticmethod(lambda *args, rebuild=None, **kw: make(*args, **kw)),
        )
        kept = held()
    finally:
        if enabled:
            gc.enable()
    saved = layers * batch * seq * (dim + dim + ffn) * 4
    assert kept - saved <= rebuilt <= kept - saved + 2048 * layers
