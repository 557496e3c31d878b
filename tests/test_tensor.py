"""Autodiff core: op gradients against finite differences, parameter
registry semantics, freeze-aware and tape-free evaluation, and the
gradient-check harness itself."""

import numpy as np
import pytest

from adapterlab import tensor as T
from adapterlab.tensor import (ParameterSet, Tensor, finite_difference_check,
                               gradients)

RNG = np.random.default_rng(0)


def _num_grad(f, x, eps=1e-6):
    g = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return g


def _away_from_zero(*shape):
    """Entries at least 0.1 from zero, where |x| and ReLU are smooth."""
    return RNG.choice([-1.0, 1.0], size=shape) * (np.abs(RNG.normal(size=shape)) + 0.1)


def _positive(*shape):
    return np.abs(RNG.normal(size=shape)) + 0.5


MASK = np.ones((2, 1, 1, 4))
MASK[0, ..., 3:] = 0
MASK_BIAS = T.key_mask_bias(MASK)
LABELS = np.array([[1, T.IGNORE_INDEX, 4], [0, 2, T.IGNORE_INDEX]])

# name -> (op on tensors, its inputs): every public op, every parent; the
# dropout rows draw from a fresh fixed-seed rng on every call
GRADIENT_ROWS = {
    "add": (T.add, [RNG.normal(size=(3, 4)), RNG.normal(size=(4,))]),
    "sub": (T.sub, [RNG.normal(size=(3, 4)), RNG.normal(size=(3, 1))]),
    "mul": (T.mul, [RNG.normal(size=(3, 4)), RNG.normal(size=(1, 4))]),
    "div": (T.div, [RNG.normal(size=(3, 4)), _positive(3, 4)]),
    "matmul": (T.matmul, [RNG.normal(size=(2, 3, 4)), RNG.normal(size=(4, 5))]),
    "power": (lambda a: T.power(a, 2.5), [_positive(3, 4)]),
    "exp": (T.exp, [RNG.normal(size=(3, 4))]),
    "log": (T.log, [_positive(3, 4)]),
    "sqrt": (T.sqrt, [_positive(3, 4)]),
    "sigmoid": (T.sigmoid, [RNG.normal(size=(3, 4))]),
    "relu": (T.relu, [_away_from_zero(3, 4)]),
    "absolute": (T.absolute, [_away_from_zero(3, 4)]),
    "tsum": (lambda a: T.tsum(a, axis=1), [RNG.normal(size=(3, 4))]),
    "tsum_keepdims": (lambda a: T.tsum(a, axis=0, keepdims=True), [RNG.normal(size=(3, 4))]),
    "tmean": (lambda a: T.tmean(a, axis=-1), [RNG.normal(size=(3, 4))]),
    "reshape": (lambda a: T.reshape(a, (4, 3)), [RNG.normal(size=(3, 4))]),
    "transpose": (lambda a: T.transpose(a, (1, 2, 0)), [RNG.normal(size=(2, 3, 4))]),
    "tslice": (lambda a: T.tslice(a, (slice(None), slice(1, 3))), [RNG.normal(size=(3, 4))]),
    "concat": (lambda *parts: T.concat(parts, axis=1),
               [RNG.normal(size=(2, n, 3)) for n in (1, 2, 3)]),
    "linear": (T.linear, [RNG.normal(size=(2, 3, 4)), RNG.normal(size=(4, 5)),
                          RNG.normal(size=5)]),
    "linear_gelu": (T.linear_gelu, [RNG.normal(size=(2, 3, 4)), RNG.normal(size=(4, 5)),
                                    RNG.normal(size=5)]),
    "attention_probs": (lambda a: T.attention_probs(a, MASK_BIAS, 0.7),
                        [RNG.normal(size=(2, 1, 3, 4))]),
    "attention_probs_dropout": (
        lambda a: T.attention_probs(a, MASK_BIAS, 0.7, 0.3, np.random.default_rng(0)),
        [RNG.normal(size=(2, 2, 3, 4))]),
    "layer_norm": (T.layer_norm, [RNG.normal(size=(2, 3, 4)), RNG.normal(size=4),
                                  RNG.normal(size=4)]),
    "embedding": (lambda table: T.embedding(table, np.array([[1, 1, 4], [0, 2, 1]])),
                  [RNG.normal(size=(5, 3))]),
    "dropout": (lambda a: T.dropout(a, 0.3, np.random.default_rng(0)),
                [RNG.normal(size=(3, 4))]),
    "cross_entropy": (lambda a: T.cross_entropy(a, LABELS), [RNG.normal(size=(2, 3, 5))]),
    "l2_normalize": (T.l2_normalize, [RNG.normal(size=(3, 4))]),
}


def _read_only_upstream(root):
    """Hand every node's gradient function a read-only upstream gradient, as
    ``add`` hands one array to both its parents: a closure that writes into
    its ``g`` raises."""
    for t in _tape(root):
        if t._backward is not None:
            def backward(g, inner=t._backward):
                g = np.array(g)
                g.setflags(write=False)
                return inner(g)
            t._backward = backward


@pytest.mark.parametrize("name", GRADIENT_ROWS)
def test_op_gradients_match_central_differences(name):
    """Each parent's gradient under a random weighted upstream gradient (an
    all-ones one cannot tell a transpose from its inverse), read-only."""
    op, inputs = GRADIENT_ROWS[name]
    tensors = [Tensor(v, requires_grad=True) for v in inputs]
    out = op(*tensors)
    _read_only_upstream(out)
    weight = np.random.default_rng(1).normal(size=out.shape)
    T.backward(T.tsum(T.mul(out, Tensor(weight))))
    for i, t in enumerate(tensors):
        def loss(v):
            values = [v if j == i else x for j, x in enumerate(inputs)]
            return float((op(*map(Tensor, values)).data * weight).sum())
        assert np.allclose(t.grad, _num_grad(loss, inputs[i]), atol=1e-6), (name, i)


@pytest.mark.parametrize("name", GRADIENT_ROWS)
def test_float32_operands_stay_float32(name, monkeypatch):
    """Under ``compute_dtype(float32)`` an op on float32 operands builds no
    float64 array for its output, and its gradient function returns float32
    gradients: nothing promotes a step back to float64."""
    op, inputs = GRADIENT_ROWS[name]
    with T.compute_dtype(np.float32):
        tensors = [Tensor(v, requires_grad=True) for v in inputs]
        arrived, init = [], Tensor.__init__

        def recording(self, data, *args, **kwargs):
            arrived.append(np.asarray(data).dtype)
            init(self, data, *args, **kwargs)
        monkeypatch.setattr(Tensor, "__init__", recording)
        out = op(*tensors)
        returned = []
        for t in _tape(out):
            if t._backward is not None:
                def backward(g, inner=t._backward):
                    grads = inner(g)
                    returned.extend(x.dtype for x in grads if x is not None)
                    return grads
                t._backward = backward
        T.backward(T.tsum(out))
    assert all(t.data.dtype == np.float32 for t in tensors)
    assert set(arrived) == {np.dtype(np.float32)} and out.data.dtype == np.float32
    assert len(returned) >= len(tensors) and set(returned) == {np.dtype(np.float32)}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_keep_draws_float64_uniforms_and_returns_the_requested_dtype(dtype):
    """The dropout multipliers come in ``dtype`` from the same float64
    draws; the float64 ones are ``mask / (1 - rate)`` bit for bit."""
    mask = np.random.default_rng(4).random((5, 6)) >= 0.3
    keep = T._keep((5, 6), 0.3, np.random.default_rng(4), dtype, (slice(1, 4),))
    assert keep.dtype == dtype
    assert np.array_equal(keep, (mask / (1.0 - 0.3))[1:4].astype(dtype))


def test_compute_dtype_scopes_float_data_and_restores_it():
    """Inside the block float data (constants, op outputs) holds the compute
    dtype, integer data keeps its own and parameters stay float64; the
    previous dtype comes back on exit, by an exception too."""
    ps = ParameterSet()
    with T.compute_dtype(np.float32):
        assert Tensor(1.0).data.dtype == np.float32
        assert T.tmean(Tensor(np.ones(3))).data.dtype == np.float32
        assert Tensor(np.arange(3)).data.dtype == np.arange(3).dtype
        assert ps.add("w", np.ones(2)).data.dtype == np.float64
        with pytest.raises(KeyError):
            with T.compute_dtype(np.float64):
                assert Tensor(1.0).data.dtype == np.float64
                raise KeyError("inside")
        assert Tensor(np.ones(2, np.float64)).data.dtype == np.float32
    assert Tensor(np.ones(2, np.float32)).data.dtype == np.float64
    assert T.tmean(Tensor(np.ones(3))).data.dtype == np.float64


def test_make_never_runs_the_gradient_of_a_frozen_parent():
    """``_make`` alone applies the freeze rule: a frozen parent's gradient
    function never runs, and the other parents get what they get when
    every parent trains."""
    def raises(g):
        raise AssertionError("the gradient of a frozen parent ran")

    x, y, z = (RNG.normal(size=(2, 3)) for _ in range(3))
    g = RNG.normal(size=(2, 3))
    grads = (lambda g: 2.0 * g, lambda g: -g, lambda g: g * z)
    everything = T._make(x + y + z, tuple(Tensor(v, requires_grad=True) for v in (x, y, z)),
                         grads)._backward(g)
    for k in range(3):
        parents = tuple(Tensor(v, requires_grad=i != k) for i, v in enumerate((x, y, z)))
        out = T._make(x + y + z, parents, [raises if i == k else f
                                           for i, f in enumerate(grads)])
        got = out._backward(g)
        assert got[k] is None
        assert all(np.array_equal(got[i], everything[i]) for i in range(3) if i != k)
        T.backward(T.tsum(out))  # the whole backward pass skips it as well
        assert parents[k].grad is None and all(parents[i].grad is not None
                                               for i in range(3) if i != k)
    frozen = T._make(x, (Tensor(x),), (raises,))
    assert frozen._backward is None and not frozen.requires_grad


def test_gelu_matches_erf_form():
    from scipy.special import erf
    x = RNG.normal(size=(5,))
    got = T.linear_gelu(Tensor(x[:, None]), Tensor(np.eye(1)), Tensor(np.zeros(1))).data[:, 0]
    want = 0.5 * x * (1 + erf(x / np.sqrt(2)))
    assert np.allclose(got, want, atol=1e-12)


def test_linear_is_matmul_plus_bias_and_leaves_its_inputs_alone():
    x, w, b = RNG.normal(size=(2, 3, 4)), RNG.normal(size=(4, 5)), RNG.normal(size=5)
    copies = [v.copy() for v in (x, w, b)]
    assert np.array_equal(T.linear(Tensor(x), Tensor(w), Tensor(b)).data, x @ w + b)
    assert all(np.array_equal(v, c) for v, c in zip((x, w, b), copies))


def test_matmul_gradient():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4, 2))
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    T.backward(T.tsum(T.matmul(ta, tb)))
    assert np.allclose(ta.grad, _num_grad(lambda v: (v @ b).sum(), a), atol=1e-6)
    assert np.allclose(tb.grad, _num_grad(lambda v: (a @ v).sum(), b), atol=1e-6)


def test_matmul_batched_gradient():
    a = RNG.normal(size=(2, 3, 4))
    b = RNG.normal(size=(2, 4, 5))
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    T.backward(T.tsum(T.matmul(ta, tb)))
    assert np.allclose(ta.grad, _num_grad(lambda v: (v @ b).sum(), a), atol=1e-6)


def test_broadcast_add_gradient():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4,))
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    T.backward(T.tsum(T.add(ta, tb)))
    assert np.allclose(tb.grad, np.full(4, 3.0))


def test_masked_softmax_zeroes_padded_keys_exactly():
    x = Tensor(RNG.normal(size=(2, 1, 3, 5)))
    mask = np.ones((2, 1, 1, 5))
    mask[0, ..., 3:] = 0
    p = T.attention_probs(x, T.key_mask_bias(mask), 1.0).data
    assert (p[0, ..., 3:] == 0.0).all()
    assert np.allclose(p.sum(axis=-1), 1.0)
    # a masked key far above every kept one still gets exactly zero
    x.data[0, ..., 4] = 1e3
    p = T.attention_probs(x, T.key_mask_bias(mask), 2.0).data
    assert (p[0, ..., 3:] == 0.0).all() and np.allclose(p.sum(axis=-1), 1.0)


def test_attention_mask_with_an_all_masked_row_raises():
    mask = np.ones((2, 5))
    mask[1] = 0
    with pytest.raises(ValueError, match="no unmasked key"):
        T.key_mask_bias(mask)


def test_attention_dropout_draws_as_plain_dropout():
    """Same rng, same mask: the fused op's dropout keeps the random stream."""
    scores = Tensor(RNG.normal(size=(2, 2, 3, 4)))
    fused = T.attention_probs(scores, MASK_BIAS, 0.5, 0.3, np.random.default_rng(4))
    plain = T.dropout(T.attention_probs(scores, MASK_BIAS, 0.5), 0.3, np.random.default_rng(4))
    assert np.array_equal(fused.data, plain.data)


def test_dropout_drawn_at_full_shape_equals_the_gathered_full_dropout():
    x = RNG.normal(size=(3, 5, 4))
    rows = (np.array([0, 0, 2]), np.array([1, 4, 0]))
    full_rng, rows_rng = np.random.default_rng(6), np.random.default_rng(6)
    full = T.dropout(Tensor(x), 0.4, full_rng).data[rows]
    part = T.dropout(Tensor(x[rows]), 0.4, rows_rng, drawn_as=(x.shape, rows)).data
    assert np.array_equal(full, part)
    assert full_rng.random() == rows_rng.random()


def test_layer_norm_gradient():
    x = RNG.normal(size=(2, 5))
    w, b = np.ones(5), np.zeros(5)
    tx = Tensor(x, requires_grad=True)
    T.backward(T.tsum(T.mul(T.layer_norm(tx, Tensor(w), Tensor(b)),
                            Tensor(RNG.normal(size=(2, 5))))))
    assert tx.grad is not None and np.isfinite(tx.grad).all()


def test_embedding_gradient_accumulates_repeats():
    table = Tensor(RNG.normal(size=(6, 3)), requires_grad=True)
    ids = np.array([[1, 1, 2]])
    T.backward(T.tsum(T.embedding(table, ids)))
    assert np.allclose(table.grad[1], 2.0)
    assert np.allclose(table.grad[2], 1.0)
    assert np.allclose(table.grad[0], 0.0)


def test_cross_entropy_ignores_ignore_index():
    logits = Tensor(RNG.normal(size=(2, 3, 5)), requires_grad=True)
    labels = np.array([[1, T.IGNORE_INDEX, 2], [T.IGNORE_INDEX] * 3])
    labels_partial = labels.copy()
    loss = T.cross_entropy(logits, labels_partial)
    # only 2 real labels contribute
    manual = 0.0
    p = logits.data
    for (b, t), y in ((( 0, 0), 1), ((0, 2), 2)):
        row = p[b, t]
        manual += -(row[y] - np.log(np.exp(row).sum()))
    assert np.isclose(loss.item(), manual / 2)


def test_cross_entropy_all_ignored_raises():
    logits = Tensor(np.zeros((1, 2, 4)))
    with pytest.raises(Exception):
        T.cross_entropy(logits, np.full((1, 2), T.IGNORE_INDEX))


def test_dropout_inverted_scaling_and_eval_identity():
    x = Tensor(np.ones((1000,)))
    rng = np.random.default_rng(0)
    out = T.dropout(x, 0.5, rng).data
    kept = out[out != 0]
    assert np.allclose(kept, 2.0)
    assert abs((out != 0).mean() - 0.5) < 0.1
    assert T.dropout(x, 0.5, None) is x and T.dropout(x, 0.0, rng) is x


def test_l2_normalize_unit_rows():
    x = Tensor(RNG.normal(size=(4, 8)))
    n = np.linalg.norm(T.l2_normalize(x).data, axis=-1)
    assert np.allclose(n, 1.0)


def test_backward_requires_scalar():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(Exception):
        T.backward(t)


def test_parameter_set_basics():
    ps = ParameterSet()
    ps.add("a.w", np.ones((2, 2)))
    ps.add("a.b", np.zeros(2))
    ps.set_trainable("a.b", False)
    with pytest.raises(ValueError):
        ps.add("a.w", np.ones(1))
    assert ps.trainable_names() == ["a.w"]
    assert "a.b" in ps and len(ps) == 2
    state = ps.state_dict()
    ps2 = ParameterSet()
    ps2.add("a.w", np.zeros((2, 2)))
    ps2.load_state_dict(state, strict=False)
    assert np.allclose(ps2["a.w"].data, 1.0)
    with pytest.raises(KeyError):
        ps2.load_state_dict({"missing": np.ones(1)}, strict=True)


def test_trainable_flag_is_requires_grad():
    ps = ParameterSet()
    w = ps.add("w", np.ones(2))
    f = ps.add("f", np.ones(2))
    assert w.requires_grad and f.requires_grad  # every new parameter trains
    ps.set_trainable("f", False)
    assert not f.requires_grad
    ps.set_trainable("w", False)
    ps.set_trainable("f", True)
    assert not w.requires_grad and f.requires_grad
    assert ps.trainable_names() == ["f"] and ps.is_trainable("f")


def test_gradients_only_trainable():
    ps = ParameterSet()
    w = ps.add("w", np.ones((2,)))
    f = ps.add("frozen", np.ones((2,)))
    ps.set_trainable("frozen", False)
    loss = T.tsum(T.mul(T.add(w, f), T.Tensor(np.array([1.0, 2.0]))))
    grads = gradients(loss, ps)
    assert set(grads) == {"w"}


def test_finite_difference_check_mlp():
    ps = ParameterSet()
    rng = np.random.default_rng(1)
    ps.add("w1", rng.normal(size=(4, 8)) * 0.3)
    ps.add("w2", rng.normal(size=(8, 1)) * 0.3)
    x = rng.normal(size=(5, 4))

    def f():
        h = T.relu(T.matmul(T.Tensor(x), ps["w1"]))
        return T.tsum(T.matmul(h, ps["w2"]))

    report = finite_difference_check(f, ps, rng=np.random.default_rng(2))
    assert report.passed, report.per_param
    assert report.max_error < 1e-4


def test_finite_difference_check_flags_wrong_gradient():
    ps = ParameterSet()
    ps.add("w", np.array([0.7, -0.3]))

    def f():
        return T.tsum(T.mul(ps["w"], ps["w"]))

    report = finite_difference_check(f, ps, rng=np.random.default_rng(0))
    assert report.passed  # sanity: honest gradient passes

    def g():
        out = T.mul(T.tsum(T.mul(ps["w"], ps["w"])), T.Tensor(1.0))
        # tamper with the backward of the final node
        orig = out._backward
        out._backward = lambda g: tuple(None if x is None else 1.5 * x for x in orig(g))
        return out

    report2 = finite_difference_check(g, ps, rng=np.random.default_rng(0))
    assert not report2.passed


def _tape(root):
    """Every tensor reachable from ``root`` through recorded parents."""
    seen, stack, out = set(), [root], []
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            out.append(t)
            stack.extend(t._parents)
    return out


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div, T.matmul])
def test_binary_op_backward_skips_parent_without_grad(op):
    x, y = RNG.normal(size=(3, 3)), RNG.normal(size=(3, 3)) + 4.0
    g = RNG.normal(size=(3, 3))
    both = op(Tensor(x, requires_grad=True), Tensor(y, requires_grad=True))
    gx, gy = both._backward(g)
    left = op(Tensor(x, requires_grad=True), Tensor(y))
    right = op(Tensor(x), Tensor(y, requires_grad=True))
    assert left._backward(g)[1] is None and right._backward(g)[0] is None
    assert np.array_equal(left._backward(g)[0], gx)
    assert np.array_equal(right._backward(g)[1], gy)


def test_layer_norm_and_concat_backward_skip_parents_without_grad():
    x, w, b = RNG.normal(size=(2, 3, 4)), RNG.normal(size=4), RNG.normal(size=4)
    g = RNG.normal(size=(2, 3, 4))
    full = T.layer_norm(*(Tensor(v, requires_grad=True) for v in (x, w, b)))._backward(g)
    for k in range(3):
        flags = [i == k for i in range(3)]
        out = T.layer_norm(*(Tensor(v, requires_grad=f) for v, f in zip((x, w, b), flags)))
        grads = out._backward(g)
        assert np.array_equal(grads[k], full[k])
        assert all(grads[i] is None for i in range(3) if i != k)
    parts = [Tensor(RNG.normal(size=(2, 2)), requires_grad=True), Tensor(np.ones((2, 3))),
             Tensor(RNG.normal(size=(2, 1)), requires_grad=True)]
    g = RNG.normal(size=(2, 6))
    ga, gb, gc = T.concat(parts, axis=-1)._backward(g)
    assert ga.shape == (2, 2) and gb is None
    assert np.array_equal(ga, g[:, :2]) and np.array_equal(gc, g[:, 5:])


def test_no_grad_records_nothing_and_restores_state():
    w = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        out = T.mul(w, w)
        with T.no_grad():
            pass
        after_nested = T.add(w, w)
    for t in (out, after_nested):
        assert not t.requires_grad and t._backward is None and t._parents == ()
    assert T.add(w, w)._backward is not None
    with pytest.raises(KeyError):
        with T.no_grad():
            raise KeyError("inside")
    restored = T.add(w, w)
    assert restored.requires_grad and restored._backward is not None


def test_backward_frees_intermediate_grads_and_keeps_leaf_grads():
    ps = ParameterSet()
    w = ps.add("w", RNG.normal(size=(3, 4)))
    b = ps.add("b", RNG.normal(size=4))
    x = Tensor(RNG.normal(size=(2, 3)))
    loss = T.tsum(T.relu(T.linear_gelu(x, w, b)))
    T.backward(loss)
    nodes = [t for t in _tape(loss) if t._backward is not None]
    assert len(nodes) == 3
    assert all(t.grad is None for t in nodes)
    assert w.grad is not None and b.grad is not None and x.grad is None
