"""Dense arrays with reverse-mode automatic differentiation.

Just enough machinery for a small transformer encoder: matmul, elementwise
arithmetic, ReLU, layer norm, embedding lookup, dropout and cross-entropy,
plus three fused ops for its hot path (``linear``, ``linear_gelu`` and
``attention_probs``), all on numpy arrays. Tensors are immutable once
produced by an op; backward walks the recorded tape for a single scalar loss.

The tape records only what a gradient needs, by one rule in ``_make``:
each op declares one gradient function per parent; an op whose inputs all
have ``requires_grad=False`` (frozen parameters, constants, anything
computed only from them) builds a constant, a recorded node runs only the
gradient functions of the parents that require a gradient, and inside
``no_grad()`` nothing is recorded at all.

Float data is float64 (``DEFAULT_DTYPE``, the dtype of every parameter)
except inside ``compute_dtype(dtype)``, where every tensor built from float
data, op outputs and constants alike, holds ``dtype``; no op promotes an
operand of that dtype back to float64.

One precision rule: the model computes in ``STEP_DTYPE`` (float32), and
float64 holds the master weights, the optimizer's update, checkpoints, the
finite-difference checker and every oracle. ``cast_weights(params)`` is the
one way in: every training step and every evaluation pass runs inside it, on
checked float32 copies of the weights. Outside it, a forward pass runs in
float64. Under float32, ``linear_gelu`` computes its normal CDF with a
float32-native kernel (Abramowitz & Stegun 7.1.26); float64 keeps scipy's
``erf``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from typing import Callable, Iterable, Mapping

import numpy as np
from scipy.special import erf

DEFAULT_DTYPE = np.float64
STEP_DTYPE = np.float32  # the dtype the model computes in (see ``cast_weights``)
_compute_dtype = DEFAULT_DTYPE


class NumericError(RuntimeError):
    """Raised when a forward/backward value goes non-finite."""


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        data = np.asarray(data)
        self.data = data.astype(_compute_dtype, copy=False) if data.dtype.kind == "f" else data
        if self.data.dtype.kind not in "fiu":
            raise TypeError(f"unsupported dtype {self.data.dtype}")
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=_compute_dtype))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block: every op returns a constant."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


@contextlib.contextmanager
def compute_dtype(dtype):
    """Hold float data in ``dtype`` inside the block (float64 outside it)."""
    global _compute_dtype
    previous, _compute_dtype = _compute_dtype, np.dtype(dtype).type
    try:
        yield
    finally:
        _compute_dtype = previous


def _make(data, parents, grads, pre=None) -> Tensor:
    """The one tape rule. ``grads[i]`` maps the upstream gradient to parent
    ``i``'s gradient; it runs only when that parent requires a gradient, and
    the node's ``_backward`` returns ``None`` for every other parent. A fused
    op's ``pre`` maps the upstream gradient once, before every ``grads[i]``
    reads it."""
    if not (_grad_enabled and any(p.requires_grad for p in parents)):
        return Tensor(data)
    parents = tuple(parents)

    def backward(g):
        if pre is not None:
            g = pre(g)
        return tuple(grad(g) if p.requires_grad else None
                     for p, grad in zip(parents, grads))

    return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)


# -- primitive ops ---------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data + b.data, (a, b), (lambda g: _unbroadcast(g, a.shape),
                                           lambda g: _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data - b.data, (a, b), (lambda g: _unbroadcast(g, a.shape),
                                           lambda g: _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data * b.data, (a, b), (lambda g: _unbroadcast(g * b.data, a.shape),
                                           lambda g: _unbroadcast(g * a.data, b.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data / b.data, (a, b),
                 (lambda g: _unbroadcast(g / b.data, a.shape),
                  lambda g: _unbroadcast(-g * a.data / (b.data ** 2), b.shape)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    return _make(a.data @ b.data, (a, b),
                 (lambda g: _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape),
                  lambda g: _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)))


def power(a: Tensor, p: float) -> Tensor:
    return _make(a.data ** p, (a,), (lambda g: g * p * a.data ** (p - 1),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, (a,), (lambda g: g * out,))


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), (a,), (lambda g: g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _make(out, (a,), (lambda g: g * 0.5 / out,))


def relu(a: Tensor) -> Tensor:
    return _make(np.maximum(a.data, 0.0), (a,), (lambda g: g * (a.data > 0.0),))


def absolute(a: Tensor) -> Tensor:
    return _make(np.abs(a.data), (a,), (lambda g: g * np.sign(a.data),))


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def grad(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.shape).copy()

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), (grad,))


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), _as_tensor(1.0 / n))


def reshape(a: Tensor, shape) -> Tensor:
    return _make(a.data.reshape(shape), (a,), (lambda g: g.reshape(a.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)
    return _make(a.data.transpose(axes), (a,), (lambda g: g.transpose(inv),))


def tslice(a: Tensor, key) -> Tensor:
    def grad(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return full

    return _make(a.data[key], (a,), (grad,))


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    tensors = tuple(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    lead = (slice(None),) * (axis % out.ndim)
    edges = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def part(lo: int, hi: int):
        key = lead + (slice(lo, hi),)
        return lambda g: g[key]

    return _make(out, tensors, [part(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])])


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then affine rescale."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * weight.data + bias.data
    axes = tuple(range(out.ndim - 1))

    def dx(g):
        gxhat = g * weight.data
        return inv * (gxhat
                      - gxhat.mean(axis=-1, keepdims=True)
                      - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))

    return _make(out, (x, weight, bias), (dx, lambda g: (g * xhat).sum(axis=axes),
                                          lambda g: g.sum(axis=axes)))


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)

    def grad(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return gt

    return _make(table.data[ids], (table,), (grad,))


def _keep(shape, rate: float, rng: np.random.Generator, dtype, index=...) -> np.ndarray:
    """Inverted-dropout multipliers drawn at ``shape``, then ``[index]``, in
    ``dtype``; the uniforms are float64 draws whatever ``dtype`` is."""
    return np.multiply((rng.random(shape) >= rate)[index], 1.0 / (1.0 - rate), dtype=dtype)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None,
            drawn_as: tuple | None = None) -> Tensor:
    """Inverted dropout; the identity when ``rng`` is None or rate <= 0.

    ``drawn_as=(shape, index)`` says ``x`` holds ``full[index]`` of a tensor
    of ``shape``: the mask is drawn at ``shape`` and then indexed, so ``rng``
    advances, and each entry is kept or dropped, as for the full tensor.
    """
    if rng is None or rate <= 0.0:
        return x
    shape, index = drawn_as or (x.shape, ...)
    keep = _keep(shape, rate, rng, x.data.dtype, index)
    return _make(x.data * keep, (x,), (lambda g: g * keep,))


# -- fused ops -------------------------------------------------------------

def _linear_grads(x: Tensor, w: Tensor, b: Tensor) -> tuple:
    """Gradients of ``x @ w + b`` for a 2-D ``w`` and 1-D ``b``; ``w``'s is
    one 2-D GEMM over the flattened leading dimensions of ``x``."""
    return (lambda g: g @ w.data.T,
            lambda g: x.data.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1]),
            lambda g: _unbroadcast(g, b.shape))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` in one node, the bias added in place."""
    out = x.data @ w.data
    out += b.data
    return _make(out, (x, w, b), _linear_grads(x, w, b))


# Abramowitz & Stegun 7.1.26: for x >= 0, erfc(x) = poly(t) exp(-x^2) with
# t = 1 / (1 + p x), |error| <= 1.5e-7; p is folded with 1/sqrt(2) for x = z/sqrt(2)
_AS_P = 0.3275911 / math.sqrt(2.0)
_AS_POLY = (1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592)


def _normal_cdf32(z: np.ndarray) -> np.ndarray:
    """Phi(z) = (1 + erf(z / sqrt(2))) / 2 of a float32 ``z`` by A&S 7.1.26,
    in place on two work arrays: the tail mass q = erfc(|z| / sqrt(2)) / 2,
    then Phi = 1/2 + sign(z) (1/2 - q)."""
    t = np.abs(z)
    t *= _AS_P
    t += 1.0
    np.reciprocal(t, out=t)
    q = t * _AS_POLY[0]
    for a in _AS_POLY[1:]:
        q += a
        q *= t
    e = np.square(z, out=t)
    e *= -0.5
    q *= np.exp(e, out=e)  # exp(-z^2 / 2)
    q *= -0.5
    q += 0.5
    np.copysign(q, z, out=q)
    q += 0.5
    return q


def linear_gelu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Exact (erf) GELU of ``linear(x, w, b)`` in one node; its derivative is
    computed once per backward, for all three parents. In float32 the normal
    CDF is ``_normal_cdf32``'s; in float64 it is scipy's ``erf``."""
    z = x.data @ w.data
    z += b.data
    if z.dtype == np.float32:
        cdf = _normal_cdf32(z)
    else:
        cdf = erf(z / math.sqrt(2.0))  # Python floats: a NumPy scalar would promote float32
        cdf += 1.0
        cdf *= 0.5

    def dz(g):
        d = np.square(z)
        d *= -0.5
        np.exp(d, out=d)
        d /= math.sqrt(2.0 * math.pi)
        d *= z
        d += cdf
        return g * d

    return _make(z * cdf, (x, w, b), _linear_grads(x, w, b), pre=dz)


def key_mask_bias(key_mask: np.ndarray) -> np.ndarray:
    """The additive mask of ``attention_probs``: 0 where the {0,1}
    ``key_mask`` keeps a key (last axis), -inf where it masks one. Every row
    must keep at least one key."""
    key_mask = np.asarray(key_mask)
    if not key_mask.any(axis=-1).all():
        raise ValueError("attention mask: some row has no unmasked key")
    return np.where(key_mask != 0, 0.0, -np.inf)


def attention_probs(scores: Tensor, mask_bias: np.ndarray, scale: float, rate: float = 0.0,
                    rng: np.random.Generator | None = None) -> Tensor:
    """``dropout(softmax(scale * scores + mask_bias), rate, rng)`` over the
    last axis in one node. ``mask_bias`` (from ``key_mask_bias``) broadcasts
    to ``scores``; masked keys get exactly zero probability."""
    z = scores.data * scale
    z += mask_bias
    z -= z.max(axis=-1, keepdims=True)
    probs = np.exp(z, out=z)
    probs /= probs.sum(axis=-1, keepdims=True)
    keep = _keep(probs.shape, rate, rng, probs.dtype) if rng is not None and rate > 0.0 else None
    out = probs if keep is None else probs * keep

    def dscores(g):
        if keep is not None:
            g = g * keep
        ds = probs * (g - (g * probs).sum(axis=-1, keepdims=True))
        ds *= scale
        return ds

    return _make(out, (scores,), (dscores,))


IGNORE_INDEX = -100


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over label positions not ``IGNORE_INDEX``.

    ``logits``: [..., V]; ``labels``: integer array of matching leading shape.
    """
    labels = np.asarray(labels)
    flat_logits = logits.data.reshape(-1, logits.shape[-1])
    flat_labels = labels.reshape(-1)
    valid = flat_labels != IGNORE_INDEX
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("cross_entropy: no valid label positions")
    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    picked = logp[valid, flat_labels[valid]]
    out = -picked.mean()

    def dlogits(g):
        probs = np.exp(logp)
        grad = probs.copy()
        grad[valid, flat_labels[valid]] -= 1.0
        grad[~valid] = 0.0
        grad *= g / n_valid
        return grad.reshape(logits.shape)

    return _make(out, (logits,), (dlogits,))


def l2_normalize(x: Tensor) -> Tensor:
    """Unit-normalize over the last axis (a zero row stays finite)."""
    norm = sqrt(add(tsum(power(x, 2.0), axis=-1, keepdims=True), _as_tensor(1e-12)))
    return div(x, norm)


# -- backward pass ---------------------------------------------------------

def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate ``.grad`` on every requires_grad leaf reachable from loss.

    An intermediate node's ``.grad`` is dropped once its closure has run.
    """
    if loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not np.isfinite(loss.data).all():
        raise NumericError("loss is not finite")
    order = _topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is None or node.grad is None:
            continue
        grads = node._backward(node.grad)
        node.grad = None
        for parent, g in zip(node._parents, grads):
            if g is None:
                continue
            if parent.grad is None:
                parent.grad = np.array(g, dtype=parent.data.dtype)
            else:
                parent.grad = parent.grad + g


# -- parameter collections -------------------------------------------------

class ParameterSet:
    """Ordered map of hierarchical names to parameter tensors. A parameter
    is trainable exactly when its tensor has ``requires_grad``, as every
    new one is until ``set_trainable`` says otherwise."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(0.0, requires_grad=True)
        t.data = np.asarray(value, dtype=DEFAULT_DTYPE)  # whatever the compute dtype
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params)

    def __len__(self):
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def set_trainable(self, name: str, flag: bool) -> None:
        self._params[name].requires_grad = bool(flag)

    def is_trainable(self, name: str) -> bool:
        return self._params[name].requires_grad

    def trainable_names(self) -> list[str]:
        return [n for n, t in self._params.items() if t.requires_grad]

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {n: t.data.copy() for n, t in self._params.items()}

    def load_state_dict(self, state: Mapping[str, np.ndarray], strict: bool = True) -> None:
        for n, v in state.items():
            if n not in self._params:
                if strict:
                    raise KeyError(f"unknown parameter {n}")
                continue
            if self._params[n].data.shape != np.asarray(v).shape:
                raise ValueError(f"shape mismatch for {n}: "
                                 f"{self._params[n].data.shape} vs {np.asarray(v).shape}")
            self._params[n].data = np.array(v, dtype=DEFAULT_DTYPE)

    def count(self, prefix: str = "") -> int:
        return sum(t.size for n, t in self._params.items() if n.startswith(prefix))


@contextlib.contextmanager
def cast_weights(params: ParameterSet, frozen: dict[str, np.ndarray] | None = None):
    """Run ``params`` in ``STEP_DTYPE`` inside the block: every parameter
    holds a ``STEP_DTYPE`` copy of its float64 master, under
    ``compute_dtype(STEP_DTYPE)``. With ``frozen``, the copy of a parameter
    that does not require a gradient is kept there and reused by later
    blocks; every other copy is made afresh. Each copy is checked when it is
    made: the first that is not finite raises ``NumericError`` naming its
    parameter. The masters come back however the block ends."""
    masters = {name: t.data for name, t in params.items()}
    try:
        for name, t in params.items():
            keep = frozen is not None and not t.requires_grad
            copy = frozen.get(name) if keep else None
            if copy is None:
                with np.errstate(over="ignore"):  # an overflow is the error below
                    copy = t.data.astype(STEP_DTYPE)
                if not np.isfinite(copy).all():
                    raise NumericError(f"parameter {name} is not finite in "
                                       f"{np.dtype(STEP_DTYPE).name}")
                if keep:
                    frozen[name] = copy
            t.data = copy
        with compute_dtype(STEP_DTYPE):
            yield
    finally:
        for name, data in masters.items():
            params[name].data = data


def gradients(loss: Tensor, params: ParameterSet) -> dict[str, np.ndarray]:
    """Backward pass returning gradients for the trainable subset of ``params``.

    Parameters never touched by the computation get zero gradients.
    """
    params.zero_grad()
    backward(loss)
    out = {}
    for name in params.trainable_names():
        t = params[name]
        out[name] = t.grad if t.grad is not None else np.zeros_like(t.data)
    return out


# -- finite differences ----------------------------------------------------

@dataclasses.dataclass
class GradCheckReport:
    per_param: dict[str, float]
    tolerance: float

    @property
    def max_error(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    @property
    def passed(self) -> bool:
        return all(e < self.tolerance for e in self.per_param.values())


FD_STEP, FD_TOLERANCE = 1e-5, 1e-4  # central-difference step, relative error bound


def finite_difference_check(f: Callable[[], Tensor], params: ParameterSet,
                            max_entries_per_param: int | None = None,
                            rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare analytic gradients of ``f()`` with central finite differences.

    ``f`` must be deterministic (dropout off); checked via two evaluations.
    Relative error uses a unit floor: |a - n| / max(|a|, |n|, 1).
    """
    v1, v2 = f().item(), f().item()
    if v1 != v2:
        raise ValueError("f is not deterministic; disable dropout/sampling")
    analytic = gradients(f(), params)
    rng = rng or np.random.default_rng(0)
    report: dict[str, float] = {}
    for name in params.trainable_names():
        t = params[name]
        flat = t.data.reshape(-1)
        idx = np.arange(flat.size)
        if max_entries_per_param is not None and flat.size > max_entries_per_param:
            idx = rng.choice(flat.size, size=max_entries_per_param, replace=False)
        worst = 0.0
        ga = analytic[name].reshape(-1)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = f().item()
            flat[i] = orig - FD_STEP
            down = f().item()
            flat[i] = orig
            num = (up - down) / (2.0 * FD_STEP)
            err = abs(ga[i] - num) / max(abs(ga[i]), abs(num), 1.0)
            worst = max(worst, err)
        report[name] = worst
    return GradCheckReport(per_param=report, tolerance=FD_TOLERANCE)
