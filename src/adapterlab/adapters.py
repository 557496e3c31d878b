"""Bottleneck language/task adapters, the invertible embedding adapter,
placement control, stacking, and the freeze policy.

A language adapter at layer l maps (h_l, r_l) -> U(ReLU(D(h_l))) + r_l where
h_l is the post-layer-norm hidden state and r_l the feed-forward residual.
Task adapters stack on top of language adapters. The invertible adapter is a
chain of additive coupling steps over a half-split of the embedding
dimensions, applied after the input embedding and inverted before the tied
output projection. Training a given component freezes every other byte of
the model.
"""

from __future__ import annotations

import concurrent.futures
import copy
import dataclasses
import enum
import hashlib
import os
from typing import TYPE_CHECKING, Mapping

import numpy as np

from . import tensor as T
from .schema import JsonConfig, check
from .tensor import ParameterSet, Tensor

if TYPE_CHECKING:  # the encoder builds its own (empty) stack
    from .encoder import Encoder


class FreezeMode(enum.Enum):
    PRETRAIN_BACKBONE = "pretrain_backbone"
    TRAIN_L_ADAPTER = "train_l_adapter"
    TRAIN_T_ADAPTER = "train_t_adapter"


BACKBONE_PREFIXES = ("emb.", "layer.", "mlm.")
INV_STEPS = 2  # the invertible adapter's coupling steps: MAD-X's two coupling functions

_MODE_PREFIXES = {
    FreezeMode.PRETRAIN_BACKBONE: BACKBONE_PREFIXES,
    FreezeMode.TRAIN_L_ADAPTER: ("l_adapter.", "inv."),
    FreezeMode.TRAIN_T_ADAPTER: ("t_adapter.", "head."),
}


@dataclasses.dataclass(frozen=True)
class PlacementPlan(JsonConfig):
    """Which layers carry which adapter kind, plus invertible-adapter presence."""
    l_layers: frozenset[int] = frozenset()
    t_layers: frozenset[int] = frozenset()
    invertible: bool = False

    def __post_init__(self):
        super().__post_init__()
        check(self, "layer numbers >= 1", lambda v: all(l >= 1 for l in v),
              "l_layers", "t_layers")

    @classmethod
    def full(cls, num_layers: int, t_adapters: bool = False,
             invertible: bool = True) -> "PlacementPlan":
        """L-adapters (and with ``t_adapters`` T-adapters) at every layer."""
        layers = frozenset(range(1, num_layers + 1))
        return cls(layers, layers if t_adapters else frozenset(), invertible)

    def truncated(self, i: int, num_layers: int) -> "PlacementPlan":
        """Keep adapters only at layers 1..i (the layer-sweep setting)."""
        if not 0 <= i <= num_layers:
            raise ValueError(f"truncation layer {i} outside [0, {num_layers}]")
        keep = set(range(1, i + 1))
        return PlacementPlan(self.l_layers & keep, self.t_layers & keep,
                             self.invertible if i > 0 else False)

    def step(self, l: int) -> tuple[bool, ...]:
        """What the plan places in step ``l`` of a forward pass: the
        invertible adapter in step 0, the embedding; the L- and the
        T-adapter in layer ``l`` >= 1."""
        return (self.invertible,) if l == 0 else (l in self.l_layers, l in self.t_layers)

    def places(self, name: str) -> bool:
        """Whether parameter ``name`` belongs to an adapter this plan places."""
        kind, _, rest = name.partition(".")
        if kind == "inv":
            return self.invertible
        layers = {"l_adapter": self.l_layers, "t_adapter": self.t_layers}.get(kind)
        layer = rest.partition(".")[0]
        return layers is not None and layer.isdigit() and int(layer) in layers

    def to_dict(self) -> dict:
        return {"l_layers": sorted(self.l_layers),
                "t_layers": sorted(self.t_layers),
                "invertible": self.invertible}


@dataclasses.dataclass(frozen=True)
class AdapterConfig(JsonConfig):
    """Bottleneck sizes. Defaults: reduction 2 for L-adapters, 16 for T-adapters."""
    l_bottleneck: int | None = None     # default max(1, hidden/2)
    t_bottleneck: int | None = None     # default max(1, hidden/16)
    inv_coupling_dim: int | None = None # default max(1, hidden/4)

    def __post_init__(self):
        super().__post_init__()
        check(self, "null or >= 1", lambda v: v is None or v >= 1,
              "l_bottleneck", "t_bottleneck", "inv_coupling_dim")

    def resolved(self, hidden_size: int) -> "AdapterConfig":
        """This config with every default size filled in for ``hidden_size``."""
        return AdapterConfig(
            l_bottleneck=self.l_bottleneck or max(1, hidden_size // 2),
            t_bottleneck=self.t_bottleneck or max(1, hidden_size // 16),
            inv_coupling_dim=self.inv_coupling_dim or max(1, hidden_size // 4),
        )


def bottleneck_param_count(hidden: int, bottleneck: int) -> int:
    """Down projection + bias, up projection + bias: 2hd + d + h."""
    return 2 * hidden * bottleneck + bottleneck + hidden


def invertible_half(hidden: int) -> int:
    """The width of each half the invertible adapter splits ``hidden`` into."""
    if hidden % 2 != 0:
        raise ValueError("invertible adapter needs an even hidden size")
    return hidden // 2


def invertible_param_count(hidden: int, coupling_dim: int) -> int:
    return INV_STEPS * bottleneck_param_count(invertible_half(hidden), coupling_dim)


def bottleneck_forward(x: Tensor, down_w: Tensor, down_b: Tensor,
                       up_w: Tensor, up_b: Tensor) -> Tensor:
    return T.linear(T.relu(T.linear(x, down_w, down_b)), up_w, up_b)


def language_adapter_forward(h_l: Tensor, r_l: Tensor, down_w: Tensor,
                             down_b: Tensor, up_w: Tensor, up_b: Tensor) -> Tensor:
    """U(ReLU(D(h_l))) + r_l. A task adapter applies the same equation to the
    layer's L-adapter output, or to the bare hidden state where the L-adapter
    is absent."""
    if h_l.shape != r_l.shape:
        raise ValueError(f"shape mismatch: {h_l.shape} vs {r_l.shape}")
    return T.add(bottleneck_forward(h_l, down_w, down_b, up_w, up_b), r_l)


task_adapter_forward = language_adapter_forward


class AdapterStack:
    """Adapter parameters registered into the host encoder's ParameterSet.
    Every encoder carries one; a bare backbone's places nothing."""

    def __init__(self, encoder: Encoder, plan: PlacementPlan,
                 config: AdapterConfig = AdapterConfig(), seed: int = 0):
        c = encoder.config
        self.plan = plan
        self.config = config.resolved(c.hidden_size)
        self.params = encoder.params
        self.hidden = c.hidden_size
        bad = (plan.l_layers | plan.t_layers) - set(range(1, c.num_layers + 1))
        if bad:
            raise ValueError(f"adapter layers {sorted(bad)} outside [1, {c.num_layers}]")
        if plan.invertible:
            invertible_half(c.hidden_size)  # refused before any parameter is added
        rng = np.random.default_rng(seed)
        self._init_params(rng)

    def _init_params(self, rng: np.random.Generator) -> None:
        h = self.hidden

        def bottleneck(prefix: str, width: int, d: int) -> None:
            # Near-identity init: zero up-projection, small random down.
            self.params.add(f"{prefix}.down.w", rng.normal(0.0, 1e-3, size=(width, d)))
            self.params.add(f"{prefix}.down.b", np.zeros(d))
            self.params.add(f"{prefix}.up.w", np.zeros((d, width)))
            self.params.add(f"{prefix}.up.b", np.zeros(width))

        for l in sorted(self.plan.l_layers):
            bottleneck(f"l_adapter.{l}", h, self.config.l_bottleneck)
        for l in sorted(self.plan.t_layers):
            bottleneck(f"t_adapter.{l}", h, self.config.t_bottleneck)
        if self.plan.invertible:  # each coupling step is a bottleneck on half the width
            for k in range(INV_STEPS):
                bottleneck(f"inv.{k}", h // 2, self.config.inv_coupling_dim)

    def _weights(self, prefix: str) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """The down and up projections of the bottleneck at ``prefix``."""
        return tuple(self.params[f"{prefix}.{part}"]
                     for part in ("down.w", "down.b", "up.w", "up.b"))

    # -- hooks called by the encoder forward pass --------------------------
    def embed_forward(self, x: Tensor) -> Tensor:
        return self.invertible_forward(x) if self.plan.invertible else x

    def _couple(self, x: Tensor, inverse: bool) -> Tensor:
        """Step ``k`` shifts half ``k % 2`` of ``x`` by the bottleneck
        ``inv.k`` of the other half: added forward, subtracted in reverse
        step order."""
        half = self.hidden // 2
        parts = [T.tslice(x, (..., slice(0, half))), T.tslice(x, (..., slice(half, self.hidden)))]
        steps = range(INV_STEPS)
        for k in reversed(steps) if inverse else steps:
            shift = bottleneck_forward(parts[1 - k % 2], *self._weights(f"inv.{k}"))
            parts[k % 2] = (T.sub if inverse else T.add)(parts[k % 2], shift)
        return T.concat(parts, axis=-1)

    def invertible_forward(self, x: Tensor) -> Tensor:
        return self._couple(x, inverse=False)

    def invertible_inverse(self, y: Tensor) -> Tensor:
        return self._couple(y, inverse=True)

    def output_inverse(self, x: Tensor) -> Tensor:
        return self.invertible_inverse(x) if self.plan.invertible else x

    def layer_slot(self, l: int, h_l: Tensor, r_l: Tensor) -> Tensor:
        """The L-adapter on ``h_l``, then the T-adapter on its output (on
        ``h_l`` where no L-adapter is placed); ``r_l`` where neither is."""
        out, base = r_l, h_l
        for kind, layers in (("l_adapter", self.plan.l_layers),
                             ("t_adapter", self.plan.t_layers)):
            if l in layers:
                out = base = language_adapter_forward(base, r_l, *self._weights(f"{kind}.{l}"))
        return out


def attach(encoder: Encoder, plan: PlacementPlan,
           config: AdapterConfig = AdapterConfig(), seed: int = 0) -> AdapterStack:
    """Replace ``encoder``'s empty stack by one placing ``plan``; layers
    outside the plan are untouched."""
    if encoder.adapters.plan != PlacementPlan():
        raise ValueError("encoder already places adapters")
    encoder.adapters = AdapterStack(encoder, plan, config, seed)
    return encoder.adapters


def placement_view(encoder: Encoder, plan: PlacementPlan) -> Encoder:
    """``encoder`` running only the adapters of ``plan``, a part of its own
    plan. The view shares the encoder's config and ``ParameterSet``: it
    computes what a model built from the same checkpoint with ``plan``
    computes, and holds no copy of a parameter."""
    held = encoder.adapters.plan
    if not (plan.l_layers <= held.l_layers and plan.t_layers <= held.t_layers
            and held.invertible >= plan.invertible):
        raise ValueError(f"placement {plan.to_dict()} is not a part of the "
                         f"encoder's {held.to_dict()}")
    view = copy.copy(encoder)
    view.adapters = copy.copy(encoder.adapters)
    view.adapters.plan = plan
    return view


PARTS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL = concurrent.futures.ThreadPoolExecutor(PARTS, thread_name_prefix="adapterlab-part")


def forward_placements(encoders: list[Encoder], ids: np.ndarray, attention_mask: np.ndarray,
                       rows: tuple | None = None,
                       rng: np.random.Generator | None = None) -> list[Tensor]:
    """``forward(ids, attention_mask, rows=rows, rng=rng)`` of each encoder:
    the one forward pass, of which ``Encoder.forward`` is the one-encoder call.

    The encoders are placement views of one model (``placement_view``): they
    share one ``ParameterSet``, and encoders of another model are a
    ``ValueError``. Views that place the same adapters in steps 0..k
    (``PlacementPlan.step``) hold the same states after step k, so each
    distinct prefix of steps runs once, and so does the backbone's part of
    each layer (``Encoder.layer_backbone``) on each distinct state. The
    prefixes run depth first; a state lives while a step that starts from
    it is pending.

    With the tape on (outside ``T.no_grad``) or an ``rng`` (dropout, for
    one encoder only), the batch runs as one part in the calling thread,
    and its results keep their tape. Otherwise it runs as ``PARTS`` parts
    (at most one per sequence), runs of whole sequences, on a thread pool.
    numpy computes each step sequence by sequence (a 3-D matmul is one GEMM
    per sequence), so a part's states are bit for bit those of one pass.
    With ``rows``, each part stops at the last layer's
    ``Encoder.layer_attention`` and hands its rows over; the last layer's
    per-row work (``Encoder.layer_ffn``, whose dropout mask is drawn at the
    full shape, and ``layer_adapters``) runs on 2-D operands, whose GEMM may
    round a row by its place in the block, so it runs once on all the
    batch's rows, in the calling thread. ``Encoder.mask_bias`` checks the
    inputs whole, once per call, and each part takes its slice of the bias,
    so a bad batch raises what one pass raises, and every part ends before
    an error propagates."""
    model = encoders[0]
    if any(e.params is not model.params for e in encoders):
        raise ValueError("forward_placements runs placement views of one model")
    if rng is not None and len(encoders) != 1:
        raise ValueError(f"dropout runs one encoder at a time, not {len(encoders)}")
    ids = np.asarray(ids)
    mask_bias = model.mask_bias(ids, attention_mask)
    n = len(ids)
    k = 1 if T.grad_enabled() or rng is not None else max(1, min(PARTS, n))
    edges = [i * n // k for i in range(k + 1)]
    if rows is not None:
        part_of_row = np.searchsorted(edges, rows[0], side="right") - 1
        picked = [np.flatnonzero(part_of_row == j) for j in range(k)]
    jobs = [(encoders, ids[lo:hi], mask_bias[lo:hi],
             None if rows is None else (rows[0][picked[j]] - lo, rows[1][picked[j]]), rng)
            for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))]
    if k == 1:
        parts = [_forward_part(*jobs[0])]
    else:
        futures = [_POOL.submit(_forward_part, *job) for job in jobs]
        concurrent.futures.wait(futures)  # no part outlives the caller's contexts
        parts = [f.result() for f in futures]  # the first part's error, if any
    finals: list[Tensor | None] = [None] * len(encoders)
    for ends in zip(*parts):  # one group of encoders: its result in each part
        group, results = ends[0][0], [result for _, result in ends]
        if rows is None:  # a branch past the last layer: its states, part by part
            branches = [(group, _join(results))]
        else:  # the rows of the last layer's input and attention, part by part
            l = model.config.num_layers
            x, attn = (_join([r[m] for r in results], picked) for m in (0, 1))
            drawn_as = (ids.shape + (model.config.hidden_size,), rows)
            h1, f = model.layer_ffn(l, x, attn, rng, drawn_as)
            branches = [(branch, encoders[branch[0]].layer_adapters(l, h1, f))
                        for branch in _split(encoders, group, l)]
        for branch, y in branches:
            for i in branch:
                finals[i] = y
    return finals


def _split(encoders: list[Encoder], group, l: int):
    """``group`` by the adapters its encoders place in step ``l``."""
    branches: dict[tuple, list[int]] = {}
    for i in group:
        branches.setdefault(encoders[i].adapters.plan.step(l), []).append(i)
    return list(branches.values())


def _join(parts: list[Tensor], picked: list[np.ndarray] | None = None) -> Tensor:
    """One part's tensor as it is, with its tape; else the parts' blocks
    joined in batch order (with ``picked``, block j holds the rows at the
    positions ``picked[j]``)."""
    if len(parts) == 1:
        return parts[0]
    stacked = np.concatenate([t.data for t in parts])
    if picked is not None:
        stacked[np.concatenate(picked)] = stacked.copy()
    return T.Tensor(stacked)


def _forward_part(encoders: list[Encoder], ids: np.ndarray, mask_bias: np.ndarray,
                  rows: tuple | None, rng: np.random.Generator | None) -> list[tuple]:
    """One part of ``forward_placements``, with dropout drawn from ``rng``
    if given: in depth-first order, a (branch, final states) per branch of
    encoders past the last layer or, with ``rows``, a (group, the ``rows``
    of the states the last layer starts from and of its attention) per
    group of encoders that reach the last layer together."""
    out = []
    last = encoders[0].config.num_layers
    # (encoders that share steps 0..l-1, step l, the state it starts from)
    pending = [(group, 0, None) for group in _split(encoders, range(len(encoders)), 0)]
    while pending:
        group, l, x = pending.pop()
        encoder = encoders[group[0]]
        if l == 0:
            pending.append((group, 1, encoder.embed_step(ids, rng)))
        elif l > last:
            out.append((group, x))
        elif l == last and rows is not None:
            attn = encoder.layer_attention(l, x, mask_bias, rng)
            out.append((group, (T.tslice(x, rows), T.tslice(attn, rows))))
            del attn
        else:
            h1, f = encoder.layer_backbone(l, x, mask_bias, rng)
            for branch in _split(encoders, group, l):
                pending.append((branch, l + 1, encoders[branch[0]].layer_adapters(l, h1, f)))
            del h1, f  # not alive beside the next layer's
        del x
    return out


def trainable_parameters(params: ParameterSet, mode: FreezeMode) -> list[str]:
    """Exactly the parameter names the given mode may train."""
    if mode not in _MODE_PREFIXES:
        raise ValueError(f"unknown freeze mode {mode!r}")
    prefixes = _MODE_PREFIXES[mode]
    return [n for n in params.names() if n.startswith(prefixes)]


def apply_freeze(params: ParameterSet, mode: FreezeMode) -> list[str]:
    """Set trainable flags per ``mode``; returns the trainable names."""
    names = set(trainable_parameters(params, mode))
    for n in params.names():
        params.set_trainable(n, n in names)
    return sorted(names)


def blob_sha256(array: np.ndarray) -> str:
    """SHA-256 of ``array``'s blob: its raw little-endian float64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(array, dtype="<f8")).hexdigest()


def digest(sums: Mapping[str, str]) -> str:
    """SHA-256 over each parameter name in sorted order, each followed by its
    ``blob_sha256`` in ``sums``: a digest of the parameters by name and
    bytes, which reuses sums already taken (``checkpoint`` takes them at load)."""
    sha = hashlib.sha256()
    for name in sorted(sums):
        sha.update(f"{name}\n{sums[name]}\n".encode())
    return sha.hexdigest()


def checksum(params: ParameterSet, prefix: str = "") -> str:
    """``digest`` of every parameter whose name starts with ``prefix``."""
    return digest({n: blob_sha256(t.data) for n, t in params.items() if n.startswith(prefix)})
