"""RoBERTa-style transformer encoder with an MLM head and an embedding head.

Post-layer-norm layers: attention -> add&norm -> feed-forward -> (adapter
slot) -> add&norm. The MLM output projection is tied to the input token
embeddings. Its adapter stack (adapters module; empty until ``attach``
replaces it) hooks into the embedding output, each layer's feed-forward
slot, and the pre-projection point of the MLM head.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import tensor as T
from .adapters import AdapterStack, PlacementPlan
from .schema import JsonConfig, check
from .tensor import ParameterSet, Tensor


@dataclasses.dataclass
class EncoderConfig(JsonConfig):
    num_layers: int = 4
    hidden_size: int = 64
    num_heads: int = 4
    ffn_size: int = 256
    vocab_size: int = 2048
    max_positions: int = 128
    dropout: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        check(self, ">= 1", lambda v: v >= 1, "num_layers", "hidden_size",
              "num_heads", "ffn_size", "vocab_size", "max_positions")
        check(self, "in [0, 1)", lambda v: 0 <= v < 1, "dropout")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")


# Reference config matching the paper-scale 12-layer backbone.
PAPER_SCALE_CONFIG = EncoderConfig(
    num_layers=12, hidden_size=768, num_heads=12, ffn_size=3072,
    vocab_size=50265, max_positions=514, dropout=0.1,
)


class Encoder:
    """The frozen backbone MLM ("N-PTLM" role); adapters are attached on top."""

    def __init__(self, config: EncoderConfig, seed: int = 0):
        self.config = config
        self.params = ParameterSet()
        self._init_params(np.random.default_rng(seed))
        self.adapters = AdapterStack(self, PlacementPlan())  # adapters.attach replaces it
        self.origin = None  # the checkpoint chain it was built from: checkpoint.build_model

    # -- parameters --------------------------------------------------------
    def _init_params(self, rng: np.random.Generator) -> None:
        c = self.config
        h, ff, V = c.hidden_size, c.ffn_size, c.vocab_size
        std = 0.02

        def w(name, shape):
            self.params.add(name, rng.normal(0.0, std, size=shape))

        def zeros(name, shape):
            self.params.add(name, np.zeros(shape))

        def ones(name, shape):
            self.params.add(name, np.ones(shape))

        w("emb.tok", (V, h))
        w("emb.pos", (c.max_positions, h))
        ones("emb.ln.w", (h,))
        zeros("emb.ln.b", (h,))
        for l in range(1, c.num_layers + 1):
            for role in ("q", "k", "v", "o"):
                w(f"layer.{l}.attn.{role}.w", (h, h))
                zeros(f"layer.{l}.attn.{role}.b", (h,))
            ones(f"layer.{l}.ln1.w", (h,))
            zeros(f"layer.{l}.ln1.b", (h,))
            w(f"layer.{l}.ffn.w1", (h, ff))
            zeros(f"layer.{l}.ffn.b1", (ff,))
            w(f"layer.{l}.ffn.w2", (ff, h))
            zeros(f"layer.{l}.ffn.b2", (h,))
            ones(f"layer.{l}.ln2.w", (h,))
            zeros(f"layer.{l}.ln2.b", (h,))
        w("mlm.dense.w", (h, h))
        zeros("mlm.dense.b", (h,))
        ones("mlm.ln.w", (h,))
        zeros("mlm.ln.b", (h,))
        zeros("mlm.bias", (V,))

    # -- forward -----------------------------------------------------------
    def _attention(self, x: Tensor, mask_bias: np.ndarray, l: int, rng) -> Tensor:
        c = self.config
        p = self.params
        B, L, h = x.shape
        nh, dh = c.num_heads, c.hidden_size // c.num_heads

        def heads(t):
            return T.transpose(T.reshape(t, (B, L, nh, dh)), (0, 2, 1, 3))

        q = heads(T.linear(x, p[f"layer.{l}.attn.q.w"], p[f"layer.{l}.attn.q.b"]))
        k = heads(T.linear(x, p[f"layer.{l}.attn.k.w"], p[f"layer.{l}.attn.k.b"]))
        v = heads(T.linear(x, p[f"layer.{l}.attn.v.w"], p[f"layer.{l}.attn.v.b"]))
        probs = T.attention_probs(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), mask_bias,
                                  1.0 / math.sqrt(dh), c.dropout, rng)
        ctx = T.matmul(probs, v)
        ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (B, L, h))
        return T.linear(ctx, p[f"layer.{l}.attn.o.w"], p[f"layer.{l}.attn.o.b"])

    def forward(self, ids: np.ndarray, attention_mask: np.ndarray,
                mode: str = "mlm", training: bool = False,
                rng: np.random.Generator | None = None, rows: tuple | None = None) -> Tensor:
        """Hidden states [batch, len, h]; ``mode`` is {"mlm", "embed"}; dropout
        runs only with ``training``, which needs ``rng``.

        ``rows``, a (batch indices, position indices) pair of distinct
        positions, asks for only those states, [len(rows[0]), h]: the last
        layer runs attention over every position, then its per-position
        work on those rows alone. Dropout draws the same masks either way.
        """
        if mode not in ("mlm", "embed"):
            raise ValueError(f"unknown mode {mode!r}")
        if training and rng is None:
            raise ValueError("training=True needs an rng for dropout")
        rng = rng if training else None
        x, mask_bias = self.embed_step(ids, attention_mask, rng)
        L = self.config.num_layers
        for l in range(1, L + 1):
            x = self.layer_adapters(l, *self.layer_backbone(l, x, mask_bias, rng,
                                                            rows if l == L else None))
        return x

    def embed_step(self, ids: np.ndarray, attention_mask: np.ndarray,
                   rng: np.random.Generator | None = None) -> tuple[Tensor, np.ndarray]:
        """The checked inputs' embedding states [batch, len, h], after the
        invertible adapter and dropout (with ``rng``), and the attention
        mask bias that every ``layer_backbone`` of the pass takes."""
        ids = np.asarray(ids)
        c, p = self.config, self.params
        mask_bias = self.mask_bias(ids, attention_mask)
        positions = np.arange(ids.shape[1])
        x = T.add(T.embedding(p["emb.tok"], ids),
                  T.embedding(p["emb.pos"], positions))
        x = self.adapters.embed_forward(T.layer_norm(x, p["emb.ln.w"], p["emb.ln.b"]))
        return T.dropout(x, c.dropout, rng), mask_bias

    def mask_bias(self, ids: np.ndarray, attention_mask: np.ndarray) -> np.ndarray:
        """The attention mask bias of a pass over ``ids``, once the inputs
        pass ``embed_step``'s checks, in this order: the length, the ids'
        range, the mask's shape, a key kept in every row."""
        ids = np.asarray(ids)
        attention_mask = np.asarray(attention_mask)
        c = self.config
        if ids.shape[1] > c.max_positions:
            raise ValueError(f"sequence length {ids.shape[1]} exceeds "
                             f"max_positions {c.max_positions}")
        if (ids < 0).any() or (ids >= c.vocab_size).any():
            raise ValueError("token id out of vocabulary range")
        if attention_mask.shape != ids.shape:
            raise ValueError("attention mask shape must match ids")
        return T.key_mask_bias(attention_mask)[:, None, None, :]

    def layer_backbone(self, l: int, x: Tensor, mask_bias: np.ndarray,
                       rng: np.random.Generator | None = None,
                       rows: tuple | None = None) -> tuple[Tensor, Tensor]:
        """The backbone's part of layer ``l`` on the states ``x`` that layer
        l-1 (0: ``embed_step``) gave: ``layer_attention``, then
        ``layer_ffn``, on the ``rows`` of both when ``rows`` is given (as in
        ``forward``); returns LN1's output and the feed-forward output,
        which ``layer_adapters`` takes."""
        attn = self.layer_attention(l, x, mask_bias, rng)
        drawn_as = None
        if rows is not None:
            drawn_as = (x.shape, rows)
            x, attn = T.tslice(x, rows), T.tslice(attn, rows)
        return self.layer_ffn(l, x, attn, rng, drawn_as)

    def layer_attention(self, l: int, x: Tensor, mask_bias: np.ndarray,
                        rng: np.random.Generator | None = None) -> Tensor:
        """Layer ``l``'s attention over every position of ``x``, with
        dropout (with ``rng``)."""
        return T.dropout(self._attention(x, mask_bias, l, rng), self.config.dropout, rng)

    def layer_ffn(self, l: int, x: Tensor, attn: Tensor,
                  rng: np.random.Generator | None = None,
                  drawn_as: tuple | None = None) -> tuple[Tensor, Tensor]:
        """Layer ``l``'s per-position work up to the adapter slot: residual
        and LN1, then the feed-forward network and its dropout (drawn as
        ``T.dropout``'s ``drawn_as`` says)."""
        c, p = self.config, self.params
        h1 = T.layer_norm(T.add(x, attn), p[f"layer.{l}.ln1.w"], p[f"layer.{l}.ln1.b"])
        f = T.linear(T.linear_gelu(h1, p[f"layer.{l}.ffn.w1"], p[f"layer.{l}.ffn.b1"]),
                     p[f"layer.{l}.ffn.w2"], p[f"layer.{l}.ffn.b2"])
        return h1, T.dropout(f, c.dropout, rng, drawn_as)

    def layer_adapters(self, l: int, h1: Tensor, f: Tensor) -> Tensor:
        """The rest of layer ``l``: the adapter slot, residual and LN2. The
        last layer's states must be finite."""
        p = self.params
        f = self.adapters.layer_slot(l, h1, f)
        x = T.layer_norm(T.add(h1, f), p[f"layer.{l}.ln2.w"], p[f"layer.{l}.ln2.b"])
        if l == self.config.num_layers and not np.isfinite(x.data).all():
            raise T.NumericError("non-finite hidden states")
        return x

    def mlm_logits(self, hidden: Tensor) -> Tensor:
        """[..., V] logits of hidden states [..., h] through the tied output
        projection.

        When the stack places an invertible adapter, its inverse runs
        immediately before the tied projection.
        """
        p = self.params
        x = T.linear_gelu(hidden, p["mlm.dense.w"], p["mlm.dense.b"])
        x = self.adapters.output_inverse(T.layer_norm(x, p["mlm.ln.w"], p["mlm.ln.b"]))
        return T.linear(x, T.transpose(p["emb.tok"], (1, 0)), p["mlm.bias"])

    def sequence_embedding(self, hidden: Tensor, attention_mask: np.ndarray) -> Tensor:
        """Mean of non-pad position vectors, L2-normalized; [batch, h]."""
        attention_mask = np.asarray(attention_mask)
        if (attention_mask.sum(axis=1) == 0).any():
            raise ValueError("all-pad row in attention mask")
        m = T.Tensor(attention_mask[:, :, None].astype(float))
        summed = T.tsum(T.mul(hidden, m), axis=1)
        counts = T.Tensor(attention_mask.sum(axis=1, keepdims=True).astype(float))
        return T.l2_normalize(T.div(summed, counts))
