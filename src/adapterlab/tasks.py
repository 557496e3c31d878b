"""Cloze-test evaluation, clone-detection heads and losses, and metrics
(accuracy, F1, MAP@R).

Every evaluation computes in ``tensor.STEP_DTYPE`` (float32), as a training
step does: ``eval_cloze_placements``, ``embed_corpus`` and ``eval_pairs``
each run their passes inside one ``tensor.cast_weights`` per model, and the
float64 master weights come back unchanged. Each pass is
``adapters.forward_placements``, which runs the batch's sequences as
parallel parts, bit for bit as one pass.

Retrieval uses cosine similarity on unit-norm mean-pooled embeddings with
deterministic tie-break by ascending item id. Pair classification feeds
[e_a; e_b; |e_a - e_b|; e_a * e_b] through one linear layer to a clone logit;
a pair is predicted a clone when its logit is > 0.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import Counter
from typing import Sequence

import numpy as np

from . import tensor as T
from .adapters import forward_placements
from .corpus import ClozeRecord, PairRecord, RetrievalRecord
from .encoder import Encoder
from .tensor import ParameterSet, Tensor
from .tokenizer import Vocabulary, encode_batch, pad_batch


EVAL_BATCH = 16  # sequences per no-grad forward pass in every evaluation
MAP_BLOCK = 2 ** 16  # similarity entries (times h for euclidean) per block of queries


class TaskError(ValueError):
    pass


def fitted_max_len(encoder: Encoder, max_len: int | None,
                   error: type[Exception] = TaskError) -> int:
    """``max_len``, or the model's ``max_positions`` when it is unset; one
    above ``max_positions`` raises ``error`` naming both."""
    max_positions = encoder.config.max_positions
    if max_len and max_len > max_positions:
        raise error(f"max_len {max_len} exceeds the model's max_positions {max_positions}")
    return max_len or max_positions


# -- cloze test ------------------------------------------------------------

@dataclasses.dataclass
class ClozeResult:
    accuracy: float
    n: int
    predictions: list[dict]
    chance_accuracy: float  # a uniform pick among each probe's candidates


def eval_cloze(encoder: Encoder, examples: Sequence[ClozeRecord],
               mask_id: int) -> ClozeResult:
    """Argmax over candidate logits at the single mask position; no training."""
    return eval_cloze_placements([encoder], examples, mask_id)[0]


def eval_cloze_placements(encoders: Sequence[Encoder], examples: Sequence[ClozeRecord],
                          mask_id: int) -> list[ClozeResult]:
    """``eval_cloze`` of each encoder, such as the placement views of one
    model (``adapters.placement_view``), which share every step prefix their
    plans share (``adapters.forward_placements``). Each distinct
    ``ParameterSet`` is cast once for the whole call."""
    if not examples:
        raise TaskError("empty cloze example set")
    vocab_size = min(e.config.vocab_size for e in encoders)
    max_positions = min(e.config.max_positions for e in encoders)
    for ex in examples:
        if ex.answer not in ex.candidates:
            raise TaskError(f"example {ex.id}: gold answer not in candidates")
        if not all(0 <= c < vocab_size for c in ex.candidates):
            raise TaskError(f"example {ex.id}: a candidate id is outside the vocabulary")
        if not all(0 <= t < vocab_size for t in ex.tokens):
            raise TaskError(f"example {ex.id}: a token id is outside the vocabulary")
        if len(ex.tokens) > max_positions:
            raise TaskError(f"example {ex.id}: {len(ex.tokens)} tokens exceed "
                            f"max_positions {max_positions}")
        if (ex.tokens.count(mask_id) != 1 or not 0 <= ex.mask_index < len(ex.tokens)
                or ex.tokens[ex.mask_index] != mask_id):
            raise TaskError(f"example {ex.id}: expected exactly one mask "
                            f"at position {ex.mask_index}")
    predictions: list[list[dict]] = [[] for _ in encoders]
    with contextlib.ExitStack() as stack:
        for params in {id(e.params): e.params for e in encoders}.values():
            stack.enter_context(T.cast_weights(params))
        stack.enter_context(T.no_grad())
        for start in range(0, len(examples), EVAL_BATCH):
            chunk = examples[start:start + EVAL_BATCH]
            # ids are pre-tokenized; pad with 0 and mask it out
            ids, attn = pad_batch([ex.tokens for ex in chunk], 0)
            rows = (np.arange(len(chunk)), np.array([ex.mask_index for ex in chunk]))
            finals = forward_placements(list(encoders), ids, attn, rows)
            for encoder, hidden, preds in zip(encoders, finals, predictions):
                logits = encoder.mlm_logits(hidden).data
                for ex, row in zip(chunk, logits):
                    cand = np.asarray(ex.candidates)
                    pred = int(cand[np.argmax(row[cand])])
                    preds.append({"id": ex.id, "prediction": pred,
                                  "answer": ex.answer, "correct": bool(pred == ex.answer)})
    chance = float(np.mean([1.0 / len(set(ex.candidates)) for ex in examples]))
    return [ClozeResult(accuracy=sum(p["correct"] for p in preds) / len(examples),
                        n=len(examples), predictions=preds, chance_accuracy=chance)
            for preds in predictions]


# -- retrieval -------------------------------------------------------------

@dataclasses.dataclass
class EmbedResult:
    ids: list[str]
    labels: list[str]
    embeddings: np.ndarray  # [n, h], unit rows
    n_truncated: int


def embed_texts(encoder: Encoder, texts: Sequence[str], vocab: Vocabulary,
                max_len: int, rng: np.random.Generator | None = None) -> Tensor:
    """Unit-norm mean-pooled embeddings [len(texts), h]: encode, run the
    ``embed`` forward pass (with dropout when ``rng`` is given), pool."""
    return embed_ids(encoder, *encode_batch(texts, vocab, max_len), rng)


def embed_ids(encoder: Encoder, ids: np.ndarray, attn: np.ndarray,
              rng: np.random.Generator | None = None) -> Tensor:
    """``embed_texts`` of texts already encoded and padded: with ``rng``
    through ``Encoder.forward``'s training pass, without it through the
    evaluation pass, ``forward_placements``."""
    hidden = (encoder.forward(ids, attn, mode="embed", training=True, rng=rng)
              if rng is not None else forward_placements([encoder], ids, attn)[0])
    return encoder.sequence_embedding(hidden, attn)


def embed_corpus(encoder: Encoder, items: Sequence[RetrievalRecord],
                 vocab: Vocabulary, max_len: int | None = None) -> EmbedResult:
    """``embed_ids`` of each item, computed in ``T.STEP_DTYPE`` and returned
    as float64 rows renormalised in float64, so each is unit-norm to float64
    precision; equal rows stay equal."""
    if not items:
        raise TaskError("empty retrieval item set")
    max_len = fitted_max_len(encoder, max_len)
    rows, n_truncated = [], 0
    with T.cast_weights(encoder.params), T.no_grad():
        for start in range(0, len(items), EVAL_BATCH):
            encoded = [vocab.encode(it.code) for it in items[start:start + EVAL_BATCH]]
            n_truncated += sum(len(e) > max_len for e in encoded)
            rows.append(embed_ids(encoder, *pad_batch([e[:max_len] for e in encoded],
                                                      vocab.pad_id)).data)
    embeddings = np.concatenate(rows, axis=0).astype(np.float64)
    embeddings /= np.linalg.norm(embeddings, axis=1, keepdims=True)
    return EmbedResult(ids=[it.id for it in items],
                       labels=[it.label for it in items],
                       embeddings=embeddings, n_truncated=n_truncated)


@dataclasses.dataclass
class RetrievalEvalResult:
    per_query_ap: list[float]
    map_at_r: float
    chance_map_at_r: float  # the mean AP@R of a uniformly random ranking


def map_at_r(embeddings: np.ndarray, labels: Sequence, ids: Sequence | None = None,
             metric: str = "cosine") -> RetrievalEvalResult:
    """Mean over queries of (1/R) sum_i P(i), with R the query's same-class
    reference count and P(i) the precision at rank i when that retrieval is
    correct, else 0. Ties break by ascending item id.

    Chance is the expected MAP@R of uniformly random rankings. Of a query's
    N = n - 1 candidates, rank i holds a hit with chance R/N, and given
    that, the ranks above it hold (i - 1)(R - 1)/(N - 1) hits on average:
    E[AP@R] = (1/N) sum_{i=1..R} (1 + (i - 1)(R - 1)/(N - 1)) / i.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    labels = list(labels)
    n = len(labels)
    if n < 2 or embeddings.shape[0] != n:
        raise TaskError("need >= 2 items with one embedding per label")
    ids = list(range(n)) if ids is None else list(ids)
    counts = Counter(labels)
    singletons = sorted(str(lab) for lab, c in counts.items() if c < 2)
    if singletons:
        raise TaskError(f"singleton classes (need >= 2 members): {singletons}")

    if metric not in ("cosine", "euclidean"):
        raise TaskError(f"unknown metric {metric!r}")
    if metric == "cosine":
        embeddings = embeddings / np.linalg.norm(embeddings, axis=1, keepdims=True)
        # equal rows share one column of the product, so their similarities
        # tie exactly and the ids decide; GEMM may round equal columns apart
        distinct, column = np.unique(embeddings, axis=0, return_inverse=True)
    # every item's place in ascending id order; a stable sort keeps equal ids
    # in item order, as the ranking's tie-break does
    id_rank = np.empty(n, dtype=np.int64)
    id_rank[sorted(range(n), key=lambda j: ids[j])] = np.arange(n)
    codes = {lab: c for c, lab in enumerate(counts)}
    classes = np.array([codes[lab] for lab in labels])
    r_all = np.array([counts[lab] - 1 for lab in labels])
    width = embeddings.shape[1] if metric == "euclidean" else 1
    block = max(1, MAP_BLOCK // (n * width))
    aps = []
    for start in range(0, n, block):
        q = np.arange(start, min(start + block, n))
        if metric == "cosine":
            sims = (embeddings[q] @ distinct.T)[:, column.reshape(-1)]
        else:
            sims = -np.linalg.norm(embeddings[q, None, :] - embeddings[None, :, :], axis=-1)
        # by similarity, descending, then by id; each query's own item dropped
        order = np.lexsort((np.broadcast_to(id_rank, sims.shape), -sims), axis=-1)
        order = order[order != q[:, None]].reshape(len(q), n - 1)
        r = r_all[q]
        top = order[:, :r.max()]
        hits = (classes[top] == classes[q, None]) & (np.arange(top.shape[1]) < r[:, None])
        ranks = np.arange(1, top.shape[1] + 1)
        # the precision at each hit, summed in rank order as a loop would
        ap = np.cumsum(np.where(hits, np.cumsum(hits, axis=1) / ranks, 0.0), axis=1)
        aps.extend((ap[np.arange(len(q)), r - 1] / r).tolist())
    harmonic = np.cumsum(1.0 / np.arange(1, r_all.max() + 1))[r_all - 1]  # sum_i 1/i
    chance = (harmonic + (r_all - 1) * (r_all - harmonic) / max(n - 2, 1)) / (n - 1)
    return RetrievalEvalResult(per_query_ap=aps, map_at_r=float(np.mean(aps)),
                               chance_map_at_r=float(np.mean(chance)))


# -- pair classification ---------------------------------------------------

@dataclasses.dataclass
class F1Result:
    precision: float
    recall: float
    f1: float


def f1_score(tp: int, fp: int, tn: int, fn: int) -> F1Result:
    """Precision/recall/F1 from confusion counts; degenerate cases yield 0."""
    if min(tp, fp, tn, fn) < 0:
        raise TaskError("confusion counts must be nonnegative")
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return F1Result(precision=p, recall=r, f1=f)


def register_pair_head(params: ParameterSet, hidden_size: int) -> None:
    rng = np.random.default_rng(0)
    params.add("head.pair.w", rng.normal(0.0, 0.02, size=(4 * hidden_size, 1)))
    params.add("head.pair.b", np.zeros((1,)))


def pair_features(e_a: Tensor, e_b: Tensor) -> Tensor:
    return T.concat([e_a, e_b, T.absolute(T.sub(e_a, e_b)), T.mul(e_a, e_b)],
                    axis=-1)


def pair_logits(params: ParameterSet, e_a: Tensor, e_b: Tensor) -> Tensor:
    """Clone logits [k, 1]: each row's features dotted with the head's
    weights by a row-wise sum, so a pair's logit does not depend on the
    other rows of its batch (a GEMV's rounding does, in float32)."""
    w, b = params["head.pair.w"], params["head.pair.b"]
    feats = pair_features(e_a, e_b)
    return T.add(T.tsum(T.mul(feats, T.reshape(w, (w.shape[0],))), axis=-1, keepdims=True), b)


def pair_batch_logits(encoder: Encoder, pairs: Sequence[PairRecord],
                      vocab: Vocabulary, max_len: int,
                      rng: np.random.Generator | None = None) -> Tensor:
    """Clone logits [len(pairs), 1]. One embedding batch holds every ``a``
    side, then every ``b`` side."""
    k = len(pairs)
    emb = embed_texts(encoder, [p.code_a for p in pairs] + [p.code_b for p in pairs],
                      vocab, max_len, rng=rng)
    e_a = T.tslice(emb, (slice(0, k), slice(None)))
    e_b = T.tslice(emb, (slice(k, 2 * k), slice(None)))
    return pair_logits(encoder.params, e_a, e_b)


def eval_pairs(encoder: Encoder, pairs: Sequence[PairRecord], vocab: Vocabulary,
               max_len: int | None = None) -> dict:
    """Confusion counts, precision, recall and F1 of the clone rule logit > 0;
    each pass embeds ``EVAL_BATCH // 2`` pairs, so ``EVAL_BATCH`` sequences."""
    if not pairs:
        raise TaskError("empty pair set")
    if "head.pair.w" not in encoder.params:
        raise TaskError("the model has no pair-classification head")
    max_len = fitted_max_len(encoder, max_len)
    seen: Counter = Counter()  # (is a clone, predicted a clone) -> count
    with T.cast_weights(encoder.params), T.no_grad():
        for start in range(0, len(pairs), EVAL_BATCH // 2):
            chunk = pairs[start:start + EVAL_BATCH // 2]
            logits = pair_batch_logits(encoder, chunk, vocab, max_len).data[:, 0]
            seen.update((bool(pair.label), bool(z > 0)) for pair, z in zip(chunk, logits))
    tp, fn, fp, tn = seen[True, True], seen[True, False], seen[False, True], seen[False, False]
    res = f1_score(tp, fp, tn, fn)
    return {"tp": tp, "fp": fp, "tn": tn, "fn": fn,
            "precision": res.precision, "recall": res.recall, "f1": res.f1}


# -- contrastive loss ------------------------------------------------------

def in_batch_negative_loss(embeddings: Tensor, labels: Sequence,
                           temperature: float = 0.05) -> tuple[Tensor, int]:
    """Mean over anchors of -log(exp(s(a,p)/t) / sum_{x != a} exp(s(a,x)/t)),
    cosine similarity, averaging over each anchor's in-batch positives.

    Anchors without an in-batch positive are skipped; returns (loss,
    n_skipped). All anchors skipped is an error.
    """
    labels = list(labels)
    n = len(labels)
    if embeddings.shape[0] != n:
        raise TaskError("one label per embedding row required")
    normed = T.l2_normalize(embeddings)
    sims = T.matmul(normed, T.transpose(normed, (1, 0)))
    scaled = T.mul(sims, T.Tensor(1.0 / temperature))

    lab = np.asarray(labels)
    offdiag = 1.0 - np.eye(n)
    pos_mask = (lab[:, None] == lab[None, :]).astype(float) * offdiag
    pos_counts = pos_mask.sum(axis=1)
    valid = pos_counts > 0
    n_skipped = int((~valid).sum())
    if n_skipped == n:
        raise TaskError("no anchor has an in-batch positive")

    # logsumexp over x != a: shift each row by its off-diagonal maximum (a
    # constant, so gradients are unchanged). The masked-out diagonal is
    # shifted to 0 so that exp cannot overflow there.
    row_max = np.max(np.where(offdiag > 0, scaled.data, -np.inf), axis=1, keepdims=True)
    shift = np.where(offdiag > 0, row_max, scaled.data)
    denom = T.tsum(T.mul(T.exp(T.sub(scaled, T.Tensor(shift))), T.Tensor(offdiag)),
                   axis=1, keepdims=True)
    log_denom = T.add(T.log(denom), T.Tensor(row_max))   # [n, 1]
    per_pair = T.sub(log_denom, scaled)            # -log softmax numerator
    weights = np.zeros_like(pos_mask)
    n_valid = int(valid.sum())
    weights[valid] = pos_mask[valid] / (pos_counts[valid, None] * n_valid)
    loss = T.tsum(T.mul(per_pair, T.Tensor(weights)))
    return loss, n_skipped
