"""Training loops: MLM pretraining of the backbone, L-adapter training on
code, T-adapter training on task data. Adam with bias correction, inverted
dropout, early stopping on a validation metric.

All randomness flows from TrainConfig.seed through one generator, so a fixed
seed and data order reproduce checkpoints bit-exactly.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Sequence

import numpy as np

from . import tasks
from . import tensor as T
from .adapters import FreezeMode, apply_freeze
from .corpus import PairRecord, RetrievalRecord
from .encoder import Encoder
from .tensor import ParameterSet
from .tokenizer import MaskedBatch, Vocabulary, apply_mlm_mask, encode_batch


class TrainingError(RuntimeError):
    """A training run that cannot go on. A loop that stops on a bad step
    sets ``report`` to its ``TrainReport``, stopping reason included."""

    report: "TrainReport | None" = None


@dataclasses.dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 8
    max_steps: int = 200
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    patience: int = 3
    eval_every: int = 50
    early_stop: bool = False
    seed: int = 0
    mask_rate: float = 0.15
    max_len: int = 64
    temperature: float = 0.05
    classes_per_batch: int = 4
    items_per_class: int = 4

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class TrainReport:
    loss_curve: list[float] = dataclasses.field(default_factory=list)
    val_steps: list[int] = dataclasses.field(default_factory=list)
    val_curve: list[float] = dataclasses.field(default_factory=list)
    val_metric_name: str = "loss"
    stopping_reason: str = ""
    steps: int = 0
    seconds: float = 0.0

    def to_json(self) -> str:
        rows = [{"step": i + 1, "loss": v} for i, v in enumerate(self.loss_curve)]
        return json.dumps({
            "steps": self.steps,
            "seconds": self.seconds,
            "stopping_reason": self.stopping_reason,
            "val_metric": self.val_metric_name,
            "validation": [{"step": s, "value": v}
                           for s, v in zip(self.val_steps, self.val_curve)],
            "loss": rows,
        }, indent=2)


class AdamState:
    def __init__(self):
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(params: ParameterSet, grads: dict[str, np.ndarray],
              state: AdamState, cfg: TrainConfig) -> None:
    """Standard bias-corrected Adam update on the trainable subset only.

    Every gradient is checked before anything changes: a wrong shape or a
    non-finite entry leaves the parameters and ``state`` untouched.
    """
    for name, g in grads.items():
        if g.shape != params[name].data.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for {name}")
    state.step += 1
    t = state.step
    for name, g in grads.items():
        p = params[name]
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m += (1 - cfg.beta1) * (g - m)
        v += (1 - cfg.beta2) * (g * g - v)
        m_hat = m / (1 - cfg.beta1 ** t)
        v_hat = v / (1 - cfg.beta2 ** t)
        p.data = p.data - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


def _index_split(n: int, seed: int) -> tuple[list[int], list[int]]:
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = int(0.9 * n + 0.5)
    return list(order[:n_train]), list(order[n_train:])


def mlm_loss(encoder: Encoder, batch: MaskedBatch, training: bool = False,
             rng: np.random.Generator | None = None) -> T.Tensor:
    hidden = encoder.forward(batch.input_ids, batch.attention_mask,
                             mode="mlm", training=training, rng=rng)
    logits = encoder.mlm_logits(hidden)
    return T.cross_entropy(logits, batch.labels, ignore_index=MaskedBatch.IGNORE)


def eval_mlm_loss(encoder: Encoder, texts: Sequence[str], vocab: Vocabulary,
                  cfg: TrainConfig, mask_seed: int = 12345) -> float:
    """Deterministic masked-LM loss: fixed mask seed, dropout off, no tape."""
    losses = []
    for start in range(0, len(texts), cfg.batch_size):
        chunk = list(texts[start:start + cfg.batch_size])
        ids, attn = encode_batch(chunk, vocab, cfg.max_len)
        batch = apply_mlm_mask(ids, attn, vocab, cfg.mask_rate,
                               seed=mask_seed + start)
        if (batch.labels == MaskedBatch.IGNORE).all():
            continue
        with T.no_grad():
            losses.append(mlm_loss(encoder, batch).item())
    if not losses:
        raise TrainingError("no maskable validation tokens")
    return float(np.mean(losses))


def _abort(report: TrainReport, step: int, start_time: float, reason: str,
           detail: str | None = None) -> TrainingError:
    """Close ``report`` on a step that cannot be taken; returns the error,
    which carries the report."""
    report.stopping_reason = reason
    report.steps = step
    report.seconds = time.time() - start_time
    err = TrainingError(f"{detail or reason} at step {step}")
    err.report = report
    return err


def _step(encoder: Encoder, loss: T.Tensor, state: AdamState, cfg: TrainConfig,
          report: TrainReport, step: int, start_time: float) -> None:
    """Backward and Adam update for one training step; a non-finite loss
    or gradient stops the run before any weight changes."""
    if not np.isfinite(loss.item()):
        raise _abort(report, step, start_time, "non-finite loss")
    report.loss_curve.append(loss.item())
    grads = T.gradients(loss, encoder.params)
    try:
        adam_step(encoder.params, grads, state, cfg)
    except TrainingError as e:
        raise _abort(report, step, start_time, "non-finite gradient", str(e)) from e
    report.steps = step


def _mlm_train(encoder: Encoder, texts: Sequence[str], vocab: Vocabulary,
               cfg: TrainConfig, mode: FreezeMode) -> TrainReport:
    if not texts:
        raise TrainingError("empty corpus")
    apply_freeze(encoder.params, mode)
    train_idx, val_idx = _index_split(len(texts), cfg.seed)
    train_texts = [texts[i] for i in train_idx]
    val_texts = [texts[i] for i in val_idx] or train_texts[:cfg.batch_size]

    rng = np.random.default_rng(cfg.seed)
    state = AdamState()
    report = TrainReport(val_metric_name="mlm_loss")
    start_time = time.time()
    best, bad_evals = np.inf, 0

    report.val_steps.append(0)
    report.val_curve.append(eval_mlm_loss(encoder, val_texts, vocab, cfg))

    for step in range(1, cfg.max_steps + 1):
        pick = rng.integers(0, len(train_texts), size=cfg.batch_size)
        chunk = [train_texts[i] for i in pick]
        ids, attn = encode_batch(chunk, vocab, cfg.max_len)
        batch = apply_mlm_mask(ids, attn, vocab, cfg.mask_rate, seed=rng)
        if (batch.labels == MaskedBatch.IGNORE).all():
            continue
        loss = mlm_loss(encoder, batch, training=True, rng=rng)
        _step(encoder, loss, state, cfg, report, step, start_time)

        if step % cfg.eval_every == 0 or step == cfg.max_steps:
            val = eval_mlm_loss(encoder, val_texts, vocab, cfg)
            report.val_steps.append(step)
            report.val_curve.append(val)
            if val < best - 1e-6:
                best, bad_evals = val, 0
            else:
                bad_evals += 1
                if cfg.early_stop and bad_evals >= cfg.patience:
                    report.stopping_reason = f"early stop after {bad_evals} flat evals"
                    break
    if not report.stopping_reason:
        report.stopping_reason = "max steps"
    report.seconds = time.time() - start_time
    return report


def pretrain_mlm(encoder: Encoder, texts: Sequence[str], vocab: Vocabulary,
                 cfg: TrainConfig) -> TrainReport:
    """MLM pretraining of the full backbone (no adapters trained)."""
    return _mlm_train(encoder, texts, vocab, cfg, FreezeMode.PRETRAIN_BACKBONE)


def train_language_adapter(encoder: Encoder, code_texts: Sequence[str],
                           vocab: Vocabulary, cfg: TrainConfig) -> TrainReport:
    """Train L-adapters + invertible adapter by MLM on code; backbone frozen."""
    if encoder.adapters is None:
        raise TrainingError("no adapter stack attached")
    if not encoder.adapters.plan.l_layers and not encoder.adapters.plan.invertible:
        raise TrainingError("placement plan has no language adapters")
    return _mlm_train(encoder, code_texts, vocab, cfg, FreezeMode.TRAIN_L_ADAPTER)


def _class_batches(labels: Sequence, rng: np.random.Generator,
                   classes_per_batch: int, items_per_class: int) -> list[int]:
    by_class: dict = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(i)
    eligible = [lab for lab, idxs in by_class.items() if len(idxs) >= 2]
    if not eligible:
        raise TrainingError("no class with >= 2 members")
    picked = rng.choice(len(eligible), size=min(classes_per_batch, len(eligible)),
                        replace=False)
    batch = []
    for c in picked:
        idxs = by_class[eligible[c]]
        take = min(items_per_class, len(idxs))
        batch.extend(rng.choice(idxs, size=take, replace=False).tolist())
    return batch


def train_task_adapter(encoder: Encoder, train_data, val_data,
                       vocab: Vocabulary, cfg: TrainConfig,
                       task_kind: str) -> TrainReport:
    """Train T-adapters (+ task head) with everything else frozen.

    ``task_kind`` is "retrieval" (in-batch negative sampling, MAP@R
    validation) or "pair_classification" (binary cross-entropy, F1
    validation). Early stopping monitors the validation metric.
    """
    if task_kind not in ("retrieval", "pair_classification"):
        raise TrainingError(f"unknown task kind {task_kind!r}")
    if encoder.adapters is None:
        raise TrainingError("no adapter stack attached")
    if not val_data:
        raise TrainingError("task dataset needs a validation split")
    if task_kind == "pair_classification" and "head.pair.w" not in encoder.params:
        tasks.register_pair_head(encoder.params, encoder.config.hidden_size)
    apply_freeze(encoder.params, FreezeMode.TRAIN_T_ADAPTER)
    # Task training removes the output-side inverse path; the input-side
    # invertible forward stays.
    encoder.adapters.output_inverse_enabled = False

    rng = np.random.default_rng(cfg.seed)
    state = AdamState()
    report = TrainReport(val_metric_name="map_at_r" if task_kind == "retrieval" else "f1")
    start_time = time.time()
    best, bad_evals = -np.inf, 0

    def validate() -> float:
        if task_kind == "retrieval":
            res = tasks.embed_corpus(encoder, val_data, vocab, cfg.max_len)
            return tasks.map_at_r(res.embeddings, res.labels, res.ids).map_at_r
        return tasks.eval_pairs(encoder, val_data, vocab, max_len=cfg.max_len)["f1"]

    report.val_steps.append(0)
    report.val_curve.append(validate())
    best = report.val_curve[0]

    for step in range(1, cfg.max_steps + 1):
        if task_kind == "retrieval":
            idx = _class_batches([r.label for r in train_data], rng,
                                 cfg.classes_per_batch, cfg.items_per_class)
            items: list[RetrievalRecord] = [train_data[i] for i in idx]
            ids, attn = encode_batch([r.code for r in items], vocab, cfg.max_len)
            hidden = encoder.forward(ids, attn, mode="embed", training=True, rng=rng)
            emb = encoder.sequence_embedding(hidden, attn)
            loss, _ = tasks.in_batch_negative_loss(emb, [r.label for r in items],
                                                   cfg.temperature)
        else:
            pick = rng.integers(0, len(train_data), size=cfg.batch_size)
            pairs: list[PairRecord] = [train_data[i] for i in pick]
            texts = [p.code_a for p in pairs] + [p.code_b for p in pairs]
            ids, attn = encode_batch(texts, vocab, cfg.max_len)
            hidden = encoder.forward(ids, attn, mode="embed", training=True, rng=rng)
            emb = encoder.sequence_embedding(hidden, attn)
            k = len(pairs)
            e_a = T.tslice(emb, (slice(0, k), slice(None)))
            e_b = T.tslice(emb, (slice(k, 2 * k), slice(None)))
            logit = tasks.pair_logits(encoder.params, e_a, e_b)
            y = T.Tensor(np.array([[float(p.label)] for p in pairs]))
            # stable BCE-with-logits: softplus(z) - y*z
            softplus = T.add(T.relu(logit),
                             T.log(T.add(T.Tensor(1.0),
                                         T.exp(T.mul(T.absolute(logit),
                                                     T.Tensor(-1.0))))))
            loss = T.tmean(T.sub(softplus, T.mul(y, logit)))
        _step(encoder, loss, state, cfg, report, step, start_time)

        if step % cfg.eval_every == 0 or step == cfg.max_steps:
            val = validate()
            report.val_steps.append(step)
            report.val_curve.append(val)
            if val > best + 1e-6:
                best, bad_evals = val, 0
            else:
                bad_evals += 1
                if cfg.early_stop and bad_evals >= cfg.patience:
                    report.stopping_reason = f"early stop after {bad_evals} flat evals"
                    break
    if not report.stopping_reason:
        report.stopping_reason = "max steps"
    report.seconds = time.time() - start_time
    return report
