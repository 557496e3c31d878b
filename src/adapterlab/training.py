"""Training: MLM pretraining of the backbone, L-adapter training on code,
T-adapter training on task data. The three share one loop (``_fit``) and
differ only in their batch loss and validation metric. Adam with bias
correction, inverted dropout, early stopping on a validation metric.

Each step is mixed precision: the forward and backward passes run in
float32 over float32 copies of the weights, and Adam updates the float64
master weights with the float64 gradients. Validation, and every call made
outside a step, stays float64.

All randomness flows from TrainConfig.seed through one generator, so a fixed
seed and data order reproduce checkpoints bit-exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import time
from typing import Callable, Sequence

import numpy as np

from . import tasks
from . import tensor as T
from .adapters import FreezeMode, apply_freeze
from .corpus import PairRecord, RetrievalRecord
from .encoder import Encoder
from .schema import JsonConfig, check
from .tensor import ParameterSet
from .tokenizer import MaskedBatch, Vocabulary, apply_mlm_mask, encode_batch


class TrainingError(RuntimeError):
    """A training run that cannot go on. When the loop stops on a bad step,
    ``report`` is its closed ``TrainReport``, stopping reason included."""

    report: "TrainReport | None" = None


@dataclasses.dataclass
class TrainConfig(JsonConfig):
    learning_rate: float = 1e-4
    batch_size: int = 8
    max_steps: int = 200
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
        check(self, "> 0", lambda v: v > 0, "learning_rate", "temperature")
        check(self, ">= 1", lambda v: v >= 1, "batch_size", "patience", "eval_every",
              "max_len", "classes_per_batch", "items_per_class")
        check(self, ">= 0", lambda v: v >= 0, "max_steps", "seed")
        check(self, "in [0, 1]", lambda v: 0 <= v <= 1, "mask_rate")


@dataclasses.dataclass
class TrainReport:
    loss_curve: list[float] = dataclasses.field(default_factory=list)
    loss_steps: list[int] = dataclasses.field(default_factory=list)
    val_steps: list[int] = dataclasses.field(default_factory=list)
    val_curve: list[float] = dataclasses.field(default_factory=list)
    val_metric_name: str = "loss"
    stopping_reason: str = ""
    steps: int = 0
    seconds: float = 0.0
    skipped_batches: int = 0  # steps whose batch had no label to learn

    def to_json(self) -> str:
        rows = [{"step": s, "loss": v} for s, v in zip(self.loss_steps, self.loss_curve)]
        return json.dumps({
            "steps": self.steps,
            "seconds": self.seconds,
            "stopping_reason": self.stopping_reason,
            "skipped_batches": self.skipped_batches,
            "val_metric": self.val_metric_name,
            "validation": [{"step": s, "value": v}
                           for s, v in zip(self.val_steps, self.val_curve)],
            "loss": rows,
        }, indent=2)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # the usual Adam defaults


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
        m += (1 - ADAM_BETA1) * (g - m)
        v += (1 - ADAM_BETA2) * (g * g - v)
        m_hat = m / (1 - ADAM_BETA1 ** t)
        v_hat = v / (1 - ADAM_BETA2 ** t)
        p.data = p.data - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _index_split(n: int, seed: int) -> tuple[list[int], list[int]]:
    """90/10 train/validation split of ``n`` texts (the MLM trainers)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = int(0.9 * n + 0.5)
    return list(order[:n_train]), list(order[n_train:])


def class_split(records: Sequence[RetrievalRecord], seed: int
                ) -> tuple[list[RetrievalRecord], list[RetrievalRecord]]:
    """Per-class train/validation split of retrieval records: at least two
    held-out members per class (classes too small to spare two stay entirely
    in training), so MAP@R on the validation set never sees singleton
    classes."""
    by_class: dict = {}
    for r in records:
        by_class.setdefault(r.label, []).append(r)
    train, val = [], []
    for label in sorted(by_class):
        members = sorted(
            by_class[label],
            key=lambda r: hashlib.sha256(f"{seed}:{r.id}".encode()).hexdigest())
        n_val = max(2, round(0.1 * len(members))) if len(members) >= 4 else 0
        val.extend(members[:n_val])
        train.extend(members[n_val:])
    if not val:
        raise TrainingError("every retrieval class is too small to hold out "
                            "validation members (need >= 4 per class)")
    return train, val


def mlm_loss(encoder: Encoder, batch: MaskedBatch,
             rng: np.random.Generator | None = None) -> T.Tensor:
    """Cross-entropy over the masked positions, which alone run the last
    layer's per-position work and the MLM head; ``rng`` turns dropout on."""
    rows = np.nonzero(batch.labels != MaskedBatch.IGNORE)
    hidden = encoder.forward(batch.input_ids, batch.attention_mask, mode="mlm",
                             training=rng is not None, rng=rng, rows=rows)
    return T.cross_entropy(encoder.mlm_logits(hidden), batch.labels[rows])


_EVAL_MASK_SEED = 12345


def eval_mlm_loss(encoder: Encoder, texts: Sequence[str], vocab: Vocabulary,
                  cfg: TrainConfig) -> float:
    """Deterministic masked-LM loss: fixed mask seed, dropout off, no tape."""
    losses = []
    for start in range(0, len(texts), cfg.batch_size):
        chunk = list(texts[start:start + cfg.batch_size])
        ids, attn = encode_batch(chunk, vocab, cfg.max_len)
        batch = apply_mlm_mask(ids, attn, vocab, cfg.mask_rate,
                               seed=_EVAL_MASK_SEED + start)
        if (batch.labels == MaskedBatch.IGNORE).all():
            continue
        with T.no_grad():
            losses.append(mlm_loss(encoder, batch).item())
    if not losses:
        raise TrainingError("no maskable validation tokens")
    return float(np.mean(losses))


STEP_DTYPE = np.float32  # the dtype a training step computes in


@contextlib.contextmanager
def _step_weights(params: ParameterSet, frozen: dict[str, np.ndarray]):
    """Every parameter holds its ``STEP_DTYPE`` copy inside the block: the
    frozen ones the copies in ``frozen``, the trainable ones a fresh cast of
    their masters. The float64 masters come back however the block ends."""
    masters = {name: t.data for name, t in params.items()}
    try:
        for name, t in params.items():
            t.data = frozen[name] if name in frozen else t.data.astype(STEP_DTYPE)
        with T.compute_dtype(STEP_DTYPE):
            yield
    finally:
        for name, t in params.items():
            t.data = masters[name]


def _fit(encoder: Encoder, cfg: TrainConfig, mode: FreezeMode, report: TrainReport,
         batch_loss: Callable[[np.random.Generator], T.Tensor | None],
         validate: Callable[[], float], higher_is_better: bool) -> TrainReport:
    """The one training loop of every trainer. Freezes per ``mode``, then
    takes ``cfg.max_steps`` Adam steps on ``batch_loss(rng)``; a batch with
    nothing to learn returns None and is counted, not stepped. The loss and
    its gradients are computed in ``STEP_DTYPE`` (see ``_step_weights``),
    the update in float64. ``validate()`` runs in float64 at step 0, every
    ``cfg.eval_every`` steps and at the last step. With ``cfg.early_stop``,
    ``cfg.patience`` validations in a row that do not beat the best so far
    (step 0 included) stop the run.

    A step that cannot be taken (a non-finite forward pass, loss or
    gradient) stops the run before any weight changes and raises
    ``TrainingError`` carrying the closed report.
    """
    params = encoder.params
    apply_freeze(params, mode)
    frozen = {name: t.data.astype(STEP_DTYPE) for name, t in params.items()
              if not t.requires_grad}
    rng = np.random.default_rng(cfg.seed)
    state = AdamState()
    start_time = time.perf_counter()

    def abort(step: int, reason: str, detail: str | None = None) -> TrainingError:
        report.stopping_reason = reason
        report.steps = step
        report.seconds = time.perf_counter() - start_time
        err = TrainingError(f"{detail or reason} at step {step}")
        err.report = report
        return err

    def evaluate(step: int) -> float:
        try:
            val = validate()
        except T.NumericError as e:
            raise abort(step, "non-finite forward pass", str(e)) from e
        report.val_steps.append(step)
        report.val_curve.append(val)
        return val

    best, bad_evals = evaluate(0), 0
    for step in range(1, cfg.max_steps + 1):
        with _step_weights(params, frozen):
            try:
                loss = batch_loss(rng)
            except T.NumericError as e:
                raise abort(step, "non-finite forward pass", str(e)) from e
            if loss is not None:
                if not np.isfinite(loss.item()):
                    raise abort(step, "non-finite loss")
                grads = T.gradients(loss, params)
        if loss is None:
            report.skipped_batches += 1
        else:
            report.loss_steps.append(step)
            report.loss_curve.append(loss.item())
            grads = {name: g.astype(np.float64) for name, g in grads.items()}
            try:
                adam_step(params, grads, state, cfg)
            except TrainingError as e:
                raise abort(step, "non-finite gradient", str(e)) from e
        report.steps = step

        if step % cfg.eval_every == 0 or step == cfg.max_steps:
            val = evaluate(step)
            if (val > best + 1e-6) if higher_is_better else (val < best - 1e-6):
                best, bad_evals = val, 0
            else:
                bad_evals += 1
                if cfg.early_stop and bad_evals >= cfg.patience:
                    report.stopping_reason = f"early stop after {bad_evals} flat evals"
                    break
    if not report.stopping_reason:
        report.stopping_reason = "max steps"
    report.seconds = time.perf_counter() - start_time
    return report


def _mlm_train(encoder: Encoder, texts: Sequence[str], vocab: Vocabulary,
               cfg: TrainConfig, mode: FreezeMode) -> TrainReport:
    if not texts:
        raise TrainingError("empty corpus")
    train_idx, val_idx = _index_split(len(texts), cfg.seed)
    train_texts = [texts[i] for i in train_idx]
    val_texts = [texts[i] for i in val_idx] or train_texts[:cfg.batch_size]

    def batch_loss(rng: np.random.Generator) -> T.Tensor | None:
        pick = rng.integers(0, len(train_texts), size=cfg.batch_size)
        ids, attn = encode_batch([train_texts[i] for i in pick], vocab, cfg.max_len)
        batch = apply_mlm_mask(ids, attn, vocab, cfg.mask_rate, seed=rng)
        if (batch.labels == MaskedBatch.IGNORE).all():
            return None
        return mlm_loss(encoder, batch, rng=rng)

    return _fit(encoder, cfg, mode, TrainReport(val_metric_name="mlm_loss"),
                batch_loss, lambda: eval_mlm_loss(encoder, val_texts, vocab, cfg),
                higher_is_better=False)


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
    if not train_data or not val_data:
        raise TrainingError("task dataset needs training items and a validation split")
    if task_kind == "pair_classification" and "head.pair.w" not in encoder.params:
        tasks.register_pair_head(encoder.params, encoder.config.hidden_size)

    if task_kind == "retrieval":
        def batch_loss(rng: np.random.Generator) -> T.Tensor:
            idx = _class_batches([r.label for r in train_data], rng,
                                 cfg.classes_per_batch, cfg.items_per_class)
            items: list[RetrievalRecord] = [train_data[i] for i in idx]
            emb = tasks.embed_texts(encoder, [r.code for r in items], vocab, cfg.max_len, rng)
            return tasks.in_batch_negative_loss(emb, [r.label for r in items],
                                                cfg.temperature)[0]

        def validate() -> float:
            res = tasks.embed_corpus(encoder, val_data, vocab, cfg.max_len)
            return tasks.map_at_r(res.embeddings, res.labels, res.ids).map_at_r
    else:
        def batch_loss(rng: np.random.Generator) -> T.Tensor:
            pick = rng.integers(0, len(train_data), size=cfg.batch_size)
            pairs: list[PairRecord] = [train_data[i] for i in pick]
            logit = tasks.pair_batch_logits(encoder, pairs, vocab, cfg.max_len, rng=rng)
            y = T.Tensor(np.array([[float(p.label)] for p in pairs]))
            # stable BCE-with-logits: softplus(z) - y*z
            softplus = T.add(T.relu(logit),
                             T.log(T.add(T.Tensor(1.0),
                                         T.exp(T.mul(T.absolute(logit),
                                                     T.Tensor(-1.0))))))
            return T.tmean(T.sub(softplus, T.mul(y, logit)))

        def validate() -> float:
            return tasks.eval_pairs(encoder, val_data, vocab, max_len=cfg.max_len)["f1"]

    report = TrainReport(val_metric_name="map_at_r" if task_kind == "retrieval" else "f1")
    return _fit(encoder, cfg, FreezeMode.TRAIN_T_ADAPTER, report, batch_loss,
                validate, higher_is_better=True)
