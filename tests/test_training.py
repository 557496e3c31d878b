"""Training loops: Adam reference math, loss decrease, freeze contracts,
determinism, early stopping, and error paths."""

import dataclasses
import json

import numpy as np
import pytest

from adapterlab import tasks, training
from adapterlab import tensor as T
from adapterlab.adapters import PlacementPlan, attach, checksum
from adapterlab.corpus import PairRecord
from adapterlab.encoder import Encoder, EncoderConfig
from adapterlab.synth import (pairs_from_retrieval, synth_clone_classes, synth_code_records,
                              synth_nl_corpus)
from adapterlab.tensor import ParameterSet
from adapterlab.tokenizer import apply_mlm_mask, encode_batch, train_bpe
from adapterlab.training import (AdamState, TrainConfig, TrainingError,
                                 adam_step, eval_mlm_loss, pretrain_mlm,
                                 train_language_adapter, train_task_adapter)

CFG = EncoderConfig(num_layers=2, hidden_size=32, num_heads=4, ffn_size=64,
                    vocab_size=1, max_positions=64, dropout=0.1)


@pytest.fixture(scope="module")
def corpus_and_vocab():
    texts = synth_nl_corpus(300, seed=0)
    vocab = train_bpe(texts, 400)
    return texts, vocab


def _encoder(vocab, seed=0):
    cfg = EncoderConfig(**{**CFG.to_dict(), "vocab_size": vocab.size})
    return Encoder(cfg, seed=seed)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)


def test_adam_step_matches_reference():
    ps = ParameterSet()
    ps.add("w", np.array([1.0, -2.0]))
    g = np.array([0.5, -0.1])
    cfg = TrainConfig(learning_rate=0.1)
    state = AdamState()
    adam_step(ps, {"w": g}, state, cfg)
    # closed form for the first step: update = lr * sign-ish expression
    m = (1 - training.ADAM_BETA1) * g
    v = (1 - training.ADAM_BETA2) * g * g
    m_hat = m / (1 - training.ADAM_BETA1)
    v_hat = v / (1 - training.ADAM_BETA2)
    want = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + training.ADAM_EPS)
    assert np.allclose(ps["w"].data, want, atol=1e-12)
    assert state.step == 1


def test_adam_step_shape_mismatch():
    ps = ParameterSet()
    ps.add("w", np.zeros(3))
    with pytest.raises(ValueError):
        adam_step(ps, {"w": np.zeros(2)}, AdamState(), TrainConfig())


def test_adam_step_non_finite_gradient_changes_nothing():
    ps = ParameterSet()
    ps.add("w", np.array([1.0, -2.0]))
    ps.add("b", np.array([0.5]))
    cfg, state = TrainConfig(learning_rate=0.1), AdamState()
    adam_step(ps, {"w": np.array([0.5, -0.1]), "b": np.array([0.2])}, state, cfg)
    before = {n: t.data.tobytes() for n, t in ps.items()}
    moments = [{n: a.tobytes() for n, a in d.items()} for d in (state.m, state.v)]
    with pytest.raises(TrainingError, match="non-finite gradient for b"):
        adam_step(ps, {"w": np.array([0.3, 0.3]), "b": np.array([np.nan])}, state, cfg)
    assert {n: t.data.tobytes() for n, t in ps.items()} == before
    assert [{n: a.tobytes() for n, a in d.items()} for d in (state.m, state.v)] == moments
    assert state.step == 1


def _poisoned_gradients(monkeypatch):
    clean = T.gradients

    def poisoned(loss, params):
        grads = clean(loss, params)
        grads[next(iter(grads))] = np.full_like(next(iter(grads.values())), np.inf)
        return grads
    monkeypatch.setattr(T, "gradients", poisoned)


def _poisoned_contrastive_loss(monkeypatch):
    clean = tasks.in_batch_negative_loss

    def poisoned(*args, **kwargs):
        loss, skipped = clean(*args, **kwargs)
        return T.mul(loss, T.Tensor(np.nan)), skipped
    monkeypatch.setattr(tasks, "in_batch_negative_loss", poisoned)


@pytest.mark.parametrize("loop, fault, reason", [
    ("pretrain", _poisoned_gradients, "non-finite gradient"),
    ("task", _poisoned_gradients, "non-finite gradient"),
    ("task", _poisoned_contrastive_loss, "non-finite loss"),
])
def test_non_finite_step_stops_with_report(corpus_and_vocab, monkeypatch,
                                           loop, fault, reason):
    texts, vocab = corpus_and_vocab
    enc = _encoder(vocab)
    cfg = TrainConfig(learning_rate=1e-3, max_steps=5, eval_every=5, max_len=32,
                      seed=0, classes_per_batch=3, items_per_class=2)
    if loop == "task":
        attach(enc, PlacementPlan.full(CFG.num_layers, t_adapters=True), seed=3)
        items = synth_clone_classes(5, 6, seed=0)
    before = checksum(enc.params)
    fault(monkeypatch)
    with pytest.raises(TrainingError, match=f"{reason}.* at step 1") as info:
        if loop == "task":
            train_task_adapter(enc, items[:20], items[20:], vocab, cfg, "retrieval")
        else:
            pretrain_mlm(enc, texts, vocab, cfg)
    report = info.value.report
    assert report is not None and report.stopping_reason == reason
    assert report.steps == 1 and report.val_steps == [0]
    assert checksum(enc.params) == before


@pytest.mark.parametrize("faulty, step, val_steps", [(True, 1, [0]), (False, 0, [])],
                         ids=["training-batch", "validation"])
def test_non_finite_forward_pass_stops_with_report(corpus_and_vocab, monkeypatch,
                                                   faulty, step, val_steps):
    """A forward pass that raises NumericError, in a training batch
    (``faulty=True``) or in validation, stops the run with its report."""
    texts, vocab = corpus_and_vocab
    enc = _encoder(vocab)
    clean = Encoder.forward

    def overflowing(self, *args, **kwargs):
        if kwargs.get("training", False) == faulty:
            raise T.NumericError("non-finite hidden states")
        return clean(self, *args, **kwargs)
    monkeypatch.setattr(Encoder, "forward", overflowing)
    before = checksum(enc.params)
    cfg = TrainConfig(learning_rate=1e-3, max_steps=5, eval_every=5, max_len=32)
    with pytest.raises(TrainingError, match=f"non-finite hidden states at step {step}") as info:
        pretrain_mlm(enc, texts, vocab, cfg)
    report = info.value.report
    assert report.stopping_reason == "non-finite forward pass"
    assert report.steps == step and report.val_steps == val_steps
    assert checksum(enc.params) == before


def test_skipped_batch_is_counted_and_still_validated(corpus_and_vocab, monkeypatch):
    """A training batch with no label to learn takes no step, but it is
    counted, and the validation due at that step (here the last) runs. Each
    loss row carries the step it was taken at."""
    texts, vocab = corpus_and_vocab
    clean, calls = training.apply_mlm_mask, []

    def blank_second_and_sixth_batch(*args, **kwargs):
        batch = clean(*args, **kwargs)
        if isinstance(kwargs.get("seed"), np.random.Generator):  # a training batch
            calls.append(1)
            if len(calls) in (2, 6):
                batch.labels[:] = batch.IGNORE
        return batch
    monkeypatch.setattr(training, "apply_mlm_mask", blank_second_and_sixth_batch)
    cfg = TrainConfig(learning_rate=1e-3, max_steps=6, eval_every=3, max_len=32)
    report = pretrain_mlm(_encoder(vocab), texts, vocab, cfg)
    assert report.skipped_batches == 2 and len(report.loss_curve) == 4
    assert report.steps == 6 and report.val_steps == [0, 3, 6]
    assert report.stopping_reason == "max steps"
    doc = json.loads(report.to_json())
    assert doc["skipped_batches"] == 2
    assert [row["step"] for row in doc["loss"]] == [1, 3, 4, 5]
    assert [row["loss"] for row in doc["loss"]] == report.loss_curve


def _trainer(kind, corpus_and_vocab):
    """(encoder, run) for one short run of a trainer: ``pretrain``, the
    L-adapter MLM loop ``lang``, or a ``retrieval`` or ``pair`` T-adapter."""
    texts, vocab = corpus_and_vocab
    enc = _encoder(vocab)
    cfg = TrainConfig(learning_rate=1e-3, max_steps=2, eval_every=2, max_len=32, seed=0,
                      batch_size=4, classes_per_batch=3, items_per_class=2)
    if kind == "pretrain":
        return enc, lambda: pretrain_mlm(enc, texts, vocab, cfg)
    attach(enc, PlacementPlan.full(CFG.num_layers, t_adapters=True), seed=3)
    if kind == "lang":
        code = [r.code for r in synth_code_records("alpha", 40, seed=1)]
        return enc, lambda: train_language_adapter(enc, code, vocab, cfg)
    items = synth_clone_classes(5, 6, seed=0)
    if kind == "pair":
        tasks.register_pair_head(enc.params, CFG.hidden_size)
        items = pairs_from_retrieval(items, 24, seed=0)
    task = "retrieval" if kind == "retrieval" else "pair_classification"
    return enc, lambda: train_task_adapter(enc, items[:20], items[20:], vocab, cfg, task)


@pytest.mark.parametrize("kind", ["pretrain", "lang", "retrieval", "pair"])
def test_trainer_steps_in_float32_over_float64_masters(corpus_and_vocab, monkeypatch, kind):
    """Every tape node of every step, and every gradient its backward
    returns, is float32; Adam gets float64 gradients; after the run every
    parameter is float64 and the frozen ones hold their bytes from before
    it."""
    enc, run = _trainer(kind, corpus_and_vocab)
    before = {name: t.data.tobytes() for name, t in enc.params.items()}
    clean, seen, steps = T.gradients, set(), []

    def audited(loss, params):
        stack, visited = [loss], set()
        while stack:
            t = stack.pop()
            if id(t) not in visited:
                visited.add(id(t))
                seen.add(t.data.dtype)
                if t._backward is not None:
                    def backward(g, inner=t._backward):
                        grads = inner(g)
                        seen.update(x.dtype for x in grads if x is not None)
                        return grads
                    t._backward = backward
                stack.extend(t._parents)
        grads = clean(loss, params)
        seen.update(g.dtype for g in grads.values())
        steps.append(len(visited))
        return grads
    clean_adam, adam_dtypes = training.adam_step, set()

    def recorded_adam(params, grads, *args):
        adam_dtypes.update(g.dtype for g in grads.values())
        return clean_adam(params, grads, *args)
    monkeypatch.setattr(T, "gradients", audited)
    monkeypatch.setattr(training, "adam_step", recorded_adam)
    run()
    assert len(steps) == 2 and seen == {np.dtype(np.float32)}
    assert adam_dtypes == {np.dtype(np.float64)}
    assert all(t.data.dtype == np.float64 for _, t in enc.params.items())
    frozen = [name for name in enc.params if not enc.params.is_trainable(name)]
    assert (kind == "pretrain") != bool(frozen)
    assert all(enc.params[name].data.tobytes() == before[name] for name in frozen)
    assert any(enc.params[name].data.tobytes() != before[name]
               for name in enc.params.trainable_names())


@pytest.mark.parametrize("kind, weight", [("pretrain", "mlm.bias"),
                                          ("lang", "l_adapter.1.up.b"),
                                          ("retrieval", "t_adapter.1.up.b"),
                                          ("pair", "head.pair.b")])
@pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
def test_weight_that_overflows_float32_stops_the_run(corpus_and_vocab, kind, weight):
    """A trainable weight of 1e39 is finite in float64 and inf in float32:
    the first step fails, and every parameter keeps its float64 bytes."""
    enc, run = _trainer(kind, corpus_and_vocab)
    enc.params[weight].data[0] = 1e39
    before = {name: (t.data.dtype, t.data.tobytes()) for name, t in enc.params.items()}
    with pytest.raises(TrainingError, match="at step 1") as info:
        run()
    assert info.value.report.steps == 1 and info.value.report.loss_curve == []
    assert {name: (t.data.dtype, t.data.tobytes()) for name, t in enc.params.items()} == before


def test_pretrain_reduces_val_loss(corpus_and_vocab):
    texts, vocab = corpus_and_vocab
    enc = _encoder(vocab)
    cfg = TrainConfig(learning_rate=1e-3, max_steps=60, eval_every=60,
                      max_len=32, seed=0)
    report = pretrain_mlm(enc, texts, vocab, cfg)
    assert report.val_curve[0] > report.val_curve[-1]
    assert report.steps == 60
    assert report.val_steps[0] == 0
    assert report.stopping_reason == "max steps"
    assert "validation" in report.to_json()


def test_pretrain_bit_exact_determinism(corpus_and_vocab):
    texts, vocab = corpus_and_vocab
    cfg = TrainConfig(learning_rate=1e-3, max_steps=10, eval_every=10,
                      max_len=32, seed=5)
    enc1, enc2 = _encoder(vocab), _encoder(vocab)
    pretrain_mlm(enc1, texts, vocab, cfg)
    pretrain_mlm(enc2, texts, vocab, cfg)
    assert checksum(enc1.params) == checksum(enc2.params)


def test_pretrain_empty_corpus(corpus_and_vocab):
    _, vocab = corpus_and_vocab
    with pytest.raises(TrainingError):
        pretrain_mlm(_encoder(vocab), [], vocab, TrainConfig())


def test_language_adapter_freezes_backbone(corpus_and_vocab):
    texts, vocab = corpus_and_vocab
    enc = _encoder(vocab)
    code = [r.code for r in synth_code_records("alpha", 60, seed=1)]
    attach(enc, PlacementPlan.full(CFG.num_layers, invertible=True), seed=2)
    backbone_before = checksum(enc.params, "emb."), checksum(enc.params, "layer."), \
        checksum(enc.params, "mlm.")
    adapter_before = checksum(enc.params, "l_adapter."), checksum(enc.params, "inv.")
    cfg = TrainConfig(learning_rate=1e-3, max_steps=20, eval_every=20,
                      max_len=48, seed=0)
    train_language_adapter(enc, code, vocab, cfg)
    backbone_after = checksum(enc.params, "emb."), checksum(enc.params, "layer."), \
        checksum(enc.params, "mlm.")
    adapter_after = checksum(enc.params, "l_adapter."), checksum(enc.params, "inv.")
    assert backbone_before == backbone_after
    assert adapter_before != adapter_after


def test_language_adapter_requires_stack(corpus_and_vocab):
    texts, vocab = corpus_and_vocab
    with pytest.raises(TrainingError):
        train_language_adapter(_encoder(vocab), texts, vocab, TrainConfig())


def test_task_adapter_freezes_backbone_and_l_adapters(corpus_and_vocab):
    _, vocab = corpus_and_vocab
    enc = _encoder(vocab)
    attach(enc, PlacementPlan.full(CFG.num_layers, t_adapters=True,
                                   invertible=True), seed=3)
    items = synth_clone_classes(5, 6, seed=0)
    train, val = items[:20], items[20:]
    t_before = checksum(enc.params, "t_adapter.")
    rng = np.random.default_rng(6)
    for name in enc.params.names():
        if name.startswith("inv."):
            enc.params[name].data = rng.normal(size=enc.params[name].data.shape) * 0.1
    x = T.Tensor(rng.normal(size=(2, CFG.hidden_size)))
    inverse_before = enc.adapters.output_inverse(x).data
    frozen_before = (checksum(enc.params, "emb."), checksum(enc.params, "layer."),
                     checksum(enc.params, "l_adapter."), checksum(enc.params, "inv."))
    cfg = TrainConfig(learning_rate=1e-3, max_steps=8, eval_every=8,
                      max_len=48, seed=0, classes_per_batch=3, items_per_class=2)
    report = train_task_adapter(enc, train, val, vocab, cfg, "retrieval")
    frozen_after = (checksum(enc.params, "emb."), checksum(enc.params, "layer."),
                    checksum(enc.params, "l_adapter."), checksum(enc.params, "inv."))
    assert frozen_before == frozen_after
    assert checksum(enc.params, "t_adapter.") != t_before
    assert report.val_metric_name == "map_at_r"
    # the MLM output path of the caller's model is left as it was
    inverse_after = enc.adapters.output_inverse(x).data
    assert np.array_equal(inverse_after, inverse_before)
    assert not np.allclose(inverse_after, x.data)


def test_task_adapter_pair_classification_registers_head(corpus_and_vocab):
    _, vocab = corpus_and_vocab
    from adapterlab.synth import pairs_from_retrieval
    enc = _encoder(vocab)
    attach(enc, PlacementPlan.full(CFG.num_layers, t_adapters=True,
                                   invertible=True), seed=3)
    items = synth_clone_classes(4, 4, seed=1)
    pairs = pairs_from_retrieval(items, 24, seed=0)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=4, max_steps=4,
                      eval_every=4, max_len=48, seed=0)
    report = train_task_adapter(enc, pairs[:20], pairs[20:], vocab, cfg,
                                "pair_classification")
    assert "head.pair.w" in enc.params
    assert report.val_metric_name == "f1"


def test_task_adapter_validation_errors(corpus_and_vocab):
    _, vocab = corpus_and_vocab
    enc = _encoder(vocab)
    attach(enc, PlacementPlan.full(CFG.num_layers, t_adapters=True), seed=0)
    items = synth_clone_classes(3, 4, seed=0)
    with pytest.raises(TrainingError):
        train_task_adapter(enc, items, [], vocab, TrainConfig(), "retrieval")
    with pytest.raises(TrainingError):
        train_task_adapter(enc, items, items, vocab, TrainConfig(), "ranking")
    bare = _encoder(vocab)
    with pytest.raises(TrainingError):
        train_task_adapter(bare, items, items, vocab, TrainConfig(), "retrieval")


def test_early_stopping_fires(corpus_and_vocab):
    texts, vocab = corpus_and_vocab
    enc = _encoder(vocab)
    # absurd learning rate keeps validation flat-or-worse quickly
    cfg = TrainConfig(learning_rate=1e-9, max_steps=40, eval_every=5,
                      early_stop=True, patience=2, max_len=32, seed=0)
    report = pretrain_mlm(enc, texts, vocab, cfg)
    # the step-0 validation counts as the best so far: flat at 5 and 10
    assert report.val_steps == [0, 5, 10]
    assert report.steps == 10
    assert "early stop" in report.stopping_reason


def test_eval_mlm_loss_deterministic(corpus_and_vocab):
    texts, vocab = corpus_and_vocab
    enc = _encoder(vocab)
    cfg = TrainConfig(max_len=32)
    a = eval_mlm_loss(enc, texts[:20], vocab, cfg)
    b = eval_mlm_loss(enc, texts[:20], vocab, cfg)
    assert a == b


def test_class_split_holds_out_two_per_class():
    """Classes of four or more members give at least two to validation;
    smaller ones stay whole in training; the split depends only on the seed."""
    tiny = [dataclasses.replace(r, id=f"tiny-{r.id}", label="tiny")
            for r in synth_clone_classes(1, 3, seed=1)]
    records = synth_clone_classes(3, 5, seed=0) + tiny
    train, val = training.class_split(records, seed=7)
    assert sorted(r.id for r in train + val) == sorted(r.id for r in records)
    by_class = {}
    for r in val:
        by_class[r.label] = by_class.get(r.label, 0) + 1
    assert by_class == {"class00": 2, "class01": 2, "class02": 2}
    assert training.class_split(records, seed=7) == (train, val)
    assert {r.label for r in train} == {"class00", "class01", "class02", "tiny"}
    with pytest.raises(TrainingError, match="too small"):
        training.class_split(tiny, seed=7)


@pytest.mark.parametrize("training_mode", [False, True], ids=["eval", "training"])
def test_mlm_loss_equals_the_full_head_loss_and_gradients(corpus_and_vocab, training_mode):
    """The masked-rows loss against the MLM head over every position, with
    every parameter (backbone and adapters) trainable."""
    texts, vocab = corpus_and_vocab
    enc = _encoder(vocab)
    attach(enc, PlacementPlan.full(CFG.num_layers), seed=3)
    ids, attn = encode_batch(texts[:6], vocab, 24)
    batch = apply_mlm_mask(ids, attn, vocab, 0.3, seed=1)

    def full_head_loss(rng):
        hidden = enc.forward(batch.input_ids, batch.attention_mask, training=training_mode,
                             rng=rng)
        return T.cross_entropy(enc.mlm_logits(hidden), batch.labels)

    got = training.mlm_loss(enc, batch, np.random.default_rng(2) if training_mode else None)
    want = full_head_loss(np.random.default_rng(2))
    assert abs(got.item() - want.item()) < 1e-12
    got_grads, want_grads = T.gradients(got, enc.params), T.gradients(want, enc.params)
    assert set(got_grads) == set(want_grads) == set(enc.params.names())
    for name, g in want_grads.items():
        assert np.abs(got_grads[name] - g).max() < 1e-12, name


@pytest.mark.parametrize("call", ["embed_texts", "pair_batch_logits", "mlm_loss"])
def test_dropout_follows_the_rng(corpus_and_vocab, call):
    """Without an rng a helper runs no dropout, so two calls agree; two
    different rngs draw different masks."""
    texts, vocab = corpus_and_vocab
    enc = _encoder(vocab)
    tasks.register_pair_head(enc.params, CFG.hidden_size)
    batch = apply_mlm_mask(*encode_batch(texts[:4], vocab, 24), vocab, 0.3, seed=1)
    pairs = [PairRecord("a", "b", texts[0], texts[1], 1), PairRecord("c", "d", texts[2], texts[3], 0)]
    run = {"embed_texts": lambda rng: tasks.embed_texts(enc, texts[:4], vocab, 24, rng),
           "pair_batch_logits": lambda rng: tasks.pair_batch_logits(enc, pairs, vocab, 24, rng),
           "mlm_loss": lambda rng: training.mlm_loss(enc, batch, rng)}[call]
    assert np.array_equal(run(None).data, run(None).data)
    assert not np.allclose(run(np.random.default_rng(1)).data, run(np.random.default_rng(2)).data)
