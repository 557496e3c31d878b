"""Evaluation runs each batch as parts on a thread pool
(``adapters.forward_placements``): every result of the four evaluation entry
points is bit for bit that of one unsplit pass, whatever the number of parts,
and a failing part fails the call as one pass would, after every part ends.

CI runs this file under several OpenBLAS core types as well: some of them
round a 2-D GEMM row by its place in the block, which a part-wise row tail
would show."""

import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterlab import adapters, tasks, training
from adapterlab import tensor as T
from adapterlab.adapters import PlacementPlan, attach, forward_placements, placement_view
from adapterlab.corpus import ClozeRecord, PairRecord, RetrievalRecord
from adapterlab.encoder import Encoder, EncoderConfig
from adapterlab.tasks import EVAL_BATCH
from adapterlab.tokenizer import pad_batch, train_bpe

WORDS = "a b c d e f g h x = max ( , ) ; return if".split()
PER_SEQUENCE = 10 ** 6  # more parts than any batch has sequences: one per sequence
SPLITS = [1, 2, 3, PER_SEQUENCE]


@pytest.fixture(scope="module")
def vocab():
    return train_bpe([" ".join(WORDS), "x = max ( a , b ) ;", "if a return b ;"], 60)


def _model(vocab, num_layers, plan, seed):
    """A model placing ``plan`` with random adapter weights, and a pair head."""
    cfg = EncoderConfig(num_layers=num_layers, hidden_size=16, num_heads=2, ffn_size=32,
                        vocab_size=vocab.size, max_positions=24)
    enc = Encoder(cfg, seed=seed)
    attach(enc, plan, seed=seed + 1)
    tasks.register_pair_head(enc.params, cfg.hidden_size)
    rng = np.random.default_rng(seed)
    for name, t in enc.params.items():
        if name.startswith(("l_adapter.", "t_adapter.", "inv.", "head.")):
            t.data = rng.normal(0.0, 0.5, t.shape)
    return enc


def _one_pass(encoders, ids, attention_mask, rows=None):
    """The unsplit evaluation pass: ``Encoder.forward`` of each encoder."""
    return [e.forward(ids, attention_mask, rows=rows) for e in encoders]


def _texts(rng, n):
    return [" ".join(rng.choice(WORDS, size=int(rng.integers(1, 14)))) for _ in range(n)]


def _evaluations(encoders, vocab, rng, n):
    """Each entry point on ``n`` items (pairs: ``n`` sequences, rounded up),
    as a function of no argument returning comparable plain values."""
    texts = _texts(rng, 2 * n)
    items = [RetrievalRecord(id=str(i), label="xy"[i % 2], code=t, language="l")
             for i, t in enumerate(texts[:n])]
    pairs = [PairRecord(id_a=f"{i}a", id_b=f"{i}b", code_a=texts[2 * i],
                        code_b=texts[2 * i + 1], label=i % 2) for i in range((n + 1) // 2)]
    cloze = []
    for k in range(n):
        tokens = rng.integers(5, vocab.size, size=int(rng.integers(2, 20))).tolist()
        at = int(rng.integers(len(tokens)))
        tokens[at] = vocab.mask_id
        cloze.append(ClozeRecord(id=str(k), tokens=tokens, mask_index=at,
                                 candidates=[10, 11, 12], answer=10, language="alpha"))
    model = encoders[-1]
    cfg = training.TrainConfig(mask_rate=0.4, max_len=20, batch_size=EVAL_BATCH)
    return {
        "eval_cloze_placements": lambda: [
            r.predictions for r in tasks.eval_cloze_placements(encoders, cloze, vocab.mask_id)],
        "embed_corpus": lambda: tasks.embed_corpus(model, items, vocab).embeddings,
        "eval_pairs": lambda: tasks.eval_pairs(model, pairs, vocab),
        "eval_mlm_loss": lambda: training.eval_mlm_loss(model, texts[:n], vocab, cfg),
    }


layer_sets = st.frozensets(st.integers(1, 4))


@settings(deadline=None, max_examples=12, derandomize=True)
@given(st.integers(1, 4), layer_sets, layer_sets, st.booleans(),
       st.sampled_from([1, 2, 3, EVAL_BATCH + 1, 2 * EVAL_BATCH + 3]), st.integers(0, 2 ** 16))
def test_every_split_equals_one_pass_at_every_entry_point(vocab, num_layers, l_layers,
                                                          t_layers, invertible, n, seed):
    """L-, T- and invertible adapters, a sweep of every truncation of the
    placement (five placements at four layers), ragged batches of 1-3
    sequences and ragged last batches: with 1, 2, 3 and one part per
    sequence, each entry point returns exactly what one unsplit pass
    gives."""
    plan = PlacementPlan(frozenset(l for l in l_layers if l <= num_layers),
                         frozenset(l for l in t_layers if l <= num_layers), invertible)
    model = _model(vocab, num_layers, plan, seed)
    sweep = [placement_view(model, plan.truncated(i, num_layers))
             for i in range(num_layers + 1)]
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        for module in (tasks, training):
            mp.setattr(module, "forward_placements", _one_pass)
        want = {name: run() for name, run in _evaluations(sweep, vocab, rng, n).items()}
    for parts in SPLITS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(adapters, "PARTS", parts)
            got = {name: run() for name, run in
                   _evaluations(sweep, vocab, np.random.default_rng(seed), n).items()}
        assert np.array_equal(got.pop("embed_corpus"), want["embed_corpus"]), parts
        assert got == {k: v for k, v in want.items() if k != "embed_corpus"}, parts


@settings(deadline=None, max_examples=10, derandomize=True)
@given(st.integers(1, 3), st.booleans(), st.integers(1, EVAL_BATCH + 3), st.booleans(),
       st.integers(0, 2 ** 16))
def test_every_split_of_a_sweep_gives_the_states_of_one_pass(vocab, num_layers, invertible,
                                                             n, with_rows, seed):
    """The final states themselves, with and without ``rows`` (rows in any
    order), for every placement of a sweep: ``np.array_equal`` to each
    placement's ``Encoder.forward``, under ``T.cast_weights`` as every
    evaluation runs, while the interpreter switches threads often."""
    plan = PlacementPlan.full(num_layers, t_adapters=True, invertible=invertible)
    model = _model(vocab, num_layers, plan, seed)
    sweep = [placement_view(model, plan.truncated(i, num_layers))
             for i in range(num_layers + 1)]
    rng = np.random.default_rng(seed)
    ids, attn = pad_batch([rng.integers(0, vocab.size, size=int(rng.integers(1, 20))).tolist()
                           for _ in range(n)], vocab.pad_id)
    rows = None
    if with_rows:
        lengths = attn.sum(axis=1)
        picked = [(b, p) for b in range(n) for p in range(lengths[b]) if rng.random() < 0.3]
        picked = [picked[i] for i in rng.permutation(len(picked))] or [(n - 1, 0)]
        rows = (np.array([b for b, _ in picked]), np.array([p for _, p in picked]))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # parts switch threads often
    try:
        with T.cast_weights(model.params), T.no_grad():
            want = [t.data for t in _one_pass(sweep, ids, attn, rows)]
            for parts in SPLITS:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(adapters, "PARTS", parts)
                    got = forward_placements(sweep, ids, attn, rows)
                assert all(np.array_equal(g.data, w) for g, w in zip(got, want)), parts
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("parts", SPLITS)
@pytest.mark.parametrize("fault", ["out of vocabulary", "and an all-pad first row"])
def test_a_bad_last_sequence_raises_what_one_pass_raises(vocab, parts, fault, monkeypatch):
    """An out-of-vocabulary id in the last sequence, alone or with an
    all-pad first sequence (which one pass checks later): the error of the
    single pass, with its message."""
    model = _model(vocab, 2, PlacementPlan.full(2, t_adapters=True), 0)
    ids, attn = pad_batch([[5, 6, 7]] * 5, vocab.pad_id)
    ids[-1, 1] = vocab.size
    if fault != "out of vocabulary":
        attn[0] = 0
    with pytest.raises(ValueError) as one:
        model.forward(ids, attn)
    assert str(one.value) == "token id out of vocabulary range"
    monkeypatch.setattr(adapters, "PARTS", parts)
    for rows in (None, (np.arange(5), np.zeros(5, dtype=int))):
        with pytest.raises(ValueError) as split:
            forward_placements([model], ids, attn, rows)
        assert type(split.value) is type(one.value) and str(split.value) == str(one.value)


@pytest.mark.parametrize("parts", [2, 3, PER_SEQUENCE])
@pytest.mark.parametrize("name", ["embed_corpus", "eval_mlm_loss"])
def test_every_part_ends_before_an_error_propagates(vocab, parts, name, monkeypatch):
    """One part fails at once while the others are still running: the
    error propagates only once they have ended, each inside the caller's
    ``T.no_grad`` and ``T.cast_weights``, and the float64 masters come back
    byte for byte."""
    model = _model(vocab, 2, PlacementPlan.full(2, t_adapters=True, invertible=True), 0)
    masters = {n: t.data.tobytes() for n, t in model.params.items()}
    real, calls, ended, lock = Encoder.embed_step, [], [], threading.Lock()

    def embed_step(self, ids, attention_mask, rng=None):
        with lock:
            calls.append(len(calls))
            first = len(calls) == 1
        if first:
            raise RuntimeError("a part fails")
        time.sleep(0.05)
        out = real(self, ids, attention_mask, rng)
        with lock:
            ended.append((T._grad_enabled, self.params["emb.tok"].data.dtype.name))
        return out

    monkeypatch.setattr(Encoder, "embed_step", embed_step)
    monkeypatch.setattr(adapters, "PARTS", parts)
    texts = _texts(np.random.default_rng(0), EVAL_BATCH)
    run = {"embed_corpus": lambda: tasks.embed_corpus(
               model, [RetrievalRecord(id=str(i), label="c", code=t, language="l")
                       for i, t in enumerate(texts)], vocab, 20),
           "eval_mlm_loss": lambda: training.eval_mlm_loss(
               model, texts, vocab, training.TrainConfig(mask_rate=0.5, max_len=20,
                                                          batch_size=EVAL_BATCH))}[name]
    with pytest.raises(RuntimeError, match="^a part fails$"):
        run()
    assert len(ended) == min(parts, EVAL_BATCH) - 1
    assert set(ended) == {(False, "float32")}
    assert {n: t.data.tobytes() for n, t in model.params.items()} == masters


def test_one_part_per_usable_cpu():
    assert adapters.PARTS == len(os.sched_getaffinity(0)) >= 1
