"""Task heads and metrics: cloze evaluation, MAP@R and F1 against brute-force
oracles, pair classification, and the in-batch-negative contrastive loss."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from adapterlab import tasks, training
from adapterlab import tensor as T
from adapterlab.adapters import PlacementPlan, placement_view
from adapterlab.corpus import ClozeRecord, PairRecord, RetrievalRecord
from adapterlab.encoder import Encoder, EncoderConfig
from adapterlab.tasks import (EVAL_BATCH, TaskError, embed_corpus, eval_cloze,
                              eval_cloze_placements, eval_pairs, f1_score, in_batch_negative_loss,
                              map_at_r, pair_batch_logits, register_pair_head)
from adapterlab.tokenizer import pad_batch, train_bpe

CFG = EncoderConfig(num_layers=1, hidden_size=16, num_heads=2, ffn_size=32,
                    vocab_size=60, max_positions=24, dropout=0.0)


@pytest.fixture(scope="module")
def encoder():
    return Encoder(CFG, seed=0)


# -- metric oracles --------------------------------------------------------

def _map_at_r_oracle(emb, labels, ids, metric="cosine"):
    """Independent brute-force reimplementation."""
    emb = np.asarray(emb, dtype=float)
    n = len(labels)
    aps = []
    for q in range(n):
        scored = []
        for j in range(n):
            if j == q:
                continue
            if metric == "cosine":
                s = float(emb[q] @ emb[j] /
                          (np.linalg.norm(emb[q]) * np.linalg.norm(emb[j])))
            else:
                s = -float(np.linalg.norm(emb[q] - emb[j]))
            scored.append((-s, ids[j], labels[j]))
        scored.sort()
        r = sum(1 for l in labels if l == labels[q]) - 1
        hits, ap = 0, 0.0
        for rank, (_, _, lab) in enumerate(scored[:r], start=1):
            if lab == labels[q]:
                hits += 1
                ap += hits / rank
        aps.append(ap / r)
    return float(np.mean(aps))


def test_map_at_r_hand_case():
    """1-D points A1=0, A2=3, B1=1, B2=1.2 under euclidean similarity."""
    emb = np.array([[0.0], [3.0], [1.0], [1.2]])
    labels = ["A", "A", "B", "B"]
    res = map_at_r(emb, labels, ids=["A1", "A2", "B1", "B2"], metric="euclidean")
    assert res.per_query_ap == [0.0, 0.0, 1.0, 1.0]
    assert res.map_at_r == 0.5


def test_map_at_r_matches_oracle_random():
    rng = np.random.default_rng(0)
    for trial in range(50):
        n = int(rng.integers(6, 40))
        n_classes = int(rng.integers(2, max(3, n // 3)))
        labels = list(rng.integers(0, n_classes, size=n))
        # every class needs >= 2 members
        for c in range(n_classes):
            if labels.count(c) == 1:
                labels.append(c)
        n = len(labels)
        emb = rng.normal(size=(n, int(rng.integers(2, 8))))
        ids = list(range(n))
        metric = "cosine" if trial % 2 == 0 else "euclidean"
        got = map_at_r(emb, labels, ids, metric=metric).map_at_r
        want = _map_at_r_oracle(emb, labels, ids, metric=metric)
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("sizes", [[2, 2], [2, 3, 5], [6, 2, 2, 3], [4] * 5, [3] * 20])
def test_map_at_r_chance_matches_random_rankings(sizes):
    """The closed-form MAP@R of a random ranking against 10k simulated
    rankings: per query, its R hits shuffled among its N = n - 1
    candidates, AP@R scored as the oracle scores it."""
    labels = [c for c, k in enumerate(sizes) for _ in range(k)]
    n, draws = len(labels), 10_000
    chance = map_at_r(np.eye(n), labels).chance_map_at_r
    rng = np.random.default_rng(0)
    aps = np.zeros(draws)
    for lab in labels:
        r = labels.count(lab) - 1
        hits = rng.permuted(np.tile(np.arange(n - 1) < r, (draws, 1)), axis=1)[:, :r]
        aps += (hits * np.cumsum(hits, axis=1) / np.arange(1, r + 1)).sum(axis=1) / r / n
    assert abs(aps.mean() - chance) < 4 * aps.std() / np.sqrt(draws)
    per_query = [sum((1 + (i - 1) * (r - 1) / max(n - 2, 1)) / i for i in range(1, r + 1)) / (n - 1)
                 for r in (labels.count(lab) - 1 for lab in labels)]
    assert chance == pytest.approx(np.mean(per_query), abs=1e-15)


# classes of 2-6 members, a seed for continuous (tie-free) embeddings, a metric
retrieval_sets = st.tuples(st.lists(st.integers(2, 6), min_size=1, max_size=6),
                           st.integers(0, 2 ** 32 - 1), st.sampled_from(["cosine", "euclidean"]))


def _draw_set(sizes, seed):
    rng = np.random.default_rng(seed)
    labels = [c for c, k in enumerate(sizes) for _ in range(k)]
    return rng.normal(size=(len(labels), 4)), labels, [f"i{j}" for j in range(len(labels))], rng


@settings(deadline=None, max_examples=60)
@given(retrieval_sets, st.data())
def test_map_at_r_ignores_item_order(case, data):
    sizes, seed, metric = case
    emb, labels, ids, _ = _draw_set(sizes, seed)
    order = data.draw(st.permutations(range(len(labels))))
    got = map_at_r(emb[order], [labels[j] for j in order], [ids[j] for j in order],
                   metric=metric).map_at_r
    want = _map_at_r_oracle(emb, labels, ids, metric=metric)
    assert got == pytest.approx(want, abs=1e-12)
    assert map_at_r(emb, labels, ids, metric=metric).map_at_r == pytest.approx(got, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(retrieval_sets, st.data())
def test_map_at_r_ignores_class_names(case, data):
    sizes, seed, metric = case
    emb, labels, ids, _ = _draw_set(sizes, seed)
    names = data.draw(st.lists(st.text(max_size=3), min_size=len(sizes), max_size=len(sizes),
                               unique=True))
    renamed = [names[c] for c in labels]
    got = map_at_r(emb, renamed, ids, metric=metric).map_at_r
    assert got == pytest.approx(_map_at_r_oracle(emb, labels, ids, metric=metric), abs=1e-12)
    assert got == pytest.approx(map_at_r(emb, labels, ids, metric=metric).map_at_r, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(retrieval_sets)
def test_map_at_r_of_a_perfect_embedding_is_one(case):
    """Items near their own class axis: every same-class item is nearer than
    every other one."""
    sizes, seed, metric = case
    _, labels, ids, rng = _draw_set(sizes, seed)
    emb = 10 * np.eye(len(sizes))[labels] + rng.uniform(-0.1, 0.1, (len(labels), len(sizes)))
    assert map_at_r(emb, labels, ids, metric=metric).map_at_r == 1.0
    assert _map_at_r_oracle(emb, labels, ids, metric=metric) == 1.0


@settings(deadline=None, max_examples=60)
@given(retrieval_sets, st.integers(1, 3))
def test_map_at_r_breaks_ties_between_equal_embeddings_by_id(case, distinct):
    """Items share a few vectors, so most similarities tie exactly and only
    the ids order them; the ids run in no relation to the item order."""
    sizes, seed, metric = case
    emb, labels, ids, rng = _draw_set(sizes, seed)
    emb = emb[rng.integers(0, distinct, size=len(labels))]
    ids = [ids[j] for j in rng.permutation(len(ids))]
    got = map_at_r(emb, labels, ids, metric=metric).map_at_r
    assert got == pytest.approx(_map_at_r_oracle(emb, labels, ids, metric=metric), abs=1e-12)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("per_block", [1, 5])
def test_map_at_r_ranks_blocks_of_queries_as_one(monkeypatch, metric, per_block):
    """Blocks of one and of five queries (the last one short) give every
    query the AP that one block of all queries gives."""
    rng = np.random.default_rng(4)
    labels = [c for c in range(6) for _ in range(4)]
    emb = rng.normal(size=(12, 3))[rng.integers(0, 12, size=len(labels))]
    ids = [int(j) for j in rng.permutation(len(labels))]
    whole = map_at_r(emb, labels, ids, metric=metric)
    width = 3 if metric == "euclidean" else 1
    monkeypatch.setattr(tasks, "MAP_BLOCK", per_block * len(labels) * width)
    assert map_at_r(emb, labels, ids, metric=metric).per_query_ap == whole.per_query_ap
    assert whole.map_at_r == pytest.approx(_map_at_r_oracle(emb, labels, ids, metric=metric),
                                           abs=1e-12)


def test_map_at_r_rejects_singletons_and_bad_metric():
    emb = np.eye(3)
    with pytest.raises(TaskError):
        map_at_r(emb, ["a", "a", "b"])
    with pytest.raises(TaskError):
        map_at_r(np.eye(4), ["a", "a", "b", "b"], metric="manhattan")


def test_f1_matches_oracle_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        tp, fp, tn, fn = (int(x) for x in rng.integers(0, 40, size=4))
        res = f1_score(tp, fp, tn, fn)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        assert res.precision == pytest.approx(p)
        assert res.recall == pytest.approx(r)
        assert res.f1 == pytest.approx(f)


def test_f1_degenerate_counts_and_validation():
    """No predicted and no actual clone: precision, recall and F1 are 0."""
    res = f1_score(0, 0, 5, 0)
    assert (res.precision, res.recall, res.f1) == (0.0, 0.0, 0.0)
    with pytest.raises(TaskError):
        f1_score(-1, 0, 0, 0)


# -- cloze -----------------------------------------------------------------

def _cloze_example(encoder, answer_id, other_id, mask_id=4):
    tokens = [0, 7, mask_id, 9, 2]
    return ClozeRecord(id="x", tokens=tokens, mask_index=2,
                       candidates=[answer_id, other_id], answer=answer_id,
                       language="alpha")


def test_eval_cloze_runs_and_validates(encoder):
    ex = _cloze_example(encoder, 10, 11)
    res = eval_cloze(encoder, [ex], mask_id=4)
    assert res.n == 1 and res.accuracy in (0.0, 1.0)
    assert res.predictions[0]["prediction"] in (10, 11)

    assert res.chance_accuracy == 0.5
    with pytest.raises(TaskError):
        eval_cloze(encoder, [], mask_id=4)
    bad = _cloze_example(encoder, 10, 11)
    bad.answer = 33  # not a candidate
    with pytest.raises(TaskError):
        eval_cloze(encoder, [bad], mask_id=4)
    bad2 = _cloze_example(encoder, 10, 11)
    bad2.tokens[2] = 9  # no mask present
    with pytest.raises(TaskError):
        eval_cloze(encoder, [bad2], mask_id=4)


@pytest.mark.parametrize("field, value, message", [
    ("mask_index", 99, "position 99"),
    ("mask_index", -3, "position -3"),
    ("candidates", [10, CFG.vocab_size], "outside the vocabulary"),
    ("tokens", [0, 7, 4, 99999, 2], "example x: a token id is outside the vocabulary"),
    ("tokens", [0, 7, 4] + [9] * CFG.max_positions, "example x: 27 tokens exceed"),
])
def test_eval_cloze_refuses_an_index_outside_the_probe(encoder, field, value, message):
    """A probe read from a dataset may point past its tokens or the
    vocabulary (an IndexError before), or count from the end, which in a
    padded batch is another position."""
    ex = _cloze_example(encoder, 10, 11)
    setattr(ex, field, value)
    with pytest.raises(TaskError, match=message):
        eval_cloze(encoder, [ex], mask_id=4)


def test_eval_cloze_prediction_is_argmax_over_candidates(encoder):
    ex = _cloze_example(encoder, 10, 11)
    res = eval_cloze(encoder, [ex], mask_id=4)
    ids = np.array([ex.tokens])
    hidden = encoder.forward(ids, np.ones_like(ids))
    row = encoder.mlm_logits(hidden).data[0, 2]
    want = 10 if row[10] >= row[11] else 11
    assert res.predictions[0]["prediction"] == want


def test_eval_cloze_predictions_match_the_full_head(encoder):
    """Probes of several lengths in one padded batch: one head row per
    probe predicts what the head over every position predicts."""
    rng = np.random.default_rng(8)
    examples = []
    for i in range(EVAL_BATCH + 3):
        tokens = rng.integers(5, CFG.vocab_size, size=3 + i % 7).tolist()
        at = int(rng.integers(len(tokens)))
        tokens[at] = 4
        cands = rng.choice(np.arange(5, CFG.vocab_size), size=3, replace=False).tolist()
        examples.append(ClozeRecord(id=str(i), tokens=tokens, mask_index=at,
                                    candidates=cands, answer=cands[0], language="alpha"))
    got = [p["prediction"] for p in eval_cloze(encoder, examples, mask_id=4).predictions]
    want = []
    for start in range(0, len(examples), EVAL_BATCH):
        chunk = examples[start:start + EVAL_BATCH]
        ids, attn = pad_batch([ex.tokens for ex in chunk], 0)
        logits = encoder.mlm_logits(encoder.forward(ids, attn)).data
        want += [ex.candidates[int(np.argmax(logits[r, ex.mask_index, ex.candidates]))]
                 for r, ex in enumerate(chunk)]
    assert got == want


# -- retrieval embedding ---------------------------------------------------

@pytest.fixture(scope="module")
def vocab():
    return train_bpe(["a b c d e f g h", "x = max ( a , b ) ;"], 59)


def test_embed_corpus_counts_truncation(encoder, vocab):
    items = [RetrievalRecord(id="1", label="c", code="a b c", language="l"),
             RetrievalRecord(id="2", label="c", code="a b " * 40, language="l")]
    res = embed_corpus(encoder, items, vocab, max_len=8)
    assert res.embeddings.shape == (2, CFG.hidden_size)
    assert res.n_truncated == 1
    assert np.allclose(np.linalg.norm(res.embeddings, axis=1), 1.0)


def test_embed_corpus_encodes_each_item_once(encoder, vocab, monkeypatch):
    """The truncation count comes from the encoding that is embedded."""
    items = [RetrievalRecord(id=str(i), label="c", code="a b " * i, language="l")
             for i in range(1, 21)]
    want = embed_corpus(encoder, items, vocab, max_len=8)
    n_long = sum(len(vocab.encode(it.code)) > 8 for it in items)
    calls = []
    real = type(vocab).encode

    def counted(self, text, *args, **kwargs):
        calls.append(text)
        return real(self, text, *args, **kwargs)

    monkeypatch.setattr(type(vocab), "encode", counted)
    got = embed_corpus(encoder, items, vocab, max_len=8)
    assert sorted(calls) == sorted(it.code for it in items)
    assert got.n_truncated == want.n_truncated == n_long > 0
    assert (got.embeddings == want.embeddings).all()


@pytest.mark.parametrize("call", ["embed_corpus", "eval_pairs"])
def test_max_len_above_max_positions_is_refused(encoder, vocab, call):
    """Even when every text is short enough to fit, the refusal names the
    key and both numbers; ``max_positions`` itself is accepted."""
    if "head.pair.w" not in encoder.params:
        register_pair_head(encoder.params, CFG.hidden_size)
    items = [RetrievalRecord(id=str(i), label="c", code="a b c", language="l")
             for i in range(2)]
    pairs = [PairRecord(id_a="a", id_b="b", code_a="a b c", code_b="g h", label=0)]
    run = {"embed_corpus": lambda max_len: embed_corpus(encoder, items, vocab, max_len),
           "eval_pairs": lambda max_len: eval_pairs(encoder, pairs, vocab, max_len)}[call]
    with pytest.raises(TaskError, match=r"^max_len 25 exceeds the model's max_positions 24$"):
        run(CFG.max_positions + 1)
    run(CFG.max_positions)


@pytest.mark.parametrize("call, name", [("embed_corpus", "retrieval item"),
                                        ("eval_pairs", "pair")])
def test_an_empty_set_is_refused_by_name(encoder, vocab, call, name):
    """As ``eval_cloze`` refuses an empty cloze example set: neither numpy's
    concatenation error nor an F1 of 0.0."""
    if "head.pair.w" not in encoder.params:
        register_pair_head(encoder.params, CFG.hidden_size)
    with pytest.raises(TaskError, match=f"^empty {name} set$"):
        {"embed_corpus": embed_corpus, "eval_pairs": eval_pairs}[call](encoder, [], vocab)


# -- pair classification ---------------------------------------------------

def test_pair_head_and_eval(encoder, vocab):
    if "head.pair.w" not in encoder.params:
        register_pair_head(encoder.params, CFG.hidden_size)
    out = eval_pairs(encoder, [PairRecord(id_a="a", id_b="b", code_a="a b c",
                                          code_b="a b c", label=1),
                               PairRecord(id_a="a", id_b="c", code_a="a b c",
                                          code_b="g h", label=0)], vocab)
    assert out["tp"] + out["fp"] + out["tn"] + out["fn"] == 2
    assert 0.0 <= out["f1"] <= 1.0


def test_eval_pairs_refuses_a_model_without_a_pair_head(vocab):
    pair = PairRecord(id_a="a", id_b="b", code_a="a b c", code_b="a b c", label=1)
    with pytest.raises(TaskError, match="no pair-classification head"):
        eval_pairs(Encoder(CFG, seed=0), [pair], vocab)


def test_eval_pairs_chunks_score_as_one_pair_per_pass(encoder, vocab, monkeypatch):
    """Pairs of several lengths, in chunks of ``EVAL_BATCH // 2`` and a
    ragged last one, score as they do one pair per pass under the same
    ``T.cast_weights``: the logits agree to 1e-12 and the confusion counts of
    the logit > 0 rule are the same."""
    if "head.pair.w" not in encoder.params:
        register_pair_head(encoder.params, CFG.hidden_size)
    rng = np.random.default_rng(3)
    words = "a b c d e f g h x = max ( , ) ;".split()
    pairs = [PairRecord(id_a=f"{i}a", id_b=f"{i}b", label=i % 2,
                        code_a=" ".join(rng.choice(words, size=1 + i % 9)),
                        code_b=" ".join(rng.choice(words, size=1 + i % 5)))
             for i in range(2 * (EVAL_BATCH // 2) + 3)]
    with T.cast_weights(encoder.params), T.no_grad():
        one = np.array([pair_batch_logits(encoder, [p], vocab, CFG.max_positions).data[0, 0]
                        for p in pairs])
    chunks = []

    def recorded(*args, **kwargs):
        out = pair_batch_logits(*args, **kwargs)
        chunks.append(out.data[:, 0])
        return out

    monkeypatch.setattr(tasks, "pair_batch_logits", recorded)
    got = eval_pairs(encoder, pairs, vocab)
    assert [len(c) for c in chunks] == [EVAL_BATCH // 2, EVAL_BATCH // 2, 3]
    assert np.allclose(np.concatenate(chunks), one, rtol=0, atol=1e-12)
    label = np.array([p.label for p in pairs]) == 1
    want = {"tp": int((label & (one > 0)).sum()), "fp": int((~label & (one > 0)).sum()),
            "tn": int((~label & (one <= 0)).sum()), "fn": int((label & (one <= 0)).sum())}
    assert {k: got[k] for k in want} == want


# -- evaluation precision --------------------------------------------------

EVAL_ENTRY_POINTS = ["eval_cloze", "eval_cloze_placements", "embed_corpus", "eval_pairs",
                     "eval_mlm_loss"]


def _evaluation(name, encoder, vocab):
    """A call of one evaluation entry point on ``encoder``."""
    words = "a b c d e f g h".split()
    items = [RetrievalRecord(id=str(i), label="xy"[i % 2], code=" ".join(words[:2 + i]),
                             language="l") for i in range(6)]
    pairs = [PairRecord(id_a="a", id_b="b", code_a="a b c", code_b="g h", label=0),
             PairRecord(id_a="c", id_b="d", code_a="x = max ( a , b ) ;", code_b="a b",
                        label=1)]
    cloze = [_cloze_example(encoder, 10, 11)]
    return {
        "eval_cloze": lambda: eval_cloze(encoder, cloze, mask_id=4),
        "eval_cloze_placements": lambda: eval_cloze_placements(
            [encoder, placement_view(encoder, PlacementPlan())], cloze, mask_id=4),
        "embed_corpus": lambda: embed_corpus(encoder, items, vocab),
        "eval_pairs": lambda: eval_pairs(encoder, pairs, vocab),
        "eval_mlm_loss": lambda: training.eval_mlm_loss(
            encoder, ["a b c d e f g h", "x = max ( a , b ) ;"] * 3, vocab,
            training.TrainConfig(mask_rate=0.5, max_len=16)),
    }[name]


def _paired_encoder():
    encoder = Encoder(CFG, seed=0)
    register_pair_head(encoder.params, CFG.hidden_size)
    return encoder


def _masters(encoder):
    return {name: (t.data.dtype, t.data.tobytes()) for name, t in encoder.params.items()}


@pytest.mark.parametrize("name", EVAL_ENTRY_POINTS)
def test_every_evaluation_computes_in_float32_over_unchanged_masters(vocab, name,
                                                                     monkeypatch):
    """Each evaluation entry point runs its passes in float32, and every
    float64 master is byte-identical afterwards; a forward pass outside an
    evaluation still computes in float64."""
    encoder = _paired_encoder()
    before = _masters(encoder)
    seen, layer_norm = set(), T.layer_norm

    def recording(*args, **kwargs):
        out = layer_norm(*args, **kwargs)
        seen.add(out.data.dtype)
        return out
    monkeypatch.setattr(T, "layer_norm", recording)
    _evaluation(name, encoder, vocab)()
    assert seen == {np.dtype(np.float32)}
    assert _masters(encoder) == before
    ids = np.array([[0, 7, 9, 2]])
    assert encoder.forward(ids, np.ones_like(ids)).data.dtype == np.float64


@pytest.mark.parametrize("fault", ["overflow", "mid-pass"])
@pytest.mark.parametrize("name", EVAL_ENTRY_POINTS)
def test_an_evaluation_that_raises_keeps_the_float64_masters(vocab, name, fault,
                                                             monkeypatch):
    """A weight beyond float32's range is named before any pass runs, and an
    error inside a pass propagates; either way every float64 master comes
    back byte for byte."""
    encoder = _paired_encoder()
    if fault == "overflow":
        encoder.params["head.pair.b"].data[0] = 1e39  # the last parameter cast
        error, match = T.NumericError, r"^parameter head\.pair\.b is not finite in float32$"
    else:
        def failing(*args, **kwargs):
            raise RuntimeError("inside a pass")
        monkeypatch.setattr(T, "layer_norm", failing)
        error, match = RuntimeError, "^inside a pass$"
    before = _masters(encoder)
    with pytest.raises(error, match=match):
        _evaluation(name, encoder, vocab)()
    assert _masters(encoder) == before


def test_cloze_views_share_one_cast_and_refuse_a_foreign_model(vocab, monkeypatch):
    """Placement views of one model share one cast; views of two models are
    a ``ValueError``, and the masters come back byte for byte."""
    casts, cast_weights = [], T.cast_weights

    def counting(params, *args):
        casts.append(params)
        return cast_weights(params, *args)
    monkeypatch.setattr(T, "cast_weights", counting)
    encoder, other = _paired_encoder(), Encoder(CFG, seed=1)
    views = [placement_view(encoder, PlacementPlan()) for _ in range(3)]
    examples = [_cloze_example(encoder, 10, 11)]
    eval_cloze_placements([encoder, *views, encoder], examples, mask_id=4)
    assert casts == [encoder.params]
    before = _masters(encoder)
    with pytest.raises(ValueError, match="^forward_placements runs placement views of one model$"):
        eval_cloze_placements([encoder, *views, other], examples, mask_id=4)
    assert _masters(encoder) == before


def test_embed_corpus_rows_are_float64_and_unit_norm(encoder, vocab):
    """Rows computed in float32 come back as float64 rows renormalised in
    float64."""
    items = [RetrievalRecord(id=str(i), label="c", code=" ".join("abcdefgh"[:1 + i]),
                             language="l") for i in range(EVAL_BATCH + 3)]
    emb = embed_corpus(encoder, items, vocab).embeddings
    assert emb.dtype == np.float64
    assert np.abs(np.linalg.norm(emb, axis=1) - 1.0).max() <= 1e-12


# -- contrastive loss ------------------------------------------------------

def _contrastive_oracle(emb, labels, temperature):
    """Straight-line reimplementation with explicit loops."""
    emb = np.asarray(emb, dtype=float)
    emb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    n = len(labels)
    losses = []
    for a in range(n):
        pos = [j for j in range(n) if j != a and labels[j] == labels[a]]
        if not pos:
            continue
        log_denom = logsumexp([emb[a] @ emb[x] / temperature
                               for x in range(n) if x != a])
        terms = [log_denom - emb[a] @ emb[p] / temperature for p in pos]
        losses.append(np.mean(terms))
    return float(np.mean(losses))


def test_in_batch_negative_loss_matches_oracle():
    rng = np.random.default_rng(2)
    for temperature in [0.05] * 10 + [1e-3] * 10:
        n = int(rng.integers(4, 16))
        labels = list(rng.integers(0, 4, size=n))
        while all(labels.count(l) < 2 for l in labels):
            labels = list(rng.integers(0, 4, size=n))
        emb = T.Tensor(rng.normal(size=(n, 6)), requires_grad=True)
        loss, n_skipped = in_batch_negative_loss(emb, labels, temperature=temperature)
        want = _contrastive_oracle(emb.data, labels, temperature)
        assert loss.item() == pytest.approx(want, rel=1e-10)
        assert n_skipped == sum(1 for i, l in enumerate(labels)
                                if labels.count(l) == 1)
        T.backward(loss)
        assert np.isfinite(emb.grad).all()


def test_in_batch_negative_loss_all_singletons_raises():
    emb = T.Tensor(np.random.default_rng(0).normal(size=(3, 4)))
    with pytest.raises(TaskError):
        in_batch_negative_loss(emb, ["a", "b", "c"])


def test_in_batch_negative_loss_is_differentiable():
    rng = np.random.default_rng(3)
    emb = T.Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    loss, _ = in_batch_negative_loss(emb, [0, 0, 1, 1, 2, 2])
    T.backward(loss)
    assert emb.grad is not None and np.isfinite(emb.grad).all()
    assert np.abs(emb.grad).max() > 0
