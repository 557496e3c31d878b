"""Synthetic corpora: alphabet coverage, cue structure of the toy code
languages, cloze probe construction, and clone-class structure."""

import dataclasses

import numpy as np
import pytest

from adapterlab import cli, synth
from adapterlab.corpus import CorpusError
from adapterlab.synth import (build_cloze_examples, pairs_from_retrieval,
                              synth_clone_classes, synth_code_records,
                              synth_nl_corpus)
from adapterlab.tokenizer import train_bpe


@pytest.fixture(scope="module")
def vocab():
    return train_bpe(synth_nl_corpus(800, seed=0), 1024)


def test_nl_corpus_deterministic_and_covers_code_alphabet():
    a = synth_nl_corpus(100, seed=3)
    b = synth_nl_corpus(100, seed=3)
    assert a == b
    chars = set("".join(a))
    for ch in "(){}[]=;,+-*/<>0123456789\n":
        assert ch in chars, f"missing {ch!r}"
    assert any("max" in s for s in a) and any("min" in s for s in a)


def test_code_records_have_exactly_one_cue():
    for rec in synth_code_records("alpha", 50, seed=2):
        n_max = rec.code.count(" max (")
        n_min = rec.code.count(" min (")
        assert n_max + n_min == 1
        # the return statement repeats the cue's target word
        if n_max:
            assert "give big ;" in rec.code
        else:
            assert "give small ;" in rec.code


def test_code_records_unknown_language():
    with pytest.raises(ValueError):
        synth_code_records("gamma", 5)


def test_languages_differ_in_surface_syntax():
    alpha = synth_code_records("alpha", 5, seed=0)[0].code
    beta = synth_code_records("beta", 5, seed=0)[0].code
    assert "fn " in alpha and "proc " in beta
    assert "{" in alpha and "begin" in beta


def test_cloze_examples_single_mask_and_answer(vocab):
    records = synth_code_records("alpha", 40, seed=7)
    examples = build_cloze_examples(records, vocab)
    assert examples
    for ex in examples:
        assert ex.tokens.count(vocab.mask_id) == 1
        assert ex.tokens[ex.mask_index] == vocab.mask_id
        assert ex.answer in ex.candidates
        assert len(ex.candidates) == 2


def test_cloze_examples_need_single_token_candidates(vocab):
    records = synth_code_records("alpha", 5, seed=0)
    with pytest.raises(ValueError):
        build_cloze_examples(records, vocab,
                             candidates=("definitelynotonetoken", "alsonot"))


def test_clone_classes_structure():
    items = synth_clone_classes(20, 20, seed=3)
    assert len(items) == 400
    by_label = {}
    for it in items:
        by_label.setdefault(it.label, []).append(it)
    assert len(by_label) == 20
    assert all(len(v) == 20 for v in by_label.values())
    # members of one class share a function-set signature; different
    # classes differ in it
    def sig(code):
        return frozenset(f for f in ("max", "min", "sum", "abs", "len", "pow")
                         if f" {f} (" in code)
    sigs = {lab: {sig(m.code) for m in mem} for lab, mem in by_label.items()}
    assert all(len(s) == 1 for s in sigs.values())
    assert len({next(iter(s)) for s in sigs.values()}) == 20
    # members are not byte-identical (renaming/reordering happened)
    for mem in by_label.values():
        assert len({m.code for m in mem}) > 1


def test_pairs_balanced_and_consistent():
    items = synth_clone_classes(5, 5, seed=1)
    by_id = {it.id: it for it in items}
    pairs = pairs_from_retrieval(items, 40, seed=0)
    assert len(pairs) == 40
    assert sum(p.label for p in pairs) == 20
    for p in pairs:
        same = by_id[p.id_a].label == by_id[p.id_b].label
        assert same == bool(p.label)


@pytest.mark.parametrize("n_classes, per_class", [(1, 5), (4, 1)])
def test_pairs_need_two_classes_of_two_items(n_classes, per_class):
    items = synth_clone_classes(n_classes, per_class, seed=0)
    with pytest.raises(CorpusError, match="two or more classes of two or more items"):
        pairs_from_retrieval(items, 10, seed=0)


# How each run mode's handler calls the generator of each dataset that
# ``cli._MODES`` lists for it, keyed by (mode, path key); zero-shot names
# the language of each of its probe sets.
CALLS = {
    ("tokenizer-train", "corpus"): (synth.nl_texts, {}),
    ("pretrain", "corpus"): (synth.nl_texts, {}),
    ("train-lang-adapter", "corpus"): (synth.code_records, {}),
    ("train-task-adapter", "data"): (synth.retrieval_records, {}),
    ("eval-cloze", "data"): (synth.cloze_examples, {}),
    ("eval-clone", "data"): (synth.retrieval_records, {}),
    ("sweep-layers", "data"): (synth.cloze_examples, {}),
    ("sweep-layers --retrain-per-layer", "data"): (synth.cloze_examples, {}),
    ("sweep-layers --retrain-per-layer", "corpus"): (synth.code_records, {}),
    ("zero-shot", None): (synth.cloze_examples, {"language": "beta"}),
}


def test_calls_cover_every_dataset_of_every_mode():
    assert CALLS.keys() == {(mode, key) for mode, (_, datasets) in cli._MODES.items()
                            for key in datasets}


@pytest.mark.parametrize("source", [synth.nl_texts, synth.code_records,
                                    synth.retrieval_records, synth.cloze_examples],
                         ids=lambda source: source.__name__)
def test_each_source_reads_the_spec_fields_it_declares(vocab, source):
    """The CLI refuses every ``synthetic`` field outside those that
    ``cli._MODES`` lists for the datasets a run generates, so each list must
    be what the generator reads of its spec, called as the mode calls it, at
    small sizes."""
    read = set()
    fields = {f.name for f in dataclasses.fields(synth.SyntheticSpec)}

    class Recording(synth.SyntheticSpec):
        def __getattribute__(self, name):
            if name in fields:
                read.add(name)
            return super().__getattribute__(name)

    spec = Recording(n=12, n_sentences=12, n_classes=3, per_class=2)
    calls = [(mode, key, kwargs) for (mode, key), (called, kwargs) in CALLS.items()
             if called is source]
    assert calls
    for mode, key, kwargs in calls:
        read.clear()
        source(None, spec, 0, *([vocab] if source is synth.cloze_examples else []), **kwargs)
        assert read == set(cli._MODES[mode][1][key]), (mode, key)
