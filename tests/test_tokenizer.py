"""BPE tokenizer: round-trip exactness, merge determinism, persistence,
special-token layout, and MLM masking statistics."""

import numpy as np
import pytest

from adapterlab.synth import synth_code_records, synth_nl_corpus
from adapterlab.tokenizer import (_RUN_RE, SPECIAL_TOKENS, MaskedBatch, TokenizerError,
                                  Vocabulary, apply_mlm_mask, encode_batch,
                                  pad_batch, train_bpe)

CORPUS = [
    "the max of 3 and 4 is written max ( 3 , 4 ) .",
    "let x = 1 + 2 ; then y = x * 3 ;",
    "fn f ( a , b ) {\nbig = max ( a , b ) ;\ngive big ; }",
    "the min of a list is min ( a , b ) in each case .",
]


@pytest.fixture(scope="module")
def vocab():
    return train_bpe(CORPUS, 200)


def test_special_token_ids_are_first_five(vocab):
    for i, tok in enumerate(SPECIAL_TOKENS):
        assert vocab.token_to_id[tok] == i
    assert vocab.special_ids == frozenset(range(5))


def test_round_trip_exact(vocab):
    # exactness holds whenever the alphabet covers the text
    for text in CORPUS + ["  leading ; then x", "written a b .   ", "a\n\nb"]:
        ids = vocab.encode(text)
        assert vocab.decode(ids) == text
        assert ids[0] == vocab.bos_id and ids[-1] == vocab.eos_id


def test_memoised_ids_equal_the_merge_loop_on_nl_and_code():
    """encode keeps each whitespace run's ids; a repeated run, in the same
    text or a later one, gets what the merge loop gives it afresh."""
    vocab = train_bpe(synth_nl_corpus(300, seed=0), 400)
    texts = synth_nl_corpus(40, seed=1) + [r.code for r in synth_code_records("alpha", 40, seed=2)]
    texts += [r.code for r in synth_code_records("beta", 40, seed=3)]
    uncached = [[vocab.token_to_id.get(piece, vocab.unk_id)
                 for run in _RUN_RE.findall(text) for piece in vocab._bpe_run(run)]
                for text in texts]
    for _ in range(2):  # the memo empty at first, then holding every run
        assert [vocab.encode(t, add_special=False) for t in texts] == uncached
    assert [vocab.encode(t) for t in texts] == [
        [vocab.bos_id] + ids + [vocab.eos_id] for ids in uncached]


def test_unknown_characters_become_unk(vocab):
    ids = vocab.encode("ZZZ@@@", add_special=False)
    assert all(i == vocab.unk_id for i in ids)


def test_training_deterministic():
    v1, v2 = train_bpe(CORPUS, 150), train_bpe(CORPUS, 150)
    assert v1.token_to_id == v2.token_to_id
    assert v1.merges == v2.merges


def test_vocab_size_cap_and_exhaustion(vocab):
    assert vocab.size <= 200
    # tiny corpus exhausts merges before a huge budget
    v = train_bpe(["ab ab"], 10_000)
    assert v.size < 10_000


def test_vocab_size_below_base_raises():
    with pytest.raises(TokenizerError):
        train_bpe(CORPUS, 3)


def test_empty_corpus_raises():
    with pytest.raises(TokenizerError):
        train_bpe([], 100)


def test_save_load_round_trip(tmp_path, vocab):
    p = tmp_path / "vocab.txt"
    vocab.save(p)
    loaded = Vocabulary.load(p)
    assert loaded.token_to_id == vocab.token_to_id
    assert loaded.merges == vocab.merges
    text = CORPUS[2]
    assert loaded.encode(text) == vocab.encode(text)


def test_load_rejects_wrong_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("not a vocab\n")
    with pytest.raises(TokenizerError):
        Vocabulary.load(p)


@pytest.mark.parametrize("edit, named", [
    (lambda lines: lines[:4] + ["no-tab-here"] + lines[4:], "line 5"),
    (lambda lines: lines[:4] + ["x\tnot-an-id"] + lines[4:], "line 5"),
    (lambda lines: lines + ["a\tb\tc"], "bad merges entry 'a\\tb\\tc'"),
    (lambda lines: [ln for ln in lines if not ln.startswith("<mask>\t")], "<mask>"),
    (lambda lines: [ln for ln in lines if ln.split("\t")[0] not in ("<s>", "<pad>")],
     "<s>, <pad>"),
    (lambda lines: ["\udcff\udcfe" + lines[0]] + lines[1:], "not UTF-8"),  # bytes ff fe
    (lambda lines: lines[:3] + ["<pad>\t999"] + lines[4:], "line 4: bad tokens entry"),
    (lambda lines: lines[:5] + ["<unk>\t4"] + lines[6:], "line 6: bad tokens entry"),
    (lambda lines: lines[:5] + ["<mask>\t3"] + lines[6:], "line 6: bad tokens entry"),
], ids=["no-tab", "bad-id", "merge-with-two-tabs", "no-mask", "no-bos-or-pad", "not-utf-8",
        "id-outside-0-to-n-1", "token-listed-twice", "id-listed-twice"])
def test_load_names_the_file_and_the_bad_line_or_token(tmp_path, vocab, edit, named):
    """A broken vocabulary file fails at load time with a ``TokenizerError``
    naming the file and the line, or every missing special token."""
    good = tmp_path / "good.txt"
    vocab.save(good)
    lines = edit(good.read_text().splitlines())
    p = tmp_path / "bad.txt"
    p.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    with pytest.raises(TokenizerError) as info:
        Vocabulary.load(p)
    assert str(p) in str(info.value) and named in str(info.value)


def test_pad_batch_is_the_one_padding_rule(vocab):
    ids, mask = pad_batch([[5, 6, 7], [8]], pad_id=0)
    assert ids.tolist() == [[5, 6, 7], [8, 0, 0]]
    assert mask.tolist() == [[1, 1, 1], [1, 0, 0]]
    texts = ["a b", CORPUS[0]]
    got = encode_batch(texts, vocab, max_len=16)
    want = pad_batch([vocab.encode(t)[:16] for t in texts], vocab.pad_id)
    assert all((g == w).all() and g.dtype == w.dtype for g, w in zip(got, want))


def test_encode_batch_shapes_and_padding(vocab):
    ids, mask = encode_batch(["a b", CORPUS[0]], vocab, max_len=16)
    assert ids.shape == mask.shape
    assert ids.shape[1] <= 16
    assert (ids[mask == 0] == vocab.pad_id).all()
    assert mask[0].sum() < mask[1].sum()


def test_mlm_mask_rate_and_split(vocab):
    rng = np.random.default_rng(0)
    ids = rng.integers(5, vocab.size, size=(200, 40))
    attn = np.ones_like(ids)
    batch = apply_mlm_mask(ids, attn, vocab, mask_rate=0.15, seed=1)
    selected = batch.labels != MaskedBatch.IGNORE
    rate = selected.mean()
    assert 0.12 < rate < 0.18
    n_sel = selected.sum()
    n_masked = (batch.input_ids[selected] == vocab.mask_id).sum()
    n_kept = (batch.input_ids[selected] == ids[selected]).sum()
    assert 0.74 < n_masked / n_sel < 0.86
    # ~10% kept unchanged (random replacement may coincide, so upper slack)
    assert 0.05 < n_kept / n_sel < 0.17
    # unselected positions untouched
    assert (batch.input_ids[~selected] == ids[~selected]).all()


def test_mlm_mask_never_corrupts_special_or_pad(vocab):
    ids = np.full((4, 10), vocab.pad_id)
    ids[:, 0] = vocab.bos_id
    ids[:, 1] = 7
    ids[:, 2] = vocab.eos_id
    attn = np.zeros_like(ids)
    attn[:, :3] = 1
    batch = apply_mlm_mask(ids, attn, vocab, mask_rate=1.0, seed=0)
    sel = batch.labels != MaskedBatch.IGNORE
    assert sel[:, 0].sum() == 0 and sel[:, 2].sum() == 0
    assert sel[:, 3:].sum() == 0
    assert sel[:, 1].all()


def test_mlm_mask_deterministic_per_seed(vocab):
    ids = np.random.default_rng(3).integers(5, vocab.size, size=(8, 20))
    attn = np.ones_like(ids)
    b1 = apply_mlm_mask(ids, attn, vocab, seed=42)
    b2 = apply_mlm_mask(ids, attn, vocab, seed=42)
    assert (b1.input_ids == b2.input_ids).all()
    assert (b1.labels == b2.labels).all()


def test_mlm_mask_validates_rate(vocab):
    ids = np.ones((1, 4), dtype=int) * 7
    with pytest.raises(ValueError):
        apply_mlm_mask(ids, np.ones_like(ids), vocab, mask_rate=1.5)
