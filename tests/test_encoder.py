"""Encoder: shapes, input validation, padding invariance, tied MLM
projection, sequence embeddings, and the forward walk against a plain
sequential loop over the layer functions."""

import contextlib
import threading

import numpy as np
import pytest

from adapterlab import adapters
from adapterlab import tensor as T
from adapterlab.encoder import PAPER_SCALE_CONFIG, Encoder, EncoderConfig

CFG = EncoderConfig(num_layers=2, hidden_size=32, num_heads=4, ffn_size=64,
                    vocab_size=50, max_positions=16, dropout=0.1)


@pytest.fixture(scope="module")
def encoder():
    return Encoder(CFG, seed=0)


def _batch(rng, B=3, L=10):
    ids = rng.integers(0, CFG.vocab_size, size=(B, L))
    attn = np.ones_like(ids)
    return ids, attn


def test_forward_shapes(encoder):
    ids, attn = _batch(np.random.default_rng(0))
    hidden = encoder.forward(ids, attn)
    assert hidden.shape == (3, 10, 32)
    logits = encoder.mlm_logits(hidden)
    assert logits.shape == (3, 10, 50)


def test_config_validates_head_divisibility():
    with pytest.raises(ValueError):
        EncoderConfig(hidden_size=30, num_heads=4)


def test_forward_rejects_bad_inputs(encoder):
    ids, attn = _batch(np.random.default_rng(0))
    with pytest.raises(ValueError):
        encoder.forward(ids, attn[:, :-1])
    with pytest.raises(ValueError):
        encoder.forward(np.full_like(ids, CFG.vocab_size), attn)
    long_ids = np.zeros((1, CFG.max_positions + 1), dtype=int)
    with pytest.raises(ValueError):
        encoder.forward(long_ids, np.ones_like(long_ids))
    with pytest.raises(ValueError):
        encoder.forward(ids, attn, mode="generate")


def test_padding_invariance(encoder):
    """Extra pad positions must not change real-token hidden states."""
    rng = np.random.default_rng(1)
    ids = rng.integers(0, CFG.vocab_size, size=(2, 6))
    attn = np.ones_like(ids)
    short = encoder.forward(ids, attn).data

    padded_ids = np.concatenate([ids, np.zeros((2, 4), dtype=int)], axis=1)
    padded_attn = np.concatenate([attn, np.zeros((2, 4), dtype=int)], axis=1)
    padded = encoder.forward(padded_ids, padded_attn).data
    assert np.abs(padded[:, :6] - short).max() < 1e-12


def test_initial_mlm_loss_near_log_vocab(encoder):
    rng = np.random.default_rng(2)
    ids, attn = _batch(rng, B=8, L=12)
    hidden = encoder.forward(ids, attn)
    logits = encoder.mlm_logits(hidden)
    labels = rng.integers(0, CFG.vocab_size, size=ids.shape)
    loss = T.cross_entropy(logits, labels).item()
    assert abs(loss - np.log(CFG.vocab_size)) < 0.5


def test_mlm_projection_is_tied_to_token_embeddings(encoder):
    ids, attn = _batch(np.random.default_rng(3))
    hidden = encoder.forward(ids, attn)
    before = encoder.mlm_logits(hidden).data.copy()
    orig = encoder.params["emb.tok"].data.copy()
    encoder.params["emb.tok"].data = orig * 2.0
    hidden2 = encoder.forward(ids, attn)
    after = encoder.mlm_logits(hidden2).data
    encoder.params["emb.tok"].data = orig
    assert not np.allclose(before, after)


def test_sequence_embedding_unit_norm_and_mask_respected(encoder):
    rng = np.random.default_rng(4)
    ids = rng.integers(0, CFG.vocab_size, size=(2, 8))
    attn = np.ones_like(ids)
    attn[1, 4:] = 0
    hidden = encoder.forward(ids, attn, mode="embed")
    emb = encoder.sequence_embedding(hidden, attn).data
    assert np.allclose(np.linalg.norm(emb, axis=1), 1.0)

    # row 1 must ignore masked positions: recompute on the truncated input
    hidden_short = encoder.forward(ids[1:, :4], attn[1:, :4], mode="embed")
    emb_short = encoder.sequence_embedding(hidden_short, attn[1:, :4]).data
    assert np.abs(emb[1] - emb_short[0]).max() < 1e-10


def test_sequence_embedding_all_pad_row_raises(encoder):
    ids = np.zeros((1, 4), dtype=int)
    attn = np.ones_like(ids)
    hidden = encoder.forward(ids, attn, mode="embed")
    with pytest.raises(ValueError):
        encoder.sequence_embedding(hidden, np.zeros_like(ids))


def test_dropout_only_in_training(encoder):
    ids, attn = _batch(np.random.default_rng(5))
    a = encoder.forward(ids, attn).data
    b = encoder.forward(ids, attn).data
    assert (a == b).all()
    rng1 = np.random.default_rng(9)
    rng2 = np.random.default_rng(10)
    c = encoder.forward(ids, attn, rng=rng1).data
    d = encoder.forward(ids, attn, rng=rng2).data
    assert not np.allclose(c, d)


def test_paper_scale_config_shape():
    assert PAPER_SCALE_CONFIG.num_layers == 12
    assert PAPER_SCALE_CONFIG.hidden_size == 768
    assert PAPER_SCALE_CONFIG.vocab_size == 50265


@pytest.fixture(scope="module")
def adapted():
    """Every kind of per-position work in the last layer and the head: an
    L-adapter slot, a T-adapter slot and the invertible adapter's inverse."""
    from adapterlab.adapters import PlacementPlan, attach
    enc = Encoder(CFG, seed=1)
    attach(enc, PlacementPlan.full(CFG.num_layers, t_adapters=True), seed=2)
    rng = np.random.default_rng(3)
    for name, t in enc.params.items():
        if name.endswith("up.w"):  # leave the near-identity initialisation
            t.data = rng.normal(0.0, 0.1, t.shape)
    return enc


def _rows_batch():
    rng = np.random.default_rng(11)
    ids = rng.integers(0, CFG.vocab_size, size=(4, 9))
    attn = np.ones_like(ids)
    attn[1, 6:] = 0
    attn[3, 2:] = 0
    rows = (np.array([0, 0, 1, 2, 3]), np.array([0, 8, 5, 3, 1]))
    return ids, attn, rows


@pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
def test_forward_rows_equals_the_gathered_full_forward(adapted, training):
    """Equal-seeded rngs give equal states on the rows, and leave both rngs
    at the same point: the row path draws every dropout mask as before."""
    ids, attn, rows = _rows_batch()
    rng_full, rng_rows = (np.random.default_rng(5) if training else None for _ in range(2))
    full = adapted.forward(ids, attn, rng=rng_full)
    part = adapted.forward(ids, attn, rng=rng_rows, rows=rows)
    assert part.shape == (len(rows[0]), CFG.hidden_size)
    assert np.abs(part.data - full.data[rows]).max() < 1e-12
    head_full = adapted.mlm_logits(full).data[rows]
    assert np.abs(adapted.mlm_logits(part).data - head_full).max() < 1e-12
    if training:
        assert rng_full.random() == rng_rows.random()


def test_forward_refuses_an_all_pad_row(encoder):
    ids, attn = _batch(np.random.default_rng(6))
    attn[1] = 0
    with pytest.raises(ValueError, match="no unmasked key"):
        encoder.forward(ids, attn)


def _sequential_forward(enc, ids, attn, rng=None, rows=None):
    """The forward pass as a plain loop over the layer functions, the
    reference of ``Encoder.forward``: the last layer's per-position work
    runs on the ``rows`` alone, its dropout mask drawn at the full shape."""
    mask_bias = enc.mask_bias(ids, attn)
    x = enc.embed_step(ids, rng)
    L = enc.config.num_layers
    for l in range(1, L + 1):
        if l < L or rows is None:
            h1, f = enc.layer_backbone(l, x, mask_bias, rng)
        else:
            a = enc.layer_attention(l, x, mask_bias, rng)
            h1, f = enc.layer_ffn(l, T.tslice(x, rows), T.tslice(a, rows), rng, (x.shape, rows))
        x = enc.layer_adapters(l, h1, f)
    return x


@pytest.mark.parametrize("float32", [False, True], ids=["float64", "cast_weights"])
@pytest.mark.parametrize("with_rows", [False, True], ids=["all", "rows"])
@pytest.mark.parametrize("dropout", [False, True], ids=["no-rng", "rng"])
def test_forward_is_the_sequential_layer_loop(adapted, dropout, with_rows, float32):
    """L-, T- and invertible adapters, every parameter trainable: the
    states, the MLM loss and every gradient of ``Encoder.forward`` are bit
    for bit the reference loop's, and both leave the rng at one point."""
    ids, attn, rows = _rows_batch()
    rows = rows if with_rows else None
    labels = np.random.default_rng(4).integers(0, CFG.vocab_size, size=ids.shape)
    labels = labels[rows] if with_rows else labels
    runs = []
    for forward in (_sequential_forward, type(adapted).forward):
        rng = np.random.default_rng(5) if dropout else None
        with T.cast_weights(adapted.params) if float32 else contextlib.nullcontext():
            hidden = forward(adapted, ids, attn, rng=rng, rows=rows)
            loss = T.cross_entropy(adapted.mlm_logits(hidden), labels)
            grads = T.gradients(loss, adapted.params)
        runs.append((hidden.data, loss.item(), grads, rng and rng.bit_generator.state))
    (want, want_loss, want_grads, want_rng), (got, got_loss, got_grads, got_rng) = runs
    assert got.dtype == (np.float32 if float32 else np.float64)
    assert np.array_equal(got, want) and got_loss == want_loss and got_rng == want_rng
    assert set(got_grads) == set(want_grads) == set(adapted.params.names())
    assert all(np.array_equal(got_grads[n], g) for n, g in want_grads.items())


def test_a_pass_with_tape_runs_whole_in_the_calling_thread(adapted, monkeypatch):
    """With ``PARTS`` at 3, a pass that records tape still runs as one part
    in the calling thread and equals the one-part pass; under ``no_grad``
    the same batch runs on the pool. Dropout runs one encoder at a time."""
    ids, attn, rows = _rows_batch()
    real, threads = type(adapted).embed_step, []

    def embed_step(self, *args):
        threads.append(threading.current_thread())
        return real(self, *args)

    monkeypatch.setattr(type(adapted), "embed_step", embed_step)
    monkeypatch.setattr(adapters, "PARTS", 1)
    want = adapted.forward(ids, attn, rows=rows)
    monkeypatch.setattr(adapters, "PARTS", 3)
    got = adapted.forward(ids, attn, rows=rows)
    assert np.array_equal(got.data, want.data) and got.requires_grad
    assert threads == [threading.current_thread()] * 2
    with T.no_grad():
        adapted.forward(ids, attn, rows=rows)
    assert len(threads) == 5 and threading.current_thread() not in threads[2:]
    with pytest.raises(ValueError, match="one encoder"):
        adapters.forward_placements([adapted, adapted], ids, attn, rng=np.random.default_rng(0))
