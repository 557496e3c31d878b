"""Adapters: forward equations against straight-line reimplementations,
near-identity initialization, invertibility, placement plans, freeze modes
and the gradients they leave, and checksums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterlab import tensor as T
from adapterlab.adapters import (AdapterConfig, AdapterStack, FreezeMode,
                                 PlacementPlan, apply_freeze, attach, checksum,
                                 bottleneck_param_count, forward_placements,
                                 invertible_param_count,
                                 language_adapter_forward, placement_view,
                                 task_adapter_forward, trainable_parameters)
from adapterlab.checkpoint import Manifest, build_model
from adapterlab.corpus import ClozeRecord
from adapterlab.encoder import Encoder, EncoderConfig
from adapterlab.tasks import (EVAL_BATCH, eval_cloze, eval_cloze_placements, pair_logits,
                              register_pair_head)
from adapterlab.tokenizer import pad_batch

CFG = EncoderConfig(num_layers=3, hidden_size=16, num_heads=2, ffn_size=32,
                    vocab_size=40, max_positions=12, dropout=0.0)


def _fresh(plan=None, seed=0):
    enc = Encoder(CFG, seed=seed)
    if plan is not None:
        attach(enc, plan, seed=seed + 1)
    return enc


def _rand_weights(rng, h, d):
    return (rng.normal(size=(h, d)), rng.normal(size=d),
            rng.normal(size=(d, h)), rng.normal(size=h))


def test_language_adapter_matches_straight_line():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h, d = int(rng.integers(2, 12)), int(rng.integers(1, 8))
        dw, db, uw, ub = _rand_weights(rng, h, d)
        hl = rng.normal(size=(2, 3, h))
        rl = rng.normal(size=(2, 3, h))
        got = language_adapter_forward(
            T.Tensor(hl), T.Tensor(rl), T.Tensor(dw), T.Tensor(db),
            T.Tensor(uw), T.Tensor(ub)).data
        want = np.maximum(hl @ dw + db, 0) @ uw + ub + rl
        assert np.abs(got - want).max() < 1e-12


def test_task_adapter_matches_straight_line():
    rng = np.random.default_rng(1)
    for _ in range(20):
        h, d = int(rng.integers(2, 12)), int(rng.integers(1, 8))
        dw, db, uw, ub = _rand_weights(rng, h, d)
        la = rng.normal(size=(4, h))
        rl = rng.normal(size=(4, h))
        got = task_adapter_forward(
            T.Tensor(la), T.Tensor(rl), T.Tensor(dw), T.Tensor(db),
            T.Tensor(uw), T.Tensor(ub)).data
        want = np.maximum(la @ dw + db, 0) @ uw + ub + rl
        assert np.abs(got - want).max() < 1e-12


def test_adapter_forward_rejects_shape_mismatch():
    rng = np.random.default_rng(2)
    dw, db, uw, ub = (T.Tensor(x) for x in _rand_weights(rng, 4, 2))
    with pytest.raises(ValueError):
        language_adapter_forward(T.Tensor(np.zeros((1, 4))),
                                 T.Tensor(np.zeros((2, 4))), dw, db, uw, ub)


def test_near_identity_init_preserves_backbone_output():
    """With freshly attached adapters the composed model equals the bare one."""
    rng = np.random.default_rng(3)
    ids = rng.integers(0, CFG.vocab_size, size=(2, 8))
    attn = np.ones_like(ids)
    bare = _fresh()
    hidden_bare = bare.forward(ids, attn).data
    logits_bare = bare.mlm_logits(bare.forward(ids, attn)).data

    adapted = _fresh(PlacementPlan.full(3, t_adapters=True, invertible=True))
    hidden_ad = adapted.forward(ids, attn).data
    logits_ad = adapted.mlm_logits(adapted.forward(ids, attn)).data
    assert np.abs(hidden_ad - hidden_bare).max() < 1e-12
    assert np.abs(logits_ad - logits_bare).max() < 1e-12


def test_zero_up_projection_is_exact_passthrough():
    rng = np.random.default_rng(4)
    h, d = 8, 4
    dw = rng.normal(size=(h, d))
    hl, rl = rng.normal(size=(2, h)), rng.normal(size=(2, h))
    out = language_adapter_forward(
        T.Tensor(hl), T.Tensor(rl), T.Tensor(dw), T.Tensor(np.zeros(d)),
        T.Tensor(np.zeros((d, h))), T.Tensor(np.zeros(h))).data
    assert (out == rl).all()


def test_invertible_round_trip_random_weights():
    enc = _fresh(PlacementPlan(frozenset(), frozenset(), invertible=True))
    stack = enc.adapters
    rng = np.random.default_rng(5)
    # randomize coupler weights so the map is far from identity
    for name in enc.params.names():
        if name.startswith("inv."):
            enc.params[name].data = rng.normal(size=enc.params[name].data.shape)
    x = rng.normal(size=(50, CFG.hidden_size))
    y = stack.invertible_forward(T.Tensor(x)).data
    back = stack.invertible_inverse(T.Tensor(y)).data
    assert np.abs(back - x).max() < 1e-9
    assert np.abs(y - x).max() > 0.1  # genuinely non-trivial


def test_invertible_needs_even_hidden():
    cfg = EncoderConfig(num_layers=1, hidden_size=15, num_heads=3, ffn_size=8,
                        vocab_size=10, max_positions=8)
    enc = Encoder(cfg, seed=0)
    with pytest.raises(ValueError):
        attach(enc, PlacementPlan(frozenset(), frozenset(), invertible=True))


def test_placement_plan_full_and_drop():
    plan = PlacementPlan.full(12, t_adapters=True, invertible=True)
    assert plan.l_layers == plan.t_layers == frozenset(range(1, 13))
    assert plan.invertible
    assert PlacementPlan.full(3, invertible=False) == PlacementPlan(
        frozenset({1, 2, 3}), frozenset(), False)


def test_placement_plan_truncation():
    plan = PlacementPlan.full(4, t_adapters=True, invertible=True)
    t2 = plan.truncated(2, 4)
    assert t2.l_layers == frozenset({1, 2}) and t2.t_layers == frozenset({1, 2})
    assert t2.invertible
    t0 = plan.truncated(0, 4)
    assert not t0.l_layers and not t0.t_layers and not t0.invertible
    with pytest.raises(ValueError):
        plan.truncated(5, 4)


def test_placement_plan_dict_round_trip():
    plan = PlacementPlan(frozenset({1, 3}), frozenset({2}), True)
    assert PlacementPlan.from_dict(plan.to_dict()) == plan


def test_attach_validates_layers_and_double_attach():
    """Every encoder carries a stack: ``attach`` replaces one that places
    nothing, and refuses one that places adapters."""
    enc = _fresh()
    assert enc.adapters.plan == PlacementPlan()
    with pytest.raises(ValueError):
        attach(enc, PlacementPlan(frozenset({9}), frozenset(), False))
    attach(enc, PlacementPlan())
    attach(enc, PlacementPlan.full(3))
    for plan in (PlacementPlan.full(3), PlacementPlan()):
        with pytest.raises(ValueError, match="^encoder already places adapters$"):
            attach(enc, plan)


def test_param_count_formulas():
    assert bottleneck_param_count(768, 384) == 2 * 768 * 384 + 384 + 768
    assert invertible_param_count(768, 193) == 2 * (2 * 384 * 193 + 193 + 384)
    enc = _fresh(PlacementPlan.full(3, t_adapters=True, invertible=True))
    cfg = AdapterConfig().resolved(CFG.hidden_size)
    got_l = enc.params.count("l_adapter.")
    assert got_l == 3 * bottleneck_param_count(16, cfg.l_bottleneck)
    got_inv = enc.params.count("inv.")
    assert got_inv == invertible_param_count(16, cfg.inv_coupling_dim)


def test_invertible_steps_are_half_width_bottlenecks():
    """Each coupling step is laid out like an L-adapter of in-width h/2: the
    same names, shapes, draw order and near-identity init, so its count is
    the bottleneck count."""
    enc = _fresh(PlacementPlan(frozenset(), frozenset(), invertible=True))
    d = AdapterConfig().resolved(CFG.hidden_size).inv_coupling_dim
    half = CFG.hidden_size // 2
    for k in range(2):
        prefix = f"inv.{k}."
        p = {n[len(prefix):]: enc.params[n].data
             for n in enc.params.names() if n.startswith(prefix)}
        assert list(p) == ["down.w", "down.b", "up.w", "up.b"]
        assert [v.shape for v in p.values()] == [(half, d), (d,), (d, half), (half,)]
        assert not p["up.w"].any() and 0 < np.abs(p["down.w"]).max() < 1e-2
    assert invertible_param_count(CFG.hidden_size, d) == 2 * bottleneck_param_count(half, d)
    draws = np.random.default_rng(1)  # attach's seed: one down.w draw per step, in order
    assert np.array_equal(enc.params["inv.0.down.w"].data, draws.normal(0.0, 1e-3, (half, d)))
    assert np.array_equal(enc.params["inv.1.down.w"].data, draws.normal(0.0, 1e-3, (half, d)))


def test_freeze_modes_partition_names():
    enc = _fresh(PlacementPlan.full(3, t_adapters=True, invertible=True))
    register_pair_head(enc.params, CFG.hidden_size)
    all_names = set(enc.params.names())
    back = set(trainable_parameters(enc.params, FreezeMode.PRETRAIN_BACKBONE))
    lang = set(trainable_parameters(enc.params, FreezeMode.TRAIN_L_ADAPTER))
    task = set(trainable_parameters(enc.params, FreezeMode.TRAIN_T_ADAPTER))
    assert back | lang | task == all_names
    assert not (back & lang) and not (back & task) and not (lang & task)
    assert any(n.startswith("inv.") for n in lang)
    assert any(n.startswith("head.") for n in task)


def test_apply_freeze_sets_flags():
    enc = _fresh(PlacementPlan.full(3, invertible=True))
    apply_freeze(enc.params, FreezeMode.TRAIN_L_ADAPTER)
    trainable = set(enc.params.trainable_names())
    assert trainable == set(trainable_parameters(enc.params, FreezeMode.TRAIN_L_ADAPTER))
    assert not enc.params.is_trainable("emb.tok")


def test_checksum_detects_any_byte_change():
    enc = _fresh(PlacementPlan.full(3, invertible=True))
    before = checksum(enc.params, "layer.")
    assert checksum(enc.params, "layer.") == before
    enc.params["layer.2.ffn.w1"].data[0, 0] += 1e-15
    assert checksum(enc.params, "layer.") != before
    # unrelated prefix unaffected
    assert checksum(enc.params, "l_adapter.") == checksum(enc.params, "l_adapter.")


def _perturb_adapters(enc, rng):
    """Move adapters away from the identity so their gradients are live."""
    for name in enc.params.names():
        if name.startswith(("l_adapter.", "t_adapter.", "inv.")):
            enc.params[name].data = rng.normal(0, 0.2, size=enc.params[name].data.shape)


@pytest.mark.parametrize("mode", [FreezeMode.TRAIN_L_ADAPTER, FreezeMode.TRAIN_T_ADAPTER])
def test_freeze_leaves_trainable_gradients_bit_identical(mode):
    enc = _fresh(PlacementPlan.full(3, t_adapters=True, invertible=True))
    register_pair_head(enc.params, CFG.hidden_size)
    rng = np.random.default_rng(4)
    _perturb_adapters(enc, rng)
    ids = rng.integers(0, CFG.vocab_size, size=(4, 7))
    attn = np.ones_like(ids)
    attn[3, 5:] = 0
    labels = rng.integers(0, CFG.vocab_size, size=ids.shape)

    def loss():
        hidden = enc.forward(ids, attn)
        emb = enc.sequence_embedding(hidden, attn)
        pair = pair_logits(enc.params, T.tslice(emb, (slice(0, 2),)),
                           T.tslice(emb, (slice(2, 4),)))
        return T.add(T.cross_entropy(enc.mlm_logits(hidden), labels), T.tsum(pair))

    for name in enc.params.names():
        enc.params.set_trainable(name, True)
    everything = T.gradients(loss(), enc.params)
    trainable = apply_freeze(enc.params, mode)
    grads = T.gradients(loss(), enc.params)
    assert sorted(grads) == trainable
    for name in trainable:
        assert grads[name].tobytes() == everything[name].tobytes(), name
    for name, t in enc.params.items():
        if name not in grads:
            assert t.grad is None, name


def test_tape_starts_at_the_lowest_adapter():
    cfg = EncoderConfig(num_layers=2, hidden_size=8, num_heads=2, ffn_size=16,
                        vocab_size=20, max_positions=10, dropout=0.0)
    enc = Encoder(cfg, seed=0)
    attach(enc, PlacementPlan(l_layers=frozenset({2}), invertible=False), seed=1)
    rng = np.random.default_rng(2)
    _perturb_adapters(enc, rng)
    apply_freeze(enc.params, FreezeMode.TRAIN_L_ADAPTER)
    ids = rng.integers(0, cfg.vocab_size, size=(2, 6))
    attn = np.ones_like(ids)
    labels = rng.integers(0, cfg.vocab_size, size=ids.shape)

    def loss():
        return T.cross_entropy(enc.mlm_logits(enc.forward(ids, attn)), labels)

    below = {id(t) for name, t in enc.params.items()
             if name.startswith(("emb.", "layer.1."))}
    seen, stack, nodes = set(), [loss()], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes += t._backward is not None
        assert not any(id(p) in below for p in t._parents)
        stack.extend(t._parents)
    assert nodes > 0
    report = T.finite_difference_check(loss, enc.params, max_entries_per_param=4,
                                       rng=np.random.default_rng(3))
    assert report.passed, report.per_param


layer_sets = st.sets(st.integers(1, 4), max_size=4)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 4), layer_sets, layer_sets, st.booleans(), st.data())
def test_shared_prefixes_equal_one_model_per_placement(num_layers, l_layers, t_layers,
                                                       invertible, data):
    """Every truncation i of a sweep's range lo..hi, as a view of one model
    with shared prefixes, against a model built for it alone: equal final
    states bit for bit, and equal cloze predictions."""
    cfg = EncoderConfig(num_layers=num_layers, hidden_size=16, num_heads=2, ffn_size=32,
                        vocab_size=40, max_positions=12)
    plan = PlacementPlan(frozenset(l for l in l_layers if l <= num_layers),
                         frozenset(l for l in t_layers if l <= num_layers), invertible)
    hi = data.draw(st.integers(0, num_layers))
    lo = data.draw(st.integers(0, hi))
    enc = Encoder(cfg, seed=0)
    attach(enc, plan, seed=1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    for name, t in enc.params.items():
        if name.startswith(("l_adapter.", "t_adapter.", "inv.")):
            t.data = rng.normal(0.0, 0.5, t.shape)
    manifest = Manifest(config=cfg, placement=plan, adapter_config=enc.adapters.config)
    state = enc.params.state_dict()
    plans = [plan.truncated(i, num_layers) for i in range(lo, hi + 1)]
    model = build_model(manifest, state)
    views = [placement_view(model, p) for p in plans]
    alone = []  # each placement's own model: its adapters' parameters alone
    for p in plans:
        single = Encoder(cfg, seed=0)
        attach(single, p, seed=1)
        single.params.load_state_dict(state, strict=False)
        alone.append(single)

    examples = []
    for k in range(EVAL_BATCH + 3):
        tokens = rng.integers(5, cfg.vocab_size, size=3 + k % 8).tolist()
        at = int(rng.integers(len(tokens)))
        tokens[at] = 4
        examples.append(ClozeRecord(id=str(k), tokens=tokens, mask_index=at,
                                    candidates=[10, 11, 12], answer=10, language="alpha"))
    ids, attn = pad_batch([ex.tokens for ex in examples], 0)
    rows = (np.arange(len(examples)), np.array([ex.mask_index for ex in examples]))
    finals = forward_placements(views, ids, attn, rows)
    for shared, single in zip(finals, alone):
        assert np.array_equal(shared.data, single.forward(ids, attn, rows=rows).data)
    got = eval_cloze_placements(views, examples, mask_id=4)
    assert [r.predictions for r in got] == [
        eval_cloze(single, examples, mask_id=4).predictions for single in alone]


def test_a_view_places_only_adapters_its_model_holds():
    enc = _fresh(PlacementPlan(frozenset({1}), frozenset(), False))
    with pytest.raises(ValueError, match="not a part of"):
        placement_view(enc, PlacementPlan(frozenset({1}), frozenset(), True))
    view = placement_view(enc, PlacementPlan())
    assert view.params is enc.params and enc.adapters.plan.l_layers == {1}
