"""Budget math: closed-form counts vs instantiated models, full-scale
reference numbers, memory and ratio accounting."""

import numpy as np
import pytest

from adapterlab.adapters import AdapterConfig, PlacementPlan, attach
from adapterlab.budget import (BudgetError, PAPER_ADAPTER_CONFIG, build_report,
                               count_backbone, count_component,
                               efficiency_ratios, memory_megabytes,
                               paper_scale_report, tally_instantiated)
from adapterlab.encoder import PAPER_SCALE_CONFIG, Encoder, EncoderConfig
from adapterlab.tasks import register_pair_head


def _random_config(rng):
    heads = int(rng.integers(1, 5))
    return EncoderConfig(
        num_layers=int(rng.integers(1, 5)),
        hidden_size=heads * 2 * int(rng.integers(2, 9)),
        num_heads=heads,
        ffn_size=int(rng.integers(8, 65)),
        vocab_size=int(rng.integers(20, 200)),
        max_positions=int(rng.integers(8, 65)),
    )


def test_closed_form_equals_instantiated_backbone():
    rng = np.random.default_rng(0)
    for _ in range(6):
        cfg = _random_config(rng)
        enc = Encoder(cfg, seed=0)
        assert count_backbone(cfg) == enc.params.count()


def test_closed_form_equals_instantiated_adapters():
    rng = np.random.default_rng(1)
    for _ in range(6):
        cfg = _random_config(rng)
        enc = Encoder(cfg, seed=0)
        plan = PlacementPlan.full(cfg.num_layers, t_adapters=True, invertible=True)
        acfg = AdapterConfig()
        attach(enc, plan, acfg, seed=0)
        register_pair_head(enc.params, cfg.hidden_size)
        got_l = count_component("l_adapter", cfg, plan, acfg)
        got_t = count_component("t_adapter", cfg, plan, acfg)
        got_head = count_component("pair_head", cfg)
        assert got_l == tally_instantiated(enc.params, ("l_adapter.", "inv."))
        assert got_t == tally_instantiated(enc.params, ("t_adapter.",))
        assert got_head == tally_instantiated(enc.params, ("head.",))


def test_count_respects_partial_placement():
    cfg = EncoderConfig(num_layers=4, hidden_size=16, num_heads=2, ffn_size=32,
                        vocab_size=30, max_positions=8)
    plan = PlacementPlan(frozenset({1, 3}), frozenset({2}), invertible=False)
    acfg = AdapterConfig()
    enc = Encoder(cfg, seed=0)
    attach(enc, plan, acfg)
    assert count_component("l_adapter", cfg, plan, acfg) == \
        tally_instantiated(enc.params, ("l_adapter.", "inv."))
    assert count_component("t_adapter", cfg, plan, acfg) == \
        tally_instantiated(enc.params, ("t_adapter.",))


def test_an_odd_width_invertible_adapter_is_counted_as_attach_refuses_it():
    """The even-width rule is one rule: the closed-form count refuses the
    model that ``attach`` refuses, with the same message."""
    cfg = EncoderConfig(num_layers=1, hidden_size=33, num_heads=3, ffn_size=8,
                        vocab_size=10, max_positions=8)
    plan = PlacementPlan.full(1, invertible=True)
    with pytest.raises(ValueError, match="^invertible adapter needs an even hidden size$"):
        attach(Encoder(cfg, seed=0), plan)
    with pytest.raises(ValueError, match="^invertible adapter needs an even hidden size$"):
        count_component("l_adapter", cfg, plan)
    assert count_component("l_adapter", cfg, PlacementPlan.full(1, invertible=False)) > 0


def test_unknown_component_kind():
    with pytest.raises(BudgetError):
        count_component("decoder", PAPER_SCALE_CONFIG)


def test_full_scale_reference_counts():
    backbone = count_backbone(PAPER_SCALE_CONFIG)
    assert abs(backbone / 1e6 - 124.65) / 124.65 < 0.01
    plan = PlacementPlan.full(12, t_adapters=True, invertible=True)
    l_stack = count_component("l_adapter", PAPER_SCALE_CONFIG, plan,
                              PAPER_ADAPTER_CONFIG)
    t_stack = count_component("t_adapter", PAPER_SCALE_CONFIG, plan,
                              PAPER_ADAPTER_CONFIG)
    assert abs(l_stack / 1e6 - 7.39) / 7.39 < 0.02
    assert abs(t_stack / 1e6 - 0.89) / 0.89 < 0.02


def test_efficiency_ratios_reproduce_reference():
    r = efficiency_ratios()
    assert abs(r["task_specific_retrieval"] - 140.05) / 140.05 < 0.02
    assert abs(r["task_specific_pair"] - 60.7) / 60.7 < 0.02
    assert abs(r["overall_retrieval"] - 30.11) / 30.11 < 0.02
    assert abs(r["overall_pair"] - 26.48) / 26.48 < 0.02
    assert abs(r["overall_cloze"] - 16.87) / 16.87 < 0.02


def test_memory_megabytes():
    assert memory_megabytes(2 ** 20) == 4.0


def test_paper_scale_memory_columns():
    rep = paper_scale_report()
    mb = rep.megabytes
    assert abs(mb["l_adapters"] - 28.20) / 28.20 < 0.03
    assert abs(mb["t_adapters"] - 3.43) / 3.43 < 0.03
    assert abs(mb["modex"] - 31.63) / 31.63 < 0.03
    pct = rep.percent_of_model
    assert abs(pct["l_adapters"] - 5.89) < 0.3
    assert abs(pct["t_adapters"] - 0.72) < 0.3
    assert abs(pct["modex"] - 6.62) < 0.3


def test_build_report_structure():
    cfg = EncoderConfig(num_layers=2, hidden_size=8, num_heads=2, ffn_size=16,
                        vocab_size=20, max_positions=8)
    rep = build_report(cfg, AdapterConfig())
    d = rep.to_dict()
    assert set(d["counts"]) == {"backbone", "l_adapters", "t_adapters",
                                "pair_head", "modex"}
    assert d["counts"]["modex"] == d["counts"]["l_adapters"] + d["counts"]["t_adapters"]
    assert d["percent_of_model"]["backbone"] == pytest.approx(100.0)
