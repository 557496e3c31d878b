"""Exact parameter counting and memory accounting.

Counts derive from closed-form sums over named shapes only, never from model
weights, and equal the instantiated model's enumerated tally exactly.
Memory uses 4 bytes per parameter and binary megabytes (2**20 bytes).
"""

from __future__ import annotations

import dataclasses

from .adapters import (AdapterConfig, PlacementPlan, bottleneck_param_count,
                       invertible_param_count)
from .encoder import PAPER_SCALE_CONFIG, EncoderConfig

BYTES_PER_PARAM = 4
MEGABYTE = 2 ** 20

# Full-scale adapter sizing: reduction 2 for L-adapters, reduction 16 for
# T-adapters, invertible coupling dim chosen so the 12-layer L-adapter stack
# plus invertible adapter totals ~7.39M parameters at hidden size 768.
PAPER_ADAPTER_CONFIG = AdapterConfig(l_bottleneck=384, t_bottleneck=48, inv_coupling_dim=193)

# Reference budgets (millions of parameters) for the full-scale comparison
# models; used only for ratio reproduction, never as measured values.
REFERENCE_BUDGETS_M = {
    "c_ptlm_pretrain": 124.65,        # full backbone retrained on code
    "c_ptlm_ccd_retrieval": 249.3,    # pretrain + fine-tune, retrieval datasets
    "c_ptlm_ccd_pair": 250.48,        # pretrain + fine-tune, pair dataset
    "l_adapters": 7.39,
    "t_adapters": 0.89,
    "modex_retrieval": 8.28,          # 7.39 + 0.89
    "modex_pair": 9.46,
}


class BudgetError(ValueError):
    pass


def count_backbone(config: EncoderConfig) -> int:
    h, ff, V, L = (config.hidden_size, config.ffn_size,
                   config.vocab_size, config.num_layers)
    emb = V * h + config.max_positions * h + 2 * h
    per_layer = (4 * (h * h + h)          # q, k, v, o projections
                 + 2 * h                  # ln1
                 + (h * ff + ff) + (ff * h + h)
                 + 2 * h)                 # ln2
    mlm_head = (h * h + h) + 2 * h + V    # dense + ln + tied-projection bias
    return emb + L * per_layer + mlm_head


def count_component(kind: str, config: EncoderConfig, plan: PlacementPlan = PlacementPlan(),
                    adapter_config: AdapterConfig = AdapterConfig()) -> int:
    """Closed-form parameter count for one component kind.

    Kinds: backbone, l_adapter (includes the invertible adapter when the
    plan carries one), t_adapter, pair_head. The empty plan places none.
    """
    h = config.hidden_size
    if kind == "backbone":
        return count_backbone(config)
    if kind == "pair_head":
        return 4 * h + 1
    ac = adapter_config.resolved(h)
    if kind == "l_adapter":
        n = len(plan.l_layers) * bottleneck_param_count(h, ac.l_bottleneck)
        if plan.invertible:
            n += invertible_param_count(h, ac.inv_coupling_dim)
        return n
    if kind == "t_adapter":
        return len(plan.t_layers) * bottleneck_param_count(h, ac.t_bottleneck)
    raise BudgetError(f"unknown component kind {kind!r}")


def tally_instantiated(params, prefixes: tuple[str, ...]) -> int:
    """Enumerated parameter count of a live model, for cross-checking."""
    return sum(t.size for n, t in params.items() if n.startswith(prefixes))


@dataclasses.dataclass
class BudgetReport:
    counts: dict[str, int]
    bytes_per_param: int
    megabytes: dict[str, float]
    percent_of_model: dict[str, float]
    ratios: dict[str, float]
    notes: list[str]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def memory_megabytes(count: int) -> float:
    return count * BYTES_PER_PARAM / MEGABYTE


def efficiency_ratios() -> dict[str, float]:
    """The full-scale parameter-efficiency ratios, from the reference table.

    Task-specific ratios exclude pretraining budgets on both sides; overall
    ratios compare total trained parameters; the cloze-test ratio needs no
    fine-tuning on either side.
    """
    r = REFERENCE_BUDGETS_M
    return {
        "task_specific_retrieval": (r["c_ptlm_ccd_retrieval"] - r["c_ptlm_pretrain"]) / r["t_adapters"],
        "task_specific_pair": ((r["c_ptlm_ccd_pair"] - r["c_ptlm_pretrain"])
                               / (r["modex_pair"] - r["l_adapters"])),
        "overall_retrieval": r["c_ptlm_ccd_retrieval"] / r["modex_retrieval"],
        "overall_pair": r["c_ptlm_ccd_pair"] / r["modex_pair"],
        "overall_cloze": r["c_ptlm_pretrain"] / r["l_adapters"],
    }


def build_report(config: EncoderConfig, adapter_config: AdapterConfig) -> BudgetReport:
    plan = PlacementPlan.full(config.num_layers, t_adapters=True, invertible=True)
    counts = {
        "backbone": count_component("backbone", config),
        "l_adapters": count_component("l_adapter", config, plan, adapter_config),
        "t_adapters": count_component("t_adapter", config, plan, adapter_config),
        "pair_head": count_component("pair_head", config),
    }
    counts["modex"] = counts["l_adapters"] + counts["t_adapters"]
    mb = {k: memory_megabytes(v) for k, v in counts.items()}
    full = mb["backbone"]
    pct = {k: 100.0 * v / full for k, v in mb.items()}
    notes = [
        f"megabyte = 2**20 bytes, {BYTES_PER_PARAM} bytes/parameter",
        "reference full-model memory figures imply slightly more parameters "
        "than the reference count; both are reproduced from their own bases",
    ]
    return BudgetReport(counts=counts, bytes_per_param=BYTES_PER_PARAM,
                        megabytes=mb, percent_of_model=pct,
                        ratios=efficiency_ratios(), notes=notes)


def paper_scale_report() -> BudgetReport:
    """Budget report for the full-scale 12-layer reference configuration."""
    return build_report(PAPER_SCALE_CONFIG, PAPER_ADAPTER_CONFIG)
