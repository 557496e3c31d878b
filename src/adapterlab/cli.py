"""Command-line orchestration of the experimental pipeline: tokenizer and
backbone training, adapter training, evaluations, budget reports, layer
sweeps, and zero-shot transfer runs.

Every run reads one JSON config (optional), applies ``--set key.path=value``
overrides, and writes its artifacts under ``--out``: the effective config,
a JSON report, and any checkpoints. Exit codes: 0 success, 1 failed
precondition (with an error JSON on stderr naming the exception class), 2
usage error. A training run that stops on a bad step still writes its
``train_report.json``.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

from . import synth, tasks, training
from .adapters import AdapterConfig, PlacementPlan
from .budget import build_report, paper_scale_report
from .checkpoint import (build_model, load_checkpoint, manifest_config,
                         manifest_plan, save_model)
from .corpus import load_jsonl
from .encoder import Encoder, EncoderConfig
from .tokenizer import Vocabulary, train_bpe

SUBCOMMANDS = ("tokenizer-train", "pretrain", "train-lang-adapter",
               "train-task-adapter", "eval-cloze", "eval-clone", "budget",
               "sweep-layers", "zero-shot")


class CliError(RuntimeError):
    """Failed precondition surfaced as exit code 1."""


# -- config plumbing -------------------------------------------------------

def _parse_override(text: str) -> tuple[list[str], object]:
    if "=" not in text:
        raise CliError(f"override {text!r} is not of the form key.path=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings need no quoting
    return key.split("."), value


def load_run_config(args: argparse.Namespace) -> dict:
    """File config plus dotted overrides; overrides win."""
    config: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh)
        except FileNotFoundError:
            raise CliError(f"config file not found: {args.config}")
        except json.JSONDecodeError as e:
            raise CliError(f"config file {args.config} is not valid JSON: {e}")
    config = copy.deepcopy(config)
    for item in args.set or []:
        path, value = _parse_override(item)
        node = config
        for part in path[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise CliError(f"override {item!r} descends through a non-object")
        node[path[-1]] = value
    return config


def resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("ADAPTERLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"ADAPTERLAB_SEED={env!r} is not an integer")
    return 0


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(out: Path, args: argparse.Namespace, config: dict,
                 seed: int) -> None:
    doc = {"subcommand": args.subcommand, "seed": seed, "config": config}
    (out / "config.json").write_text(json.dumps(doc, indent=2))


def _write_report(out: Path, report: dict) -> None:
    (out / "report.json").write_text(json.dumps(report, indent=2))


def _train_config(config: dict, seed: int) -> training.TrainConfig:
    fields = dict(config.get("train", {}))
    fields.setdefault("seed", seed)
    try:
        return training.TrainConfig(**fields)
    except (TypeError, ValueError) as e:
        raise CliError(f"bad train config: {e}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _placement_plan(value) -> PlacementPlan:
    """The ``placement`` config: an object with exactly the keys of
    ``PlacementPlan.to_dict``."""
    keys = set(PlacementPlan().to_dict())
    if not isinstance(value, dict):
        raise CliError(f"config key 'placement' must be an object with keys {sorted(keys)}")
    missing, unknown = sorted(keys - value.keys()), sorted(value.keys() - keys)
    if missing:
        raise CliError(f"placement config is missing key(s) {missing}")
    if unknown:
        raise CliError(f"placement config has unknown key(s) {unknown}")
    for key in ("l_layers", "t_layers"):
        if not (isinstance(value[key], list) and all(map(_is_int, value[key]))):
            raise CliError(f"placement key {key!r} must be a list of layer numbers")
    if not isinstance(value["invertible"], bool):
        raise CliError("placement key 'invertible' must be true or false")
    return PlacementPlan.from_dict(value)


def _adapter_config(base: dict, config: dict) -> AdapterConfig:
    """``base`` (a checkpoint's adapter config) with the ``adapter`` config
    keys laid over it."""
    fields = config.get("adapter", {})
    if not isinstance(fields, dict):
        raise CliError("config key 'adapter' must be an object")
    defaults = {f.name: f.default for f in dataclasses.fields(AdapterConfig)}
    unknown = fields.keys() - defaults.keys()
    if unknown:
        raise CliError(f"adapter config has unknown key(s) {sorted(unknown)}")
    for key, v in fields.items():
        if not ((_is_int(v) and v >= 1) or (v is None and defaults[key] is None)):
            raise CliError(f"adapter config key {key!r} must be a positive integer")
    return AdapterConfig(**{**base, **fields})


def _load_vocab(config: dict) -> Vocabulary:
    path = config.get("vocab")
    if not path:
        raise CliError("config key 'vocab' (vocabulary file path) is required")
    try:
        return Vocabulary.load(path)
    except FileNotFoundError:
        raise CliError(f"vocabulary file not found: {path}")


# -- data sources ----------------------------------------------------------

def _held_out_seed(seed: int) -> int:
    """Synthetic-data seed of the evaluation subcommands. The training
    subcommands generate from the run seed itself, so by default an
    evaluation never scores the programs its run seed trained on."""
    return seed + 2 ** 31


def _nl_texts(config: dict, seed: int) -> list[str]:
    """NL pretraining corpus: a text file (one document per line) or synthetic."""
    path = config.get("corpus")
    if path:
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except FileNotFoundError:
            raise CliError(f"corpus file not found: {path}")
        texts = [ln for ln in lines if ln.strip()]
        if not texts:
            raise CliError(f"corpus file {path} has no non-empty lines")
        return texts
    spec = config.get("synthetic", {})
    return synth.synth_nl_corpus(spec.get("n_sentences", 4000),
                                 seed=spec.get("seed", seed))


def _code_records(config: dict, seed: int, key: str = "corpus"):
    """Code corpus: unlabeled JSON-lines or the synthetic toy language."""
    path = config.get(key)
    if path:
        records, _ = load_jsonl(path, "unlabeled")
        return records
    spec = config.get("synthetic", {})
    return synth.synth_code_records(spec.get("language", "alpha"),
                                    spec.get("n", 600),
                                    seed=spec.get("seed", seed))


def _retrieval_records(config: dict, seed: int):
    path = config.get("data")
    if path:
        records, _ = load_jsonl(path, "retrieval")
        return records
    spec = config.get("synthetic", {})
    return synth.synth_clone_classes(spec.get("n_classes", 20),
                                     spec.get("per_class", 20),
                                     seed=spec.get("seed", seed),
                                     language=spec.get("language", "alpha"))


def _cloze_examples(config: dict, vocab: Vocabulary, seed: int,
                    language: str | None = None):
    path = config.get("data")
    if path:
        examples, _ = load_jsonl(path, "cloze")
        return examples
    spec = dict(config.get("synthetic", {}))
    if language is not None:
        spec["language"] = language
    records = synth.synth_code_records(spec.get("language", "alpha"),
                                       spec.get("n", 200),
                                       seed=spec.get("seed", seed))
    candidates = tuple(config.get("candidates", ("max", "min")))
    examples = synth.build_cloze_examples(records, vocab, candidates)
    if not examples:
        raise CliError("no cloze probes could be built from the corpus")
    return examples


# -- subcommands -----------------------------------------------------------

def cmd_tokenizer_train(args, config, seed, out: Path) -> dict:
    texts = _nl_texts(config, seed)
    vocab = train_bpe(texts, config.get("vocab_size", 2048))
    vocab.save(out / "vocab.txt")
    return {"vocab_size": vocab.size, "n_documents": len(texts),
            "n_merges": len(vocab.merges), "vocab_path": str(out / "vocab.txt")}


def cmd_pretrain(args, config, seed, out: Path) -> dict:
    vocab = _load_vocab(config)
    texts = _nl_texts(config, seed)
    enc_cfg = dict(config.get("encoder", {}))
    enc_cfg["vocab_size"] = vocab.size
    try:
        encoder = Encoder(EncoderConfig(**enc_cfg), seed=seed)
    except (TypeError, ValueError) as e:
        raise CliError(f"bad encoder config: {e}")
    report = training.pretrain_mlm(encoder, texts, vocab, _train_config(config, seed))
    save_model(out / "backbone.ckpt", "backbone", encoder)
    (out / "train_report.json").write_text(report.to_json())
    return {"checkpoint": str(out / "backbone.ckpt"), "steps": report.steps,
            "final_val_loss": report.val_curve[-1],
            "stopping_reason": report.stopping_reason}


def cmd_train_lang_adapter(args, config, seed, out: Path) -> dict:
    vocab = _load_vocab(config)
    manifest, state = load_checkpoint(_require(config, "backbone"))
    plan = adapter_cfg = None
    if not manifest.get("placement"):
        plan_cfg = config.get("placement")
        plan = (_placement_plan(plan_cfg) if plan_cfg else
                PlacementPlan.full(manifest_config(manifest).num_layers,
                                   invertible=True))
        adapter_cfg = _adapter_config({}, config)
    encoder = build_model(manifest, state, plan, adapter_cfg, seed=seed)
    del state  # the model holds its own copy; free this one before training
    records = _code_records(config, seed)
    texts = [r.code for r in records]
    report = training.train_language_adapter(encoder, texts, vocab,
                                             _train_config(config, seed))
    language = records[0].language if records else "unknown"
    save_model(out / "l_adapter.ckpt", "l_adapter", encoder,
               extra={"language": language})
    (out / "train_report.json").write_text(report.to_json())
    return {"checkpoint": str(out / "l_adapter.ckpt"), "language": language,
            "steps": report.steps, "final_val_loss": report.val_curve[-1],
            "stopping_reason": report.stopping_reason}


def cmd_train_task_adapter(args, config, seed, out: Path) -> dict:
    vocab = _load_vocab(config)
    task_kind = config.get("task", "retrieval")
    manifest, state = load_checkpoint(_require(config, "model"))
    plan, adapter_cfg = manifest_plan(manifest), None
    if not plan.t_layers:
        # widen the plan with all-layer T-adapters
        layers = range(1, manifest_config(manifest).num_layers + 1)
        plan = dataclasses.replace(plan, t_layers=frozenset(layers))
        adapter_cfg = _adapter_config(manifest.get("adapter_config") or {}, config)
    encoder = build_model(manifest, state, plan, adapter_cfg, seed=seed)
    del state  # the model holds its own copy; free this one before training
    records = _retrieval_records(config, seed)
    if task_kind == "pair_classification":
        pairs = synth.pairs_from_retrieval(records, config.get("n_pairs", 400),
                                           seed=seed)
        train_data = pairs[:int(0.9 * len(pairs))]
        val_data = pairs[int(0.9 * len(pairs)):]
    else:
        train_data, val_data = _split_retrieval(records, seed)
    report = training.train_task_adapter(
        encoder, train_data, val_data, vocab, _train_config(config, seed), task_kind)
    save_model(out / "t_adapter.ckpt", "t_adapter", encoder,
               extra={"task": task_kind})
    (out / "train_report.json").write_text(report.to_json())
    return {"checkpoint": str(out / "t_adapter.ckpt"), "task": task_kind,
            "steps": report.steps,
            "val_metric": report.val_metric_name,
            "final_val_metric": report.val_curve[-1],
            "stopping_reason": report.stopping_reason}


def _split_retrieval(records, seed: int):
    """Per-class validation split: at least two held-out members per class
    (classes too small to spare two stay entirely in training), so MAP@R on
    the validation set never sees singleton classes."""
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
        raise CliError("every retrieval class is too small to hold out "
                       "validation members (need >= 4 per class)")
    return train, val


def cmd_eval_cloze(args, config, seed, out: Path) -> dict:
    vocab = _load_vocab(config)
    encoder = build_model(*load_checkpoint(_require(config, "model")))
    examples = _cloze_examples(config, vocab, _held_out_seed(seed))
    result = tasks.eval_cloze(encoder, examples, vocab.mask_id)
    (out / "predictions.json").write_text(json.dumps(result.predictions, indent=2))
    return {"accuracy": result.accuracy, "n_examples": result.n}


def cmd_eval_clone(args, config, seed, out: Path) -> dict:
    vocab = _load_vocab(config)
    encoder = build_model(*load_checkpoint(_require(config, "model")))
    task_kind = config.get("task", "retrieval")
    records = _retrieval_records(config, _held_out_seed(seed))
    if task_kind == "retrieval":
        res = tasks.embed_corpus(encoder, records, vocab, config.get("max_len"))
        ev = tasks.map_at_r(res.embeddings, res.labels, res.ids)
        return {"task": task_kind, "map_at_r": ev.map_at_r,
                "n_items": len(records), "n_truncated": res.n_truncated}
    if task_kind == "pair_classification":
        if "head.pair.w" not in encoder.params:
            raise CliError("model checkpoint has no pair-classification head")
        pairs = synth.pairs_from_retrieval(records, config.get("n_pairs", 200),
                                           seed=seed)
        scores = tasks.eval_pairs(encoder, pairs, vocab,
                                  max_len=config.get("max_len"))
        return {"task": task_kind, "n_pairs": len(pairs), **scores}
    raise CliError(f"unknown task kind {task_kind!r}")


def cmd_budget(args, config, seed, out: Path) -> dict:
    if args.paper_scale:
        report = paper_scale_report()
    else:
        try:
            enc_cfg = EncoderConfig(**config.get("encoder", {}))
        except (TypeError, ValueError) as e:
            raise CliError(f"bad budget config: {e}")
        report = build_report(enc_cfg, _adapter_config({}, config))
    doc = report.to_dict()
    print(f"{'component':<12}{'parameters':>14}{'MB':>10}{'% of model':>12}")
    for name, count in report.counts.items():
        print(f"{name:<12}{count:>14,}{report.megabytes[name]:>10.2f}"
              f"{report.percent_of_model[name]:>12.2f}")
    for name, value in report.ratios.items():
        print(f"ratio {name:<28}{value:>8.2f}")
    return doc


def cmd_sweep_layers(args, config, seed, out: Path) -> dict:
    vocab = _load_vocab(config)
    ckpt_path = _require(config, "model")
    manifest, state = load_checkpoint(ckpt_path)
    if not manifest.get("placement"):
        raise CliError("sweep-layers needs a checkpoint with a trained adapter stack")
    full_plan = manifest_plan(manifest)
    L = manifest_config(manifest).num_layers
    layers = config.get("layers")
    if layers is None:
        lo, hi = 0, L
    else:
        try:
            lo, hi = (int(p) for p in str(layers).split(".."))
        except ValueError:
            raise CliError(f"bad layer range {layers!r}; expected LO..HI")
    if not 0 <= lo <= hi <= L:
        raise CliError(f"layer range {lo}..{hi} outside [0, {L}]")

    examples = _cloze_examples(config, vocab, _held_out_seed(seed))
    rows = []
    for i in range(lo, hi + 1):
        plan = full_plan.truncated(i, L)
        encoder = build_model(manifest, state, plan, seed=seed)
        if args.retrain_per_layer and i > 0:
            records = _code_records(config, seed)
            training.train_language_adapter(encoder, [r.code for r in records],
                                            vocab, _train_config(config, seed))
        result = tasks.eval_cloze(encoder, examples, vocab.mask_id)
        rows.append({"i": i, "accuracy": result.accuracy,
                     "l_layers": sorted(plan.l_layers)})
        print(f"layers 1..{i}: accuracy {result.accuracy:.4f}")
    return {"mode": "retrain" if args.retrain_per_layer else "truncate",
            "metric": "cloze_accuracy", "rows": rows}


def cmd_zero_shot(args, config, seed, out: Path) -> dict:
    if args.adapter:
        config["model"] = args.adapter
    if args.eval_language:
        config["eval_language"] = args.eval_language
    vocab = _load_vocab(config)
    manifest, state = load_checkpoint(_require(config, "model"))
    encoder = build_model(manifest, state)
    del state  # the model holds its own copy
    trained_on = config.get("train_language") or manifest.get("language")
    if not trained_on:
        raise CliError("training language unknown; set config key 'train_language'")
    unseen = config.get("eval_language")
    if not unseen:
        raise CliError("--eval-language (or config key 'eval_language') is required")
    scores = {}
    for language in (trained_on, unseen):
        examples = _cloze_examples(config, vocab, _held_out_seed(seed),
                                   language=language)
        scores[language] = tasks.eval_cloze(encoder, examples, vocab.mask_id).accuracy
    return {"train_language": trained_on, "eval_language": unseen,
            "cloze_accuracy": scores,
            "transfer_gap": scores[trained_on] - scores[unseen]}


def _require(config: dict, key: str) -> str:
    value = config.get(key)
    if not value:
        raise CliError(f"config key {key!r} is required")
    return value


_HANDLERS = {
    "tokenizer-train": cmd_tokenizer_train,
    "pretrain": cmd_pretrain,
    "train-lang-adapter": cmd_train_lang_adapter,
    "train-task-adapter": cmd_train_task_adapter,
    "eval-cloze": cmd_eval_cloze,
    "eval-clone": cmd_eval_clone,
    "budget": cmd_budget,
    "sweep-layers": cmd_sweep_layers,
    "zero-shot": cmd_zero_shot,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adapterlab",
        description="Parameter-efficient cross-modal transfer experiments.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file for this run")
        p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                       help="override a config value (JSON-parsed)")
        p.add_argument("--out", default="runs/latest", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="run seed (default: $ADAPTERLAB_SEED, else 0)")
        if name == "budget":
            p.add_argument("--paper-scale", action="store_true",
                           help="use the 12-layer/768-hidden reference config")
        if name == "sweep-layers":
            p.add_argument("--retrain-per-layer", action="store_true",
                           help="retrain the adapter for each placement "
                                "instead of truncating one trained stack")
        if name == "zero-shot":
            p.add_argument("--adapter", help="adapter checkpoint trained on language A")
            p.add_argument("--eval-language", help="unseen language to evaluate on")
    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_run_config(args)
        seed = resolve_seed(args)
        out = _out_dir(args)
        report = _HANDLERS[args.subcommand](args, config, seed, out)
        report["subcommand"] = args.subcommand
        report["seed"] = seed
        _write_report(out, report)
        _echo_config(out, args, config, seed)
        print(json.dumps(report, indent=2))
        return 0
    except (CliError, ValueError, RuntimeError, OSError) as e:
        if getattr(e, "report", None) is not None:  # a training run that stopped
            (out / "train_report.json").write_text(e.report.to_json())
        error = {"error": type(e).__name__, "message": str(e),
                 "subcommand": args.subcommand}
        print(json.dumps(error), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
