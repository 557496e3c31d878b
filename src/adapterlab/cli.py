"""Command-line orchestration of the experimental pipeline: tokenizer and
backbone training, adapter training, evaluations, budget reports, layer
sweeps, and zero-shot transfer runs.

Every run reads one JSON config (optional), applies ``--set key.path=value``
overrides, checks the result once as a ``schema.RunConfig``, and writes its
artifacts under ``--out``: the effective config, a JSON report, and any
checkpoints. A run mode is a subcommand, or a subcommand with the flag that
changes what it reads (``budget --paper-scale``, ``sweep-layers
--retrain-per-layer``); one table, ``_MODES``, gives the keys and the
``synthetic`` fields each mode reads, ``training.READS`` the ``train``
fields of each trainer, and a key the run would ignore is refused before any
file is read. Exit codes: 0 success, 1 failed precondition (with an error
JSON on stderr naming the exception class), 2 usage error. A training run
that stops on a bad step still writes its ``train_report.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import synth, tasks, training
from .adapters import BACKBONE_PREFIXES, AdapterConfig, PlacementPlan, placement_view
from .budget import build_report, paper_scale_report
from .checkpoint import CheckpointError, Manifest, build_model, load_checkpoint, save_model
from .encoder import Encoder, EncoderConfig
from .schema import RunConfig, check, read_text
from .tokenizer import Vocabulary, train_bpe
from .training import TrainConfig


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
    """File config plus dotted overrides; overrides win, and zero-shot's
    ``--adapter`` and ``--eval-language`` win over both."""
    config: dict = {}
    if args.config:
        try:
            config = json.loads(read_text(args.config, CliError))
        except FileNotFoundError:
            raise CliError(f"config file not found: {args.config}")
        except json.JSONDecodeError as e:
            raise CliError(f"config file {args.config} is not valid JSON: {e}")
        if not isinstance(config, dict):
            raise CliError(f"config file {args.config} does not hold a JSON object")
    for item in args.set or []:
        path, value = _parse_override(item)
        node = config
        for part in path[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise CliError(f"override {item!r} descends through a non-object")
        node[path[-1]] = value
    for flag, key in (("adapter", "model"), ("eval_language", "eval_language")):
        if getattr(args, flag, None):
            config[key] = getattr(args, flag)
    return config


_SECTIONS = {"synthetic": synth.SyntheticSpec, "encoder": EncoderConfig,
             "train": TrainConfig, "adapter": AdapterConfig, "placement": PlacementPlan}


def _config(run: RunConfig, key: str, base: dict | None = None):
    """Run-config section ``key`` laid over ``base`` (default: its class's
    defaults, none for ``placement``) and read by its class's ``from_dict``;
    a bad value becomes a ``CliError`` naming the section and the key."""
    cls = _SECTIONS[key]
    if base is None:
        base = {} if key == "placement" else cls().to_dict()
    try:
        return cls.from_dict({**base, **(getattr(run, key) or {})})
    except ValueError as e:
        raise CliError(f"config key {key!r}: {e}") from e


def _cloze_examples(run: RunConfig, vocab: Vocabulary, seed: int, **kwargs) -> list:
    """Cloze probes drawn, by default, from the held-out seed of ``seed``."""
    return synth.cloze_examples(run.data, _config(run, "synthetic"), synth.held_out_seed(seed),
                                vocab, **kwargs)


def _load(run: RunConfig, key: str, vocab: Vocabulary) -> tuple[Manifest, dict]:
    """The checkpoint at config key ``key``, resolved through its parents;
    it must record ``vocab``, read from ``run.vocab``, as the vocabulary it
    was trained with."""
    path = getattr(run, key)
    manifest, state = load_checkpoint(path)
    if manifest.vocab != vocab.sha256:
        recorded = f"vocabulary {manifest.vocab[:12]}" if manifest.vocab else "no vocabulary"
        raise CheckpointError(f"{path}: the checkpoint records {recorded}, and {run.vocab} "
                              f"is vocabulary {vocab.sha256[:12]}: a model runs with the "
                              "vocabulary it was trained with")
    return manifest, state


def _refuse(given: dict, keys, reason: str) -> None:
    """A config key that ``given`` sets and the run would ignore is an error."""
    ignored = sorted(k for k in keys if given.get(k) is not None)
    if ignored:
        raise CliError(f"config key(s) {ignored} do not apply: {reason}")


def _refuse_sizes(run: RunConfig, stored: PlacementPlan, plan: PlacementPlan) -> None:
    """A stage's ``adapter`` keys may size only the kinds of adapter that
    ``plan`` adds beyond the checkpoint's ``stored`` plan: the checkpoint
    fixes the sizes of those it holds, and a kind the stage does not add has
    none. A stage that adds no adapter reads no ``adapter`` section."""
    added = {"l_bottleneck": plan.l_layers and not stored.l_layers,
             "t_bottleneck": plan.t_layers and not stored.t_layers,
             "inv_coupling_dim": plan.invertible and not stored.invertible}
    if not any(added.values()):
        _refuse(vars(run), ("adapter",), "the run adds no adapter")
    _refuse({f"adapter.{k}": v for k, v in (run.adapter or {}).items()},
            [f"adapter.{k}" for k, new in added.items() if not new],
            "the run adds no adapter of that kind")


# -- subcommands -----------------------------------------------------------

def cmd_tokenizer_train(args, run, seed, out: Path) -> dict:
    texts = synth.nl_texts(run.corpus, _config(run, "synthetic"), seed)
    vocab = train_bpe(texts, run.vocab_size)
    vocab.save(out / "vocab.txt")
    return {"vocab_size": vocab.size, "n_documents": len(texts),
            "n_merges": len(vocab.merges), "vocab_path": str(out / "vocab.txt")}


def cmd_pretrain(args, run, seed, out: Path) -> dict:
    vocab = Vocabulary.load(run.vocab)
    train_cfg = _config(run, "train", TrainConfig(seed=seed).to_dict())
    enc_cfg = _config(run, "encoder")
    if (run.encoder or {}).get("vocab_size", vocab.size) != vocab.size:
        raise CliError(f"config key 'encoder.vocab_size' is {enc_cfg.vocab_size}, but "
                       f"the vocabulary has {vocab.size} tokens")
    texts = synth.nl_texts(run.corpus, _config(run, "synthetic"), seed)
    encoder = Encoder(dataclasses.replace(enc_cfg, vocab_size=vocab.size), seed=seed)
    report = training.pretrain_mlm(encoder, texts, vocab, train_cfg)
    save_model(out / "backbone.ckpt", encoder, vocab=vocab.sha256)
    (out / "train_report.json").write_text(report.to_json())
    return {"checkpoint": str(out / "backbone.ckpt"), "steps": report.steps,
            "final_val_loss": report.val_curve[-1],
            "stopping_reason": report.stopping_reason}


def cmd_train_lang_adapter(args, run, seed, out: Path) -> dict:
    _refuse({"placement.t_layers": (run.placement or {}).get("t_layers") or None},
            ("placement.t_layers",), "an L-adapter stage trains no task adapters")
    vocab = Vocabulary.load(run.vocab)
    train_cfg = _config(run, "train", TrainConfig(seed=seed).to_dict())
    manifest, state = _load(run, "backbone", vocab)
    plan = manifest.placement
    if plan.t_layers:
        raise CliError(f"backbone {run.backbone} places task adapters at layers "
                       f"{sorted(plan.t_layers)}: an L-adapter is trained beneath none")
    if plan != PlacementPlan():
        _refuse(vars(run), ("placement",), "the backbone already has adapters")
    else:
        plan = (_config(run, "placement") if run.placement else
                PlacementPlan.full(manifest.config.num_layers, invertible=True))
    _refuse_sizes(run, manifest.placement, plan)
    adapter_cfg = _config(run, "adapter", manifest.adapter_config.to_dict())
    encoder = build_model(manifest, state, plan, adapter_cfg, seed=seed)
    del state  # the model holds its own copy; free this one before training
    records = synth.code_records(run.corpus, _config(run, "synthetic"), seed)
    languages = sorted({r.language for r in records})
    if len(languages) > 1:
        raise CliError(f"corpus {run.corpus} names the languages {languages}; "
                       "an L-adapter is trained on one")
    report = training.train_language_adapter(encoder, [r.code for r in records],
                                             vocab, train_cfg)
    language = records[0].language
    save_model(out / "l_adapter.ckpt", encoder, language=language)
    (out / "train_report.json").write_text(report.to_json())
    return {"checkpoint": str(out / "l_adapter.ckpt"), "language": language,
            "steps": report.steps, "final_val_loss": report.val_curve[-1],
            "stopping_reason": report.stopping_reason}


def cmd_train_task_adapter(args, run, seed, out: Path) -> dict:
    vocab = Vocabulary.load(run.vocab)
    train_cfg = _config(run, "train", TrainConfig(seed=seed).to_dict())
    task_kind = run.task
    manifest, state = _load(run, "model", vocab)
    plan = manifest.placement
    if not plan.t_layers:  # widen the plan with all-layer T-adapters
        plan = dataclasses.replace(
            plan, t_layers=frozenset(range(1, manifest.config.num_layers + 1)))
    _refuse_sizes(run, manifest.placement, plan)
    adapter_cfg = _config(run, "adapter", manifest.adapter_config.to_dict())
    encoder = build_model(manifest, state, plan, adapter_cfg, seed=seed)
    del state  # the model holds its own copy; free this one before training
    # one split rule for both task kinds: pairs never cross the class split
    records = synth.retrieval_records(run.data, _config(run, "synthetic"), seed)
    train_data, val_data = training.holdout(records, seed, label=lambda r: r.label)
    if task_kind == "pair_classification":
        n_pairs = run.n_pairs or 400
        n_train = int(0.9 * n_pairs)
        train_data = synth.pairs_from_retrieval(train_data, n_train, seed=seed)
        val_data = synth.pairs_from_retrieval(val_data, n_pairs - n_train, seed=seed)
    report = training.train_task_adapter(encoder, train_data, val_data, vocab,
                                         train_cfg, task_kind)
    save_model(out / "t_adapter.ckpt", encoder, language=manifest.language)
    (out / "train_report.json").write_text(report.to_json())
    return {"checkpoint": str(out / "t_adapter.ckpt"), "task": task_kind,
            "steps": report.steps,
            "val_metric": report.val_metric_name,
            "final_val_metric": report.val_curve[-1],
            "stopping_reason": report.stopping_reason}


def cmd_eval_cloze(args, run, seed, out: Path) -> dict:
    vocab = Vocabulary.load(run.vocab)
    encoder = build_model(*_load(run, "model", vocab))
    examples = _cloze_examples(run, vocab, seed)
    result = tasks.eval_cloze(encoder, examples, vocab.mask_id)
    (out / "predictions.json").write_text(json.dumps(result.predictions, indent=2))
    return {"accuracy": result.accuracy, "chance_accuracy": result.chance_accuracy,
            "n_examples": result.n}


def cmd_eval_clone(args, run, seed, out: Path) -> dict:
    vocab = Vocabulary.load(run.vocab)
    encoder = build_model(*_load(run, "model", vocab))
    task_kind, max_len = run.task, run.max_len
    records = synth.retrieval_records(run.data, _config(run, "synthetic"),
                                      synth.held_out_seed(seed))
    if task_kind == "retrieval":
        res = tasks.embed_corpus(encoder, records, vocab, max_len)
        ev = tasks.map_at_r(res.embeddings, res.labels, res.ids)
        return {"task": task_kind, "map_at_r": ev.map_at_r,
                "chance_map_at_r": ev.chance_map_at_r,
                "n_items": len(records), "n_truncated": res.n_truncated}
    pairs = synth.pairs_from_retrieval(records, run.n_pairs or 200, seed=seed)
    scores = tasks.eval_pairs(encoder, pairs, vocab, max_len=max_len)
    return {"task": task_kind, "n_pairs": len(pairs), **scores}


def cmd_budget(args, run, seed, out: Path) -> dict:
    report = (paper_scale_report() if args.paper_scale else
              build_report(_config(run, "encoder"), _config(run, "adapter")))
    print(f"{'component':<12}{'parameters':>14}{'MB':>10}{'% of model':>12}")
    for name, count in report.counts.items():
        print(f"{name:<12}{count:>14,}{report.megabytes[name]:>10.2f}"
              f"{report.percent_of_model[name]:>12.2f}")
    for name, value in report.ratios.items():
        print(f"ratio {name:<28}{value:>8.2f}")
    return report.to_dict()


def cmd_sweep_layers(args, run, seed, out: Path) -> dict:
    vocab = Vocabulary.load(run.vocab)
    manifest, state = _load(run, "model", vocab)
    if manifest.placement == PlacementPlan():
        raise CliError("sweep-layers needs a checkpoint with a trained adapter stack")
    full_plan, L = manifest.placement, manifest.config.num_layers
    lo, hi = map(int, (run.layers or f"0..{L}").split(".."))
    if not 0 <= lo <= hi <= L:
        raise CliError(f"config key 'layers': range {lo}..{hi} outside [0, {L}]")

    examples = _cloze_examples(run, vocab, seed)
    placements = [(i, full_plan.truncated(i, L)) for i in range(lo, hi + 1)]
    if args.retrain_per_layer:
        texts = [r.code for r in synth.code_records(run.corpus, _config(run, "synthetic"), seed)]
        train_cfg = _config(run, "train", TrainConfig(seed=seed).to_dict())
        # each placement starts from the backbone alone, with fresh adapters
        # sized by the manifest's adapter config, as train-lang-adapter does
        # on a bare backbone; task adapters are no part of it, and no
        # placement shares a layer prefix with another
        start = dataclasses.replace(manifest, placement=PlacementPlan())
        state = {n: v for n, v in state.items() if n.startswith(BACKBONE_PREFIXES)}
        results = []
        for i, plan in placements:
            plan = dataclasses.replace(plan, t_layers=frozenset())
            encoder = build_model(start, state, plan, seed=seed)
            if i > 0:
                report = training.train_language_adapter(encoder, texts, vocab, train_cfg)
                (out / f"train_report.layer{i}.json").write_text(report.to_json())
            results.append(tasks.eval_cloze(encoder, examples, vocab.mask_id))
    else:
        # one model; each placement is a view of it
        model = build_model(manifest, state)
        del state
        results = tasks.eval_cloze_placements(
            [placement_view(model, plan) for _, plan in placements], examples, vocab.mask_id)
    rows = []
    for (i, plan), result in zip(placements, results):
        rows.append({"i": i, "accuracy": result.accuracy,
                     "l_layers": sorted(plan.l_layers)})
        print(f"layers 1..{i}: accuracy {result.accuracy:.4f}")
    return {"mode": "retrain" if args.retrain_per_layer else "truncate",
            "metric": "cloze_accuracy", "rows": rows}


def cmd_zero_shot(args, run, seed, out: Path) -> dict:
    vocab = Vocabulary.load(run.vocab)
    manifest, state = _load(run, "model", vocab)
    trained_on, unseen = manifest.language, run.eval_language
    if not trained_on:
        raise CliError(f"{run.model}: the checkpoint records no training language; "
                       "zero-shot needs an adapter trained on one")
    if unseen == trained_on:
        raise CliError(f"config key 'eval_language' is {unseen!r}, and {run.model} was "
                       f"trained on {trained_on!r}: zero-shot needs an unseen language")
    encoder = build_model(manifest, state)
    del state  # the model holds its own copy
    scores = {}
    for language in (trained_on, unseen):
        examples = _cloze_examples(run, vocab, seed, language=language)
        scores[language] = tasks.eval_cloze(encoder, examples, vocab.mask_id).accuracy
    return {"train_language": trained_on, "eval_language": unseen,
            "cloze_accuracy": scores,
            "transfer_gap": scores[trained_on] - scores[unseen]}


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

# The run modes: a subcommand, or a subcommand with the flag that changes what
# it reads. Each row gives the top-level run-config keys the mode reads, and
# the datasets it generates: each by the path key whose file replaces it
# (None: no file does) and the ``synthetic`` fields its generator reads. Any
# other key given a non-null value is an error, whatever the value: the run
# would ignore it. zero-shot reads no ``data``: one probe file cannot hold a
# probe set per language, and its languages are the checkpoint's and
# ``eval_language``.
_NL, _CODE = ("seed", "n_sentences"), ("seed", "n", "language")
_CLASSES = ("seed", "n_classes", "per_class", "language")
_MODES = {
    "tokenizer-train": ({"corpus", "synthetic", "vocab_size"}, {"corpus": _NL}),
    "pretrain": ({"vocab", "corpus", "synthetic", "encoder", "train"}, {"corpus": _NL}),
    "train-lang-adapter": ({"vocab", "backbone", "corpus", "synthetic", "train", "adapter",
                            "placement"}, {"corpus": _CODE}),
    "train-task-adapter": ({"vocab", "model", "data", "synthetic", "task", "n_pairs",
                            "train", "adapter"}, {"data": _CLASSES}),
    "eval-cloze": ({"vocab", "model", "data", "synthetic"}, {"data": _CODE}),
    "eval-clone": ({"vocab", "model", "data", "synthetic", "task", "n_pairs", "max_len"},
                   {"data": _CLASSES}),
    "budget": ({"encoder", "adapter"}, {}),
    "budget --paper-scale": (set(), {}),
    "sweep-layers": ({"vocab", "model", "data", "synthetic", "layers"}, {"data": _CODE}),
    "sweep-layers --retrain-per-layer": ({"vocab", "model", "data", "synthetic", "layers",
                                          "corpus", "train"}, {"data": _CODE, "corpus": _CODE}),
    "zero-shot": ({"vocab", "model", "synthetic", "eval_language"}, {None: ("seed", "n")}),
}
# keys that must be set wherever they are read
_REQUIRED = {"vocab", "backbone", "model", "eval_language"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adapterlab",
        description="Parameter-efficient cross-modal transfer experiments.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file for this run")
        p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                       help="override a config value (JSON-parsed)")
        p.add_argument("--out", default="runs/latest", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
        if name == "budget":
            p.add_argument("--paper-scale", action="store_true",
                           help="use the 12-layer/768-hidden reference config")
        if name == "sweep-layers":
            p.add_argument("--retrain-per-layer", action="store_true",
                           help="train fresh adapters on the checkpoint's backbone "
                                "for each placement instead of truncating its "
                                "trained stack")
        if name == "zero-shot":
            p.add_argument("--adapter", help="adapter checkpoint trained on language A")
            p.add_argument("--eval-language", help="unseen language to evaluate on")
    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    made: list[Path] = []  # the --out directory and the parents this run made
    try:
        seed = args.seed
        if seed < 0:
            raise CliError(f"--seed must be >= 0, got {seed}")
        given = load_run_config(args)
        try:
            run = RunConfig.from_dict({**RunConfig().to_dict(), **given})
            check(run, f"null or one of {synth.LANGUAGES}",
                  lambda v: v in (None, *synth.LANGUAGES), "eval_language")
        except ValueError as e:
            raise CliError(f"run config: {e}") from e
        for key in _SECTIONS:  # checked over the defaults; handlers lay their own bases
            if getattr(run, key) is not None:
                _config(run, key)
        flags = [f for f in ("--paper-scale", "--retrain-per-layer")
                 if getattr(args, f[2:].replace("-", "_"), False)]
        mode = " ".join([args.subcommand, *flags])
        reads, datasets = _MODES[mode]
        _refuse(given, given.keys() - reads, f"{mode} does not read them")
        _refuse({"train.seed": (run.train or {}).get("seed")}, ("train.seed",),
                "--seed is the run seed")
        if "train" in reads:  # the fields its trainer reads, by ``training.READS``
            objective = run.task if args.subcommand == "train-task-adapter" else "mlm"
            fields = {f"train.{k}": v for k, v in (run.train or {}).items()}
            _refuse(fields, fields.keys() - {f"train.{f}" for f in training.READS[objective]},
                    f"the {objective} trainer of {mode} does not read them")
        missing = sorted(k for k in reads & _REQUIRED if not getattr(run, k))
        if missing:
            raise CliError(f"config key(s) {missing} are required")
        live = [fields for key, fields in datasets.items() if not (key and getattr(run, key))]
        if datasets and not live:
            _refuse(given, ("synthetic",), f"{mode} generates no dataset with "
                    f"{' and '.join(map(repr, sorted(datasets)))} given")
        fields = {f"synthetic.{k}": v for k, v in (given.get("synthetic") or {}).items()}
        _refuse(fields, fields.keys() - {f"synthetic.{f}" for fs in live for f in fs},
                f"no dataset that {mode} generates reads them")
        out = Path(args.out)
        made = [d for d in (out, *out.parents) if not d.exists()]
        out.mkdir(parents=True, exist_ok=True)
        report = _HANDLERS[args.subcommand](args, run, seed, out)
        report["subcommand"] = args.subcommand
        report["seed"] = seed
        (out / "report.json").write_text(json.dumps(report, indent=2))
        (out / "config.json").write_text(json.dumps(
            {"subcommand": args.subcommand, "seed": seed, "config": run.to_dict()}, indent=2))
        print(json.dumps(report, indent=2))
        return 0
    except (CliError, ValueError, RuntimeError, OSError) as e:
        if getattr(e, "report", None) is not None:  # a training run that stopped
            (out / "train_report.json").write_text(e.report.to_json())
        for d in made:  # deepest first: a failed run leaves no empty directory it made
            try:
                d.rmdir()
            except OSError:
                break
        error = {"error": type(e).__name__, "message": str(e), "subcommand": args.subcommand}
        print(json.dumps(error), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
