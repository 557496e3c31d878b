"""CLI: dispatch, config/override plumbing, exit codes, and a miniature
end-to-end pipeline through every subcommand."""

import dataclasses
import json
import struct
import zipfile

import numpy as np
import pytest

from adapterlab import cli, synth, training
from adapterlab.adapters import PlacementPlan, attach
from adapterlab.checkpoint import build_model, load_checkpoint, save_model
from adapterlab.cli import dispatch
from adapterlab.encoder import Encoder
from adapterlab.schema import RunConfig
from adapterlab.tokenizer import Vocabulary

TINY = [
    "--set", "encoder.num_layers=2", "--set", "encoder.hidden_size=32",
    "--set", "encoder.num_heads=2", "--set", "encoder.ffn_size=64",
]


def _run(argv):
    return dispatch(argv)


def _report(out):
    return json.loads((out / "report.json").read_text())


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Shared miniature pipeline: vocab -> backbone -> L-adapter."""
    root = tmp_path_factory.mktemp("cli")
    assert _run(["tokenizer-train", "--out", str(root / "tok"), "--seed", "0",
                 "--set", "vocab_size=512",
                 "--set", "synthetic.n_sentences=400"]) == 0
    vocab = str(root / "tok" / "vocab.txt")
    assert _run(["pretrain", "--out", str(root / "pre"), "--seed", "0",
                 "--set", f"vocab={vocab}", *TINY,
                 "--set", "train.max_steps=25", "--set", "train.max_len=32",
                 "--set", "synthetic.n_sentences=400"]) == 0
    assert _run(["train-lang-adapter", "--out", str(root / "la"), "--seed", "0",
                 "--set", f"vocab={vocab}",
                 "--set", f"backbone={root / 'pre' / 'backbone.ckpt'}",
                 "--set", "train.max_steps=15", "--set", "synthetic.n=60"]) == 0
    return root, vocab


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        dispatch(["frobnicate"])
    assert e.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as e:
        dispatch(["budget", "--unknown-flag"])
    assert e.value.code == 2


def test_missing_precondition_exits_1_with_error_json(tmp_path, capsys):
    rc = _run(["eval-cloze", "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "message" in err and err["subcommand"] == "eval-cloze"


def test_bad_override_exits_1(tmp_path):
    rc = _run(["budget", "--out", str(tmp_path), "--set", "noequals"])
    assert rc == 1


def test_budget_paper_scale(tmp_path, capsys):
    assert _run(["budget", "--paper-scale", "--out", str(tmp_path)]) == 0
    rep = _report(tmp_path)
    assert abs(rep["counts"]["backbone"] - 124_696_665) < 1_250_000
    assert abs(rep["megabytes"]["l_adapters"] - 28.20) < 1.0
    out = capsys.readouterr().out
    assert "backbone" in out and "ratio" in out


def test_budget_custom_config(tmp_path):
    assert _run(["budget", "--out", str(tmp_path), *TINY]) == 0
    rep = _report(tmp_path)
    assert rep["counts"]["backbone"] > 0


def test_budget_bad_adapter_value_exits_1_naming_key(tmp_path, capsys):
    rc = _run(["budget", "--out", str(tmp_path), "--set", 'adapter.l_bottleneck="x"'])
    assert rc == 1
    assert "l_bottleneck" in json.loads(capsys.readouterr().err.strip())["message"]


def test_effective_config_echoed(tmp_path):
    assert _run(["budget", "--out", str(tmp_path),
                 "--set", "encoder.num_layers=2"]) == 0
    cfg = json.loads((tmp_path / "config.json").read_text())
    assert cfg["config"]["encoder"]["num_layers"] == 2
    assert cfg["subcommand"] == "budget"
    assert "seed" in cfg


def test_config_file_with_override(tmp_path):
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps({"encoder": {"num_layers": 3, "hidden_size": 16,
                                         "num_heads": 2, "ffn_size": 32}}))
    assert _run(["budget", "--config", str(f), "--out", str(tmp_path / "o"),
                 "--set", "encoder.num_layers=1"]) == 0
    cfg = json.loads((tmp_path / "o" / "config.json").read_text())
    assert cfg["config"]["encoder"]["num_layers"] == 1
    assert cfg["config"]["encoder"]["hidden_size"] == 16


def test_seed_env_and_flag(tmp_path, monkeypatch):
    """``--seed`` alone sets the run seed; the environment is not read."""
    monkeypatch.setenv("ADAPTERLAB_SEED", "77")
    assert _run(["budget", "--out", str(tmp_path / "a")]) == 0
    assert _report(tmp_path / "a")["seed"] == 0
    assert _run(["budget", "--out", str(tmp_path / "b"), "--seed", "5"]) == 0
    assert _report(tmp_path / "b")["seed"] == 5


@pytest.mark.parametrize("subcommand", ["tokenizer-train", "pretrain", "train-lang-adapter",
                                        "train-task-adapter", "eval-cloze", "eval-clone",
                                        "budget", "sweep-layers", "zero-shot"])
def test_negative_seed_exits_1_naming_it(tmp_path, capsys, subcommand):
    """Before any work: the output directory is not even made."""
    assert _run([subcommand, "--out", str(tmp_path / "o"), "--seed", "-1"]) == 1
    err = _one_error_line(capsys)
    assert err["error"] == "CliError" and "--seed" in err["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("subcommand, flags", [
    ("pretrain", []), ("train-lang-adapter", []), ("train-task-adapter", []),
    ("sweep-layers", ["--retrain-per-layer"])])
def test_train_seed_exits_1_naming_it(tmp_path, capsys, subcommand, flags):
    """``--seed`` is the one run seed: ``train.seed`` is refused before any
    file is read (the paths name no file)."""
    argv = [subcommand, *flags, "--out", str(tmp_path / "o"), "--seed", "0",
            "--set", "train.seed=7"]
    for key in sorted(READS[" ".join([subcommand, *flags])] & REQUIRED):
        argv += ["--set", f"{key}={VALUES[key]}"]
    assert _run(argv) == 1
    assert _one_error_line(capsys) == {
        "error": "CliError", "subcommand": subcommand,
        "message": "config key(s) ['train.seed'] do not apply: --seed is the run seed"}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode, sets, objective", [
    ("train-task-adapter", ["train.mask_rate=0.9", "train.batch_size=3"], "retrieval"),
    ("train-task-adapter", ["task=pair_classification", "train.mask_rate=0.9",
                            "train.temperature=0.5", "train.classes_per_batch=9",
                            "train.items_per_class=7"], "pair_classification"),
    ("pretrain", ["train.temperature=0.5", "train.classes_per_batch=9",
                  "train.items_per_class=7"], "mlm"),
    ("train-lang-adapter", ["train.temperature=0.5"], "mlm"),
    ("sweep-layers --retrain-per-layer", ["train.items_per_class=7"], "mlm"),
])
def test_a_train_field_the_trainer_does_not_read_exits_1_naming_it(tmp_path, capsys, mode,
                                                                   sets, objective):
    """Each trainer reads the ``train`` fields of its ``training.READS`` row;
    any other is refused before any file is read (the paths name no file)."""
    argv = [*mode.split(), "--out", str(tmp_path / "o"), "--seed", "0"]
    for key in sorted(READS[mode] & REQUIRED):
        argv += ["--set", f"{key}={VALUES[key]}"]
    for s in sets:
        argv += ["--set", s]
    assert _run(argv) == 1
    named = sorted(s.split("=")[0] for s in sets if s.startswith("train."))
    assert _one_error_line(capsys) == {
        "error": "CliError", "subcommand": mode.split()[0],
        "message": f"config key(s) {named} do not apply: the {objective} trainer of "
                   f"{mode} does not read them"}
    assert not (tmp_path / "o").exists()


def test_budget_refuses_a_hidden_size_the_invertible_adapter_cannot_split(tmp_path, capsys):
    """``attach`` refuses such a model, so its budget is refused alike."""
    assert _run(["budget", "--out", str(tmp_path / "o"), "--set", "encoder.hidden_size=33",
                 "--set", "encoder.num_heads=3"]) == 1
    assert _one_error_line(capsys) == {"error": "ValueError", "subcommand": "budget",
                                       "message": "invertible adapter needs an even hidden size"}
    assert not (tmp_path / "o").exists()


# The top-level keys each run mode reads: 52 (mode, key) pairs. A mode is a
# subcommand, or a subcommand with the flag that changes what it reads; its
# name is the argv that selects it.
READS = {
    "tokenizer-train": {"corpus", "synthetic", "vocab_size"},
    "pretrain": {"vocab", "corpus", "synthetic", "encoder", "train"},
    "train-lang-adapter": {"vocab", "backbone", "corpus", "synthetic", "train", "adapter",
                           "placement"},
    "train-task-adapter": {"vocab", "model", "data", "synthetic", "task", "n_pairs", "train",
                           "adapter"},
    "eval-cloze": {"vocab", "model", "data", "synthetic"},
    "eval-clone": {"vocab", "model", "data", "synthetic", "task", "n_pairs", "max_len"},
    "budget": {"encoder", "adapter"},
    "budget --paper-scale": set(),
    "sweep-layers": {"vocab", "model", "data", "synthetic", "layers"},
    "sweep-layers --retrain-per-layer": {"vocab", "model", "data", "synthetic", "layers",
                                         "corpus", "train"},
    "zero-shot": {"vocab", "model", "synthetic", "eval_language"},
}
REQUIRED = {"vocab", "backbone", "model", "eval_language"}
# a valid value other than the default for every run-config key; the paths
# name no file, so a run that gets past the key checks fails on reading one
VALUES = {
    "vocab": "v.txt", "corpus": "c.jsonl", "data": "d.jsonl", "backbone": "b.ckpt",
    "model": "m.ckpt", "vocab_size": 300, "n_pairs": 10, "max_len": 16,
    "task": "pair_classification", "layers": "0..1", "eval_language": "beta",
    "synthetic": {"n": 5}, "encoder": {"num_layers": 2}, "train": {"max_steps": 1},
    "adapter": {"l_bottleneck": 4},
    "placement": {"l_layers": [1], "t_layers": [], "invertible": False},
}


def test_key_table_names_every_subcommand_and_every_key():
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert {mode: reads for mode, (reads, _) in cli._MODES.items()} == READS
    assert {mode.split()[0] for mode in READS} == cli._HANDLERS.keys()
    assert sum(map(len, READS.values())) == 52
    assert set().union(*READS.values()) == fields == VALUES.keys()
    for mode, (reads, datasets) in cli._MODES.items():
        cli.build_parser().parse_args(mode.split())  # each mode's flag exists
        # a mode reads ``synthetic`` when it generates a dataset, and the
        # path key of each dataset a file can replace
        assert ("synthetic" in reads) == bool(datasets)
        assert datasets.keys() - {None} <= reads


# run-config keys that went (zero-shot reads the training language from its
# checkpoint): a config that still sets one is refused as an unknown key
GONE = {"train_language": "alpha"}


@pytest.mark.parametrize("mode, key", [
    (mode, key) for mode, reads in READS.items()
    for key in {**VALUES, **GONE} if key not in reads])
def test_a_key_the_subcommand_does_not_read_exits_1_naming_it(tmp_path, capsys, mode, key):
    """The run would ignore it: one error line names the key before any
    file is read, and ``--out`` is not made."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: {**VALUES, **GONE}[key]}))
    assert _run([*mode.split(), "--out", str(tmp_path / "o"), "--config", str(config)]) == 1
    err = _one_error_line(capsys)
    message = f"run config: unknown key(s) {key!r}" if key in GONE else \
        f"config key(s) [{key!r}] do not apply: {mode} does not read them"
    assert err == {"error": "CliError", "subcommand": mode.split()[0], "message": message}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("subcommand, sets, named", [
    ("pretrain", ["vocab_size=2048"], "['vocab_size']"),  # the default value
    ("budget", ["task=retrieval"], "['task']"),  # the default value
    ("budget", ["synthetic={{}}"], "['synthetic']"),  # an empty section
    ("budget", ["model={tmp}/nonexistent.ckpt", "backbone={tmp}/nope",
                "data={tmp}/nope.jsonl"], "['backbone', 'data', 'model']"),
])
def test_an_unread_key_is_refused_whatever_its_value(tmp_path, capsys, subcommand,
                                                     sets, named):
    argv = [subcommand, "--out", str(tmp_path / "o")]
    for s in sets:
        argv += ["--set", s.format(tmp=tmp_path)]
    assert _run(argv) == 1
    err = _one_error_line(capsys)
    assert err["error"] == "CliError" and named in err["message"]
    assert not (tmp_path / "o" / "report.json").exists()


def test_an_unread_key_set_to_null_is_the_default(tmp_path):
    assert _run(["budget", "--out", str(tmp_path), "--set", "model=null",
                 "--set", "layers=null"]) == 0


@pytest.mark.parametrize("mode, key", [
    (mode, key) for mode, reads in READS.items() for key in sorted(reads & REQUIRED)])
def test_a_missing_required_key_exits_1_naming_it(tmp_path, capsys, mode, key):
    """Named before any file is read: the other required keys name no file."""
    argv = [*mode.split(), "--out", str(tmp_path / "o")]
    for other in sorted(READS[mode] & REQUIRED - {key}):
        argv += ["--set", f"{other}={VALUES[other]}"]
    assert _run(argv) == 1
    assert _one_error_line(capsys) == {"error": "CliError", "subcommand": mode.split()[0],
                                       "message": f"config key(s) [{key!r}] are required"}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("subcommand, flags, files, refused", [
    ("tokenizer-train", [], ["corpus"], True),
    ("pretrain", [], ["corpus"], True),
    ("train-lang-adapter", [], ["corpus"], True),
    ("train-task-adapter", [], ["data"], True),
    ("eval-cloze", [], ["data"], True),
    ("eval-clone", [], ["data"], True),
    ("sweep-layers", [], ["data"], True),
    ("sweep-layers", ["--retrain-per-layer"], ["corpus", "data"], True),
    ("sweep-layers", ["--retrain-per-layer"], ["data"], False),  # it sizes the corpus
    ("eval-cloze", [], [], False),
])
def test_synthetic_is_refused_when_files_replace_every_dataset(tmp_path, capsys, subcommand,
                                                               flags, files, refused):
    """The run would ignore it: one error line names it and the path keys,
    before any file is read. Where it sizes a dataset, the run goes on and
    fails on reading the vocabulary file, which does not exist."""
    mode = " ".join([subcommand, *flags])
    argv = [subcommand, *flags, "--out", str(tmp_path / "o"), "--set", "synthetic.n=5"]
    for key in sorted(READS[mode] & REQUIRED | set(files)):
        argv += ["--set", f"{key}={VALUES[key]}"]
    assert _run(argv) == 1
    err = _one_error_line(capsys)
    if not refused:
        assert err["error"] == "FileNotFoundError" and VALUES["vocab"] in err["message"]
        return
    assert err == {"error": "CliError", "subcommand": subcommand,
                   "message": "config key(s) ['synthetic'] do not apply: "
                              f"{mode} generates no dataset with "
                              f"{' and '.join(map(repr, files))} given"}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("subcommand, flags, files, fields, refused", [
    ("eval-cloze", [], [], {"n_classes": 3, "n_sentences": 7}, ["n_classes", "n_sentences"]),
    ("tokenizer-train", [], [], {"seed": 1, "n_sentences": 50, "n": 5, "language": "beta"},
     ["language", "n"]),
    ("train-task-adapter", [], [], {"n_classes": 3, "per_class": 4, "n": 5}, ["n"]),
    ("zero-shot", [], [], {"seed": 1, "n": 5, "per_class": 4}, ["per_class"]),
    ("sweep-layers", [], [], {"n": 5, "n_sentences": 50}, ["n_sentences"]),
    # the probe file replaces the probes; the training corpus is generated
    ("sweep-layers", ["--retrain-per-layer"], ["data"], {"n": 5, "n_classes": 3},
     ["n_classes"]),
])
def test_synthetic_fields_no_generator_reads_are_refused(tmp_path, capsys, subcommand, flags,
                                                         files, fields, refused):
    """Each one named, before any file is read."""
    mode = " ".join([subcommand, *flags])
    argv = [subcommand, *flags, "--out", str(tmp_path / "o")]
    for key in sorted(READS[mode] & REQUIRED | set(files)):
        argv += ["--set", f"{key}={VALUES[key]}"]
    for field, value in fields.items():
        argv += ["--set", f"synthetic.{field}={value}"]
    assert _run(argv) == 1
    named = [f"synthetic.{f}" for f in refused]
    assert _one_error_line(capsys) == {
        "error": "CliError", "subcommand": subcommand,
        "message": f"config key(s) {named} do not apply: "
                   f"no dataset that {mode} generates reads them"}
    assert not (tmp_path / "o").exists()


def test_zero_shot_refuses_a_synthetic_language(tmp_path, capsys):
    """Its two languages are the checkpoint's and ``eval_language``: a
    ``synthetic.language`` would be ignored."""
    assert _run(["zero-shot", "--out", str(tmp_path / "o"), "--adapter", VALUES["model"],
                 "--eval-language", "beta", "--set", f"vocab={VALUES['vocab']}",
                 "--set", "synthetic.language=beta"]) == 1
    err = _one_error_line(capsys)
    assert err["error"] == "CliError"
    assert err["message"] == ("config key(s) ['synthetic.language'] do not apply: "
                              "no dataset that zero-shot generates reads them")
    assert not (tmp_path / "o").exists()


def test_zero_shot_refuses_an_unknown_eval_language(tmp_path, capsys):
    """Named before any file is read and before ``--out`` is made."""
    assert _run(["zero-shot", "--out", str(tmp_path / "o"), "--adapter", VALUES["model"],
                 "--eval-language", "gamma", "--set", f"vocab={VALUES['vocab']}"]) == 1
    assert _one_error_line(capsys) == {
        "error": "CliError", "subcommand": "zero-shot",
        "message": "run config: key 'eval_language' must be null or one of "
                   "['alpha', 'beta'], got 'gamma'"}
    assert not (tmp_path / "o").exists()


def test_pipeline_artifacts(pipeline):
    root, _ = pipeline
    assert (root / "pre" / "backbone.ckpt").exists()
    assert (root / "pre" / "train_report.json").exists()
    assert (root / "la" / "l_adapter.ckpt").exists()
    rep = _report(root / "la")
    assert rep["language"] == "alpha"


def test_eval_cloze_cli(pipeline, tmp_path):
    root, vocab = pipeline
    assert _run(["eval-cloze", "--out", str(tmp_path), "--seed", "0",
                 "--set", f"vocab={vocab}",
                 "--set", f"model={root / 'la' / 'l_adapter.ckpt'}",
                 "--set", "synthetic.n=30"]) == 0
    rep = _report(tmp_path)
    assert 0.0 <= rep["accuracy"] <= 1.0 and rep["n_examples"] > 0
    assert 0.0 < rep["chance_accuracy"] < 1.0
    assert (tmp_path / "predictions.json").exists()


def test_failed_training_run_keeps_its_report(pipeline, tmp_path, capsys):
    """A forward pass that overflows stops the run: the error JSON names the
    library's exception and ``--out`` keeps the report of the run."""
    root, vocab = pipeline
    with np.errstate(over="ignore", invalid="ignore"):
        rc = _run(["train-lang-adapter", "--out", str(tmp_path), "--seed", "0",
                   "--set", f"vocab={vocab}",
                   "--set", f"backbone={root / 'pre' / 'backbone.ckpt'}",
                   "--set", "train.learning_rate=1e200",
                   "--set", "train.max_steps=5", "--set", "synthetic.n=60"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "TrainingError" and err["subcommand"] == "train-lang-adapter"
    report = json.loads((tmp_path / "train_report.json").read_text())
    assert report["stopping_reason"] == "non-finite forward pass"
    assert 1 <= report["steps"] < 5 and f"at step {report['steps']}" in err["message"]
    assert not (tmp_path / "l_adapter.ckpt").exists()


def test_train_task_adapter_and_eval_clone_cli(pipeline, tmp_path):
    root, vocab = pipeline
    assert _run(["train-task-adapter", "--out", str(tmp_path / "ta"),
                 "--seed", "0", "--set", f"vocab={vocab}",
                 "--set", f"model={root / 'la' / 'l_adapter.ckpt'}",
                 "--set", "train.max_steps=6", "--set", "train.eval_every=6",
                 "--set", "synthetic.n_classes=5",
                 "--set", "synthetic.per_class=5"]) == 0
    rep = _report(tmp_path / "ta")
    assert rep["val_metric"] == "map_at_r"
    assert _run(["eval-clone", "--out", str(tmp_path / "ec"), "--seed", "0",
                 "--set", f"vocab={vocab}",
                 "--set", f"model={tmp_path / 'ta' / 't_adapter.ckpt'}",
                 "--set", "synthetic.n_classes=5",
                 "--set", "synthetic.per_class=5"]) == 0
    rep2 = _report(tmp_path / "ec")
    assert 0.0 <= rep2["map_at_r"] <= 1.0
    # 5 classes of 5: each query has R = 4 of N = 24 candidates
    assert rep2["n_items"] == 25
    assert rep2["chance_map_at_r"] == pytest.approx(
        sum((1 + (i - 1) * 3 / 23) / i for i in range(1, 5)) / 24, abs=1e-12)


def test_sweep_layers_cli(pipeline, tmp_path):
    root, vocab = pipeline
    assert _run(["sweep-layers", "--out", str(tmp_path), "--seed", "0",
                 "--set", f"vocab={vocab}",
                 "--set", f"model={root / 'la' / 'l_adapter.ckpt'}",
                 "--set", "synthetic.n=20"]) == 0
    rep = _report(tmp_path)
    assert [row["i"] for row in rep["rows"]] == [0, 1, 2]
    assert rep["mode"] == "truncate"


def test_sweep_layers_null_range_is_the_full_range(pipeline, tmp_path):
    root, vocab = pipeline
    assert _run(["sweep-layers", "--out", str(tmp_path), "--set", f"vocab={vocab}",
                 "--set", f"model={root / 'la' / 'l_adapter.ckpt'}",
                 "--set", "synthetic.n=20", "--set", "layers=null"]) == 0
    assert [row["i"] for row in _report(tmp_path)["rows"]] == [0, 1, 2]


def test_sweep_layers_bad_range(pipeline, tmp_path):
    root, vocab = pipeline
    rc = _run(["sweep-layers", "--out", str(tmp_path), "--seed", "0",
               "--set", f"vocab={vocab}",
               "--set", f"model={root / 'la' / 'l_adapter.ckpt'}",
               "--set", "layers=0..9"])
    assert rc == 1


def test_zero_shot_cli(pipeline, tmp_path):
    root, vocab = pipeline
    assert _run(["zero-shot", "--out", str(tmp_path), "--seed", "0",
                 "--adapter", str(root / "la" / "l_adapter.ckpt"),
                 "--eval-language", "beta",
                 "--set", f"vocab={vocab}", "--set", "synthetic.n=20"]) == 0
    rep = _report(tmp_path)
    assert rep["train_language"] == "alpha"
    assert set(rep["cloze_accuracy"]) == {"alpha", "beta"}


def test_zero_shot_on_a_backbone_exits_1_naming_it(pipeline, tmp_path, capsys):
    """The training language comes from the checkpoint, and a bare backbone
    records none."""
    root, vocab = pipeline
    backbone = root / "pre" / "backbone.ckpt"
    assert _run(["zero-shot", "--out", str(tmp_path / "o"), "--seed", "0",
                 "--adapter", str(backbone), "--eval-language", "beta",
                 "--set", f"vocab={vocab}", "--set", "synthetic.n=20"]) == 1
    err = _one_error_line(capsys)
    assert err["error"] == "CliError"
    assert err["message"].startswith(f"{backbone}: the checkpoint records no "
                                     "training language")
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.fixture
def attached_backbone(pipeline, tmp_path):
    """The pipeline's backbone, saved again from ``attach(enc, PlacementPlan())``
    with the vocabulary it records."""
    manifest, state = load_checkpoint(pipeline[0] / "pre" / "backbone.ckpt")
    enc = Encoder(manifest.config, seed=0)
    attach(enc, PlacementPlan())
    enc.params.load_state_dict(state)
    save_model(tmp_path / "attached.ckpt", enc, vocab=manifest.vocab)
    return tmp_path / "attached.ckpt"


def test_an_empty_plan_backbone_trains_as_a_plain_one(pipeline, attached_backbone, tmp_path):
    """A model without adapters has one form: the L stage gives a backbone
    saved with the empty plan the default placement, and the same bytes it
    gives the plain backbone. Each L checkpoint stores its own adapters
    alone and names its own backbone, with the same digest of its weights."""
    root, vocab = pipeline
    ckpts = []
    for name, backbone in (("plain", root / "pre" / "backbone.ckpt"),
                           ("attached", attached_backbone)):
        assert _run(["train-lang-adapter", "--out", str(tmp_path / name), "--seed", "0",
                     "--set", f"vocab={vocab}", "--set", f"backbone={backbone}",
                     "--set", "train.max_steps=2", "--set", "synthetic.n=40"]) == 0
        ckpts.append(load_checkpoint(tmp_path / name / "l_adapter.ckpt"))
        parent = ckpts[-1][0].parent
        assert (tmp_path / name / parent.path).resolve() == backbone.resolve()
    (plain, plain_state), (attached, attached_state) = ckpts
    assert attached.placement == PlacementPlan.full(2, invertible=True)
    assert set(attached.params) == {n for n in attached_state
                                    if n.startswith(("l_adapter.", "inv."))}
    assert attached.parent.sha256 == plain.parent.sha256
    assert dataclasses.replace(attached, parent=None) == dataclasses.replace(plain, parent=None)
    assert attached_state.keys() == plain_state.keys()
    assert all(np.array_equal(attached_state[n], plain_state[n]) for n in plain_state)


@pytest.mark.parametrize("which", ["plain", "attached"])
def test_sweep_layers_refuses_a_backbone(pipeline, attached_backbone, tmp_path, capsys, which):
    root, vocab = pipeline
    backbone = {"plain": root / "pre" / "backbone.ckpt", "attached": attached_backbone}[which]
    assert _run(["sweep-layers", "--out", str(tmp_path / "o"), "--seed", "0",
                 "--set", f"vocab={vocab}", "--set", f"model={backbone}",
                 "--set", "synthetic.n=20"]) == 1
    assert _one_error_line(capsys) == {
        "error": "CliError", "subcommand": "sweep-layers",
        "message": "sweep-layers needs a checkpoint with a trained adapter stack"}
    assert not (tmp_path / "o").exists()


def test_zero_shot_refuses_a_probe_file(pipeline, tmp_path, capsys):
    """One probe file cannot hold both languages' probes: the same probes
    were scored twice and read as a transfer gap of 0."""
    root, vocab = pipeline
    probes = tmp_path / "probes.jsonl"
    examples = synth.cloze_examples(None, synth.SyntheticSpec(n=20), 1, Vocabulary.load(vocab))
    probes.write_text("".join(json.dumps(dataclasses.asdict(ex)) + "\n" for ex in examples))
    assert _run(["zero-shot", "--out", str(tmp_path / "o"), "--seed", "0",
                 "--adapter", str(root / "la" / "l_adapter.ckpt"), "--eval-language", "beta",
                 "--set", f"vocab={vocab}", "--set", f"data={probes}"]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "CliError" and "'data'" in err["message"]
    assert not (tmp_path / "o" / "report.json").exists()


def test_zero_shot_refuses_the_language_the_checkpoint_was_trained_on(pipeline, tmp_path,
                                                                     capsys):
    """Scoring one language twice would read as a transfer gap of 0."""
    root, vocab = pipeline
    ckpt = root / "la" / "l_adapter.ckpt"
    assert _run(["zero-shot", "--out", str(tmp_path / "o"), "--seed", "0",
                 "--adapter", str(ckpt), "--eval-language", "alpha",
                 "--set", f"vocab={vocab}", "--set", "synthetic.n=20"]) == 1
    assert _one_error_line(capsys) == {
        "error": "CliError", "subcommand": "zero-shot",
        "message": f"config key 'eval_language' is 'alpha', and {ckpt} was trained on "
                   "'alpha': zero-shot needs an unseen language"}
    assert not (tmp_path / "o").exists()


def test_task_checkpoint_keeps_the_language_for_zero_shot(pipeline, tmp_path):
    root, vocab = pipeline
    assert _run(["train-task-adapter", "--out", str(tmp_path / "ta"), "--seed", "0",
                 "--set", f"vocab={vocab}", "--set", f"model={root / 'la' / 'l_adapter.ckpt'}",
                 "--set", "train.max_steps=1", "--set", "synthetic.n_classes=5",
                 "--set", "synthetic.per_class=5"]) == 0
    assert _run(["zero-shot", "--out", str(tmp_path / "zs"), "--seed", "0",
                 "--adapter", str(tmp_path / "ta" / "t_adapter.ckpt"),
                 "--eval-language", "beta", "--set", f"vocab={vocab}",
                 "--set", "synthetic.n=20"]) == 0
    assert _report(tmp_path / "zs")["train_language"] == "alpha"


def test_pair_task_adapter_then_eval_clone_cli(pipeline, tmp_path):
    root, vocab = pipeline
    small = ["--set", "synthetic.n_classes=5", "--set", "synthetic.per_class=5"]
    assert _run(["train-task-adapter", "--out", str(tmp_path / "tp"),
                 "--seed", "0", "--set", f"vocab={vocab}",
                 "--set", f"model={root / 'la' / 'l_adapter.ckpt'}",
                 "--set", "task=pair_classification", "--set", "n_pairs=40",
                 "--set", "train.max_steps=4", "--set", "train.eval_every=4",
                 *small]) == 0
    assert _run(["eval-clone", "--out", str(tmp_path / "ec"), "--seed", "0",
                 "--set", f"vocab={vocab}",
                 "--set", f"model={tmp_path / 'tp' / 't_adapter.ckpt'}",
                 "--set", "task=pair_classification", "--set", "n_pairs=20",
                 *small]) == 0
    rep = _report(tmp_path / "ec")
    assert rep["tp"] + rep["fp"] + rep["tn"] + rep["fn"] == rep["n_pairs"] == 20


def test_checkpoint_missing_blob_exits_1_naming_it(pipeline, tmp_path, capsys):
    root, vocab = pipeline
    broken = tmp_path / "broken.ckpt"
    with zipfile.ZipFile(root / "la" / "l_adapter.ckpt") as src, \
            zipfile.ZipFile(broken, "w") as dst:
        for item in src.infolist():
            if item.filename != "params/l_adapter.1.down.w.bin":
                dst.writestr(item, src.read(item))
    rc = _run(["eval-cloze", "--out", str(tmp_path / "o"), "--seed", "0",
               "--set", f"vocab={vocab}", "--set", f"model={broken}",
               "--set", "synthetic.n=20"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "l_adapter.1.down.w" in err["message"]


@pytest.mark.parametrize("member, method, named", [
    ("params/l_adapter.1.up.b.bin", zipfile.ZIP_STORED, "parameter l_adapter.1.up.b"),
    ("params/l_adapter.1.up.b.bin", zipfile.ZIP_DEFLATED, "parameter l_adapter.1.up.b"),
    ("manifest.json", zipfile.ZIP_DEFLATED, "manifest.json"),
], ids=["stored-blob", "deflated-blob", "deflated-manifest"])
def test_checkpoint_corrupt_member_exits_1_naming_it(pipeline, tmp_path, capsys,
                                                    member, method, named):
    """One broken byte inside a member fails its CRC-32 check (stored) or its
    deflate stream (here a reserved block type); either ends in one error
    line naming the file and the member."""
    root, vocab = pipeline
    broken = tmp_path / "broken.ckpt"
    with zipfile.ZipFile(root / "la" / "l_adapter.ckpt") as src, \
            zipfile.ZipFile(broken, "w", method) as dst:
        for item in src.infolist():
            dst.writestr(item.filename, src.read(item))
    with zipfile.ZipFile(broken) as zf:
        info = zf.getinfo(member)
    data = bytearray(broken.read_bytes())
    head = info.header_offset
    start = head + 30 + sum(struct.unpack("<HH", data[head + 26:head + 30]))
    if method == zipfile.ZIP_STORED:
        data[start + info.compress_size // 2] ^= 0xFF
    else:
        data[start] |= 0b110  # block type 3, which deflate reserves
    broken.write_bytes(bytes(data))
    assert _run(["eval-cloze", "--out", str(tmp_path / "o"), "--seed", "0",
                 "--set", f"vocab={vocab}", "--set", f"model={broken}",
                 "--set", "synthetic.n=20"]) == 1
    err = _one_error_line(capsys)
    assert err["error"] == "CheckpointError"
    assert str(broken) in err["message"] and named in err["message"]


def test_evaluation_defaults_hold_out_training_data(pipeline, tmp_path,
                                                    monkeypatch):
    """With no data path and no synthetic.seed, the evaluation subcommands
    score programs that the training subcommands of the same run seed did
    not train on."""
    root, vocab = pipeline
    drawn = []

    def spy(generate):
        def wrapper(*args, **kwargs):
            records = generate(*args, **kwargs)
            drawn[-1].update(r.code for r in records)
            return records
        return wrapper

    monkeypatch.setattr(synth, "synth_code_records", spy(synth.synth_code_records))
    monkeypatch.setattr(synth, "synth_clone_classes", spy(synth.synth_clone_classes))

    def programs(subcommand, *sets):
        drawn.append(set())
        argv = [subcommand, "--out", str(tmp_path / subcommand), "--seed", "0",
                "--set", f"vocab={vocab}"]
        for s in sets:
            argv += ["--set", s]
        assert _run(argv) == 0
        assert drawn[-1]
        return drawn[-1]

    la = root / "la" / "l_adapter.ckpt"
    trained = programs("train-lang-adapter", f"backbone={root / 'pre' / 'backbone.ckpt'}",
                       "train.max_steps=1")
    assert not trained & programs("eval-cloze", f"model={la}")
    trained = programs("train-task-adapter", f"model={la}", "train.max_steps=1")
    assert not trained & programs("eval-clone", f"model={la}")


@pytest.mark.parametrize("subcommand, sets, key", [
    ("train-lang-adapter", ['placement={"l_layers": [1]}'], "t_layers"),
    ("train-lang-adapter", ['placement={"l_layers": [1], "t_layers": [], '
                            '"invertible": false, "l_layer": [2]}'], "l_layer"),
    ("train-lang-adapter", ['placement={"l_layers": [1], "t_layers": [], '
                            '"invertible": "no"}'], "invertible"),
    ("train-lang-adapter", ["adapter.l_bottlenek=4"], "l_bottlenek"),
    ("train-lang-adapter", ['adapter.l_bottleneck="x"'], "l_bottleneck"),
    ("train-task-adapter", ["adapter.t_bottlenek=4"], "t_bottlenek"),
    ("train-task-adapter", ["adapter.inv_steps=2"], "inv_steps"),  # a constant since v3
    ("pretrain", ['train.max_steps="abc"'], "max_steps"),
    ("pretrain", ["train.eval_every=0"], "eval_every"),
])
def test_bad_adapter_config_exits_1_naming_key(pipeline, tmp_path, capsys,
                                               subcommand, sets, key):
    root, vocab = pipeline
    source = {"train-lang-adapter": f"backbone={root / 'pre' / 'backbone.ckpt'}",
              "train-task-adapter": f"model={root / 'la' / 'l_adapter.ckpt'}",
              "pretrain": "synthetic.n_sentences=50"}
    argv = [subcommand, "--out", str(tmp_path), "--seed", "0",
            "--set", f"vocab={vocab}", "--set", source[subcommand],
            "--set", "train.max_steps=1"]
    for s in sets:
        argv += ["--set", s]
    assert _run(argv) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "CliError" and err["subcommand"] == subcommand
    assert key in err["message"]


def _edited_copy(src, dst, edit):
    """Copy of checkpoint ``src`` whose manifest went through ``edit``."""
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for item in zin.infolist():
            data = zin.read(item)
            if item.filename == "manifest.json":
                manifest = json.loads(data)
                edit(manifest)
                data = json.dumps(manifest)
            zout.writestr(item, data)
    return dst


def _v1(manifest):
    """The manifest as format v1 wrote it: no language key when unknown."""
    manifest["format"] = "adapterlab-ckpt v1"
    del manifest["language"]


@pytest.mark.parametrize("edit, key", [
    (lambda m: m.update(placement={"l_layers": [1]}), "t_layers"),
    (lambda m: m["config"].update(colour=1), "colour"),
    (lambda m: m["adapter_config"].update(rank=4), "rank"),
    (lambda m: m.pop("params"), "params"),
    (lambda m: m.update(language=["alpha"]), "language"),
    (lambda m: m.update(language=5), "language"),
    (lambda m: m.update(kind="decoder"), "kind"),  # v4 knows no kind or task key
    (lambda m: m.update(dtype="<f4"), "dtype"),
    (lambda m: m.update(task=7), "task"),
    (_v1, "format"),
], ids=["placement-missing-key", "config-extra-key", "adapter-config-extra-key",
        "params-missing", "language-list", "language-int", "kind-decoder", "dtype-f4",
        "task-int", "format-v1"])
def test_edited_manifest_exits_1_naming_key(pipeline, tmp_path, capsys, edit, key):
    """A checkpoint manifest is checked in full when it loads: each edit ends
    in one CheckpointError line naming the file and the key, not in a
    traceback or a run, on every subcommand that reads a model."""
    root, vocab = pipeline
    ckpt = _edited_copy(root / "la" / "l_adapter.ckpt", tmp_path / "edited.ckpt", edit)
    for argv in (["eval-cloze", "--set", f"model={ckpt}"],
                 ["zero-shot", "--adapter", str(ckpt), "--eval-language", "beta"]):
        rc = _run([*argv, "--out", str(tmp_path / "o"), "--seed", "0",
                   "--set", f"vocab={vocab}", "--set", "synthetic.n=20"])
        assert rc == 1
        err = _one_error_line(capsys)
        assert err["error"] == "CheckpointError" and err["subcommand"] == argv[0]
        assert f"{ckpt}: " in err["message"] and repr(key) in err["message"]
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("sets, key", [
    (['placement={"l_layers": [1], "t_layers": [], "invertible": false}'], "placement"),
    (["adapter.l_bottleneck=4"], "adapter"),
])
def test_lang_adapter_config_on_adapted_backbone_exits_1(pipeline, tmp_path, capsys,
                                                         sets, key):
    """A backbone checkpoint that already has adapters keeps its placement and
    sizes, so a ``placement`` or ``adapter`` config would be ignored: an error."""
    root, vocab = pipeline
    argv = ["train-lang-adapter", "--out", str(tmp_path), "--seed", "0",
            "--set", f"vocab={vocab}", "--set", f"backbone={root / 'la' / 'l_adapter.ckpt'}",
            "--set", "train.max_steps=1"]
    for s in sets:
        argv += ["--set", s]
    assert _run(argv) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "CliError" and key in err["message"]
    assert not (tmp_path / "l_adapter.ckpt").exists()


def test_task_adapter_config_on_task_checkpoint_exits_1(pipeline, tmp_path, capsys):
    """A model checkpoint that already has T-adapters keeps their sizes, so an
    ``adapter`` config would be ignored: an error."""
    root, vocab = pipeline
    small = ["--set", f"vocab={vocab}", "--set", "synthetic.n_classes=5",
             "--set", "synthetic.per_class=5", "--set", "train.max_steps=1"]
    assert _run(["train-task-adapter", "--out", str(tmp_path / "ta"), "--seed", "0",
                 "--set", f"model={root / 'la' / 'l_adapter.ckpt'}", *small]) == 0
    capsys.readouterr()
    rc = _run(["train-task-adapter", "--out", str(tmp_path / "again"), "--seed", "0",
               "--set", f"model={tmp_path / 'ta' / 't_adapter.ckpt'}",
               "--set", "adapter.t_bottleneck=2", *small])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "CliError" and "adapter" in err["message"]
    # without the key, the same checkpoint trains on
    assert _run(["train-task-adapter", "--out", str(tmp_path / "again"), "--seed", "0",
                 "--set", f"model={tmp_path / 'ta' / 't_adapter.ckpt'}", *small]) == 0


@pytest.mark.parametrize("subcommand, sets, key", [
    ("train-task-adapter", ["model={la}"], "adapter.l_bottleneck"),
    ("train-task-adapter", ["model={la}"], "adapter.inv_coupling_dim"),
    ("train-task-adapter", ["model={pre}"], "adapter.l_bottleneck"),
    ("train-lang-adapter", ["backbone={pre}"], "adapter.t_bottleneck"),
    ("train-lang-adapter", ["backbone={pre}", 'placement={{"l_layers": [1], '
                            '"t_layers": [], "invertible": false}}'], "adapter.inv_coupling_dim"),
])
def test_a_size_for_an_adapter_the_run_does_not_add_exits_1_naming_it(
        pipeline, tmp_path, capsys, subcommand, sets, key):
    """A stage sizes only the adapters it adds: the checkpoint fixes the
    sizes of those it holds, and a kind it does not add has none."""
    root, vocab = pipeline
    argv = [subcommand, "--out", str(tmp_path / "o"), "--seed", "0",
            "--set", f"vocab={vocab}", "--set", "train.max_steps=1", "--set", f"{key}=3"]
    for s in sets:
        argv += ["--set", s.format(pre=root / "pre" / "backbone.ckpt",
                                   la=root / "la" / "l_adapter.ckpt")]
    assert _run(argv) == 1
    assert _one_error_line(capsys) == {
        "error": "CliError", "subcommand": subcommand,
        "message": f"config key(s) [{key!r}] do not apply: "
                   "the run adds no adapter of that kind"}
    assert not (tmp_path / "o").exists()


def test_a_lang_adapter_placement_with_task_layers_exits_1_naming_it(tmp_path, capsys):
    """The L stage never trains task adapters, so it refuses to add them,
    before it reads the vocabulary or the backbone (neither file exists)."""
    assert _run(["train-lang-adapter", "--out", str(tmp_path / "o"),
                 "--set", f"vocab={VALUES['vocab']}", "--set", f"backbone={VALUES['backbone']}",
                 "--set", 'placement={"l_layers": [1], "t_layers": [1], '
                          '"invertible": false}']) == 1
    assert _one_error_line(capsys) == {
        "error": "CliError", "subcommand": "train-lang-adapter",
        "message": "config key(s) ['placement.t_layers'] do not apply: "
                   "an L-adapter stage trains no task adapters"}
    assert not (tmp_path / "o").exists()


def test_a_backbone_with_task_adapters_exits_1_naming_it(pipeline, tmp_path, capsys,
                                                        monkeypatch):
    """An L-adapter retrained beneath trained T-adapters would leave them
    fitted to other L outputs, so the L stage refuses such a backbone,
    naming the file and its T layers, before any training."""
    root, vocab = pipeline
    manifest, state = load_checkpoint(root / "la" / "l_adapter.ckpt")
    plan = dataclasses.replace(manifest.placement, t_layers=frozenset({1, 2}))
    backbone = tmp_path / "t_adapter.ckpt"
    save_model(backbone, build_model(manifest, state, plan), language=manifest.language)
    called = []
    monkeypatch.setattr(training, "train_language_adapter", lambda *args: called.append(args))
    assert _run(["train-lang-adapter", "--out", str(tmp_path / "o"), "--seed", "0",
                 "--set", f"vocab={vocab}", "--set", f"backbone={backbone}",
                 "--set", "train.max_steps=1", "--set", "synthetic.n=20"]) == 1
    assert _one_error_line(capsys) == {
        "error": "CliError", "subcommand": "train-lang-adapter",
        "message": f"backbone {backbone} places task adapters at layers [1, 2]: "
                   "an L-adapter is trained beneath none"}
    assert called == [] and not (tmp_path / "o").exists()


def test_a_corpus_of_two_languages_exits_1_naming_them(pipeline, tmp_path, capsys):
    """An L-adapter checkpoint records one training language."""
    root, vocab = pipeline
    corpus = tmp_path / "mixed.jsonl"
    corpus.write_text("".join(json.dumps(r.to_dict()) + "\n" for r in
                              synth.synth_code_records("beta", 30, seed=1)
                              + synth.synth_code_records("alpha", 30, seed=2)))
    assert _run(["train-lang-adapter", "--out", str(tmp_path / "o"), "--seed", "0",
                 "--set", f"vocab={vocab}", "--set", f"corpus={corpus}",
                 "--set", f"backbone={root / 'pre' / 'backbone.ckpt'}",
                 "--set", "train.max_steps=1"]) == 1
    assert _one_error_line(capsys) == {
        "error": "CliError", "subcommand": "train-lang-adapter",
        "message": f"corpus {corpus} names the languages ['alpha', 'beta']; "
                   "an L-adapter is trained on one"}
    assert not (tmp_path / "o").exists()


def test_sweep_layers_retrain_keeps_every_train_report(pipeline, tmp_path):
    root, vocab = pipeline
    assert _run(["sweep-layers", "--retrain-per-layer", "--out", str(tmp_path),
                 "--seed", "0", "--set", f"vocab={vocab}",
                 "--set", f"model={root / 'la' / 'l_adapter.ckpt'}",
                 "--set", "synthetic.n=20", "--set", "train.max_steps=3",
                 "--set", "train.eval_every=3"]) == 0
    rep = _report(tmp_path)
    assert rep["mode"] == "retrain" and [row["i"] for row in rep["rows"]] == [0, 1, 2]
    # layer 0 has no adapter to retrain; layers 1 and 2 each keep their report
    assert sorted(p.name for p in tmp_path.glob("train_report*.json")) == [
        "train_report.layer1.json", "train_report.layer2.json"]
    for i in (1, 2):
        report = json.loads((tmp_path / f"train_report.layer{i}.json").read_text())
        assert report["steps"] == 3 and report["stopping_reason"] == "max steps"
        assert [row["step"] for row in report["loss"]] == [1, 2, 3]


def test_sweep_layers_retrain_starts_each_placement_from_the_backbone(pipeline, tmp_path,
                                                                    monkeypatch):
    """The model handed to the trainer at placement i is the checkpoint's
    backbone with a fresh ``attach`` of that placement, seeded by the run
    seed: no trained adapter weight carries over."""
    root, vocab = pipeline
    ckpt = root / "la" / "l_adapter.ckpt"
    handed = {}

    def record(encoder, texts, vocab, cfg):
        handed[max(encoder.adapters.plan.l_layers)] = {
            name: t.data.copy() for name, t in encoder.params.items()}
        return training.TrainReport()
    monkeypatch.setattr(training, "train_language_adapter", record)
    assert _run(["sweep-layers", "--retrain-per-layer", "--out", str(tmp_path),
                 "--seed", "5", "--set", f"vocab={vocab}", "--set", f"model={ckpt}",
                 "--set", "synthetic.n=20"]) == 0
    manifest, state = load_checkpoint(ckpt)
    assert sorted(handed) == [1, 2]
    for i, params in handed.items():
        fresh = Encoder(manifest.config)
        attach(fresh, manifest.placement.truncated(i, 2), manifest.adapter_config, seed=5)
        fresh.params.load_state_dict({n: v for n, v in state.items()
                                      if n.startswith(("emb.", "layer.", "mlm."))})
        assert params.keys() == dict(fresh.params.items()).keys()
        assert all(np.array_equal(params[n], t.data) for n, t in fresh.params.items())


@pytest.mark.parametrize("subcommand, sets, key", [
    ("tokenizer-train", ["synthetic=5"], "synthetic"),
    ("tokenizer-train", ['synthetic.n_sentences="abc"'], "n_sentences"),
    ("tokenizer-train", ["synthetic.n_sentance=5"], "n_sentance"),
    ("tokenizer-train", ["synthetic.language=gamma"], "language"),
    ("tokenizer-train", ["vocab_size=abc"], "vocab_size"),
    ("tokenizer-train", ["vocab_sise=300"], "vocab_sise"),
    ("train-task-adapter", ["task=pair_classification", "n_pairs=abc"], "n_pairs"),
    ("train-task-adapter", ["task=pairs"], "task"),
    ("eval-clone", ["max_len=abc"], "max_len"),
    ("eval-clone", ["data=5"], "data"),
    ("eval-cloze", ['candidates=["max", "min"]'], "candidates"),  # an unknown key
    ("pretrain", ["encoder.vocab_size=7"], "encoder.vocab_size"),
    ("budget", ["task=pairs"], "task"),
    ("budget", ["layers=1-2"], "layers"),
    ("budget", ['train.max_steps="abc"'], "max_steps"),
    ("tokenizer-train", ["train.max_steps=abc"], "max_steps"),
    ("tokenizer-train", ["encoder.num_heads=0"], "num_heads"),
    ("eval-cloze", ["adapter.l_bottlenek=4"], "l_bottlenek"),
    ("budget", ['placement={"l_layers": [1]}'], "t_layers"),
])
def test_bad_data_source_key_exits_1_naming_it(pipeline, tmp_path, capsys,
                                                subcommand, sets, key):
    """Each ends in one error line naming the key, not in a traceback and not
    in a run on the defaults; a section is checked even where it is unused."""
    root, vocab = pipeline
    model = ["--set", f"model={root / 'la' / 'l_adapter.ckpt'}"]
    argv = [subcommand, "--out", str(tmp_path), "--seed", "0", "--set", "train.max_steps=1"]
    if subcommand != "tokenizer-train":
        argv += ["--set", f"vocab={vocab}"] + (model if subcommand != "pretrain" else [])
    for s in sets:
        argv += ["--set", s]
    assert _run(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "CliError" and err["subcommand"] == subcommand
    assert key in err["message"]
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("subcommand, sets, error", [
    ("eval-clone", ["model={la}", "max_len=129"], "TaskError"),
    ("train-lang-adapter", ["backbone={pre}", "train.max_steps=1", "train.max_len=129",
                            "synthetic.n=20"], "TrainingError"),
    ("train-task-adapter", ["model={la}", "train.max_steps=1", "train.max_len=129"],
     "TrainingError"),
    ("pretrain", ["train.max_steps=1", *TINY[1::2], "encoder.max_positions=16",
                  "synthetic.n_sentences=50"], "TrainingError"),
])
def test_max_len_above_max_positions_exits_1_naming_it(pipeline, tmp_path, capsys,
                                                       subcommand, sets, error):
    """The pipeline's model has 128 positions (16 for the pretrain row, whose
    ``train.max_len`` is the default 64): a longer ``max_len`` is refused
    whatever the texts' lengths, naming the key and both numbers."""
    root, vocab = pipeline
    want = "max_len 64 exceeds the model's max_positions 16" if subcommand == "pretrain" \
        else "max_len 129 exceeds the model's max_positions 128"
    argv = [subcommand, "--out", str(tmp_path), "--seed", "0", "--set", f"vocab={vocab}"]
    for s in sets:
        argv += ["--set", s.format(pre=root / "pre" / "backbone.ckpt",
                                   la=root / "la" / "l_adapter.ckpt")]
    assert _run(argv) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert (err["error"], err["message"]) == (error, want)
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("sets, key", [(["train.max_steps=2"], "train"),
                                       (["corpus={tmp}/code.jsonl"], "corpus")])
def test_sweep_layers_without_retraining_refuses_training_keys(pipeline, tmp_path, capsys,
                                                               sets, key):
    """Truncating the trained stack trains nothing, so it would ignore them."""
    root, vocab = pipeline
    argv = ["sweep-layers", "--out", str(tmp_path / "o"), "--set", f"vocab={vocab}",
            "--set", f"model={root / 'la' / 'l_adapter.ckpt'}", "--set", "synthetic.n=20"]
    for s in sets:
        argv += ["--set", s.format(tmp=tmp_path)]
    assert _run(argv) == 1
    err = _one_error_line(capsys)
    assert err["error"] == "CliError"
    assert err["message"] == (f"config key(s) [{key!r}] do not apply: "
                              "sweep-layers does not read them")
    assert not (tmp_path / "o").exists()


def test_a_failed_run_removes_only_the_empty_directories_it_made(pipeline, tmp_path):
    """A refusal inside the subcommand comes after ``--out`` was made: the L
    checkpoint fixes the size of its L-adapters."""
    root, vocab = pipeline
    kept = tmp_path / "kept"
    kept.mkdir()
    for out in (tmp_path / "a" / "b", kept):
        assert _run(["train-task-adapter", "--out", str(out), "--set", f"vocab={vocab}",
                     "--set", f"model={root / 'la' / 'l_adapter.ckpt'}",
                     "--set", "adapter.l_bottleneck=4"]) == 1
    assert not (tmp_path / "a").exists() and kept.is_dir()


@pytest.mark.parametrize("key", ["encoder.num_layers=2", "adapter.l_bottleneck=4"])
def test_budget_paper_scale_refuses_size_keys(tmp_path, capsys, key):
    """It fixes every size, so it reads neither section; refused before
    ``--out`` is made."""
    assert _run(["budget", "--paper-scale", "--out", str(tmp_path / "o"), "--set", key]) == 1
    assert _one_error_line(capsys) == {
        "error": "CliError", "subcommand": "budget",
        "message": f"config key(s) [{key.split('.')[0]!r}] do not apply: "
                   "budget --paper-scale does not read them"}
    assert not (tmp_path / "o").exists()


def test_pretrain_accepts_the_vocabulary_size(pipeline, tmp_path):
    root, vocab = pipeline
    size = json.loads((root / "tok" / "report.json").read_text())["vocab_size"]
    assert _run(["pretrain", "--out", str(tmp_path), "--seed", "0", "--set", f"vocab={vocab}",
                 *TINY, "--set", f"encoder.vocab_size={size}", "--set", "train.max_steps=1",
                 "--set", "synthetic.n_sentences=50"]) == 0


def test_pair_task_validation_shares_no_item_with_training(pipeline, tmp_path,
                                                           monkeypatch):
    """Pairs are drawn after the per-class split: at the defaults (20 x 20
    records, 400 pairs) 360 training pairs come from the training records
    and 40 validation pairs from the held-out ones."""
    root, vocab = pipeline
    seen = {}
    real = training.train_task_adapter

    def spy(encoder, train_data, val_data, *args):
        seen.update(train=train_data, val=val_data)
        return real(encoder, train_data, val_data, *args)

    monkeypatch.setattr(training, "train_task_adapter", spy)
    assert _run(["train-task-adapter", "--out", str(tmp_path), "--seed", "0",
                 "--set", f"vocab={vocab}", "--set", f"model={root / 'la' / 'l_adapter.ckpt'}",
                 "--set", "task=pair_classification", "--set", "train.max_steps=1",
                 "--set", "train.eval_every=1"]) == 0
    assert len(seen["train"]) == 360 and len(seen["val"]) == 40
    items = [{i for p in seen[part] for i in (p.id_a, p.id_b)} for part in ("train", "val")]
    assert not items[0] & items[1]
    assert {p.label for p in seen["val"]} == {0, 1}


def _one_error_line(capsys) -> dict:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("subcommand, kind, field, value", [
    ("eval-clone", "retrieval", "code", 5),
    ("eval-cloze", "cloze", "mask_index", "2"),
    ("train-lang-adapter", "unlabeled", "language", None),
])
def test_wrong_typed_dataset_field_exits_1_naming_it(pipeline, tmp_path, capsys,
                                                     subcommand, kind, field, value):
    """One dataset line in 200, the last, whose field has the wrong JSON
    type: the run exits 1 with one error line naming the file, the line and
    the key."""
    root, vocab = pipeline
    records = {
        "retrieval": lambda: synth.synth_clone_classes(20, 10, seed=0),
        "cloze": lambda: synth.build_cloze_examples(
            synth.synth_code_records("alpha", 400, seed=0), Vocabulary.load(vocab)),
        "unlabeled": lambda: synth.synth_code_records("alpha", 200, seed=0),
    }[kind]()[:200]
    rows = [r.to_dict() for r in records]
    rows[-1][field] = value
    data = tmp_path / "data.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in rows))
    source = ["--set", f"backbone={root / 'pre' / 'backbone.ckpt'}", "--set", f"corpus={data}"] \
        if kind == "unlabeled" else \
        ["--set", f"model={root / 'la' / 'l_adapter.ckpt'}", "--set", f"data={data}"]
    assert _run([subcommand, "--out", str(tmp_path / "o"), "--set", f"vocab={vocab}",
                 *source]) == 1
    err = _one_error_line(capsys)
    assert err["error"] == "CorpusError"
    assert err["message"].startswith(f"{data}: line 200: key {field!r}")


@pytest.mark.parametrize("edit, named", [
    (lambda lines: [ln for ln in lines if not ln.startswith("<mask>\t")], "<mask>"),
    (lambda lines: lines[:3] + ["no-tab-here"] + lines[3:], "line 4"),
    (lambda lines: ["\udcff\udcfe" + lines[0]] + lines[1:], "not UTF-8"),  # bytes ff fe
    # the last of 512 tokens renumbered; a token listed again under another's id
    (lambda lines: lines[:512] + [lines[512].split("\t")[0] + "\t549"] + lines[513:],
     "line 513: bad tokens entry"),
    (lambda lines: lines[:7] + [lines[6].split("\t")[0] + "\t6"] + lines[8:],
     "line 8: bad tokens entry"),
], ids=["special-token-missing", "line-without-tab", "not-utf-8", "id-outside-0-to-n-1",
        "token-listed-twice"])
def test_bad_vocabulary_exits_1_naming_it(pipeline, tmp_path, capsys, edit, named):
    root, vocab = pipeline
    bad = tmp_path / "vocab.txt"
    lines = edit(open(vocab, encoding="utf-8").read().splitlines())
    bad.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    assert _run(["pretrain", "--out", str(tmp_path / "o"), "--set", f"vocab={bad}", *TINY,
                 "--set", "train.max_steps=1", "--set", "synthetic.n_sentences=50"]) == 1
    err = _one_error_line(capsys)
    assert err["error"] == "TokenizerError"
    assert str(bad) in err["message"] and named in err["message"]


@pytest.mark.parametrize("edit, named", [
    (lambda tokens: tokens + [99999], "a token id is outside the vocabulary"),
    (lambda tokens: tokens + [5] * (201 - len(tokens)), "201 tokens exceed max_positions 128"),
], ids=["token-outside-vocabulary", "longer-than-max-positions"])
def test_bad_cloze_probe_exits_1_naming_it(pipeline, tmp_path, capsys, edit, named):
    """A probe read from a file is checked before any forward pass: the error
    names the probe, not only the encoder's limit."""
    root, vocab = pipeline
    examples = synth.cloze_examples(None, synth.SyntheticSpec(n=20), 1, Vocabulary.load(vocab))
    examples[-1].tokens = edit(examples[-1].tokens)
    probes = tmp_path / "probes.jsonl"
    probes.write_text("".join(json.dumps(dataclasses.asdict(ex)) + "\n" for ex in examples))
    assert _run(["eval-cloze", "--out", str(tmp_path / "o"), "--set", f"vocab={vocab}",
                 "--set", f"model={root / 'la' / 'l_adapter.ckpt'}",
                 "--set", f"data={probes}"]) == 1
    err = _one_error_line(capsys)
    assert err["error"] == "TaskError"
    assert err["message"] == f"example {examples[-1].id}: {named}"
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("subcommand, argv, error", [
    ("eval-cloze", ["--set", "vocab={bad}", "--set", "model={root}/la/l_adapter.ckpt"],
     "TokenizerError"),
    ("tokenizer-train", ["--set", "corpus={bad}"], "CorpusError"),
    ("train-lang-adapter", ["--set", "vocab={vocab}", "--set", "backbone={root}/pre/backbone.ckpt",
                            "--set", "corpus={bad}"], "CorpusError"),
    ("budget", ["--config", "{bad}"], "CliError"),
], ids=["vocabulary", "nl-corpus", "code-corpus", "config"])
def test_non_utf8_input_file_exits_1_naming_it(pipeline, tmp_path, capsys, subcommand,
                                               argv, error):
    """A UTF-16 file (it starts with the bytes ff fe) is no UTF-8 text: one
    error line names the file, whichever reader meets it."""
    root, vocab = pipeline
    bad = tmp_path / "utf16.txt"
    bad.write_bytes("\ufeffx = max ( a , b ) ;\n".encode("utf-16-le"))
    argv = [a.format(bad=bad, root=root, vocab=vocab) for a in argv]
    assert _run([subcommand, "--out", str(tmp_path / "o"), "--seed", "0", *argv]) == 1
    err = _one_error_line(capsys)
    assert err["error"] == error
    assert str(bad) in err["message"] and "not UTF-8" in err["message"]


# -- component checkpoints: a chain of files, checked at load and at save ----

def _own_blobs(path) -> dict[str, np.ndarray]:
    """The parameters the file ``path`` itself stores, read from its zip."""
    with zipfile.ZipFile(path) as zf:
        shapes = json.loads(zf.read("manifest.json"))["params"]
        return {n: np.frombuffer(zf.read(f"params/{n}.bin"), "<f8").reshape(s)
                for n, s in shapes.items()}


def _foreign_vocab(vocab, path):
    """``vocab`` with two ordinary tokens' ids swapped: as large, and not the
    vocabulary a checkpoint of ``vocab`` was trained with."""
    v = Vocabulary.load(vocab)
    a, b = v.id_to_token[10], v.id_to_token[11]
    Vocabulary({**v.token_to_id, a: 11, b: 10}, v.merges).save(path)
    return path


@pytest.mark.parametrize("subcommand, key, argv", [
    ("eval-cloze", "la", ["--set", "model={la}", "--set", "synthetic.n=20"]),
    ("eval-clone", "la", ["--set", "model={la}", "--set", "synthetic.n_classes=5",
                          "--set", "synthetic.per_class=5"]),
    ("sweep-layers", "la", ["--set", "model={la}", "--set", "synthetic.n=20"]),
    ("zero-shot", "la", ["--adapter", "{la}", "--eval-language", "beta",
                         "--set", "synthetic.n=20"]),
    ("train-lang-adapter", "pre", ["--set", "backbone={pre}", "--set", "synthetic.n=20",
                                   "--set", "train.max_steps=1"]),
    ("train-task-adapter", "la", ["--set", "model={la}", "--set", "synthetic.n_classes=5",
                                  "--set", "synthetic.per_class=5", "--set", "train.max_steps=1"]),
], ids=["eval-cloze", "eval-clone", "sweep-layers", "zero-shot", "train-lang-adapter",
        "train-task-adapter"])
def test_a_foreign_vocabulary_exits_1_naming_both_files(pipeline, tmp_path, capsys,
                                                        subcommand, key, argv):
    """A checkpoint records the digest of the vocabulary it was trained with,
    and every subcommand that reads a vocabulary with a checkpoint compares
    the two: a vocabulary of the same size with two ids swapped exits 1."""
    root, vocab = pipeline
    ckpts = {"pre": root / "pre" / "backbone.ckpt", "la": root / "la" / "l_adapter.ckpt"}
    foreign = _foreign_vocab(vocab, tmp_path / "vocab.txt")
    recorded = load_checkpoint(ckpts[key])[0].vocab
    assert recorded == Vocabulary.load(vocab).sha256
    assert _run([subcommand, "--out", str(tmp_path / "o"), "--seed", "0",
                 "--set", f"vocab={foreign}", *[a.format(**ckpts) for a in argv]]) == 1
    assert _one_error_line(capsys) == {
        "error": "CheckpointError", "subcommand": subcommand,
        "message": f"{ckpts[key]}: the checkpoint records vocabulary {recorded[:12]}, "
                   f"and {foreign} is vocabulary {Vocabulary.load(foreign).sha256[:12]}: "
                   "a model runs with the vocabulary it was trained with"}
    assert not (tmp_path / "o").exists()


def test_an_adapter_checkpoint_stores_only_what_its_run_trained(pipeline):
    """The L checkpoint holds its L- and invertible adapters and names the
    backbone beside it; resolved, it is the backbone's weights plus its own."""
    root, _ = pipeline
    ckpt = root / "la" / "l_adapter.ckpt"
    manifest, state = load_checkpoint(ckpt)
    own = _own_blobs(ckpt)
    assert own.keys() == {n for n in state if n.startswith(("l_adapter.", "inv."))} != set()
    assert manifest.parent.path == "../pre/backbone.ckpt"
    backbone = load_checkpoint(root / "pre" / "backbone.ckpt")[1]
    assert state.keys() == backbone.keys() | own.keys()
    assert all(np.array_equal(state[n], v) for n, v in [*backbone.items(), *own.items()])


def test_a_component_copied_alone_exits_1_naming_its_missing_parent(pipeline, tmp_path,
                                                                   capsys):
    root, vocab = pipeline
    alone = tmp_path / "elsewhere" / "l_adapter.ckpt"
    alone.parent.mkdir()
    alone.write_bytes((root / "la" / "l_adapter.ckpt").read_bytes())
    assert _run(["eval-cloze", "--out", str(tmp_path / "o"), "--seed", "0",
                 "--set", f"vocab={vocab}", "--set", f"model={alone}",
                 "--set", "synthetic.n=20"]) == 1
    assert _one_error_line(capsys) == {
        "error": "CheckpointError", "subcommand": "eval-cloze",
        "message": f"{alone}: its parent checkpoint "
                   f"{(tmp_path / 'pre' / 'backbone.ckpt').resolve()} is missing"}
    assert not (tmp_path / "o").exists()


def test_a_replaced_parent_exits_1_naming_both_files(pipeline, tmp_path, capsys):
    """A backbone of the same shapes and vocabulary, but other weights, in
    the place of the one the L-adapter was trained on."""
    root, vocab = pipeline
    for name in ("pre/backbone.ckpt", "la/l_adapter.ckpt"):
        (tmp_path / name).parent.mkdir()
        (tmp_path / name).write_bytes((root / name).read_bytes())
    manifest, state = load_checkpoint(tmp_path / "pre" / "backbone.ckpt")
    state["layer.1.ffn.b1"][0] += 1e-9
    save_model(tmp_path / "pre" / "backbone.ckpt", build_model(manifest, dict(state)),
               vocab=manifest.vocab)
    ckpt = tmp_path / "la" / "l_adapter.ckpt"
    assert _run(["eval-cloze", "--out", str(tmp_path / "o"), "--seed", "0",
                 "--set", f"vocab={vocab}", "--set", f"model={ckpt}",
                 "--set", "synthetic.n=20"]) == 1
    err = _one_error_line(capsys)
    assert err["error"] == "CheckpointError"
    assert err["message"].startswith(
        f"{ckpt}: its parent {(tmp_path / 'pre' / 'backbone.ckpt').resolve()} holds other "
        "weights than the ones it was trained on")


def test_a_run_that_changes_a_frozen_weight_writes_no_checkpoint(pipeline, tmp_path, capsys,
                                                                 monkeypatch):
    """The save checks the freeze at run time: a frozen weight whose bytes
    differ from those it was loaded with fails the run, naming the weight
    and the file it came from, before anything is written."""
    root, vocab = pipeline
    train = training.train_language_adapter

    def tampering(encoder, *args):
        report = train(encoder, *args)
        encoder.params["layer.1.ffn.b1"].data[0] += 1e-12
        return report
    monkeypatch.setattr(training, "train_language_adapter", tampering)
    out = tmp_path / "o"
    assert _run(["train-lang-adapter", "--out", str(out), "--seed", "0",
                 "--set", f"vocab={vocab}", "--set", f"backbone={root / 'pre' / 'backbone.ckpt'}",
                 "--set", "train.max_steps=1", "--set", "synthetic.n=20"]) == 1
    assert _one_error_line(capsys) == {
        "error": "CheckpointError", "subcommand": "train-lang-adapter",
        "message": f"{out / 'l_adapter.ckpt'}: not written: the run changed 1 frozen "
                   f"parameter(s) loaded from {(root / 'pre' / 'backbone.ckpt').resolve()}, "
                   "e.g. ['layer.1.ffn.b1']"}
    assert not out.exists()


def test_a_task_adapter_retrained_on_its_checkpoint_resolves_to_the_new_weights(pipeline,
                                                                               tmp_path):
    """T on T: the child stores the retrained T-adapters, which win over its
    parent's, and takes the backbone and the L-adapters through the chain."""
    root, vocab = pipeline
    small = ["--set", f"vocab={vocab}", "--set", "synthetic.n_classes=5",
             "--set", "synthetic.per_class=5", "--set", "train.max_steps=2"]
    first = tmp_path / "ta" / "t_adapter.ckpt"
    assert _run(["train-task-adapter", "--out", str(first.parent), "--seed", "0",
                 "--set", f"model={root / 'la' / 'l_adapter.ckpt'}", *small]) == 0
    again = tmp_path / "again" / "t_adapter.ckpt"
    assert _run(["train-task-adapter", "--out", str(again.parent), "--seed", "1",
                 "--set", f"model={first}", *small]) == 0
    before = load_checkpoint(first)[1]
    manifest, state = load_checkpoint(again)
    own = _own_blobs(again)
    assert manifest.parent.path == "../ta/t_adapter.ckpt"
    assert own.keys() == {n for n in state if n.startswith(("t_adapter.", "head."))} != set()
    assert state.keys() == before.keys()
    assert all(np.array_equal(state[n], v) for n, v in own.items())
    assert not all(np.array_equal(state[n], before[n]) for n in own)
    assert all(np.array_equal(state[n], before[n]) for n in state.keys() - own.keys())


def test_a_component_written_over_its_own_parent_exits_1_and_keeps_it(pipeline, tmp_path,
                                                                      capsys):
    """T retrained with ``--out`` the directory of the T checkpoint it reads
    would replace its parent with a file naming itself: it exits 1, and the
    parent keeps its bytes."""
    root, vocab = pipeline
    ckpt = tmp_path / "ta" / "t_adapter.ckpt"
    small = ["--set", f"vocab={vocab}", "--set", "synthetic.n_classes=5",
             "--set", "synthetic.per_class=5", "--set", "train.max_steps=1"]
    assert _run(["train-task-adapter", "--out", str(ckpt.parent), "--seed", "0",
                 "--set", f"model={root / 'la' / 'l_adapter.ckpt'}", *small]) == 0
    capsys.readouterr()
    before = ckpt.read_bytes()
    assert _run(["train-task-adapter", "--out", str(ckpt.parent), "--seed", "1",
                 "--set", f"model={ckpt}", *small]) == 1
    assert _one_error_line(capsys) == {
        "error": "CheckpointError", "subcommand": "train-task-adapter",
        "message": f"{ckpt}: not written: the model was loaded from this file's chain, "
                   "and a component cannot replace its own parent"}
    assert ckpt.read_bytes() == before
    load_checkpoint(ckpt)
