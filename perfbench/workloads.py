"""The three workloads: their set-up, one round of CLI operations, and the
checks that each round's outputs are right.

Every operation is one ``adapterlab.cli.dispatch`` call in this process.
Inputs come from the benchmark seed through the program's synthetic
generators and reach the CLI as files, except the NL corpora, which the
CLI generates itself from ``synthetic.seed``: a one-document-per-line file
could not carry the multi-line NL documents the tokenizer is trained on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import io
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np

from adapterlab import cli, synth, tasks, training
from adapterlab import tensor as T
from adapterlab.adapters import AdapterConfig, FreezeMode, PlacementPlan, apply_freeze, attach
from adapterlab.encoder import Encoder, EncoderConfig
from adapterlab.tokenizer import Vocabulary, apply_mlm_mask, encode_batch

import checks

# -- input make-up (see README) ---------------------------------------------
VOCAB_SIZE = 2048
TOKENIZER_SENTENCES = 4000
# held-out alpha programs, one cloze probe each: eval-cloze alone in
# pretrain_nl and clone_detection; eval-cloze plus five sweep-layers
# placements in lang_adapter_cloze
PROBE_RECORDS = {"pretrain_nl": 320, "lang_adapter_cloze": 96, "clone_detection": 96}
ZERO_SHOT_RECORDS = 96       # per language, generated inside zero-shot
CODE_RECORDS = 600           # L-adapter training corpus
CLONE_TRAIN = (20, 20)       # classes x members for T-adapter training
# held-out retrieval set, classes x members: 600 items in clone_detection,
# 200 in the retrieval probe of the two MLM workloads
CLONE_EVAL = {"pretrain_nl": (20, 10), "lang_adapter_cloze": (20, 10),
              "clone_detection": (30, 20)}
EVAL_PAIRS = 200
TRAIN_PAIRS = 200
PRETRAIN = {"sentences": 1200, "steps": 24, "eval_every": 12, "max_len": 48}
LANG = {"steps": 16, "eval_every": 16}
TASK = {"steps": 8, "eval_every": 8}
SETUP_STEPS = 4              # tiny input checkpoints built in set-up
WARMUP_STEPS = 2
LEARNING_RATE = 0.001
FD_PARAMS = 6                # trainable tensors sampled by the gradient probe

BACKBONE = ("emb.", "layer.", "mlm.")
L_STACK = ("l_adapter.", "inv.")
PAIR_HEAD_FAULT = "model checkpoint has no pair-classification head"


class SetupError(RuntimeError):
    pass


@dataclasses.dataclass
class Op:
    name: str       # directory name inside the round
    kind: str       # train | cloze | retrieval | pair
    argv: list[str]


@dataclasses.dataclass
class Result:
    op: Op
    out: Path
    code: int
    seconds: float
    report: dict | None
    error: str
    peak_mib: float | None = None
    map_calls: list = dataclasses.field(default_factory=list)


# -- running CLI operations ------------------------------------------------

class MapCapture:
    """Keeps the inputs and result of every ``tasks.map_at_r`` call, so the
    retrieval check sees exactly the embeddings the program ranked."""

    def __init__(self):
        self.calls: list[tuple] = []
        self._original = None

    def install(self) -> None:
        original = self._original = tasks.map_at_r

        @functools.wraps(original)
        def recording(embeddings, labels, ids=None, metric="cosine"):
            result = original(embeddings, labels, ids, metric)
            self.calls.append((np.array(embeddings), list(labels), ids, metric, result))
            return result

        tasks.map_at_r = recording

    def uninstall(self) -> None:
        tasks.map_at_r = self._original


def invoke(op: Op, out: Path, capture: MapCapture, memory: bool = False) -> Result:
    argv = [op.argv[0], "--out", str(out)] + op.argv[1:]
    stdout, stderr = io.StringIO(), io.StringIO()
    capture.calls = []
    gc.collect()
    if memory:
        tracemalloc.reset_peak()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.dispatch(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code if isinstance(e.code, int) else 2
    seconds = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20 if memory else None
    report = None
    if code == 0:
        report = json.loads((out / "report.json").read_text())
    return Result(op, out, code, seconds, report, stderr.getvalue().strip(),
                  peak, capture.calls)


def run_ops(ops: list[Op], root: Path, capture: MapCapture,
            memory: bool = False) -> list[Result]:
    return [invoke(op, root / op.name, capture, memory) for op in ops]


def _setup_op(name: str, argv: list[str], root: Path, capture: MapCapture) -> Result:
    res = invoke(Op(name, "setup", argv), root / name, capture)
    if res.code != 0:
        raise SetupError(f"set-up step {name} failed: {res.error}")
    return res


def _sets(**values) -> list[str]:
    out = []
    for key, value in values.items():
        out += ["--set", f"{key.replace('__', '.')}={value}"]
    return out


def _write_jsonl(path: Path, records) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(dataclasses.asdict(rec)) + "\n")
    return path


# -- shared set-up pieces --------------------------------------------------

def _tokenizer(root: Path, seed: int, capture) -> dict:
    _setup_op("tok", ["tokenizer-train", "--seed", str(seed)]
              + _sets(vocab_size=VOCAB_SIZE, synthetic__seed=seed,
                      synthetic__n_sentences=TOKENIZER_SENTENCES), root, capture)
    vocab = root / "tok" / "vocab.txt"
    return {"vocab": vocab, "vocab_tokens": checks.read_vocab_tokens(vocab)}


def _probes(root: Path, inp: dict, seed: int, n: int) -> None:
    records = synth.synth_code_records("alpha", n, seed=seed + 3)
    examples = synth.build_cloze_examples(records, Vocabulary.load(inp["vocab"]))
    inp["probes"] = _write_jsonl(root / "probes.jsonl", examples)
    inp["probe_rows"] = {ex.id: ex for ex in examples}
    inp["probe_code"] = {r.id: r.code for r in records}
    inp["fd_texts"] = [r.code for r in records[:2]]


def _backbone(root: Path, inp: dict, seed: int, capture) -> None:
    _setup_op("backbone", ["pretrain", "--seed", str(seed)]
              + _sets(vocab=inp["vocab"], synthetic__seed=seed + 1,
                      synthetic__n_sentences=200, train__max_steps=SETUP_STEPS,
                      train__eval_every=SETUP_STEPS,
                      train__learning_rate=LEARNING_RATE,
                      train__max_len=PRETRAIN["max_len"]), root, capture)
    inp["backbone"] = root / "backbone" / "backbone.ckpt"


def _code_corpus(root: Path, inp: dict, seed: int) -> None:
    records = synth.synth_code_records("alpha", CODE_RECORDS, seed=seed + 2)
    inp["code"] = _write_jsonl(root / "code.jsonl", records)


def _clone_eval(root: Path, inp: dict, seed: int, workload: str) -> None:
    held_out = synth.synth_clone_classes(*CLONE_EVAL[workload], seed=seed + 6)
    inp["clone_eval"] = _write_jsonl(root / "clone_eval.jsonl", held_out)
    inp["n_clone_eval"] = len(held_out)


def _eval_clone_op(inp: dict, seed: int, model: Path) -> Op:
    return Op("eval_retrieval", "retrieval", ["eval-clone", "--seed", str(seed)]
              + _sets(vocab=inp["vocab"], data=inp["clone_eval"], model=model))


def _lang_args(inp: dict, steps: int, eval_every: int) -> list[str]:
    return _sets(vocab=inp["vocab"], backbone=inp["backbone"], corpus=inp["code"],
                 train__max_steps=steps, train__eval_every=eval_every,
                 train__learning_rate=LEARNING_RATE)


def _task_args(inp: dict, task: str, steps: int, eval_every: int) -> list[str]:
    return _sets(vocab=inp["vocab"], model=inp["l_adapter"], data=inp["clone_train"],
                 task=task, n_pairs=TRAIN_PAIRS, train__max_steps=steps,
                 train__eval_every=eval_every, train__learning_rate=LEARNING_RATE)


# -- gradient probe --------------------------------------------------------

def _compose(chain: list[Path]) -> Encoder:
    """Model rebuilt from a checkpoint chain (later blobs win), reading the
    zips directly."""
    arrays = {}
    for path in chain:
        manifest, blobs = checks.read_blobs(path)
        arrays.update(blobs)
    encoder = Encoder(EncoderConfig.from_dict(manifest["config"]), seed=0)
    if manifest.get("placement"):
        attach(encoder, PlacementPlan.from_dict(manifest["placement"]),
               AdapterConfig(**(manifest.get("adapter_config") or {})))
    if "head.pair.w" in arrays:
        tasks.register_pair_head(encoder.params, encoder.config.hidden_size)
    encoder.params.load_state_dict(arrays, strict=True)
    return encoder


def _objective(kind: str, encoder: Encoder, inp: dict):
    """A deterministic (dropout-off) loss of the stage's kind."""
    vocab = Vocabulary.load(inp["vocab"])
    if kind == "mlm":
        ids, attn = encode_batch(inp["fd_texts"], vocab, 32)
        batch = apply_mlm_mask(ids, attn, vocab, 0.3, seed=0)
        return lambda: training.mlm_loss(encoder, batch)
    items = inp["fd_items"]
    if kind == "retrieval":
        ids, attn = encode_batch([r.code for r in items], vocab, 32)

        def loss():
            hidden = encoder.forward(ids, attn, mode="embed")
            return tasks.in_batch_negative_loss(
                encoder.sequence_embedding(hidden, attn), [r.label for r in items])[0]
        return loss
    # pair: items 0/1 are clones, 0/2 are not; BCE with logits, written out
    ids, attn = encode_batch([items[0].code, items[0].code, items[1].code,
                              items[2].code], vocab, 32)
    y = T.Tensor(np.array([[1.0], [0.0]]))

    def loss():
        emb = encoder.sequence_embedding(encoder.forward(ids, attn, mode="embed"), attn)
        z = tasks.pair_logits(encoder.params, T.tslice(emb, (slice(0, 2),)),
                              T.tslice(emb, (slice(2, 4),)))
        softplus = T.add(T.relu(z), T.log(T.add(T.Tensor(1.0),
                                                T.exp(T.mul(T.absolute(z), T.Tensor(-1.0))))))
        return T.tmean(T.sub(softplus, T.mul(y, z)))
    return loss


def gradient_problems(chain: list[Path], mode: FreezeMode, kind: str,
                      inp: dict, label: str) -> list[str]:
    """Sampled trainable gradient entries against central differences: per
    sampled tensor, its largest-magnitude entry and one random entry."""
    encoder = _compose(chain)
    apply_freeze(encoder.params, mode)
    objective = _objective(kind, encoder, inp)
    grads = T.gradients(objective(), encoder.params)
    rng = np.random.default_rng(0)
    names = sorted(grads)
    picked = [names[i] for i in rng.choice(len(names), min(FD_PARAMS, len(names)),
                                            replace=False)]
    problems = []
    for name in picked:
        data, g = encoder.params[name].data, grads[name]
        for flat in {int(np.argmax(np.abs(g))), int(rng.integers(g.size))}:
            index = np.unravel_index(flat, g.shape)
            fd = checks.fd_gradient(lambda: objective().item(), data, index)
            if not checks.fd_agrees(float(g[index]), *fd):
                problems.append(f"{label}: d/d {name}{[int(i) for i in index]} analytic "
                                f"{g[index]:.6e} vs central difference {fd[0]:.6e}")
    return problems


# -- output checks shared by workloads -------------------------------------

def cloze_problems(res: Result, inp: dict) -> list[str]:
    """predictions.json against the oracle, the candidates and the accuracy."""
    rows = json.loads((res.out / "predictions.json").read_text())
    problems = []
    if len(rows) != len(inp["probe_rows"]) or res.report["n_examples"] != len(rows):
        problems.append(f"{res.op.name}: {len(rows)} predictions for "
                        f"{len(inp['probe_rows'])} probes")
    for row in rows:
        probe = inp["probe_rows"][row["id"]]
        word = checks.cloze_oracle_word(inp["probe_code"][row["id"].split("@")[0]])
        if inp["vocab_tokens"][row["answer"]].strip() != word:
            problems.append(f"{res.op.name}: {row['id']} gold answer is not {word!r}")
        if row["prediction"] not in probe.candidates:
            problems.append(f"{res.op.name}: {row['id']} predicts a non-candidate")
        if row["correct"] != (row["prediction"] == row["answer"]):
            problems.append(f"{res.op.name}: {row['id']} correct flag is wrong")
    share = sum(r["correct"] for r in rows) / max(len(rows), 1)
    if abs(share - res.report["accuracy"]) > checks.METRIC_ATOL:
        problems.append(f"{res.op.name}: accuracy {res.report['accuracy']} "
                        f"!= share of correct rows {share}")
    return problems


def _is_share(acc: float, n: int) -> bool:
    return abs(acc * n - round(acc * n)) < 1e-9 and 0.0 <= acc <= 1.0


def frozen_problems(chain: list[Path], output: Path, prefixes, label: str) -> list[str]:
    changed = checks.frozen_mismatches(chain, output, prefixes)
    return [f"{label}: {len(changed)} frozen tensors changed, e.g. {changed[:3]}"] \
        if changed else []


# -- workloads -------------------------------------------------------------

class Workload:
    name = ""

    def setup(self, root: Path, seed: int, capture: MapCapture) -> dict:
        raise NotImplementedError

    def ops(self, inp: dict, seed: int) -> list[Op]:
        raise NotImplementedError

    def units(self, res: Result, inp: dict) -> int:
        """Steps, probes, items or pairs one successful operation handled."""
        if res.op.kind == "train":
            return res.report["steps"]
        if res.op.kind == "retrieval":
            return res.report["n_items"]
        if res.op.kind == "pair":
            return res.report["n_pairs"]
        return res.report["n_examples"]

    def check(self, inp: dict, results: list[Result]) -> list[str]:
        raise NotImplementedError

    def _warm(self, root: Path, inp: dict, seed: int, capture) -> None:
        """First-call costs land in set-up: one short run of the round's
        training subcommand."""
        op = self.ops(inp, seed)[0]
        argv = op.argv + _sets(train__max_steps=WARMUP_STEPS,
                               train__eval_every=WARMUP_STEPS)
        _setup_op("warmup", argv, root, capture)


class PretrainNL(Workload):
    name = "pretrain_nl"

    def setup(self, root, seed, capture):
        inp = _tokenizer(root, seed, capture)
        _probes(root, inp, seed, PROBE_RECORDS[self.name])
        _clone_eval(root, inp, seed, self.name)
        self._warm(root, inp, seed, capture)
        return inp

    def ops(self, inp, seed):
        s = ["--seed", str(seed)]
        backbone = Path("{round}") / "pretrain" / "backbone.ckpt"
        return [
            Op("pretrain", "train", ["pretrain"] + s + _sets(
                vocab=inp["vocab"], synthetic__seed=seed + 1,
                synthetic__n_sentences=PRETRAIN["sentences"],
                train__max_steps=PRETRAIN["steps"],
                train__eval_every=PRETRAIN["eval_every"],
                train__learning_rate=LEARNING_RATE,
                train__max_len=PRETRAIN["max_len"])),
            Op("cloze", "cloze", ["eval-cloze"] + s + _sets(
                vocab=inp["vocab"], model=backbone, data=inp["probes"])),
            _eval_clone_op(inp, seed, backbone),
        ]

    def check(self, inp, results):
        pre, cloze, ev = results
        problems = []
        val = [row["value"] for row in
               json.loads((pre.out / "train_report.json").read_text())["validation"]]
        ln_v = math.log(len(inp["vocab_tokens"]))
        if not (all(map(math.isfinite, val)) and val[-1] < val[0] and val[-1] < ln_v):
            problems.append(f"pretrain: validation MLM loss {val} does not end "
                            f"below its start and ln(V)={ln_v:.4f}")
        problems += gradient_problems([pre.out / "backbone.ckpt"],
                                      FreezeMode.PRETRAIN_BACKBONE, "mlm", inp, "pretrain")
        return problems + cloze_problems(cloze, inp) + eval_clone_problems(ev, inp)


class LangAdapterCloze(Workload):
    name = "lang_adapter_cloze"

    def setup(self, root, seed, capture):
        inp = _tokenizer(root, seed, capture)
        _probes(root, inp, seed, PROBE_RECORDS[self.name])
        _backbone(root, inp, seed, capture)
        _code_corpus(root, inp, seed)
        inp["zero_shot"] = {lang: synth.synth_code_records(lang, ZERO_SHOT_RECORDS,
                                                           seed=seed + 4)
                            for lang in ("alpha", "beta")}
        _clone_eval(root, inp, seed, self.name)
        self._warm(root, inp, seed, capture)
        return inp

    def ops(self, inp, seed):
        s = ["--seed", str(seed)]
        ckpt = Path("{round}") / "lang" / "l_adapter.ckpt"
        return [
            Op("lang", "train", ["train-lang-adapter"] + s
               + _lang_args(inp, LANG["steps"], LANG["eval_every"])),
            Op("cloze", "cloze", ["eval-cloze"] + s + _sets(
                vocab=inp["vocab"], model=ckpt, data=inp["probes"])),
            Op("sweep", "cloze", ["sweep-layers"] + s + _sets(
                vocab=inp["vocab"], model=ckpt, data=inp["probes"])),
            Op("zero_shot", "cloze", ["zero-shot", "--adapter", str(ckpt),
                                      "--eval-language", "beta"] + s + _sets(
                vocab=inp["vocab"], synthetic__seed=seed + 4,
                synthetic__n=ZERO_SHOT_RECORDS)),
            _eval_clone_op(inp, seed, ckpt),
        ]

    def units(self, res, inp):
        if res.op.name == "sweep":
            return len(res.report["rows"]) * len(inp["probe_rows"])
        if res.op.name == "zero_shot":
            return sum(len(v) for v in inp["zero_shot"].values())
        return super().units(res, inp)

    def check(self, inp, results):
        lang, cloze, sweep, zero, ev = results
        ckpt = lang.out / "l_adapter.ckpt"
        problems = frozen_problems([inp["backbone"]], ckpt, BACKBONE, "train-lang-adapter")
        problems += gradient_problems([inp["backbone"], ckpt], FreezeMode.TRAIN_L_ADAPTER,
                                      "mlm", inp, "train-lang-adapter")
        problems += cloze_problems(cloze, inp)
        rows = sweep.report["rows"]
        n = len(inp["probe_rows"])
        if [r["i"] for r in rows] != list(range(len(rows))) or any(
                r["l_layers"] != list(range(1, r["i"] + 1)) for r in rows):
            problems.append(f"sweep-layers: placements {[r['l_layers'] for r in rows]}")
        if rows[-1]["accuracy"] != cloze.report["accuracy"]:
            problems.append("sweep-layers: the full placement scores "
                            f"{rows[-1]['accuracy']}, eval-cloze {cloze.report['accuracy']}")
        if not all(_is_share(r["accuracy"], n) for r in rows):
            problems.append("sweep-layers: an accuracy is no share of the probes")
        acc = zero.report["cloze_accuracy"]
        if (zero.report["train_language"], zero.report["eval_language"]) != ("alpha", "beta") \
                or zero.report["transfer_gap"] != acc["alpha"] - acc["beta"] \
                or not all(_is_share(acc[k], len(v)) for k, v in inp["zero_shot"].items()):
            problems.append(f"zero-shot: inconsistent report {zero.report}")
        return problems + eval_clone_problems(ev, inp)


class CloneDetection(Workload):
    name = "clone_detection"

    def setup(self, root, seed, capture):
        inp = _tokenizer(root, seed, capture)
        _probes(root, inp, seed, PROBE_RECORDS[self.name])
        _backbone(root, inp, seed, capture)
        _code_corpus(root, inp, seed)
        _setup_op("lang", ["train-lang-adapter", "--seed", str(seed)]
                  + _lang_args(inp, SETUP_STEPS, SETUP_STEPS), root, capture)
        inp["l_adapter"] = root / "lang" / "l_adapter.ckpt"
        train = synth.synth_clone_classes(*CLONE_TRAIN, seed=seed + 5)
        inp["clone_train"] = _write_jsonl(root / "clone_train.jsonl", train)
        _clone_eval(root, inp, seed, self.name)
        inp["fd_items"] = [train[0], train[1], train[CLONE_TRAIN[1]],
                           train[CLONE_TRAIN[1] + 1]]
        self._warm(root, inp, seed, capture)
        return inp

    def ops(self, inp, seed):
        s = ["--seed", str(seed)]
        t_retrieval = Path("{round}") / "task_retrieval" / "t_adapter.ckpt"
        return [
            Op("task_retrieval", "train", ["train-task-adapter"] + s
               + _task_args(inp, "retrieval", TASK["steps"], TASK["eval_every"])),
            _eval_clone_op(inp, seed, t_retrieval),
            Op("cloze", "cloze", ["eval-cloze"] + s + _sets(
                vocab=inp["vocab"], model=t_retrieval, data=inp["probes"])),
            Op("task_pair", "train", ["train-task-adapter"] + s
               + _task_args(inp, "pair_classification", TASK["steps"], TASK["eval_every"])),
            Op("eval_pair", "pair", ["eval-clone"] + s + _sets(
                vocab=inp["vocab"], data=inp["clone_eval"], task="pair_classification",
                n_pairs=EVAL_PAIRS,
                model=Path("{round}") / "task_pair" / "t_adapter.ckpt")),
        ]

    def check(self, inp, results):
        t_ret, ev, cloze, t_pair, ev_pair = results
        chain = [inp["backbone"], inp["l_adapter"]]
        problems = []
        for res, kind in ((t_ret, "retrieval"), (t_pair, "pair")):
            ckpt = res.out / "t_adapter.ckpt"
            problems += frozen_problems(chain, ckpt, BACKBONE + L_STACK, res.op.name)
            problems += gradient_problems(chain + [ckpt], FreezeMode.TRAIN_T_ADAPTER,
                                          kind, inp, res.op.name)
        problems += retrieval_problems(t_ret) + eval_clone_problems(ev, inp)
        problems += cloze_problems(cloze, inp)
        if ev_pair.code == 0:
            rep = ev_pair.report
            if rep["tp"] + rep["fp"] + rep["tn"] + rep["fn"] != rep["n_pairs"]:
                problems.append(f"pair eval: confusion counts do not sum to {rep['n_pairs']}")
            f1 = checks.f1_from_counts(rep["tp"], rep["fp"], rep["tn"], rep["fn"])
            if abs(f1 - rep["f1"]) > checks.METRIC_ATOL:
                problems.append(f"pair eval: F1 {rep['f1']} != {f1} from the counts")
        return problems


def eval_clone_problems(ev: Result, inp: dict) -> list[str]:
    """eval-clone in retrieval mode: its MAP@R against the oracle, over the
    whole held-out set, and reported as computed."""
    problems = retrieval_problems(ev)
    if ev.report["n_items"] != inp["n_clone_eval"]:
        problems.append(f"eval-clone scored {ev.report['n_items']} items, "
                        f"not {inp['n_clone_eval']}")
    if ev.map_calls and abs(ev.map_calls[-1][4].map_at_r
                            - ev.report["map_at_r"]) > checks.METRIC_ATOL:
        problems.append("eval-clone reports another MAP@R than it computed")
    return problems


def retrieval_problems(res: Result) -> list[str]:
    """Each MAP@R the program computed, against the oracle on the same
    embeddings; the embeddings must have unit-norm rows."""
    problems = []
    if not res.map_calls:
        problems.append(f"{res.op.name}: no MAP@R computation seen")
    for emb, labels, ids, metric, result in res.map_calls:
        norms = np.linalg.norm(emb, axis=1)
        if np.abs(norms - 1.0).max() > checks.UNIT_NORM_ATOL:
            problems.append(f"{res.op.name}: embedding rows are not unit-norm")
        sims = (checks.cosine_similarities(emb) if metric == "cosine"
                else checks.euclidean_similarities(emb))
        want, _ = checks.map_at_r(sims, labels, ids if ids is not None else range(len(labels)))
        if abs(want - result.map_at_r) > checks.METRIC_ATOL:
            problems.append(f"{res.op.name}: MAP@R {result.map_at_r} != oracle {want}")
    return problems


WORKLOADS = {w.name: w for w in (PretrainNL(), LangAdapterCloze(), CloneDetection())}


def known_failure(res: Result) -> bool:
    """The one operation expected to fail today: pair evaluation loses the
    trained pair head when the CLI rebuilds the model (strict=False load)."""
    return res.op.kind == "pair" and res.code == 1 and PAIR_HEAD_FAULT in res.error


def bind_round(ops: list[Op], round_dir: Path) -> list[Op]:
    """Resolve the ``{round}`` placeholder in paths to this round's directory."""
    return [Op(op.name, op.kind, [a.replace("{round}", str(round_dir)) for a in op.argv])
            for op in ops]
