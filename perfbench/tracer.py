"""Outside-in tracing of adapterlab: spans and counters recorded by wrapping
each module's public functions from here, with no change to the program.

``Tracer.install()`` replaces every public function and public method of the
traced modules (and every other module binding and dispatch-table entry that
points at one) with a wrapper that records a span: name, start, end and
parent. Tensor op functions also wrap the backward closure of each tape node
they build, so backward work shows as ``tensor.<op>.backward`` spans under
``tensor.backward``. ``uninstall()`` restores the originals.

Spans stay in memory; ``dump()`` writes them out once the run ends. A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import os
import statistics
import time

MODULES = ("tokenizer", "synth", "tensor", "encoder", "adapters", "training",
           "tasks", "checkpoint", "corpus", "cli")
OPS = ("matmul", "add", "layer_norm", "gelu", "masked_softmax", "dropout",
       "cross_entropy", "embedding")
TRAIN_LOOPS = ("training.pretrain_mlm", "training.train_language_adapter",
               "training.train_task_adapter")
EVAL_CALLS = ("training.eval_mlm_loss", "tasks.eval_cloze", "tasks.embed_corpus",
              "tasks.eval_pairs", "tasks.classify_pair")
VALIDATION = ("training.eval_mlm_loss", "tasks.embed_corpus", "tasks.eval_pairs")
SYNTH = ("synth.synth_nl_corpus", "synth.synth_code_records",
         "synth.synth_clone_classes", "synth.pairs_from_retrieval",
         "synth.build_cloze_examples")
# per-step or per-batch samples reported as medians
MEDIANS = {"backward_ms": "tensor.backward_ms",
           "frozen_grad_mib": "tensor.frozen_grad_mib",
           "useful_grad_ratio": "tensor.useful_grad_ratio",
           "live_mib_after_forward": "tensor.live_mib_after_forward",
           "live_mib_after_backward": "tensor.live_mib_after_backward",
           "tape_nodes": "tensor.tape_nodes",
           "forward_ms": "encoder.forward_ms",
           "forward_eval_ms": "encoder.forward_eval_ms"}
# every per-layer metric with its unit and better direction
PER_LAYER = {
    "tokenizer.train_bpe_s": ("s", "lower"),
    "synth.generate_s": ("s", "lower"),
    "tokenizer.encode_calls": ("count", "lower"),
    "tokenizer.encode_ms": ("ms", "lower"),
    "tokenizer.encode_distinct_ratio": ("ratio", "higher"),
    "tokenizer.mask_ms": ("ms", "lower"),
    "tensor.backward_ms": ("ms", "lower"),
    "tensor.frozen_grad_mib": ("MiB", "lower"),
    "tensor.useful_grad_ratio": ("ratio", "higher"),
    "tensor.live_mib_after_forward": ("MiB", "lower"),
    "tensor.live_mib_after_backward": ("MiB", "lower"),
    "tensor.tape_nodes": ("count", "lower"),
    "tensor.eval_tape_nodes": ("count", "lower"),
    **{f"tensor.op.{op}.{part}": (unit, "lower") for op in OPS
       for part, unit in (("fwd_ms", "ms"), ("bwd_ms", "ms"), ("calls", "count"))},
    "encoder.forward_ms": ("ms", "lower"),
    "encoder.forward_eval_ms": ("ms", "lower"),
    "encoder.mlm_logits_ms": ("ms", "lower"),
    "encoder.builds": ("count", "lower"),
    "encoder.init_s": ("s", "lower"),
    "adapters.layer_slot_ms": ("ms", "lower"),
    "adapters.embed_forward_ms": ("ms", "lower"),
    "adapters.output_inverse_ms": ("ms", "lower"),
    "training.adam_ms": ("ms", "lower"),
    "training.validate_s": ("s", "lower"),
    "tasks.eval_cloze_s": ("s", "lower"),
    "tasks.embed_corpus_s": ("s", "lower"),
    "tasks.map_at_r_s": ("s", "lower"),
    "tasks.eval_pairs_s": ("s", "lower"),
    "tasks.in_batch_negative_loss_ms": ("ms", "lower"),
    "checkpoint.params_saved": ("count", "lower"),
    "checkpoint.bytes_written": ("bytes", "lower"),
    "checkpoint.save_s": ("s", "lower"),
    "checkpoint.load_s": ("s", "lower"),
    "checkpoint.load_calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}
# classes whose constructor is traced (Tensor's would be one span per node)
TRACED_INITS = ("encoder.Encoder",)
MIB = 1024.0 * 1024.0


def _buffer(arr):
    while getattr(arr, "base", None) is not None and hasattr(arr.base, "nbytes"):
        arr = arr.base
    return arr


def tape_stats(root, with_grads: bool) -> tuple[int, int]:
    """(nodes with a backward closure, bytes of distinct buffers) reachable
    from ``root``; views count once, through their base buffer."""
    seen, buffers, nodes = set(), {}, 0
    stack = [root]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._backward is not None:
            nodes += 1
        for arr in (t.data, t.grad if with_grads else None):
            if arr is not None:
                buf = _buffer(arr)
                buffers[id(buf)] = buf.nbytes
        stack.extend(t._parents)
    return nodes, sum(buffers.values())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []     # [name id, start, end, parent index]
        self._child: list[float] = []   # time covered by each span's children
        self._stack: list[int] = []
        self.total = collections.Counter()
        self.self_time = collections.Counter()
        self.calls = collections.Counter()
        self.samples = collections.defaultdict(list)
        self.counters = collections.Counter()
        self.encoded = set()
        self._in_train = 0
        self._in_eval = 0
        self._last_node = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([nid, time.perf_counter(), 0.0, parent])
        self._child.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        dur = end - span[1]
        if span[3] >= 0:
            self._child[span[3]] += dur
        name = self.names[span[0]]
        self.total[name] += dur
        self.self_time[name] += dur - self._child[idx]
        self.calls[name] += 1
        if self._in_train and name in VALIDATION:
            self.total["training.validate"] += dur
        return dur

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, fn, name: str):
        tracer = self
        is_op = (name.startswith("tensor.") and name.count(".") == 1
                 and name[7:] not in ("backward", "gradients", "finite_difference_check"))
        is_train = name in TRAIN_LOOPS
        is_eval = name in EVAL_CALLS
        hook = {"tensor.gradients": self._gradients,
                "tokenizer.Vocabulary.encode": self._encode,
                "checkpoint.save_checkpoint": self._save,
                "encoder.Encoder.forward": self._forward}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._in_train += is_train
            tracer._in_eval += is_eval
            try:
                if hook is not None:
                    return hook(fn, name, args, kwargs)
                idx = tracer._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if is_op:
                    tracer._node(name[7:], out, args)
                return out
            finally:
                tracer._in_train -= is_train
                tracer._in_eval -= is_eval

        return wrapper

    def _timed(self, fn, name, args, kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _node(self, op: str, out, args) -> None:
        """Count and instrument a tape node an op built. A composite op
        returns its last inner op's node, which is already counted."""
        backward = getattr(out, "_backward", None)
        if backward is None or out is self._last_node or any(out is a for a in args):
            return
        self._last_node = out
        if self._in_eval:
            self.counters["eval_tape_nodes"] += 1
        name = f"tensor.{op}.backward"
        tracer = self

        def timed_backward(g):
            idx = tracer._open(name)
            try:
                return backward(g)
            finally:
                tracer._close(idx)

        out._backward = timed_backward

    def _gradients(self, fn, name, args, kwargs):
        loss, params = args[0], args[1]
        nodes, live_fwd = tape_stats(loss, with_grads=False)
        grads = self._timed(fn, name, args, kwargs)
        _, live_bwd = tape_stats(loss, with_grads=True)
        frozen = useful = 0
        for pname, t in params.items():
            if t.grad is None:
                continue
            if params.is_trainable(pname):
                useful += t.grad.nbytes
            else:
                frozen += t.grad.nbytes
        if self._in_train:
            self.samples["tape_nodes"].append(nodes)
            self.samples["live_mib_after_forward"].append(live_fwd / MIB)
            self.samples["live_mib_after_backward"].append(live_bwd / MIB)
            self.samples["frozen_grad_mib"].append(frozen / MIB)
            if useful + frozen:
                self.samples["useful_grad_ratio"].append(useful / (useful + frozen))
            backward = self._name_ids["tensor.backward"]
            last = next(s for s in reversed(self.spans) if s[0] == backward)
            self.samples["backward_ms"].append((last[2] - last[1]) * 1e3)
        return grads

    def _encode(self, fn, name, args, kwargs):
        self.encoded.add(args[1])
        return self._timed(fn, name, args, kwargs)

    def _save(self, fn, name, args, kwargs):
        out = self._timed(fn, name, args, kwargs)
        params = args[2] if len(args) > 2 else kwargs["params"]
        self.counters["params_saved"] += sum(int(v.size) for v in params.values())
        self.counters["bytes_written"] += os.path.getsize(args[0])
        return out

    def _forward(self, fn, name, args, kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = self._close(idx)
            training = kwargs.get("training", args[4] if len(args) > 4 else False)
            key = "forward_ms" if training else "forward_eval_ms"
            self.samples[key].append(dur * 1e3)

    # -- install / uninstall -----------------------------------------------
    def install(self) -> None:
        modules = {m: importlib.import_module(f"adapterlab.{m}") for m in MODULES}
        originals = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{short}.{attr}")
                    originals[obj] = wrapped
                    self._patch(mod, attr, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{short}.{attr}")
        # names other modules imported, and dispatch tables holding functions
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._patch(mod, attr, originals[obj])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in originals:
                            self._patch_item(obj, key, originals[value])

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and not (attr == "__init__"
                                             and prefix in TRACED_INITS):
                continue
            if inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, f"{prefix}.{attr}"))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(
                    self._wrap(raw.__func__, f"{prefix}.{attr}")))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_item(self, table: dict, key, value) -> None:
        self._patches.append((table, key, table[key]))
        table[key] = value

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        self._last_node = None

    # -- results -----------------------------------------------------------
    def setup_metrics(self) -> dict[str, float]:
        return {"tokenizer.train_bpe_s": self.total["tokenizer.train_bpe"],
                "synth.generate_s": self._outermost(SYNTH)}

    def _outermost(self, names) -> float:
        """Time inside spans of ``names`` that no other span of ``names``
        encloses."""
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        total = 0.0
        for span in self.spans:
            if span[0] not in ids:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] not in ids:
                parent = self.spans[parent][3]
            if parent < 0:
                total += span[2] - span[1]
        return total

    def round_metrics(self) -> dict[str, float]:
        """Per-layer metrics over everything traced; see the README for
        what each one sums or takes the median of. Every metric is present;
        a layer the round never entered reads 0."""
        m: dict[str, float] = {}
        total, calls = self.total, self.calls

        enc = "tokenizer.Vocabulary.encode"
        m["tokenizer.encode_calls"] = calls[enc]
        m["tokenizer.encode_ms"] = total[enc] * 1e3
        m["tokenizer.encode_distinct_ratio"] = len(self.encoded) / max(calls[enc], 1)
        m["tokenizer.mask_ms"] = total["tokenizer.apply_mlm_mask"] * 1e3

        for key, metric in MEDIANS.items():
            m[metric] = statistics.median(self.samples[key]) if self.samples[key] else 0.0
        m["tensor.eval_tape_nodes"] = self.counters["eval_tape_nodes"]
        for op in OPS:
            fwd, bwd = f"tensor.{op}", f"tensor.{op}.backward"
            m[f"tensor.op.{op}.fwd_ms"] = total[fwd] * 1e3
            m[f"tensor.op.{op}.bwd_ms"] = total[bwd] * 1e3
            m[f"tensor.op.{op}.calls"] = calls[fwd]

        m["encoder.mlm_logits_ms"] = total["encoder.Encoder.mlm_logits"] * 1e3
        m["encoder.builds"] = calls["encoder.Encoder.__init__"]
        m["encoder.init_s"] = total["encoder.Encoder.__init__"]

        for metric, fn in (("layer_slot_ms", "layer_slot"),
                           ("embed_forward_ms", "embed_forward"),
                           ("output_inverse_ms", "output_inverse")):
            m[f"adapters.{metric}"] = total[f"adapters.AdapterStack.{fn}"] * 1e3

        m["training.adam_ms"] = total["training.adam_step"] * 1e3
        m["training.validate_s"] = total["training.validate"]

        for metric, fn, scale in (("eval_cloze_s", "eval_cloze", 1.0),
                                  ("embed_corpus_s", "embed_corpus", 1.0),
                                  ("map_at_r_s", "map_at_r", 1.0),
                                  ("eval_pairs_s", "eval_pairs", 1.0),
                                  ("in_batch_negative_loss_ms",
                                   "in_batch_negative_loss", 1e3)):
            m[f"tasks.{metric}"] = total[f"tasks.{fn}"] * scale

        save, load = "checkpoint.save_checkpoint", "checkpoint.load_checkpoint"
        m["checkpoint.params_saved"] = self.counters["params_saved"]
        m["checkpoint.bytes_written"] = self.counters["bytes_written"]
        m["checkpoint.save_s"] = total[save]
        m["checkpoint.load_s"] = total[load]
        m["checkpoint.load_calls"] = calls[load]

        m["cli.self_s"] = sum(self.self_time[n] for n in self.names if n.startswith("cli."))
        return {k: float(v) for k, v in m.items()}

    def dump(self, path, meta: dict) -> None:
        doc = {"meta": meta, "names": self.names,
               "columns": ["name", "start_s", "end_s", "parent"],
               "spans": [[s[0], round(s[1], 7), round(s[2], 7), s[3]]
                         for s in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
