"""One benchmark run: set-ups, timed rounds, then the memory round (end-to-end
metrics) or an untraced and a traced round (per-layer metrics); the checks
on every round; and the result object."""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import checks
import workloads as W
from tracer import PER_LAYER, Tracer

SETUP_REPEATS = 3    # setup_s is the median of these
RATES = (("train_steps_per_s", "train", "steps/s"),
         ("cloze_probes_per_s", "cloze", "probes/s"),
         ("retrieval_items_per_s", "retrieval", "items/s"))


def _log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


def _round(wl, inp, seed: int, rdir: Path, capture, memory: bool = False):
    return W.run_ops(W.bind_round(wl.ops(inp, seed), rdir), rdir, capture, memory)


def _median_rate(wl, inp, rounds, kind: str) -> float | None:
    """Median over rounds of units handled per second by the successful
    operations of ``kind``."""
    rates = []
    for results in rounds:
        done = [r for r in results if r.op.kind == kind and r.code == 0]
        if done:
            rates.append(sum(wl.units(r, inp) for r in done) / sum(r.seconds for r in done))
    return statistics.median(rates) if rates else None


def timed_run(wl, seed: int, seconds: float, run_dir: Path, capture):
    setup_times, inp = [], None
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        inp = wl.setup(run_dir / f"setup{k}", seed, capture)
        setup_times.append(time.perf_counter() - start)
    # whole rounds only; another round starts while it would end, at the mean
    # round time so far, no more than half a round past ``seconds``
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(_round(wl, inp, seed, run_dir / f"round{len(rounds)}", capture))
        _log("round: " + ", ".join(f"{r.op.name} {r.seconds:.2f} s" for r in rounds[-1]))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(rounds) > seconds:
            break
    timed_s = time.perf_counter() - start

    start = time.perf_counter()
    tracemalloc.start()
    try:
        memory = _round(wl, inp, seed, run_dir / "memory", capture, memory=True)
    finally:
        tracemalloc.stop()
    _log(f"set-ups {[round(t, 2) for t in setup_times]} s; {len(rounds)} timed "
         f"rounds in {timed_s:.2f} s; memory round {time.perf_counter() - start:.2f} s")

    m = {"setup_s": (statistics.median(setup_times), "s")}
    for name, kind, unit in RATES:
        rate = _median_rate(wl, inp, rounds, kind)
        if rate is not None:
            m[name] = (rate, unit)
    # pair evaluation fails while the CLI drops the trained pair head (see
    # README), so its rate is no metric of BENCHMARK.json; it is logged once
    # the operation works
    pair_rate = _median_rate(wl, inp, rounds, "pair")
    if pair_rate is not None:
        _log(f"pair evaluation succeeded: {pair_rate:.2f} pairs/s")
    ok = [r for r in memory if r.code == 0]
    for name, is_train in (("train_peak_mib", True), ("eval_peak_mib", False)):
        peaks = [r.peak_mib for r in ok if (r.op.kind == "train") == is_train]
        if peaks:
            m[name] = (max(peaks), "MiB")
    m["ckpt_bytes"] = (sum(ckpt.stat().st_size for r in rounds[-1] if r.op.kind == "train"
                           for ckpt in r.out.glob("*.ckpt")), "bytes")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    return inp, rounds + [memory], metrics


def traced_run(wl, seed: int, run_dir: Path, capture, trace_dir: Path):
    """One traced set-up, one untraced round, one traced round. Per-layer
    metrics come from the traced round and set-up; the wall clock of the two
    rounds gives the tracing overhead."""
    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        inp = wl.setup(run_dir / "setup", seed, capture)
    finally:
        setup_tracer.uninstall()
    start = time.perf_counter()
    plain = _round(wl, inp, seed, run_dir / "untraced", capture)
    plain_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        traced = _round(wl, inp, seed, run_dir / "traced", capture)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    _log(f"untraced round {plain_s:.2f} s; traced round {traced_s:.2f} s")

    values = {**setup_tracer.setup_metrics(), **tracer.round_metrics(),
              "trace.overhead_pct": 100.0 * (traced_s / plain_s - 1.0)}
    trace_dir.mkdir(parents=True, exist_ok=True)
    meta = {"workload": wl.name, "seed": seed, "blas_threads": os.environ.get(
        "OPENBLAS_NUM_THREADS"), "nproc": os.cpu_count(),
        "untraced_round_s": plain_s, "traced_round_s": traced_s}
    setup_tracer.dump(trace_dir / f"{wl.name}-s{seed}-setup.json", meta)
    tracer.dump(trace_dir / f"{wl.name}-s{seed}-round.json", meta)
    metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in sorted(values.items())}
    return inp, [plain, traced], metrics


def run(workload: str, seed: int, seconds: float, trace: bool, state_dir: Path) -> dict:
    wl = W.WORKLOADS[workload]
    run_dir = state_dir / "runs" / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    problems = [f"checker self-test: {p}" for p in checks.self_test()]
    capture = W.MapCapture()
    capture.install()
    try:
        if trace:
            inp, rounds, metrics = traced_run(wl, seed, run_dir, capture,
                                              state_dir / "traces")
        else:
            inp, rounds, metrics = timed_run(wl, seed, seconds, run_dir, capture)
        start = time.perf_counter()
        attempted = failed = 0
        for results in rounds:
            attempted += len(results)
            for res in results:
                if res.code != 0:
                    failed += 1
                    if not W.known_failure(res):
                        problems.append(f"{res.op.name} failed: {res.error}")
            if all(r.code == 0 or W.known_failure(r) for r in results):
                try:
                    problems += wl.check(inp, results)
                except (KeyError, ValueError, OSError) as e:  # an output format changed
                    problems.append(f"checks could not read the outputs: {e!r}")
        _log(f"checks {time.perf_counter() - start:.2f} s")
    finally:
        capture.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)
    for p in problems:
        _log(f"CHECK FAILED: {p}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}
