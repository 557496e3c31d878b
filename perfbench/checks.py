"""Checkers that do not trust the program under test.

Each checker recomputes a result from first principles (or reads raw bytes)
instead of calling the code it checks:

- ``map_at_r``: vectorised MAP@R with ``np.lexsort`` and the ascending-id
  tie-break, for comparison with ``adapterlab.tasks.map_at_r``;
- ``cloze_oracle_word``: the max/min answer of a synthetic program, read
  from the unmasked source text;
- ``blob_digests`` / ``read_blobs``: checkpoint zips read directly, one
  SHA-256 (or array) per parameter blob;
- ``f1_from_counts``: F1 recomputed from confusion counts;
- ``fd_gradient``: a central finite-difference gradient probe, with a
  one-sided fallback at ReLU/abs kinks.

``self_test()`` runs each one on a hand-made case; ``python3
perfbench/checks.py`` runs it on its own.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import zipfile

import numpy as np

# Gradient agreement: |analytic - numeric| <= FD_ATOL + FD_RTOL * |numeric|,
# with central differences of step FD_STEP in float64.
FD_STEP = 1e-6
FD_ATOL = 1e-8
FD_RTOL = 1e-5
# MAP@R and accuracy agreement (the program sums in another order).
METRIC_ATOL = 1e-12
# Rows of retrieval embeddings must have unit L2 norm to this tolerance.
UNIT_NORM_ATOL = 1e-9


# -- MAP@R -----------------------------------------------------------------

def cosine_similarities(embeddings) -> np.ndarray:
    e = np.asarray(embeddings, dtype=float)
    normed = e / np.linalg.norm(e, axis=1, keepdims=True)
    return normed @ normed.T


def euclidean_similarities(embeddings) -> np.ndarray:
    e = np.asarray(embeddings, dtype=float)
    return -np.linalg.norm(e[:, None, :] - e[None, :, :], axis=-1)


def map_at_r(sims: np.ndarray, labels, ids) -> tuple[float, np.ndarray]:
    """MAP@R over an [n, n] similarity matrix; returns (mean, per-query AP).

    Each query ranks the other items by descending similarity, ties broken
    by ascending id, then by position. R is the query's same-class count
    minus one.
    """
    n = len(labels)
    sims = np.array(sims, dtype=float)
    np.fill_diagonal(sims, -np.inf)  # the query itself ranks last
    id_rank = np.empty(n, dtype=np.int64)
    id_rank[np.argsort(np.asarray(ids), kind="stable")] = np.arange(n)
    position = np.broadcast_to(np.arange(n), (n, n))
    order = np.lexsort((position, np.broadcast_to(id_rank, (n, n)), -sims), axis=-1)
    _, lab = np.unique(np.asarray(labels), return_inverse=True)
    r = np.bincount(lab)[lab] - 1
    same = lab[order] == lab[:, None]
    ranks = np.arange(1, n + 1)
    within = ranks[None, :] <= r[:, None]
    hits = np.cumsum(same & within, axis=1)
    ap = (np.where(same & within, hits / ranks, 0.0)).sum(axis=1) / r
    return float(ap.mean()), ap


# -- cloze -----------------------------------------------------------------

_CUE = re.compile(r"= (max|min) \(")


def cloze_oracle_word(code: str) -> str:
    """The word a max/min probe must restore: the synthetic programs carry
    exactly one ``name = max ( .. )`` or ``name = min ( .. )`` statement."""
    found = _CUE.findall(code)
    if len(found) != 1:
        raise ValueError(f"expected one max/min statement, found {found}")
    return found[0]


def read_vocab_tokens(path) -> dict[int, str]:
    """id -> token string, parsed from the vocabulary file's token section."""
    tokens: dict[int, str] = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for line in lines[1:]:
        if line == "#merges":
            break
        if line:
            tok, idx = line.rsplit("\t", 1)
            tokens[int(idx)] = tok.encode("ascii").decode("unicode_escape")
    return tokens


# -- checkpoints -----------------------------------------------------------

def _blob_names(zf: zipfile.ZipFile) -> dict[str, str]:
    return {n[len("params/"):-len(".bin")]: n for n in zf.namelist()
            if n.startswith("params/") and n.endswith(".bin")}


def blob_digests(path) -> dict[str, str]:
    """Parameter name -> SHA-256 of its raw blob bytes."""
    with zipfile.ZipFile(path) as zf:
        return {name: hashlib.sha256(zf.read(entry)).hexdigest()
                for name, entry in _blob_names(zf).items()}


def read_blobs(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(manifest, name -> array) decoded from the zip with the manifest's
    shapes and dtype."""
    with zipfile.ZipFile(path) as zf:
        manifest = json.loads(zf.read("manifest.json"))
        dtype = np.dtype(manifest.get("dtype", "<f8"))
        arrays = {name: np.frombuffer(zf.read(entry), dtype=dtype)
                  .reshape(manifest["params"][name]).astype(float)
                  for name, entry in _blob_names(zf).items()}
    return manifest, arrays


def frozen_mismatches(sources, output, prefixes: tuple[str, ...]) -> list[str]:
    """Names under ``prefixes`` that ``output`` holds with other bytes than
    the checkpoint chain ``sources`` it was trained from (later files win),
    or that the chain lacks."""
    before = {}
    for path in sources:
        before.update(blob_digests(path))
    after = blob_digests(output)
    return sorted(n for n, d in after.items()
                  if n.startswith(prefixes) and before.get(n) != d)


# -- F1 --------------------------------------------------------------------

def f1_from_counts(tp: int, fp: int, tn: int, fn: int) -> float:
    """F1 = 2tp / (2tp + fp + fn); 0 when there is no positive at all."""
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


# -- finite differences ----------------------------------------------------

def fd_gradient(f, array: np.ndarray, index, step: float = FD_STEP):
    """(central, left, right) difference quotients of scalar ``f()`` with
    respect to ``array[index]``; the entry is restored afterwards."""
    orig = array[index]
    try:
        array[index] = orig + step
        up = f()
        array[index] = orig - step
        down = f()
    finally:
        array[index] = orig
    mid = f()
    return (up - down) / (2 * step), (mid - down) / step, (up - mid) / step


def fd_agrees(analytic: float, central: float, left: float, right: float) -> bool:
    """Central agreement, or (at a kink of ReLU/abs inside the step) an
    analytic value between the two one-sided quotients."""
    tol = FD_ATOL + FD_RTOL * abs(central)
    if abs(analytic - central) <= tol:
        return True
    lo, hi = min(left, right), max(left, right)
    return lo - tol <= analytic <= hi + tol and hi - lo > 10 * tol


# -- self-test -------------------------------------------------------------

def self_test() -> list[str]:
    """Hand-made cases for every checker; returns the failures."""
    failures = []
    emb = np.array([[0.0], [3.0], [1.0], [1.2]])
    value, ap = map_at_r(euclidean_similarities(emb), ["A", "A", "B", "B"],
                         ["A1", "A2", "B1", "B2"])
    if value != 0.5 or ap.tolist() != [0.0, 0.0, 1.0, 1.0]:
        failures.append(f"map_at_r hand case gave {value}, {ap.tolist()}")
    # all similarities tie: the id order alone decides the ranking
    value, ap = map_at_r(np.zeros((4, 4)), ["x", "y", "x", "y"], [3, 2, 1, 0])
    if ap.tolist() != [0.0, 1.0, 0.0, 0.0]:
        failures.append(f"map_at_r tie-break case gave {ap.tolist()}")

    code = "fn f1 ( v1 , w2 ) {\nt3 = v1 + 4 ;\nbig = max ( v1 , w2 ) ;\ngive big ; }"
    if cloze_oracle_word(code) != "max":
        failures.append("cloze oracle misread a max program")
    if cloze_oracle_word(code.replace("big = max", "lower = min")) != "min":
        failures.append("cloze oracle misread a min program")

    if f1_from_counts(3, 1, 5, 2) != 6 / 9 or f1_from_counts(0, 0, 4, 0) != 0.0:
        failures.append("f1 recomputation is wrong on the hand cases")

    w = np.array([0.5, -2.0])
    central, left, right = fd_gradient(lambda: float(w[0] ** 3 + abs(w[1])), w, 0)
    if not fd_agrees(3 * 0.25, central, left, right) or fd_agrees(1.0, central, left, right):
        failures.append(f"fd probe: d/dw w^3 at 0.5 gave {central}")
    k = np.array([0.0])
    if not fd_agrees(1.0, *fd_gradient(lambda: float(max(k[0], 0.0)), k, 0)):
        failures.append("fd probe rejects the ReLU subgradient at its kink")

    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("manifest.json", json.dumps(
            {"dtype": "<f8", "params": {"a.w": [2]}}))
        zf.writestr("params/a.w.bin", np.array([1.0, 2.0], "<f8").tobytes())
    buf.seek(0)
    _, arrays = read_blobs(buf)
    buf.seek(0)
    digests = blob_digests(buf)
    want = hashlib.sha256(np.array([1.0, 2.0], "<f8").tobytes()).hexdigest()
    if arrays["a.w"].tolist() != [1.0, 2.0] or digests != {"a.w": want}:
        failures.append("blob reader misread a hand-made checkpoint")
    return failures


if __name__ == "__main__":
    problems = self_test()
    for p in problems:
        print("FAIL:", p)
    print("checks self-test:", "FAIL" if problems else "ok")
    raise SystemExit(1 if problems else 0)
