"""Versioned checkpoint container, and the one path from a checkpoint to a
model.

A checkpoint is a zip archive holding ``manifest.json`` plus one raw
little-endian binary blob per stored parameter. The manifest, a
``Manifest``, records the format version, the configs, the whole model's
adapter placement (the empty plan for a bare backbone), the shape of each
parameter the file stores, the training language and the vocabulary's
digest; ``load_checkpoint`` checks all of it before it reads a blob.

A backbone stores every parameter. A component (an L- or a T-adapter run)
stores only what its run trained or added, and names the checkpoint it was
trained on as its ``parent``: the path relative to its own directory, and
the digest of the parameters it takes from that chain. ``load_checkpoint``
resolves the chain and checks every link. ``build_model`` composes an
encoder, its adapter stack and any pair head from the resolved state by
parameter name; ``save_model`` writes one.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .adapters import AdapterConfig, PlacementPlan, attach, blob_sha256, digest
from .encoder import Encoder, EncoderConfig
from .schema import JsonConfig, check
from .tasks import register_pair_head

FORMAT = "adapterlab-ckpt v5"


class CheckpointError(ValueError):
    pass


# what reading a member with a broken byte raises: a failed CRC-32 check, or
# a deflate stream that does not decode
_DAMAGED = (zipfile.BadZipFile, zlib.error)


def _is_sha256(v) -> bool:
    return v is None or re.fullmatch(r"[0-9a-f]{64}", v) is not None


@dataclasses.dataclass(frozen=True)
class Parent(JsonConfig):
    """The checkpoint a component was trained on: its ``path``, relative to
    the component's directory, and the ``sha256`` (``digest``) of the
    parameters the component takes from that checkpoint's chain."""
    path: str
    sha256: str

    def __post_init__(self):
        super().__post_init__()
        check(self, "a relative path", lambda v: v != "" and not os.path.isabs(v), "path")
        check(self, "64 lowercase hex digits", _is_sha256, "sha256")


@dataclasses.dataclass(frozen=True)
class Manifest(JsonConfig):
    """``manifest.json``; ``params`` maps each parameter this file stores to
    its shape, ``vocab`` is the vocabulary's ``Vocabulary.sha256``, and
    ``parent`` is null for a file that stores a whole model."""
    format: str = FORMAT
    dtype: str = "<f8"
    config: EncoderConfig = dataclasses.field(default_factory=EncoderConfig)
    placement: PlacementPlan = PlacementPlan()
    adapter_config: AdapterConfig = AdapterConfig()
    params: dict[str, list[int]] = dataclasses.field(default_factory=dict)
    language: str | None = None
    vocab: str | None = None
    parent: Parent | None = None

    def __post_init__(self):
        super().__post_init__()
        check(self, repr(FORMAT), lambda v: v == FORMAT, "format")
        check(self, "'<f8'", lambda v: v == "<f8", "dtype")
        check(self, "shapes of sizes >= 0",
              lambda v: all(d >= 0 for s in v.values() for d in s), "params")
        check(self, "null or 64 lowercase hex digits", _is_sha256, "vocab")


@dataclasses.dataclass(frozen=True)
class Origin:
    """The checkpoint chain a model was built from (the file it named
    first), the vocabulary digest it records, and each parameter's
    ``blob_sha256`` at load."""
    chain: tuple[Path, ...]
    vocab: str | None
    sums: dict[str, str]


class State(dict):
    """Parameter name -> array, as ``load_checkpoint`` resolved it, with the
    ``origin`` ``build_model`` gives the model."""
    origin: Origin


def save_checkpoint(path, manifest: Manifest, params: dict[str, np.ndarray]) -> None:
    """Writes ``manifest`` with the shapes of ``params``, and one blob per parameter."""
    shapes = {name: list(np.shape(value)) for name, value in params.items()}
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("manifest.json", json.dumps(
            dataclasses.replace(manifest, params=shapes).to_dict(), indent=2))
        for name, value in params.items():
            blob = np.ascontiguousarray(value, dtype="<f8").tobytes()
            zf.writestr(f"params/{name}.bin", blob)


def _read(path) -> tuple[Manifest, dict[str, np.ndarray], dict[str, str]]:
    """(manifest, blobs, their ``blob_sha256``) of the one file ``path``; the
    whole manifest is checked first."""
    try:
        zf = zipfile.ZipFile(path)
    except zipfile.BadZipFile:
        raise CheckpointError(f"{path}: not a checkpoint zip archive")
    with zf:
        if "manifest.json" not in zf.namelist():
            raise CheckpointError(f"{path}: no manifest.json in the archive")
        try:
            raw = json.loads(zf.read("manifest.json"))
        except ValueError as e:
            raise CheckpointError(f"{path}: manifest.json is not valid JSON: {e}")
        except _DAMAGED as e:
            raise CheckpointError(f"{path}: manifest.json is corrupt: {e}") from e
        if not isinstance(raw, dict):
            raise CheckpointError(f"{path}: manifest.json is not an object")
        if raw.get("format") != FORMAT:  # first: another format has other keys
            raise CheckpointError(f"{path}: manifest key 'format' must be {FORMAT!r}, "
                                  f"got {raw.get('format')!r}")
        try:
            manifest = Manifest.from_dict(raw)
        except ValueError as e:
            raise CheckpointError(f"{path}: manifest {e}") from e
        params, sums = {}, {}
        for name, shape in manifest.params.items():
            try:
                blob = zf.read(f"params/{name}.bin")
            except KeyError:
                raise CheckpointError(f"{path}: no blob for parameter {name}")
            except _DAMAGED as e:
                raise CheckpointError(f"{path}: blob of parameter {name} is corrupt: {e}") from e
            if len(blob) != math.prod(shape) * 8:
                raise CheckpointError(
                    f"{path}: blob of parameter {name} holds {len(blob)} bytes, "
                    f"shape {shape} needs {math.prod(shape) * 8}")
            params[name] = np.frombuffer(blob, dtype="<f8").reshape(shape).copy()
            sums[name] = blob_sha256(params[name])
    return manifest, params, sums


def load_checkpoint(path) -> tuple[Manifest, State]:
    """Returns (manifest, state): the manifest of the file ``path``, and the
    parameters of its whole chain of parents, later files winning. Each file
    is read and checked in full before its parent is opened; a parent that
    is missing, already in the chain, or holds other weights than its child
    was trained on is a ``CheckpointError`` naming both files."""
    files = [(path, *_read(path))]  # (path, manifest, blobs, sums), the named file first
    chain = [Path(path).resolve()]
    while (link := files[-1][1].parent) is not None:
        child = files[-1][0]
        parent = (Path(child).resolve().parent / link.path).resolve()
        if parent in chain:
            raise CheckpointError(f"{child}: its parent {parent} is already in its "
                                  "chain of parents")
        if not parent.is_file():
            raise CheckpointError(f"{child}: its parent checkpoint {parent} is missing")
        chain.append(parent)
        try:
            files.append((parent, *_read(parent)))
        except CheckpointError as e:
            raise CheckpointError(f"{e} (the parent of {child})") from e
    state, sums = State(), {}
    for i in reversed(range(len(files))):  # the backbone first
        child, manifest, blobs, file_sums = files[i]
        if manifest.parent is not None:
            got = digest({n: s for n, s in sums.items() if n not in blobs})
            if got != manifest.parent.sha256:
                raise CheckpointError(
                    f"{child}: its parent {files[i + 1][0]} holds other weights than "
                    f"the ones it was trained on (SHA-256 {got[:12]}, recorded "
                    f"{manifest.parent.sha256[:12]})")
        state.update(blobs)
        sums.update(file_sums)
    state.origin = Origin(tuple(chain), files[0][1].vocab, sums)
    return files[0][1], state


def build_model(manifest: Manifest, state: dict[str, np.ndarray],
                plan: PlacementPlan | None = None,
                adapter_config: AdapterConfig | None = None,
                seed: int = 0) -> Encoder:
    """Encoder + adapter stack + pair head, loaded from a checkpoint.

    ``plan`` (default: the checkpoint's own) may add adapters the checkpoint
    lacks; they are initialised from ``seed``. Every blob must land in a
    model slot, and every model parameter ``plan`` did not add must come
    from the checkpoint; a breach raises ``CheckpointError``. A part of a
    model's adapters runs as ``adapters.placement_view`` of the whole.
    """
    encoder = Encoder(manifest.config, seed=0)
    stored = manifest.placement
    plan = stored if plan is None else plan
    attach(encoder, plan, adapter_config or manifest.adapter_config, seed=seed)
    if "head.pair.w" in state:
        register_pair_head(encoder.params, encoder.config.hidden_size)

    for name, value in state.items():
        if name not in encoder.params:
            raise CheckpointError(f"checkpoint parameter {name} has no slot in the model")
        if value.shape != encoder.params[name].data.shape:
            raise CheckpointError(f"checkpoint parameter {name} has shape "
                                  f"{list(value.shape)}, its model slot "
                                  f"{list(encoder.params[name].data.shape)}")
    for name in sorted(set(encoder.params.names()) - state.keys()):
        if not (plan.places(name) and not stored.places(name)):
            raise CheckpointError(f"model parameter {name} is missing from the checkpoint")
    encoder.params.load_state_dict(state)
    encoder.origin = getattr(state, "origin", None)
    return encoder


def save_model(path, encoder: Encoder, language: str | None = None,
               vocab: str | None = None) -> None:
    """Checkpoint of ``encoder`` with the configs ``build_model`` needs.

    A model built from a checkpoint file (``encoder.origin``) is saved as a
    component of it: the file stores each parameter that is trainable or did
    not come from the origin, and names the origin as its ``parent``, with
    the digest of the rest. Those must hold the bytes they were loaded
    with: a frozen weight the run changed is a ``CheckpointError`` naming
    it, and nothing is written. So is a ``path`` in the origin's chain,
    which the file would replace with one naming itself. Any other model is
    stored whole. ``vocab`` (a ``Vocabulary.sha256``) defaults to the origin's.
    """
    params, origin = encoder.params, encoder.origin
    stored = {n for n in params.names() if origin is None or params.is_trainable(n)
              or n not in origin.sums}
    parent = None
    if origin is not None:
        if Path(path).resolve() in origin.chain:
            raise CheckpointError(f"{path}: not written: the model was loaded from this "
                                  "file's chain, and a component cannot replace its own parent")
        taken = {n: blob_sha256(t.data) for n, t in params.items() if n not in stored}
        changed = sorted(n for n, s in taken.items() if s != origin.sums[n])
        if changed:
            raise CheckpointError(f"{path}: not written: the run changed {len(changed)} "
                                  f"frozen parameter(s) loaded from {origin.chain[0]}, "
                                  f"e.g. {changed[:3]}")
        parent = Parent(os.path.relpath(origin.chain[0], Path(path).resolve().parent),
                        digest(taken))
        vocab = vocab or origin.vocab
    save_checkpoint(path, Manifest(
        config=encoder.config, placement=encoder.adapters.plan,
        adapter_config=encoder.adapters.config, language=language, vocab=vocab,
        parent=parent), {n: t.data for n, t in params.items() if n in stored})
