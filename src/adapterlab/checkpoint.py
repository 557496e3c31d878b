"""Versioned checkpoint container, and the one path from a checkpoint to a
model.

A checkpoint is a zip archive holding ``manifest.json`` plus one raw
little-endian binary blob per parameter. The manifest, a ``Manifest``,
records the format version, the configs, the adapter placement (the empty
plan for a bare backbone), every parameter's shape and the training
language; ``load_checkpoint`` checks all of it before it reads a blob.
``build_model`` composes an encoder, its adapter stack and any pair head
from a checkpoint by parameter name; ``save_model`` writes one.
"""

from __future__ import annotations

import dataclasses
import json
import math
import zipfile
import zlib

import numpy as np

from .adapters import AdapterConfig, PlacementPlan, attach
from .encoder import Encoder, EncoderConfig
from .schema import JsonConfig, check
from .tasks import register_pair_head

FORMAT = "adapterlab-ckpt v4"


class CheckpointError(ValueError):
    pass


# what reading a member with a broken byte raises: a failed CRC-32 check, or
# a deflate stream that does not decode
_DAMAGED = (zipfile.BadZipFile, zlib.error)


@dataclasses.dataclass(frozen=True)
class Manifest(JsonConfig):
    """``manifest.json``; ``params`` maps each parameter name to its shape."""
    format: str = FORMAT
    dtype: str = "<f8"
    config: EncoderConfig = dataclasses.field(default_factory=EncoderConfig)
    placement: PlacementPlan = PlacementPlan()
    adapter_config: AdapterConfig = AdapterConfig()
    params: dict[str, list[int]] = dataclasses.field(default_factory=dict)
    language: str | None = None

    def __post_init__(self):
        super().__post_init__()
        check(self, repr(FORMAT), lambda v: v == FORMAT, "format")
        check(self, "'<f8'", lambda v: v == "<f8", "dtype")
        check(self, "shapes of sizes >= 0",
              lambda v: all(d >= 0 for s in v.values() for d in s), "params")


def save_checkpoint(path, manifest: Manifest, params: dict[str, np.ndarray]) -> None:
    """Writes ``manifest`` with the shapes of ``params``, and one blob per parameter."""
    shapes = {name: list(np.shape(value)) for name, value in params.items()}
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("manifest.json", json.dumps(
            dataclasses.replace(manifest, params=shapes).to_dict(), indent=2))
        for name, value in params.items():
            blob = np.ascontiguousarray(value, dtype="<f8").tobytes()
            zf.writestr(f"params/{name}.bin", blob)


def load_checkpoint(path) -> tuple[Manifest, dict[str, np.ndarray]]:
    """Returns (manifest, params); the whole manifest is checked first."""
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
        params = {}
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
    return manifest, params


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
    return encoder


def save_model(path, encoder: Encoder, language: str | None = None) -> None:
    """Checkpoint of the whole model with the configs ``build_model`` needs."""
    save_checkpoint(path, Manifest(
        config=encoder.config, placement=encoder.adapters.plan,
        adapter_config=encoder.adapters.config, language=language),
        encoder.params.state_dict())
