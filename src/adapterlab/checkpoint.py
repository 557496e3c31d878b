"""Versioned checkpoint container, and the one path from a checkpoint to a
model.

A checkpoint is a zip archive holding ``manifest.json`` plus one raw
little-endian binary blob per parameter. The manifest records the format
version, the component kind (backbone / l_adapter / t_adapter / head), the
relevant configs, and every parameter's shape. ``build_model`` composes an
encoder, its adapter stack and any pair head from a checkpoint by parameter
name; ``save_model`` writes one.
"""

from __future__ import annotations

import json
import math
import zipfile

import numpy as np

from .adapters import AdapterConfig, PlacementPlan, attach
from .encoder import Encoder, EncoderConfig
from .tasks import register_pair_head

FORMAT = "adapterlab-ckpt v1"
KINDS = ("backbone", "l_adapter", "t_adapter", "head")


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, kind: str, params: dict[str, np.ndarray],
                    config: dict | None = None, placement: dict | None = None,
                    adapter_config: dict | None = None,
                    extra: dict | None = None) -> None:
    if kind not in KINDS:
        raise CheckpointError(f"unknown component kind {kind!r}")
    manifest = {
        "format": FORMAT,
        "kind": kind,
        "dtype": "<f8",
        "config": config,
        "placement": placement,
        "adapter_config": adapter_config,
        "params": {name: list(np.asarray(v).shape) for name, v in params.items()},
    }
    if extra:
        manifest.update(extra)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("manifest.json", json.dumps(manifest, indent=2))
        for name, value in params.items():
            blob = np.ascontiguousarray(value, dtype="<f8").tobytes()
            zf.writestr(f"params/{name}.bin", blob)


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (manifest, params). The manifest's configs are checked where
    they are read, by ``manifest_config`` and the other ``manifest_*``."""
    try:
        zf = zipfile.ZipFile(path)
    except zipfile.BadZipFile:
        raise CheckpointError(f"{path}: not a checkpoint zip archive")
    with zf:
        if "manifest.json" not in zf.namelist():
            raise CheckpointError(f"{path}: no manifest.json in the archive")
        try:
            manifest = json.loads(zf.read("manifest.json"))
        except ValueError as e:
            raise CheckpointError(f"{path}: manifest.json is not valid JSON: {e}")
        if not isinstance(manifest, dict):
            raise CheckpointError(f"{path}: manifest.json is not an object")
        if manifest.get("format") != FORMAT:
            raise CheckpointError(f"{path}: unsupported format {manifest.get('format')!r}")
        shapes = manifest.get("params")
        if not isinstance(shapes, dict) or not all(
                isinstance(s, list) and all(type(d) is int and d >= 0 for d in s)
                for s in shapes.values()):
            raise CheckpointError(f"{path}: manifest key 'params' must map every "
                                  "parameter name to its shape")
        params = {}
        for name, shape in shapes.items():
            try:
                blob = zf.read(f"params/{name}.bin")
            except KeyError:
                raise CheckpointError(f"{path}: no blob for parameter {name}")
            if len(blob) != math.prod(shape) * 8:
                raise CheckpointError(
                    f"{path}: blob of parameter {name} holds {len(blob)} bytes, "
                    f"shape {shape} needs {math.prod(shape) * 8}")
            params[name] = np.frombuffer(blob, dtype="<f8").reshape(shape).copy()
    return manifest, params


def _from_manifest(cls, manifest: dict, key: str):
    """``cls.from_dict`` of the manifest's ``key``, ``cls()`` when it is empty."""
    if not manifest.get(key):
        return cls()
    try:
        return cls.from_dict(manifest[key])
    except ValueError as e:
        raise CheckpointError(f"manifest key {key!r}: {e}") from e


def manifest_config(manifest: dict) -> EncoderConfig:
    """The encoder config a checkpoint was saved with."""
    if not manifest.get("config"):
        raise CheckpointError("checkpoint carries no encoder config")
    return _from_manifest(EncoderConfig, manifest, "config")


def manifest_plan(manifest: dict) -> PlacementPlan:
    """The placement a checkpoint was saved with; empty for a bare backbone."""
    return _from_manifest(PlacementPlan, manifest, "placement")


def manifest_adapter_config(manifest: dict) -> AdapterConfig:
    """The adapter sizes a checkpoint was saved with; defaults for a bare
    backbone."""
    return _from_manifest(AdapterConfig, manifest, "adapter_config")


def build_model(manifest: dict, state: dict[str, np.ndarray],
                plan: PlacementPlan | None = None,
                adapter_config: AdapterConfig | None = None,
                seed: int = 0) -> Encoder:
    """Encoder + adapter stack + pair head, loaded from a checkpoint.

    ``plan`` (default: the checkpoint's own) may drop adapter layers the
    checkpoint holds or add ones it lacks; added adapters are initialised
    from ``seed``. Every blob must land in a model slot unless ``plan``
    dropped its layer, and every model parameter ``plan`` did not add must
    come from the checkpoint; a breach raises ``CheckpointError``.
    """
    encoder = Encoder(manifest_config(manifest), seed=0)
    stored = manifest_plan(manifest)
    plan = stored if plan is None else plan
    if adapter_config is None:
        adapter_config = manifest_adapter_config(manifest)
    if plan.l_layers or plan.t_layers or plan.invertible:
        attach(encoder, plan, adapter_config, seed=seed)
    if "head.pair.w" in state:
        register_pair_head(encoder.params, encoder.config.hidden_size)

    slots = set(encoder.params.names())
    for name in state:
        if name not in slots and not (stored.places(name) and not plan.places(name)):
            raise CheckpointError(f"checkpoint parameter {name} has no slot in the model")
        elif name in slots and state[name].shape != encoder.params[name].data.shape:
            raise CheckpointError(f"checkpoint parameter {name} has shape "
                                  f"{list(state[name].shape)}, its model slot "
                                  f"{list(encoder.params[name].data.shape)}")
    for name in sorted(slots - state.keys()):
        if not (plan.places(name) and not stored.places(name)):
            raise CheckpointError(f"model parameter {name} is missing from the checkpoint")
    encoder.params.load_state_dict({n: v for n, v in state.items() if n in slots})
    return encoder


def save_model(path, kind: str, encoder: Encoder, extra: dict | None = None) -> None:
    """Checkpoint of the whole model with the configs ``build_model`` needs."""
    stack = encoder.adapters
    save_checkpoint(
        path, kind, encoder.params.state_dict(),
        config=encoder.config.to_dict(),
        placement=stack.plan.to_dict() if stack else None,
        adapter_config=stack.config.to_dict() if stack else None,
        extra=extra)
