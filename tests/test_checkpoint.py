"""Checkpoint container: round-trip fidelity, manifest contents, format
validation, and the composition rule of ``build_model``."""

import json
import zipfile

import numpy as np
import pytest

from adapterlab.adapters import PlacementPlan, attach
from adapterlab.checkpoint import (FORMAT, CheckpointError, build_model,
                                   load_checkpoint, save_checkpoint, save_model)
from adapterlab.encoder import Encoder, EncoderConfig
from adapterlab.tasks import register_pair_head


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = {"emb.tok": rng.normal(size=(7, 3)),
              "layer.1.ffn.w1": rng.normal(size=(3, 5)),
              "mlm.bias": rng.normal(size=7)}
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, "backbone", params, config={"hidden_size": 3},
                    extra={"language": "alpha"})
    manifest, loaded = load_checkpoint(p)
    assert manifest["kind"] == "backbone"
    assert manifest["config"] == {"hidden_size": 3}
    assert manifest["language"] == "alpha"
    assert set(loaded) == set(params)
    for name in params:
        assert (loaded[name] == params[name]).all()
        assert loaded[name].dtype == np.float64


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        save_checkpoint(tmp_path / "x.ckpt", "decoder", {})


def test_wrong_format_rejected(tmp_path):
    p = tmp_path / "bad.ckpt"
    with zipfile.ZipFile(p, "w") as zf:
        zf.writestr("manifest.json", '{"format": "other v9", "params": {}}')
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_placement_and_adapter_config_stored(tmp_path):
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, "l_adapter", {"l_adapter.1.down.w": np.zeros((4, 2))},
                    placement={"l_layers": [1], "t_layers": [], "invertible": True},
                    adapter_config={"l_bottleneck": 2})
    manifest, _ = load_checkpoint(p)
    assert manifest["placement"]["invertible"] is True
    assert manifest["adapter_config"]["l_bottleneck"] == 2


def _hand_made(path, manifest_params, blobs):
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("manifest.json", json.dumps({"format": FORMAT,
                                                 "params": manifest_params}))
        for name, blob in blobs.items():
            zf.writestr(f"params/{name}.bin", blob)


@pytest.mark.parametrize("blobs", [
    {"w": np.zeros(5).tobytes()},    # 40 bytes for a 2x3 float64 array
    {},                              # no blob at all
])
def test_corrupt_blob_names_file_and_parameter(tmp_path, blobs):
    p = tmp_path / "corrupt.ckpt"
    _hand_made(p, {"w": [2, 3]}, blobs)
    with pytest.raises(CheckpointError, match=r"corrupt\.ckpt.*parameter w\b"):
        load_checkpoint(p)


def test_not_a_checkpoint_archive_rejected(tmp_path):
    plain = tmp_path / "plain.ckpt"
    plain.write_text("not a zip")
    bare = tmp_path / "bare.ckpt"
    with zipfile.ZipFile(bare, "w") as zf:
        zf.writestr("params/w.bin", np.zeros(1).tobytes())
    for p in (plain, bare):
        with pytest.raises(CheckpointError, match=p.name):
            load_checkpoint(p)


# -- composing a model from a checkpoint -----------------------------------

CFG = EncoderConfig(num_layers=4, hidden_size=8, num_heads=2, ffn_size=16,
                    vocab_size=20, max_positions=16, dropout=0.0)


@pytest.fixture
def saved(tmp_path):
    """(manifest, state) of a model with L-adapters, invertible adapter and
    pair head; random values stand in for trained weights."""
    enc = Encoder(CFG, seed=1)
    attach(enc, PlacementPlan.full(4, invertible=True), seed=2)
    register_pair_head(enc.params, CFG.hidden_size)
    rng = np.random.default_rng(3)
    for name in enc.params.names():
        enc.params[name].data = rng.normal(size=enc.params[name].data.shape)
    save_model(tmp_path / "m.ckpt", "l_adapter", enc, extra={"language": "alpha"})
    return load_checkpoint(tmp_path / "m.ckpt")


def test_build_model_restores_every_parameter(saved):
    manifest, state = saved
    enc = build_model(manifest, state)
    assert enc.adapters.plan == PlacementPlan.full(4, invertible=True)
    assert set(enc.params.names()) == set(state)
    for name, value in state.items():
        assert (enc.params[name].data == value).all()


def test_build_model_rejects_blob_without_slot(saved):
    manifest, state = saved
    state["t_adapter.9.down.w"] = np.zeros((8, 1))
    with pytest.raises(CheckpointError, match=r"t_adapter\.9\.down\.w"):
        build_model(manifest, state)


def test_build_model_rejects_missing_declared_parameter(saved):
    manifest, state = saved
    del state["l_adapter.2.up.b"]
    with pytest.raises(CheckpointError, match=r"l_adapter\.2\.up\.b"):
        build_model(manifest, state)


def test_build_model_truncated_plan_drops_layers(saved):
    manifest, state = saved
    plan = PlacementPlan.full(4, invertible=True).truncated(2, 4)
    enc = build_model(manifest, state, plan)
    assert "l_adapter.3.down.w" not in enc.params
    assert (enc.params["l_adapter.2.down.w"].data == state["l_adapter.2.down.w"]).all()
    bare = build_model(manifest, state, PlacementPlan())
    assert bare.adapters is None
    assert (bare.params["head.pair.w"].data == state["head.pair.w"]).all()


def test_build_model_widened_plan_adds_fresh_task_adapters(saved):
    manifest, state = saved
    plan = PlacementPlan.full(4, t_adapters=True, invertible=True)
    enc = build_model(manifest, state, plan, seed=5)
    assert (enc.params["t_adapter.4.up.w"].data == 0).all()  # near-identity init
    for name, value in state.items():
        assert (enc.params[name].data == value).all()


@pytest.mark.parametrize("manifest, match", [
    ("{not json", "not valid JSON"),
    ("[1, 2]", "not an object"),
    (json.dumps({"format": FORMAT}), "'params'"),
    (json.dumps({"format": FORMAT, "params": {"w": [2, "3"]}}), "'params'"),
])
def test_malformed_manifest_rejected(tmp_path, manifest, match):
    p = tmp_path / "m.ckpt"
    with zipfile.ZipFile(p, "w") as zf:
        zf.writestr("manifest.json", manifest)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(p)


@pytest.mark.parametrize("key, value, named", [
    ("config", {"hidden_size": 8}, "num_layers"),
    ("config", {**CFG.to_dict(), "num_heads": 3}, "divisible"),
    ("placement", {"l_layers": [1]}, "t_layers"),
    ("placement", {"l_layers": [1], "t_layers": [], "invertible": "yes"}, "invertible"),
    ("adapter_config", {"rank": 2}, "rank"),
])
def test_build_model_names_bad_manifest_key(saved, key, value, named):
    """The manifest's configs go through the same ``from_dict`` checks as a
    run config; a failure is a CheckpointError naming the manifest key."""
    manifest, state = saved
    with pytest.raises(CheckpointError, match=f"manifest key '{key}'.*{named}"):
        build_model({**manifest, key: value}, state)


def test_build_model_rejects_blob_of_wrong_shape(saved):
    manifest, state = saved
    state["l_adapter.1.down.w"] = np.zeros((8, 3))
    with pytest.raises(CheckpointError, match=r"l_adapter\.1\.down\.w has shape \[8, 3\]"):
        build_model(manifest, state)
