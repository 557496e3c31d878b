"""Checkpoint container: round-trip fidelity, the manifest checked in full
at load, format validation, and the composition rule of ``build_model``."""

import io
import json
import re
import struct
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterlab.adapters import AdapterConfig, PlacementPlan, attach
from adapterlab.checkpoint import (FORMAT, CheckpointError, Manifest, build_model,
                                   load_checkpoint, save_checkpoint, save_model)
from adapterlab.encoder import Encoder, EncoderConfig
from adapterlab.tasks import register_pair_head

CFG = EncoderConfig(num_layers=4, hidden_size=8, num_heads=2, ffn_size=16,
                    vocab_size=20, max_positions=16, dropout=0.0)


def _edited(src, dst, edit):
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


def _hand_made(path, manifest, blobs):
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("manifest.json", manifest)
        for name, blob in blobs.items():
            zf.writestr(f"params/{name}.bin", blob)


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = {"emb.tok": rng.normal(size=(7, 3)),
              "layer.1.ffn.w1": rng.normal(size=(3, 5)),
              "mlm.bias": rng.normal(size=7)}
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, Manifest(config=CFG, language="alpha"), params)
    manifest, loaded = load_checkpoint(p)
    assert manifest == Manifest(config=CFG, language="alpha", params={
        "emb.tok": [7, 3], "layer.1.ffn.w1": [3, 5], "mlm.bias": [7]})
    assert set(loaded) == set(params)
    for name in params:
        assert (loaded[name] == params[name]).all()
        assert loaded[name].dtype == np.float64


def test_v3_manifest_rejected_naming_both_formats(tmp_path):
    """v3 stored a ``kind`` and a ``task``, and a null placement for a bare
    backbone; a v3 file fails on its format, naming v4 and v3."""
    def v3(m):
        m.update(format="adapterlab-ckpt v3", kind="backbone", placement=None,
                 adapter_config=None, task=None)

    save_checkpoint(tmp_path / "m.ckpt", Manifest(config=CFG), {})
    with pytest.raises(CheckpointError, match=re.escape(
            "v3.ckpt: manifest key 'format' must be 'adapterlab-ckpt v4', "
            "got 'adapterlab-ckpt v3'")):
        load_checkpoint(_edited(tmp_path / "m.ckpt", tmp_path / "v3.ckpt", v3))


def test_wrong_format_rejected(tmp_path):
    """A file of another format, v1 included, fails naming its format."""
    p = tmp_path / "bad.ckpt"
    _hand_made(p, '{"format": "other v9", "params": {}}', {})
    with pytest.raises(CheckpointError, match="'other v9'"):
        load_checkpoint(p)

    def v1(m):  # v1 wrote no language key when it was unknown
        m["format"] = "adapterlab-ckpt v1"
        del m["language"]

    save_checkpoint(tmp_path / "m.ckpt", Manifest(), {})
    with pytest.raises(CheckpointError, match=r"v1\.ckpt: manifest key 'format'.*'adapterlab-ckpt v1'"):
        load_checkpoint(_edited(tmp_path / "m.ckpt", tmp_path / "v1.ckpt", v1))


def test_v2_manifest_rejected_naming_its_format(tmp_path):
    """v2 stored the encoder's ``ln_eps`` and the adapter's ``inv_steps``,
    which are constants since v3: a v2 file fails on its format."""
    v2 = {"format": "adapterlab-ckpt v2", "kind": "l_adapter", "dtype": "<f8",
          "config": {**CFG.to_dict(), "ln_eps": 1e-5},
          "placement": {"l_layers": [1], "t_layers": [], "invertible": False},
          "adapter_config": {"l_bottleneck": 2, "t_bottleneck": 1,
                             "inv_coupling_dim": 2, "inv_steps": 2},
          "params": {"w": [2]}, "language": "alpha", "task": None}
    p = tmp_path / "v2.ckpt"
    _hand_made(p, json.dumps(v2), {"w": np.zeros(2).tobytes()})
    with pytest.raises(CheckpointError,
                       match=r"v2\.ckpt: manifest key 'format'.*'adapterlab-ckpt v2'"):
        load_checkpoint(p)


def test_placement_and_adapter_config_stored(tmp_path):
    """The manifest keeps the layout that readers outside the library parse."""
    enc = Encoder(CFG, seed=0)
    plan = PlacementPlan(frozenset({2, 1}), frozenset(), invertible=True)
    attach(enc, plan, AdapterConfig(l_bottleneck=2))
    p = tmp_path / "a.ckpt"
    save_model(p, enc, language="alpha")
    manifest, _ = load_checkpoint(p)
    assert manifest.placement == plan
    assert manifest.adapter_config == AdapterConfig(2, 1, 2)  # sizes resolved for h=8
    with zipfile.ZipFile(p) as zf:
        raw = json.loads(zf.read("manifest.json"))
    assert raw == {"format": FORMAT, "dtype": "<f8",
                   "config": CFG.to_dict(),
                   "placement": {"l_layers": [1, 2], "t_layers": [], "invertible": True},
                   "adapter_config": {"l_bottleneck": 2, "t_bottleneck": 1,
                                      "inv_coupling_dim": 2},
                   "params": {n: list(enc.params[n].data.shape) for n in enc.params.names()},
                   "language": "alpha"}


def test_a_bare_backbone_records_the_empty_plan(tmp_path):
    """Every encoder carries a stack: a bare backbone's places nothing, and
    its manifest records that plan and the default sizes, never null."""
    p = tmp_path / "b.ckpt"
    save_model(p, Encoder(CFG, seed=0))
    with zipfile.ZipFile(p) as zf:
        raw = json.loads(zf.read("manifest.json"))
    assert raw["placement"] == {"l_layers": [], "t_layers": [], "invertible": False}
    assert raw["adapter_config"] == {"l_bottleneck": 4, "t_bottleneck": 1,
                                     "inv_coupling_dim": 2}  # the defaults for h=8
    assert build_model(*load_checkpoint(p)).adapters.plan == PlacementPlan()


@pytest.mark.parametrize("blobs", [
    {"w": np.zeros(5).tobytes()},    # 40 bytes for a 2x3 float64 array
    {},                              # no blob at all
])
def test_corrupt_blob_names_file_and_parameter(tmp_path, blobs):
    p = tmp_path / "corrupt.ckpt"
    _hand_made(p, json.dumps(Manifest(params={"w": [2, 3]}).to_dict()), blobs)
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

@pytest.fixture
def saved_path(tmp_path):
    """Checkpoint of a model with L-adapters, invertible adapter and pair
    head; random values stand in for trained weights."""
    enc = Encoder(CFG, seed=1)
    attach(enc, PlacementPlan.full(4, invertible=True), seed=2)
    register_pair_head(enc.params, CFG.hidden_size)
    rng = np.random.default_rng(3)
    for name in enc.params.names():
        enc.params[name].data = rng.normal(size=enc.params[name].data.shape)
    save_model(tmp_path / "m.ckpt", enc, language="alpha")
    return tmp_path / "m.ckpt"


@pytest.fixture
def saved(saved_path):
    """(manifest, state) of ``saved_path``."""
    return load_checkpoint(saved_path)


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


@pytest.mark.parametrize("plan, dropped", [
    (PlacementPlan.full(4, invertible=True).truncated(2, 4), "l_adapter.3.down.w"),
    (PlacementPlan.full(4, invertible=False), "inv.0.down.w"),
    (PlacementPlan(), "l_adapter.1.down.w"),
])
def test_build_model_refuses_a_plan_that_drops_a_stored_adapter(saved, plan, dropped):
    """A plan only adds adapters; a part of a model runs as a placement view."""
    manifest, state = saved
    with pytest.raises(CheckpointError,
                       match=re.escape(f"checkpoint parameter {dropped} has no slot")):
        build_model(manifest, state, plan)


def test_build_model_widened_plan_adds_fresh_task_adapters(saved):
    manifest, state = saved
    plan = PlacementPlan.full(4, t_adapters=True, invertible=True)
    enc = build_model(manifest, state, plan, seed=5)
    assert (enc.params["t_adapter.4.up.w"].data == 0).all()  # near-identity init
    assert "head.pair.w" in state  # the pair head is kept under a plan that names none
    for name, value in state.items():
        assert (enc.params[name].data == value).all()


def _manifest_json(drop=(), **edits) -> str:
    """A valid one-parameter manifest with ``edits`` made and ``drop`` gone."""
    d = {**Manifest(params={"w": [2, 3]}).to_dict(), **edits}
    return json.dumps({k: v for k, v in d.items() if k not in drop})


@pytest.mark.parametrize("manifest, match", [
    ("{not json", "not valid JSON"),
    ("[1, 2]", "not an object"),
    pytest.param(_manifest_json(drop=("params",)), "'params'", id="params-missing"),
    pytest.param(_manifest_json(params={"w": [2, "3"]}), "'params'", id="params-not-integers"),
    pytest.param(_manifest_json(params={"w": [2, -3]}), "'params'", id="params-negative"),
    pytest.param(_manifest_json(colour=1), "'colour'", id="unknown-key"),
])
def test_malformed_manifest_rejected(tmp_path, manifest, match):
    """Each fails before any blob is read: the archive holds none."""
    p = tmp_path / "m.ckpt"
    _hand_made(p, manifest, {})
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(p)


@pytest.mark.parametrize("key, value, named", [
    ("config", {"hidden_size": 8}, "num_layers"),
    ("config", {**CFG.to_dict(), "num_heads": 3}, "divisible"),
    ("placement", {"l_layers": [1]}, "t_layers"),
    ("placement", {"l_layers": [1], "t_layers": [], "invertible": "yes"}, "invertible"),
    ("adapter_config", {"rank": 2}, "rank"),
    ("placement", None, "must be an object"),  # v3 wrote null for a bare backbone
    ("dtype", "<f4", "<f4"),
    ("language", ["alpha"], "string or null"),
    ("language", 5, "string or null"),
    ("adapter_config", None, "must be an object"),
    ("config", None, "must be an object"),
])
def test_build_model_names_bad_manifest_key(saved_path, tmp_path, key, value, named):
    """The manifest's configs go through the same ``from_dict`` checks as a
    run config, when the file loads; a failure is a CheckpointError naming
    the file and the manifest key."""
    edited = _edited(saved_path, tmp_path / "edited.ckpt", lambda m: m.update({key: value}))
    with pytest.raises(CheckpointError, match=f"edited\\.ckpt: manifest key '{key}'.*{named}"):
        build_model(*load_checkpoint(edited))


def test_build_model_rejects_blob_of_wrong_shape(saved):
    manifest, state = saved
    state["l_adapter.1.down.w"] = np.zeros((8, 3))
    with pytest.raises(CheckpointError, match=r"l_adapter\.1\.down\.w has shape \[8, 3\]"):
        build_model(manifest, state)


# -- the round trip as a property -------------------------------------------

@st.composite
def models(draw):
    """A tiny encoder with random weights and a random placement, the empty
    plan included; sometimes a pair head and a training language."""
    heads, per_head = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    cfg = EncoderConfig(num_layers=draw(st.integers(1, 3)), hidden_size=2 * heads * per_head,
                        num_heads=heads, ffn_size=3, vocab_size=5, max_positions=4)
    layers = st.frozensets(st.integers(1, cfg.num_layers))
    sizes = st.none() | st.integers(1, 3)
    enc = Encoder(cfg, seed=0)
    attach(enc, draw(st.builds(PlacementPlan, layers, layers, st.booleans())),
           draw(st.builds(AdapterConfig, sizes, sizes, sizes)), seed=1)
    if draw(st.booleans()):
        register_pair_head(enc.params, cfg.hidden_size)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    for _, t in enc.params.items():
        t.data = rng.normal(size=t.shape)
    return enc, draw(st.none() | st.sampled_from(["alpha", "beta"]))


def _members(archive: io.BytesIO) -> dict[str, bytes]:
    with zipfile.ZipFile(archive) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(models(), st.data())
def test_a_saved_model_round_trips_bit_exactly(model, data):
    """``save_model`` -> ``load_checkpoint`` -> ``build_model`` restores every
    parameter bit for bit with the same placement and sizes; saving the
    rebuilt model writes the same members; and a blob whose stored bytes are
    flipped, or that is cut short, is a ``CheckpointError`` naming it."""
    enc, language = model
    first = io.BytesIO()
    save_model(first, enc, language=language)
    manifest, state = load_checkpoint(first)
    assert (manifest.placement, manifest.language) == (enc.adapters.plan, language)
    rebuilt = build_model(manifest, state)
    assert rebuilt.adapters.plan == enc.adapters.plan
    assert rebuilt.adapters.config == enc.adapters.config
    assert list(rebuilt.params.names()) == list(enc.params.names())
    for name, t in enc.params.items():
        assert rebuilt.params[name].data.tobytes() == t.data.tobytes(), name
    second = io.BytesIO()
    save_model(second, rebuilt, language=language)
    assert _members(second) == _members(first)

    name = data.draw(st.sampled_from(sorted(enc.params.names())))
    member = f"params/{name}.bin"
    flipped = bytearray(first.getvalue())
    with zipfile.ZipFile(first) as zf:
        at = zf.getinfo(member).header_offset
    # the first byte of the member's stored data: its local header is 30
    # bytes, then the file name and the extra field, whose lengths it gives
    name_len, extra_len = struct.unpack("<HH", flipped[at + 26:at + 30])
    flipped[at + 30 + name_len + extra_len] ^= 0xFF
    with pytest.raises(CheckpointError, match=rf"blob of parameter {re.escape(name)} is corrupt"):
        load_checkpoint(io.BytesIO(bytes(flipped)))

    cut = data.draw(st.integers(0, enc.params[name].data.size * 8 - 1))
    short = io.BytesIO()
    with zipfile.ZipFile(short, "w") as zf:
        for member_name, blob in _members(first).items():
            zf.writestr(member_name, blob[:cut] if member_name == member else blob)
    with pytest.raises(CheckpointError, match=rf"blob of parameter {re.escape(name)} holds {cut} "):
        load_checkpoint(short)
