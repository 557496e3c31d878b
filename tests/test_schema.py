"""Config classes check their own input: ``from_dict`` is the exact inverse
of ``to_dict`` for every valid config, and anything else raises
``ValueError`` naming the key, never another exception."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterlab.adapters import AdapterConfig, PlacementPlan
from adapterlab.checkpoint import FORMAT, Manifest
from adapterlab.encoder import EncoderConfig
from adapterlab.schema import RunConfig
from adapterlab.synth import SyntheticSpec
from adapterlab.training import TrainConfig

sizes = st.integers(1, 512)
unit = st.floats(0.0, 1.0, exclude_max=True)
positive = st.floats(1e-12, 10.0)

encoder_configs = st.builds(
    lambda heads, per_head, **kw: EncoderConfig(num_heads=heads,
                                                hidden_size=heads * per_head, **kw),
    heads=st.integers(1, 16), per_head=st.integers(1, 64), num_layers=st.integers(1, 48),
    ffn_size=sizes, vocab_size=st.integers(1, 10 ** 6), max_positions=sizes,
    dropout=unit)
train_configs = st.builds(
    TrainConfig, learning_rate=positive, batch_size=sizes, max_steps=st.integers(0, 10 ** 6),
    patience=st.none() | sizes, eval_every=sizes, seed=st.integers(0, 2 ** 63),
    mask_rate=st.floats(0.0, 1.0), max_len=sizes, temperature=positive,
    classes_per_batch=sizes, items_per_class=sizes)
adapter_configs = st.builds(AdapterConfig, st.none() | sizes, st.none() | sizes,
                            st.none() | sizes)
layer_sets = st.frozensets(st.integers(1, 48))
plans = st.builds(PlacementPlan, layer_sets, layer_sets, st.booleans())
synthetic_specs = st.builds(SyntheticSpec, st.none() | st.integers(0, 2 ** 63),
                            st.none() | sizes, st.sampled_from(["alpha", "beta"]),
                            sizes, sizes, sizes)


def _json(floats):
    return st.recursive(
        st.none() | st.booleans() | st.integers() | floats | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4),
                                                                    inner, max_size=3),
        max_leaves=6)


json_values = _json(st.floats())
strings = st.none() | st.text(max_size=8)
sections = st.none() | st.dictionaries(st.text(max_size=4), _json(st.floats(allow_nan=False)),
                                       max_size=3)
run_configs = st.builds(
    RunConfig, vocab=strings, corpus=strings, data=strings, backbone=strings, model=strings,
    vocab_size=sizes, n_pairs=st.none() | sizes, max_len=st.none() | sizes,
    task=st.sampled_from(["retrieval", "pair_classification"]),
    layers=st.none() | st.builds("{}..{}".format, st.integers(0, 48), st.integers(0, 48)),
    eval_language=strings, synthetic=sections, encoder=sections,
    train=sections, adapter=sections, placement=sections)

manifests = st.builds(
    Manifest, format=st.just(FORMAT), dtype=st.just("<f8"), config=encoder_configs,
    placement=plans, adapter_config=adapter_configs,
    params=st.dictionaries(st.text(max_size=8), st.lists(st.integers(0, 64), max_size=3),
                           max_size=3),
    language=strings)

CONFIGS = [(EncoderConfig, encoder_configs), (TrainConfig, train_configs),
           (AdapterConfig, adapter_configs), (PlacementPlan, plans),
           (SyntheticSpec, synthetic_specs), (RunConfig, run_configs),
           (Manifest, manifests)]
IDS = [cls.__name__ for cls, _ in CONFIGS]


def _names(cls):
    return [f.name for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls, configs", CONFIGS, ids=IDS)
@settings(deadline=None)
@given(data=st.data())
def test_valid_config_survives_a_json_round_trip(cls, configs, data):
    config = data.draw(configs)
    assert cls.from_dict(json.loads(json.dumps(config.to_dict()))) == config


@pytest.mark.parametrize("cls, configs", CONFIGS, ids=IDS)
@settings(deadline=None)
@given(data=st.data())
def test_junk_raises_value_error_and_nothing_else(cls, configs, data):
    junk = data.draw(json_values | st.dictionaries(
        st.sampled_from(_names(cls)) | st.text(max_size=8), json_values))
    try:
        config = cls.from_dict(junk)
    except ValueError:
        return
    assert isinstance(config, cls) and cls.from_dict(config.to_dict()) == config


def _wrong_type(cls):
    """Values no field of ``cls`` takes."""
    if cls in (RunConfig, Manifest):  # their fields take strings, lists and objects
        return st.booleans() | st.floats()
    # no field takes an object, and the one string field a language name
    return (st.text(max_size=4).filter(lambda t: t not in ("alpha", "beta"))
            | st.dictionaries(st.text(max_size=4), json_values))


@pytest.mark.parametrize("cls, configs", CONFIGS, ids=IDS)
@settings(deadline=None)
@given(data=st.data())
def test_one_bad_key_raises_value_error_naming_it(cls, configs, data):
    d = data.draw(configs).to_dict()
    key = data.draw(st.sampled_from(_names(cls)))
    how = data.draw(st.sampled_from(["drop", "add", "retype"]))
    if how == "drop":
        del d[key]
    elif how == "add":
        key = data.draw(st.text(max_size=8).filter(lambda k: k not in d))
        d[key] = data.draw(json_values)
    else:
        d[key] = data.draw(_wrong_type(cls))
    with pytest.raises(ValueError) as info:
        cls.from_dict(d)
    assert repr(key) in str(info.value)


@pytest.mark.parametrize("cls, configs", CONFIGS, ids=IDS)
@settings(deadline=None)
@given(data=st.data())
def test_wrong_type_from_python_raises_value_error_naming_it(cls, configs, data):
    """A config built in Python meets the JSON type table too."""
    config = data.draw(configs)
    key = data.draw(st.sampled_from(_names(cls)))
    with pytest.raises(ValueError) as info:
        dataclasses.replace(config, **{key: data.draw(_wrong_type(cls))})
    assert repr(key) in str(info.value)


@pytest.mark.parametrize("cls, kwargs, key", [
    (PlacementPlan, {"l_layers": 4}, "l_layers"),
    (PlacementPlan, {"t_layers": [1, "2"]}, "t_layers"),
    (PlacementPlan, {"invertible": 1}, "invertible"),
    (EncoderConfig, {"num_layers": 2.0}, "num_layers"),
    (EncoderConfig, {"num_heads": True}, "num_heads"),
    (TrainConfig, {"max_len": "64"}, "max_len"),
    (TrainConfig, {"patience": "3"}, "patience"),
    (AdapterConfig, {"l_bottleneck": 1.5}, "l_bottleneck"),
    (Manifest, {"config": {"num_layers": 2}}, "config"),
    (Manifest, {"placement": [1]}, "placement"),
    (RunConfig, {"train": [1]}, "train"),
])
def test_wrong_type_from_python_is_named(cls, kwargs, key):
    with pytest.raises(ValueError, match=f"^key {key!r}"):
        cls(**kwargs)


def test_python_values_convert_as_json_values_do():
    """A list becomes a set, an integer a float, and a nested config's dict
    goes through its ``from_dict``; a nested config passes as it is."""
    plan = PlacementPlan(l_layers=[4, 4], t_layers=[])
    assert (plan.l_layers, plan.t_layers) == (frozenset({4}), frozenset())
    assert plan == PlacementPlan(frozenset({4}))
    rate = TrainConfig(learning_rate=1).learning_rate
    assert rate == 1.0 and type(rate) is float
    enc = EncoderConfig(num_layers=2)
    m = Manifest(config=enc, placement={"l_layers": [1], "t_layers": [], "invertible": True})
    assert m.config is enc
    assert m.placement == PlacementPlan(frozenset({1}), invertible=True)


@pytest.mark.parametrize("cls, key, value", [
    (EncoderConfig, "num_layers", 0),
    (EncoderConfig, "num_heads", 0),
    (EncoderConfig, "dropout", 1.0),
    (TrainConfig, "eval_every", 0),
    (TrainConfig, "max_steps", -1),
    (TrainConfig, "learning_rate", -1e-3),
    (TrainConfig, "batch_size", 0),
    (TrainConfig, "mask_rate", 1.5),
    (TrainConfig, "temperature", 0.0),
    (TrainConfig, "patience", 0),
    (AdapterConfig, "l_bottleneck", 0),
    (AdapterConfig, "inv_coupling_dim", 0),
    (PlacementPlan, "t_layers", frozenset({0, 2})),
    (SyntheticSpec, "seed", -1),
    (SyntheticSpec, "n", 0),
    (SyntheticSpec, "per_class", 0),
    (SyntheticSpec, "language", "gamma"),
    (RunConfig, "vocab_size", 0),
    (RunConfig, "n_pairs", 0),
    (RunConfig, "max_len", -1),
    (RunConfig, "task", "pairs"),
    (RunConfig, "layers", "1-2"),
    (RunConfig, "layers", "..2"),
    (Manifest, "format", "adapterlab-ckpt v1"),
    (Manifest, "format", "adapterlab-ckpt v3"),
    (Manifest, "dtype", "<f4"),
    (Manifest, "params", {"w": [2, -1]}),
])
def test_out_of_range_value_is_refused_from_python_and_json(cls, key, value):
    with pytest.raises(ValueError, match=key):
        cls(**{key: value})
    d = cls().to_dict()
    d[key] = sorted(value) if isinstance(value, frozenset) else value
    with pytest.raises(ValueError, match=key):
        cls.from_dict(d)


def test_from_dict_keeps_json_types_apart():
    """A bool is no integer, an integer is a number, and lists become sets."""
    with pytest.raises(ValueError, match="num_layers"):
        EncoderConfig.from_dict({**EncoderConfig().to_dict(), "num_layers": True})
    for too_big in (float("nan"), float("inf"), 10 ** 400):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig.from_dict({**TrainConfig().to_dict(), "learning_rate": too_big})
    assert TrainConfig.from_dict({**TrainConfig().to_dict(),
                                  "learning_rate": 1}).learning_rate == 1.0
    assert PlacementPlan.from_dict({"l_layers": [2, 1, 2], "t_layers": [],
                                    "invertible": True}).l_layers == frozenset({1, 2})


def test_nested_config_is_read_and_written_by_its_own_class():
    """A field typed with a config class goes through the class's
    ``to_dict`` and ``from_dict``; an error names the outer key, and null is
    no config: a bare backbone's placement is the empty plan."""
    m = Manifest(placement=PlacementPlan(frozenset({2, 1})))
    assert m.to_dict()["placement"] == {"l_layers": [1, 2], "t_layers": [], "invertible": False}
    assert m.to_dict()["config"] == EncoderConfig().to_dict()
    assert Manifest.from_dict(m.to_dict()) == m
    with pytest.raises(ValueError, match=r"^key 'placement': missing key\(s\) 't_layers', 'invertible'$"):
        Manifest.from_dict({**m.to_dict(), "placement": {"l_layers": [1]}})
    with pytest.raises(ValueError, match=r"^key 'config': must be an object"):
        Manifest.from_dict({**m.to_dict(), "config": None})  # not optional
    with pytest.raises(ValueError, match=r"^key 'placement': must be an object"):
        Manifest.from_dict({**m.to_dict(), "placement": None})
    assert Manifest().placement == PlacementPlan()


def test_run_config_defaults_leave_every_section_and_path_unset():
    run = RunConfig.from_dict({**RunConfig().to_dict(), "encoder": {"num_layers": 2}})
    assert run.encoder == {"num_layers": 2} and run.train is None and run.vocab is None
    assert (run.task, run.layers) == ("retrieval", None)
