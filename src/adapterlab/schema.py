"""The base of the config dataclasses: ``to_dict`` and its checked inverse;
and the one JSON type table for everything read from outside.

``from_dict`` takes exactly the keys ``to_dict`` writes. Every field is
checked on construction, however the config is built: its type by
``JsonConfig.__post_init__`` (a field whose type is a config class nests
that class's own ``to_dict`` and ``from_dict``), then its range by each
class's own ``__post_init__`` (via ``check``). Both raise ``ValueError``
naming the key, for run configs, checkpoint manifests and dataset records
alike.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import re
import sys


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:  # finite, and an int only if a float can hold it
    return (_is_int(v) and abs(v) <= sys.float_info.max
            or isinstance(v, float) and math.isfinite(v))


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(map(_is_int, v))


def _is_int_set(v) -> bool:  # a JSON list, or the frozenset it is read into
    return isinstance(v, (list, frozenset)) and all(map(_is_int, v))


# field annotation -> (what the JSON value must be, test, conversion)
_TYPES = {
    "bool": ("true or false", lambda v: isinstance(v, bool), None),
    "int": ("an integer", _is_int, None),
    "float": ("a finite number", _is_number, float),
    "str": ("a string", lambda v: isinstance(v, str), None),
    "int | None": ("an integer or null", lambda v: v is None or _is_int(v), None),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str), None),
    "list[int]": ("a list of integers", _is_int_list, None),
    "frozenset[int]": ("a list of integers", _is_int_set, frozenset),
    "dict | None": ("an object or null", lambda v: v is None or isinstance(v, dict), None),
    "dict[str, list[int]]": ("an object of integer lists", lambda v: isinstance(v, dict)
                             and all(map(_is_int_list, v.values())), None),
}


def checked(name: str, annotation: str, value):
    """``value`` as a field ``name`` of type ``annotation`` holds it (a
    config class's instance as it is, its dict through its ``from_dict``);
    ``ValueError`` naming ``name`` if it is wrong."""
    if annotation in _TYPES:
        rule, test, convert = _TYPES[annotation]
        if not test(value):
            raise ValueError(f"key {name!r} must be {rule}, got {value!r}")
        return convert(value) if convert else value
    nested = next(c for c in JsonConfig.__subclasses__() if c.__name__ == annotation)
    if isinstance(value, nested):
        return value
    try:
        return nested.from_dict(value)
    except ValueError as e:
        raise ValueError(f"key {name!r}: {e}") from e


class JsonConfig:
    def __post_init__(self):
        """Every field checked and converted by ``checked``; each subclass's
        own ``__post_init__`` calls this first, then checks ranges."""
        for f in dataclasses.fields(self):
            # object.__setattr__ sets the fields of frozen classes too
            object.__setattr__(self, f.name, checked(f.name, f.type, getattr(self, f.name)))

    def to_dict(self) -> dict:
        return {f.name: v.to_dict() if isinstance(v, JsonConfig) else copy.deepcopy(v)
                for f in dataclasses.fields(self) for v in [getattr(self, f.name)]}

    @classmethod
    def from_dict(cls, d: dict):
        """The inverse of ``to_dict``; ``ValueError`` names a bad key."""
        fields = dataclasses.fields(cls)
        if not isinstance(d, dict):
            raise ValueError(f"must be an object with keys {[f.name for f in fields]}")
        unknown = [k for k in d if k not in {f.name for f in fields}]
        missing = [f.name for f in fields if f.name not in d]
        if unknown or missing:
            what = "unknown" if unknown else "missing"
            raise ValueError(f"{what} key(s) {', '.join(map(repr, unknown or missing))}")
        return cls(**d)


def read_text(path, error: type[Exception]) -> str:
    """The text of the UTF-8 file ``path``; if it is not UTF-8, ``error``
    names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from e


def check(obj, rule: str, test, *names: str) -> None:
    """``ValueError`` naming the first field of ``names`` whose value fails
    ``test``; ``rule`` says what the value must be."""
    for name in names:
        if not test(getattr(obj, name)):
            raise ValueError(f"key {name!r} must be {rule}, got {getattr(obj, name)!r}")


@dataclasses.dataclass(frozen=True)
class RunConfig(JsonConfig):
    """The top level of a run config. A null path, size or language is the
    subcommand's default (or a key it requires); each section stays a JSON
    object, laid over its subcommand's base and checked by its own class
    when the subcommand reads it. A null ``layers`` is the full range."""
    vocab: str | None = None
    corpus: str | None = None
    data: str | None = None
    backbone: str | None = None
    model: str | None = None
    vocab_size: int = 2048
    n_pairs: int | None = None
    max_len: int | None = None
    task: str = "retrieval"
    layers: str | None = None
    eval_language: str | None = None
    synthetic: dict | None = None
    encoder: dict | None = None
    train: dict | None = None
    adapter: dict | None = None
    placement: dict | None = None

    def __post_init__(self):
        super().__post_init__()
        check(self, ">= 1", lambda v: v >= 1, "vocab_size")
        check(self, "null or >= 1", lambda v: v is None or v >= 1, "n_pairs", "max_len")
        check(self, "'retrieval' or 'pair_classification'",
              lambda v: v in ("retrieval", "pair_classification"), "task")
        check(self, "null or a range LO..HI",
              lambda v: v is None or re.fullmatch(r"[0-9]+\.\.[0-9]+", v), "layers")
