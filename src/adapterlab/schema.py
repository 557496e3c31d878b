"""The base of the config dataclasses: ``to_dict`` and its checked inverse.

``from_dict`` takes exactly the keys ``to_dict`` writes, each of its field's
JSON type; value ranges are each class's ``__post_init__`` (via ``check``),
so a config built in Python meets the same rule. Both raise ``ValueError``
naming the key, for run configs and checkpoint manifests alike.
"""

from __future__ import annotations

import dataclasses
import math
import sys


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:  # finite, and an int only if a float can hold it
    return (_is_int(v) and abs(v) <= sys.float_info.max
            or isinstance(v, float) and math.isfinite(v))


# field annotation -> (what the JSON value must be, test, conversion)
_TYPES = {
    "bool": ("true or false", lambda v: isinstance(v, bool), None),
    "int": ("an integer", _is_int, None),
    "float": ("a finite number", _is_number, float),
    "str": ("a string", lambda v: isinstance(v, str), None),
    "int | None": ("an integer or null", lambda v: v is None or _is_int(v), None),
    "frozenset[int]": ("a list of integers",
                       lambda v: isinstance(v, list) and all(map(_is_int, v)), frozenset),
}


class JsonConfig:
    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

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
        kwargs = {}
        for f in fields:
            rule, test, convert = _TYPES[f.type]
            if not test(d[f.name]):
                raise ValueError(f"key {f.name!r} must be {rule}, got {d[f.name]!r}")
            kwargs[f.name] = convert(d[f.name]) if convert else d[f.name]
        return cls(**kwargs)


def check(obj, rule: str, test, *names: str) -> None:
    """``ValueError`` naming the first field of ``names`` whose value fails
    ``test``; ``rule`` says what the value must be."""
    for name in names:
        if not test(getattr(obj, name)):
            raise ValueError(f"key {name!r} must be {rule}, got {getattr(obj, name)!r}")
