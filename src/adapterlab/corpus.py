"""Dataset ingestion: record types and validated JSON-lines loading.

All datasets travel as JSON-lines, one record per line; a file holds one
record type:
  CorpusRecord:     {id, language, code, nl?}  (unlabeled code)
  ClozeRecord:      {id, tokens, mask_index, candidates, answer, language, has_nl?}
  RetrievalRecord:  {id, label, code, language}
Clone pairs (``PairRecord``) are drawn from retrieval records, never read.
"""

from __future__ import annotations

import dataclasses
import json

from .schema import JsonConfig, read_text


class CorpusError(ValueError):
    pass


@dataclasses.dataclass
class CorpusRecord(JsonConfig):
    id: str
    language: str
    code: str
    nl: str | None = None


@dataclasses.dataclass
class ClozeRecord(JsonConfig):
    id: str
    tokens: list[int]
    mask_index: int
    candidates: list[int]
    answer: int
    language: str
    has_nl: bool = False


@dataclasses.dataclass
class RetrievalRecord(JsonConfig):
    id: str
    label: str
    code: str
    language: str


@dataclasses.dataclass
class PairRecord(JsonConfig):
    id_a: str
    id_b: str
    code_a: str
    code_b: str
    label: int


def load_jsonl(path, record_type: type[JsonConfig]) -> list:
    """The ``record_type`` records of a JSON-lines file. Each non-blank line
    is read by the record type's ``from_dict``: the keys it knows, laid over
    its defaults; unknown keys are dropped. The first line that is no JSON
    object, lacks a key without a default or holds a value of the wrong JSON
    type raises ``CorpusError`` naming the file, the line and the key."""
    fields = dataclasses.fields(record_type)
    defaults = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
    records = []
    for lineno, line in enumerate(read_text(path, CorpusError).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise CorpusError(f"{path}: line {lineno}: invalid JSON: {e.msg}") from e
        if not isinstance(obj, dict):
            raise CorpusError(f"{path}: line {lineno}: not a JSON object")
        try:
            records.append(record_type.from_dict(
                {**defaults, **{f.name: obj[f.name] for f in fields if f.name in obj}}))
        except ValueError as e:
            raise CorpusError(f"{path}: line {lineno}: {e}") from e
    if not records:
        raise CorpusError(f"{path}: empty file")
    return records
