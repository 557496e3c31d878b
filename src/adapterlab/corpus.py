"""Dataset ingestion: record types and validated JSON-lines loading.

All datasets travel as JSON-lines. Record kinds:
  unlabeled:  {id, language, code, nl?}
  cloze:      {id, tokens, mask_index, candidates, answer, language, has_nl}
  retrieval:  {id, label, code, language}
  pair:       {id_a, id_b, code_a, code_b, label}
"""

from __future__ import annotations

import dataclasses
import json

from .schema import checked, read_text


class CorpusError(ValueError):
    pass


@dataclasses.dataclass
class CorpusRecord:
    id: str
    language: str
    code: str
    nl: str | None = None


@dataclasses.dataclass
class ClozeRecord:
    id: str
    tokens: list[int]
    mask_index: int
    candidates: list[int]
    answer: int
    language: str
    has_nl: bool = False


@dataclasses.dataclass
class RetrievalRecord:
    id: str
    label: str
    code: str
    language: str


@dataclasses.dataclass
class PairRecord:
    id_a: str
    id_b: str
    code_a: str
    code_b: str
    label: int


_RECORD_TYPES = {
    "unlabeled": CorpusRecord,
    "cloze": ClozeRecord,
    "retrieval": RetrievalRecord,
    "pair": PairRecord,
}


MAX_BAD_FRACTION = 0.01  # of a file's lines that may be malformed


def load_jsonl(path, kind: str):
    """Load and validate one JSON object per line: every field of the
    kind's record type without a default is required, each field present
    must be of its annotated JSON type, unknown keys are dropped.

    Malformed lines are collected with their line numbers; more than
    ``MAX_BAD_FRACTION`` of them is a hard failure.
    Returns (records, error_report) where error_report is a list of
    (line_number, message).
    """
    if kind not in _RECORD_TYPES:
        raise CorpusError(f"unknown record kind {kind!r}")
    cls = _RECORD_TYPES[kind]
    fields = dataclasses.fields(cls)
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    records, errors = [], []
    n_lines = 0
    for lineno, line in enumerate(read_text(path, CorpusError).split("\n"), start=1):
        if not line.strip():
            continue
        n_lines += 1
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append((lineno, f"invalid JSON: {e.msg}"))
            continue
        if not isinstance(obj, dict):
            errors.append((lineno, "not a JSON object"))
            continue
        missing = [f for f in required if f not in obj]
        if missing:
            errors.append((lineno, f"missing fields: {', '.join(missing)}"))
            continue
        try:
            records.append(cls(**{f.name: checked(f.name, f.type, obj[f.name])
                                  for f in fields if f.name in obj}))
        except ValueError as e:
            errors.append((lineno, str(e)))
    if n_lines == 0:
        raise CorpusError(f"{path}: empty file")
    if len(errors) / n_lines > MAX_BAD_FRACTION:
        detail = "; ".join(f"line {n}: {m}" for n, m in errors[:5])
        raise CorpusError(f"{path}: {len(errors)}/{n_lines} malformed lines ({detail})")
    return records, errors
