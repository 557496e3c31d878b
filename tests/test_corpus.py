"""Dataset ingestion: JSON-lines validation."""

import json
import re

import pytest

from adapterlab.corpus import (ClozeRecord, CorpusError, CorpusRecord, RetrievalRecord,
                               load_jsonl)


def _write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) if isinstance(r, dict) else r
                              for r in rows) + "\n")


def test_load_unlabeled_ok(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_jsonl(p, [{"id": f"r{i}", "language": "alpha", "code": "x = 1 ;"}
                     for i in range(5)])
    records = load_jsonl(p, CorpusRecord)
    assert len(records) == 5
    assert records[0].nl is None


ROWS = [{"id": f"r{i}", "language": "a", "code": "x"} for i in range(199)]


@pytest.mark.parametrize("line, named", [
    ("{not json", "invalid JSON"),
    ('{"id": "r", "language": "a"}', "missing key(s) 'code'"),
], ids=["invalid-json", "missing-key"])
def test_bad_line_raises_naming_file_line_and_key(tmp_path, line, named):
    """No tolerance: the first bad line of a file fails the load, naming
    the file, the line and (where there is one) the key."""
    p = tmp_path / "d.jsonl"
    _write_jsonl(p, ROWS + [line])
    with pytest.raises(CorpusError, match=re.escape(f"{p}: line 200: {named}")):
        load_jsonl(p, CorpusRecord)


def test_valid_json_that_is_no_object_is_a_malformed_line(tmp_path):
    p = tmp_path / "d.jsonl"
    for line in ("5", '["a list"]'):
        _write_jsonl(p, ROWS + [line])
        with pytest.raises(CorpusError, match=re.escape(f"{p}: line 200: not a JSON object")):
            load_jsonl(p, CorpusRecord)


def test_load_empty_file_raises(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text("")
    with pytest.raises(CorpusError):
        load_jsonl(p, CorpusRecord)


def test_non_utf8_file_raises_naming_it(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_bytes('{"id": "r0", "language": "a", "code": "x"}\n'.encode("utf-16"))
    with pytest.raises(CorpusError, match=re.escape(f"{p}: not UTF-8 text")):
        load_jsonl(p, CorpusRecord)


def test_save_load_round_trip(tmp_path):
    rows = [{"id": f"r{i}", "language": "alpha", "code": f"x = {i} ;",
             **({"nl": "doc"} if i % 2 else {})} for i in range(4)]
    p = tmp_path / "d.jsonl"
    _write_jsonl(p, rows)
    back = load_jsonl(p, CorpusRecord)
    assert [r.id for r in back] == [r["id"] for r in rows]
    assert back[1].nl == "doc" and back[0].nl is None


TYPES = {"unlabeled": CorpusRecord, "cloze": ClozeRecord, "retrieval": RetrievalRecord}
GOOD = {
    "unlabeled": {"id": "r", "language": "alpha", "code": "x = 1 ;"},
    "cloze": {"id": "c", "tokens": [0, 4, 1], "mask_index": 1, "candidates": [7, 8],
              "answer": 7, "language": "alpha", "has_nl": False},
    "retrieval": {"id": "r", "label": "class00", "code": "x = 1 ;", "language": "alpha"},
}


@pytest.mark.parametrize("kind, field, value", [
    ("unlabeled", "code", 5),
    ("unlabeled", "nl", ["doc"]),
    ("cloze", "mask_index", "2"),
    ("cloze", "tokens", [0, "4", 1]),
    ("cloze", "has_nl", 1),
    ("retrieval", "label", 3),
])
def test_wrong_typed_field_is_a_malformed_line_naming_it(tmp_path, kind, field, value):
    """Each present field is checked against its record annotation through
    the schema's type table: one wrong-typed line in 200 fails the load."""
    p = tmp_path / "d.jsonl"
    _write_jsonl(p, [GOOD[kind]] * 199 + [{**GOOD[kind], field: value}])
    with pytest.raises(CorpusError, match=re.escape(f"{p}: line 200: key '{field}'")):
        load_jsonl(p, TYPES[kind])


def test_unknown_keys_are_dropped_and_defaulted_fields_may_be_absent(tmp_path):
    """Real datasets carry extra fields; a field with a default may be left out."""
    p = tmp_path / "d.jsonl"
    cloze = {k: v for k, v in GOOD["cloze"].items() if k != "has_nl"}
    _write_jsonl(p, [{**cloze, "split": "test", "url": None}])
    [record] = load_jsonl(p, ClozeRecord)
    assert record == ClozeRecord(**GOOD["cloze"]) and not hasattr(record, "split")
    _write_jsonl(p, [{**GOOD["unlabeled"], "docstring": 5}])
    assert load_jsonl(p, CorpusRecord) == [CorpusRecord(**GOOD["unlabeled"], nl=None)]


def test_optional_field_may_be_null(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_jsonl(p, [{**GOOD["unlabeled"], "nl": None, "split": None}])
    assert load_jsonl(p, CorpusRecord)[0].nl is None
