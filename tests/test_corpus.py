"""Dataset ingestion: JSON-lines validation."""

import json
import re

import pytest

from adapterlab.corpus import CorpusError, load_jsonl


def _write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) if isinstance(r, dict) else r
                              for r in rows) + "\n")


def test_load_unlabeled_ok(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_jsonl(p, [{"id": f"r{i}", "language": "alpha", "code": "x = 1 ;"}
                     for i in range(5)])
    records, errors = load_jsonl(p, "unlabeled")
    assert len(records) == 5 and not errors
    assert records[0].nl is None


def test_load_reports_bad_lines_within_tolerance(tmp_path):
    p = tmp_path / "d.jsonl"
    rows = [{"id": f"r{i}", "language": "a", "code": "x"} for i in range(199)]
    _write_jsonl(p, rows + ["{not json"])
    records, errors = load_jsonl(p, "unlabeled")
    assert len(records) == 199
    assert len(errors) == 1 and errors[0][0] == 200


def test_load_fails_above_bad_fraction(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_jsonl(p, [{"id": "a", "language": "l", "code": "c"},
                     "{broken", '{"id": "missing-fields"}'])
    with pytest.raises(CorpusError):
        load_jsonl(p, "unlabeled")


def test_valid_json_that_is_no_object_is_a_malformed_line(tmp_path):
    p = tmp_path / "d.jsonl"
    rows = [{"id": f"r{i}", "language": "a", "code": "x"} for i in range(199)]
    _write_jsonl(p, rows + ["5"])
    records, errors = load_jsonl(p, "unlabeled")
    assert len(records) == 199 and errors == [(200, "not a JSON object")]
    _write_jsonl(p, rows[:1] + ["5", '["a list"]'])
    with pytest.raises(CorpusError, match="line 2: not a JSON object"):
        load_jsonl(p, "unlabeled")


def test_load_empty_file_raises(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text("")
    with pytest.raises(CorpusError):
        load_jsonl(p, "unlabeled")


def test_non_utf8_file_raises_naming_it(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_bytes('{"id": "r0", "language": "a", "code": "x"}\n'.encode("utf-16"))
    with pytest.raises(CorpusError, match=re.escape(f"{p}: not UTF-8 text")):
        load_jsonl(p, "unlabeled")


def test_load_unknown_kind_raises(tmp_path):
    with pytest.raises(CorpusError):
        load_jsonl(tmp_path / "x", "mystery")


def test_save_load_round_trip(tmp_path):
    rows = [{"id": f"r{i}", "language": "alpha", "code": f"x = {i} ;",
             **({"nl": "doc"} if i % 2 else {})} for i in range(4)]
    p = tmp_path / "d.jsonl"
    _write_jsonl(p, rows)
    back, _ = load_jsonl(p, "unlabeled")
    assert [r.id for r in back] == [r["id"] for r in rows]
    assert back[1].nl == "doc" and back[0].nl is None


GOOD = {
    "unlabeled": {"id": "r", "language": "alpha", "code": "x = 1 ;"},
    "cloze": {"id": "c", "tokens": [0, 4, 1], "mask_index": 1, "candidates": [7, 8],
              "answer": 7, "language": "alpha", "has_nl": False},
    "retrieval": {"id": "r", "label": "class00", "code": "x = 1 ;", "language": "alpha"},
    "pair": {"id_a": "a", "id_b": "b", "code_a": "x", "code_b": "y", "label": 1},
}


@pytest.mark.parametrize("kind, field, value", [
    ("unlabeled", "code", 5),
    ("unlabeled", "nl", ["doc"]),
    ("cloze", "mask_index", "2"),
    ("cloze", "tokens", [0, "4", 1]),
    ("cloze", "has_nl", 1),
    ("retrieval", "label", 3),
    ("pair", "label", True),
])
def test_wrong_typed_field_is_a_malformed_line_naming_it(tmp_path, kind, field, value):
    """Each present field is checked against its record annotation through
    the schema's type table: one wrong-typed line in 200 is dropped and
    reported, and above the 1% tolerance it fails the load."""
    p = tmp_path / "d.jsonl"
    _write_jsonl(p, [GOOD[kind]] * 199 + [{**GOOD[kind], field: value}])
    records, errors = load_jsonl(p, kind)
    assert len(records) == 199 and [n for n, _ in errors] == [200]
    assert repr(field) in errors[0][1]
    _write_jsonl(p, [GOOD[kind], {**GOOD[kind], field: value}])
    with pytest.raises(CorpusError, match=f"line 2: key '{field}'"):
        load_jsonl(p, kind)


def test_optional_field_may_be_null(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_jsonl(p, [{**GOOD["unlabeled"], "nl": None, "split": None}])
    assert load_jsonl(p, "unlabeled")[0][0].nl is None
