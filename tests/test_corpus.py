"""Dataset ingestion: JSON-lines validation."""

import json

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
