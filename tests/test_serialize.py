import pytest

from rpspectral.errors import IoError
from rpspectral.serialize import canonical_dumps, read_json, write_csv, write_json


def test_canonical_form_is_sorted_and_newline_terminated():
    text = canonical_dumps({"b": 1, "a": [1, 2]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def test_same_payload_same_bytes_regardless_of_key_order():
    assert canonical_dumps({"x": 1, "y": 2}) == canonical_dumps({"y": 2, "x": 1})


def test_floats_round_trip_exactly(tmp_path):
    payload = {"v": 0.1 + 0.2, "w": 1e-300, "ints": [2**62]}
    path = tmp_path / "doc.json"
    write_json(path, payload)
    assert read_json(path) == payload


def test_write_creates_parent_dirs(tmp_path):
    path = tmp_path / "deep" / "nested" / "doc.json"
    write_json(path, {"ok": True})
    assert read_json(path) == {"ok": True}


def test_read_errors_are_wrapped(tmp_path):
    with pytest.raises(IoError):
        read_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    with pytest.raises(IoError) as err:
        read_json(bad)
    assert "JSON" in str(err.value)


def test_write_csv_errors_are_wrapped(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    with pytest.raises(IoError) as err:
        write_csv(blocker / "out.csv", ("a",), [[1]])
    assert err.value.path == str(blocker / "out.csv")
