"""scripts/hom_gate.py compare on small hand-written dumps."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "hom_gate.py"
spec = importlib.util.spec_from_file_location("hom_gate", SCRIPT)
hom_gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(hom_gate)

DUMP = {"4 1 2,2 0": 1, "4 1 2,2 2": 0, "4 1 0 2,2": 0, "5 -1 3,1,1 1": 1}


def compare(tmp_path, monkeypatch, old: dict, new: dict) -> int:
    (tmp_path / "old.json").write_text(json.dumps(old))
    (tmp_path / "new.json").write_text(json.dumps(new))
    monkeypatch.setattr(sys, "argv", ["hom_gate.py", "compare",
                                      str(tmp_path / "old.json"),
                                      str(tmp_path / "new.json")])
    return hom_gate.main()


def test_compare_accepts_equal_dumps(tmp_path, monkeypatch, capsys):
    assert compare(tmp_path, monkeypatch, DUMP, dict(DUMP)) == 0
    assert capsys.readouterr().out.strip() == "4 pairs agree, 2 nonzero"


def test_compare_rejects_a_changed_value(tmp_path, monkeypatch, capsys):
    assert compare(tmp_path, monkeypatch, DUMP, {**DUMP, "4 1 2,2 2": 1}) == 1
    assert "MISMATCH 4 1 2,2 2: 0 -> 1" in capsys.readouterr().out


@pytest.mark.parametrize("side", ["old", "new"])
def test_compare_rejects_a_key_in_one_dump(tmp_path, monkeypatch, capsys, side):
    extra = {**DUMP, "6 0 2 2": 1}
    old, new = (extra, DUMP) if side == "old" else (DUMP, extra)
    assert compare(tmp_path, monkeypatch, old, new) == 1
    out = capsys.readouterr().out
    assert "MISMATCH 6 0 2 2" in out and "1 of 5 pairs differ" in out
