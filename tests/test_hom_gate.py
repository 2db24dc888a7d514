"""scripts/hom_gate.py: compare on small hand-written dumps, and the dump
options and the size of its standard gate set."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from brauerblocks.blocks import weights
from brauerblocks.partitions import partitions_of

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
    assert capsys.readouterr().out.strip() == "4 entries agree, 2 nonzero"


def test_compare_rejects_a_changed_value(tmp_path, monkeypatch, capsys):
    assert compare(tmp_path, monkeypatch, DUMP, {**DUMP, "4 1 2,2 2": 1}) == 1
    assert "MISMATCH 4 1 2,2 2: 0 -> 1" in capsys.readouterr().out


def test_compare_rejects_two_empty_dumps(tmp_path, monkeypatch, capsys):
    # two dumps that hold nothing agree on nothing; a gate over them fails
    assert compare(tmp_path, monkeypatch, {}, {}) == 1
    assert "both dumps are empty" in capsys.readouterr().out


@pytest.mark.parametrize("side", ["old", "new"])
def test_compare_rejects_a_key_in_one_dump(tmp_path, monkeypatch, capsys, side):
    extra = {**DUMP, "6 0 2 2": 1}
    old, new = (extra, DUMP) if side == "old" else (DUMP, extra)
    assert compare(tmp_path, monkeypatch, old, new) == 1
    out = capsys.readouterr().out
    assert "MISMATCH 6 0 2 2" in out and "1 of 5 entries differ" in out


def test_gate_preset_pair_count():
    # the standard gate set, counted from the weights alone: every
    # ordered pair of weights at each (n, delta) of the preset, then each
    # weight's Gram rank and its restriction multiplicity at every
    # partition of n, at each (n, delta) of the rank preset
    pairs = sum(len(weights(n, delta).weights) ** 2 for n, delta in hom_gate.GATE)
    ranks = sum(len(weights(n, delta).weights) for n, delta in hom_gate.RANKS)
    restrictions = sum(len(weights(n, delta).weights)
                       * len(list(partitions_of(n)))
                       for n, delta in hom_gate.RANKS)
    assert (pairs, ranks, restrictions) == (37326, 434, 4397)
    assert pairs + ranks + restrictions == 42157
    assert len(hom_gate.GATE) == 58 and len(hom_gate.RANKS) == 48


@pytest.mark.parametrize("extra", [[], ["--gate", "--n", "3"], ["--n", "3"],
                                   ["--gate", "--deltas", "1"],
                                   ["--n", "5-3", "--deltas", "1"]])
def test_dump_takes_the_gate_or_a_range(tmp_path, monkeypatch, extra):
    # --n with --deltas, or --gate alone, and a range of at least one
    # level; anything else is a usage error
    monkeypatch.setattr(sys, "argv", ["hom_gate.py", "dump",
                                      str(tmp_path / "out.json")] + extra)
    with pytest.raises(SystemExit) as exc:
        hom_gate.main()
    assert exc.value.code == 2
    assert not (tmp_path / "out.json").exists()


def test_dump_refuses_a_selection_with_no_entry(tmp_path, monkeypatch, capsys):
    # B_0(0) has no weight, so this selection holds no entry; a dump of
    # nothing fails and leaves no file for compare to pass
    monkeypatch.setattr(sys, "argv", ["hom_gate.py", "dump",
                                      str(tmp_path / "out.json"),
                                      "--n", "0", "--deltas", "0"])
    assert hom_gate.main() == 1
    assert "no entry" in capsys.readouterr().out
    assert not (tmp_path / "out.json").exists()
