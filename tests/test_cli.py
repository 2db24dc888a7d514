import json
import os
import subprocess
import sys

import pytest

import brauerblocks
from brauerblocks import cli


def run_ok(capsys, argv, expect_code=0):
    code = cli.run(argv)
    out = capsys.readouterr().out
    assert code == expect_code, (argv, code, out)
    return out


def run_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2


def test_blocks_text(capsys):
    out = run_ok(capsys, ["blocks", "--n", "4", "--delta", "1"])
    assert "minimal 0: 0 2,2" in out.splitlines()


def test_blocks_json(capsys):
    out = run_ok(capsys, ["blocks", "--n", "4", "--delta", "1",
                          "--format", "json"])
    doc = json.loads(out)
    assert doc["n"] == 4 and doc["delta"] == 1
    assert {"minimal": [], "members": [[], [2, 2]]} in doc["blocks"]


def test_same_block(capsys):
    out = run_ok(capsys, ["same-block", "--delta", "2", "1,1", "0"],
                 expect_code=1)
    assert out.strip() == "different"
    out = run_ok(capsys, ["same-block", "--delta", "1", "2,2", "0"])
    assert out.strip() == "same"
    out = run_ok(capsys, ["same-block", "--delta", "1", "--format", "json",
                          "2,2", "0"])
    doc = json.loads(out)
    assert doc == {"delta": 1, "first": "2,2", "second": "0",
                   "same_block": True}


def test_same_block_weight_check(capsys):
    run_ok(capsys, ["same-block", "--n", "4", "--delta", "1", "2,2", "0"])
    code = cli.run(["same-block", "--n", "3", "--delta", "1", "2,2", "0"])
    assert code == 2
    capsys.readouterr()


def test_same_block_refuses_a_non_weight_without_n(capsys):
    # without --n, same-block refuses what minimal refuses: the empty
    # partition is a weight of no B_n(0), in either place
    for argv in (["2", "0"], ["0", "2"]):
        for fmt in ("text", "json"):
            code = cli.run(["same-block", "--delta", "0", "--format", fmt] + argv)
            out, err = capsys.readouterr()
            assert code == 2 and out == "", (argv, fmt, out)
            assert err.strip() == "error: 0 is not a weight of B_0(0)", (argv, fmt)
    assert run_ok(capsys, ["same-block", "--delta", "0", "2", "1,1"],
                  expect_code=1).strip() == "different"


def test_minimal(capsys):
    out = run_ok(capsys, ["minimal", "--delta", "1", "0"])
    assert out.strip() == "0 (minimal)"
    out = run_ok(capsys, ["minimal", "--delta", "1", "2,2"], expect_code=1)
    assert out.strip() == "2,2 (non-minimal)"
    out = run_ok(capsys, ["minimal", "--delta", "1", "--format", "json",
                          "2,2"], expect_code=1)
    assert json.loads(out)["minimal"] is False


def test_hom_target(capsys):
    out = run_ok(capsys, ["hom-target", "--delta", "1", "2,2"])
    assert out.strip() == "0"
    out = run_ok(capsys, ["hom-target", "--delta", "1", "0"])
    assert out.strip() == "0 (minimal)"
    out = run_ok(capsys, ["hom-target", "--delta", "1", "7,6,6,5,4,4,2"])
    assert out.strip() == "7,6,4,4,3,2,2"
    out = run_ok(capsys, ["hom-target", "--delta", "1", "--format", "json",
                          "0"])
    assert json.loads(out) == {"delta": 1, "partition": "0", "minimal": True,
                               "target": None}


STAIR = ["6,5,4,3,2,1", "5,4,3,2,1"]


def test_lattice_text(capsys):
    out = run_ok(capsys, ["lattice", "--delta", "1"] + STAIR)
    lines = out.splitlines()
    assert lines[0] == "m = 3"
    assert sum(1 for l in lines if l.startswith("node ")) == 8
    assert lines[-1] == "covers: 12"


def test_lattice_json(capsys):
    out = run_ok(capsys, ["lattice", "--delta", "1", "--format", "json"]
                 + STAIR)
    doc = json.loads(out)
    assert doc["m"] == 3
    assert len(doc["nodes"]) == 8 and len(doc["covers"]) == 12
    assert doc["nodes"]["1,2,3"] == "5,4,3,2,1"


def test_lattice_dot(capsys):
    out = run_ok(capsys, ["lattice", "--delta", "1", "--format", "dot"]
                 + STAIR)
    lines = out.splitlines()
    assert lines[0] == "digraph lattice {"
    assert sum(1 for l in lines if "[label=" in l) == 8
    assert sum(1 for l in lines if "->" in l) == 12
    assert lines[-1] == "}"


def test_hat(capsys):
    out = run_ok(capsys, ["hat", "--delta", "1", "7,7,6,5,4,2,1,1"])
    lines = out.splitlines()
    assert lines[:4] == ["strip cols 1", "strip rows 1,2", "strip cols 2",
                         "strip rows 3"]
    assert lines[4].startswith("core: (4,3)[-1]")
    out = run_ok(capsys, ["hat", "--delta", "1", "0"])
    assert out.strip() == "core: (empty)"


def test_hat_json(capsys):
    out = run_ok(capsys, ["hat", "--delta", "1", "--format", "json",
                          "7,7,6,5,4,2,1,1"])
    doc = json.loads(out)
    assert doc["steps"][0] == {"strip": "cols", "indices": [1]}
    assert [4, 3] in doc["core"]


def test_verify(capsys):
    out = run_ok(capsys, ["verify", "--n", "4", "--delta", "1",
                          "--seed", "7"])
    lines = out.splitlines()
    assert all(l.startswith("PASS") for l in lines[:-1])
    total = len(lines) - 1
    assert lines[-1] == f"{total} of {total} checks passed"


def test_verify_json(capsys):
    out = run_ok(capsys, ["verify", "--n", "2", "--delta", "2",
                          "--format", "json"])
    doc = json.loads(out)
    assert doc["n"] == 2 and doc["delta"] == 2
    assert all(c["status"] == "pass" for c in doc["checks"])
    names = {c["name"] for c in doc["checks"]}
    assert "sampled-associativity" in names
    assert "sampled-flip-antihom" in names


def test_sampled_checks_see_loop_counts(monkeypatch):
    # a product that closes one loop too many whenever its left factor
    # has the northern cup {1, 2} fails the sampled checks at every delta;
    # algebra elements would miss it at delta = 0 or 1, where both sides
    # scale alike
    real = cli.concat
    cup = frozenset({1, 2})

    def miscount(a, b):
        d, loops = real(a, b)
        return d, loops + (loops > 0 and cup in a.pairs)

    def failures():
        return sum(c["status"] == "fail" for seed in range(10)
                   for c in cli._sampled_checks(4, seed))

    assert failures() == 0
    monkeypatch.setattr(cli, "concat", miscount)
    assert failures() == 6


def test_render_grid(capsys):
    out = run_ok(capsys, ["render", "0"])
    assert out.strip() == "(empty)"
    out = run_ok(capsys, ["render", "2,1"])
    assert out.splitlines() == ["[ 0][ 1]", "[-1]"]


def test_render_skew(capsys):
    out = run_ok(capsys, ["render", "2,2", "1"])
    assert out.splitlines() == ["[ .][ 1]", "[-1][ 0]"]


def test_render_lattice_dot(capsys):
    # render draws grids only; the DOT lattice is lattice --format dot
    # (test_lattice_dot), and render takes neither --format nor --delta
    run_usage_error(capsys, ["render", "--format", "dot", "--delta", "1"]
                    + STAIR)
    run_usage_error(capsys, ["render", "--delta", "1", "4,2", "2,1"])


def test_hom_dim(capsys):
    out = run_ok(capsys, ["hom-dim", "--n", "4", "--delta", "1", "2,2", "0"])
    assert out.strip() == "1"
    out = run_ok(capsys, ["hom-dim", "--n", "4", "--delta", "2", "2,2", "0"])
    assert out.strip() == "0"
    out = run_ok(capsys, ["hom-dim", "--n", "4", "--delta", "1",
                          "--format", "json", "2,2", "0"])
    assert json.loads(out)["dim"] == 1


def test_usage_errors(capsys):
    run_usage_error(capsys, ["minimal", "--delta", "1", "2,x"])
    run_usage_error(capsys, ["minimal", "2,1"])  # missing --delta
    run_usage_error(capsys, ["render", "--delta", "1", "1", "1", "1"])
    run_usage_error(capsys, ["render", "--format", "dot", "--delta", "1", "4,2"])
    assert "usage: brauer render [-h] partitions" in capsys.readouterr().err
    run_usage_error(capsys, ["no-such-verb"])


def test_empty_tokens_are_usage_errors(capsys):
    # "0" is the empty partition; an empty literal or an empty token
    # between commas is a bad literal, not another way to write it
    run_usage_error(capsys, ["minimal", "--delta", "1", ""])
    assert "bad partition literal ''" in capsys.readouterr().err
    run_usage_error(capsys, ["hom-dim", "--n", "2", "--delta", "1", "", "0"])
    run_usage_error(capsys, ["minimal", "--delta", "1", "3,,1"])
    assert "bad partition literal '3,,1'" in capsys.readouterr().err
    run_usage_error(capsys, ["render", ","])
    assert "bad partition literal ','" in capsys.readouterr().err


def test_render_checks_containment_in_the_empty_partition(capsys):
    assert cli.run(["render", "0", "1"]) == 2
    assert capsys.readouterr().err.strip() == "error: 1 is not contained in 0"
    assert run_ok(capsys, ["render", "0", "0"]).strip() == "(empty)"


def test_render_names_an_unknown_option(capsys):
    # the unknown option is named, not read as a bad partition literal
    run_usage_error(capsys, ["render", "--format", "dot", "--delta", "1", "4,2"])
    err = capsys.readouterr().err
    assert "unrecognized arguments: --format" in err
    assert "partition literal" not in err
    run_usage_error(capsys, ["render", "2,x"])
    assert "bad partition literal '2,x'" in capsys.readouterr().err
    assert run_ok(capsys, ["render", "4,2", "2,1"]) == "[.][.][2][3]\n[.][0]\n"


def test_value_errors_exit_two(capsys):
    assert cli.run(["hom-dim", "--n", "3", "--delta", "1", "2", "0"]) == 2
    assert cli.run(["render", "1", "2"]) == 2  # skew needs containment
    assert cli.run(["lattice", "--delta", "1", "2,2", "0"]) == 2
    capsys.readouterr()
    run_usage_error(capsys, ["render", "--format", "dot"] + STAIR)


def test_non_weight_is_refused(capsys):
    # the empty partition is a weight of no B_n(0), so neither verb may
    # call it minimal; in text and in JSON both exit 2 naming it
    for verb in ("minimal", "hom-target"):
        for fmt in ("text", "json"):
            code = cli.run([verb, "--delta", "0", "--format", fmt, "0"])
            out, err = capsys.readouterr()
            assert code == 2 and out == "", (verb, fmt, out)
            assert err.strip() == "error: 0 is not a weight of B_0(0)", (verb, fmt)
    # at delta = 0, (2) is the least weight of that orbit
    assert run_ok(capsys, ["minimal", "--delta", "0", "2"]).strip() == "2 (minimal)"
    assert run_ok(capsys, ["hom-target", "--delta", "0", "2"]).strip() == "2 (minimal)"


def test_assertion_exits_three(capsys, monkeypatch):
    def boom(*_args, **_kw):
        raise AssertionError("forced")

    monkeypatch.setattr(cli, "is_minimal", boom)
    assert cli.run(["minimal", "--delta", "1", "2"]) == 3
    capsys.readouterr()


def test_bad_max_dim_exits_two(capsys, monkeypatch):
    argv = ["hom-dim", "--n", "4", "--delta", "1", "2,2", "0"]
    for raw in ("abc", "0", "-3", "1.5"):
        monkeypatch.setenv("BRAUER_MAX_DIM", raw)
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert "BRAUER_MAX_DIM must be a positive integer" in err, err
        assert repr(raw) in err
    monkeypatch.setenv("BRAUER_MAX_DIM", "400")
    assert cli.run(argv) == 0
    capsys.readouterr()


def test_module_entry_point():
    # python -m brauerblocks.cli runs the CLI from an uninstalled checkout
    src = os.path.dirname(os.path.dirname(brauerblocks.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("BRAUER_MAX_DIM", None)

    def call(*argv):
        return subprocess.run([sys.executable, "-m", "brauerblocks.cli",
                               *argv], env=env, capture_output=True,
                              text=True, timeout=60)

    ok = call("hom-dim", "--n", "8", "--delta", "1", "3,2,1", "2,2")
    assert (ok.returncode, ok.stdout.strip()) == (0, "1"), ok.stderr
    bad = call("hom-dim", "--n", "3", "--delta", "1", "2", "1")
    assert bad.returncode == 2 and "error:" in bad.stderr
