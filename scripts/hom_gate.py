#!/usr/bin/env python3
"""Dump hom_dim on every ordered weight pair, or compare two dumps.

    python3 scripts/hom_gate.py dump OUT.json --n 1-8 --deltas -2 -1 0 1 2 3
    python3 scripts/hom_gate.py dump OLD.json --src ../old/src --n 9-10 --deltas 0 1
    BRAUER_MAX_DIM=10080 python3 scripts/hom_gate.py dump OUT.json --gate
    python3 scripts/hom_gate.py compare OLD.json NEW.json

`dump` imports brauerblocks from --src (default: the src/ beside this
script), so dumping from two checkouts and comparing the files checks
that a change to the oracle left every answer as it was.  A Hom entry is
keyed "n delta source target".  --gate dumps the standard gate set in
one file: the Hom pairs at n = 0-8 at delta -2..3 and n = 9, 10 at
delta 0, 1, which is 37 326 pairs, and at n = 0-7, delta -2..3 every
weight's gram_rank, keyed "gram n delta mu", and every
restriction_multiplicity, keyed "restriction n delta mu lam": 4831
values more, 42 157 entries in all.  Large modules need BRAUER_MAX_DIM
set as for any other query; the gate set needs 10080.  `compare` prints
each entry whose value differs or that only one dump holds, and exits 1
if there is any, or if neither dump holds an entry; otherwise it prints
the entry and nonzero counts and exits 0.
"""

import argparse
import json
import sys
import time
from pathlib import Path

SHOWN = 20  # mismatches printed by compare
GATE = ([(n, delta) for n in range(9) for delta in range(-2, 4)]
        + [(n, delta) for n in (9, 10) for delta in (0, 1)])
RANKS = [(n, delta) for n in range(8) for delta in range(-2, 4)]  # in --gate


def n_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    out = range(int(lo), int(hi or lo) + 1)
    if not out:
        # an empty range would dump nothing, and two empty dumps agree
        raise argparse.ArgumentTypeError(f"empty level range {text!r}")
    return out


def dump(args) -> int:
    sys.path.insert(0, str(Path(args.src).resolve()))
    from brauerblocks.blocks import weights
    from brauerblocks.oracle import (HomQuery, gram_rank, hom_dim,
                                     restriction_multiplicity)
    from brauerblocks.partitions import partitions_of

    cases = GATE if args.gate else [(n, delta) for n in args.n for delta in args.deltas]
    t0 = time.monotonic()
    out = {}
    for n, delta in cases:
        ws = weights(n, delta).weights
        for lam in ws:
            for mu in ws:
                out[f"{n} {delta} {lam} {mu}"] = hom_dim(HomQuery(n, delta, lam, mu))
    for n, delta in RANKS if args.gate else []:
        for mu in weights(n, delta).weights:
            out[f"gram {n} {delta} {mu}"] = gram_rank(n, delta, mu)
            for lam in partitions_of(n):
                out[f"restriction {n} {delta} {mu} {lam}"] = \
                    restriction_multiplicity(n, delta, mu, lam)
    Path(args.out).write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    nonzero = sum(1 for v in out.values() if v)
    print(f"{len(out)} entries, {nonzero} nonzero, "
          f"{time.monotonic() - t0:.1f}s -> {args.out}")
    return 0


def compare(args) -> int:
    old = json.loads(Path(args.old).read_text())
    new = json.loads(Path(args.new).read_text())
    if not (old or new):
        # two empty dumps agree on nothing: a gate that checks nothing fails
        print("both dumps are empty: nothing to compare")
        return 1
    bad = [(key, old.get(key), new.get(key))
           for key in sorted(old.keys() | new.keys())
           if old.get(key) != new.get(key)]
    for key, a, b in bad[:SHOWN]:
        print(f"MISMATCH {key}: {a} -> {b}")
    if bad:
        print(f"{len(bad)} of {len(old.keys() | new.keys())} entries differ")
        return 1
    nonzero = sum(1 for v in new.values() if v)
    print(f"{len(new)} entries agree, {nonzero} nonzero")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump", help="write hom_dim of every ordered weight pair")
    d.add_argument("out")
    d.add_argument("--n", type=n_range,
                   help="level or inclusive range, e.g. 8 or 1-8")
    d.add_argument("--deltas", type=int, nargs="+")
    d.add_argument("--gate", action="store_true",
                   help="the standard gate set, with its Gram ranks and "
                   "restrictions, instead of --n and --deltas")
    d.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                   help="source tree to import brauerblocks from")
    c = sub.add_parser("compare", help="exit 1 unless two dumps agree")
    c.add_argument("old")
    c.add_argument("new")
    args = ap.parse_args()
    if args.cmd == "dump" and (args.n is None, args.deltas is None) != (args.gate,) * 2:
        ap.error("dump takes --gate, or --n with --deltas")
    return dump(args) if args.cmd == "dump" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
