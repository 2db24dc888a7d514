"""Command-line front end.

Verbs cover the block-theory queries (blocks, same-block, minimal,
hom-target, lattice, hat), the verification suite (verify, hom-dim) and
ASCII grids of partitions and skews (render).  A predicted lattice is
drawn as DOT by lattice --format dot.

Exit codes: 0 success or true, 1 false or different-block, 2 usage
error, 3 internal assertion failure.  Partitions are written "a,b,c"
with "0" for the empty partition, so shell scripts can treat same-block
and minimal as predicates.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .blocks import (block_partition, block_partition_json, check_weight,
                     hat_steps, hom_target, is_balanced, is_minimal,
                     lattice_predict)
from .diagrams import all_diagrams, concat, flip
from .oracle import HomQuery, hom_dim, verify_blocks
from .partitions import EMPTY, Box, Partition, parse_partition


def _partition(text: str) -> Partition:
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------- rendering

def render_skew(lam: Partition, mu: Partition) -> str:
    """Grid of lam with mu's boxes dotted out and the rest labelled by
    content."""
    if not lam.contains(mu):
        raise ValueError(f"{mu} is not contained in {lam}")
    if lam.size == 0:
        return "(empty)"
    labels = {}
    for b in lam.boxes():
        inside = b.col <= mu.row(b.row - 1)
        labels[b] = "." if inside else str(b.content)
    width = max(len(s) for s in labels.values())
    lines = []
    for i in range(lam.rows):
        row = lam.row(i)
        lines.append("".join(f"[{labels[Box(i + 1, c)]:>{width}}]"
                             for c in range(1, row + 1)))
    return "\n".join(lines)


def _subset_name(x: frozenset[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(x)) + "}"


def render_lattice_dot(lp) -> str:
    """DOT digraph: one node per subset of box pairs, one arrow per
    cover, drawn bottom-up."""
    lines = ["digraph lattice {", "  rankdir=BT;"]
    order = sorted(lp.nodes, key=lambda x: (len(x), sorted(x)))
    ids = {x: f"n{k}" for k, x in enumerate(order)}
    for x in order:
        label = f"{_subset_name(x)}: {lp.nodes[x]}"
        lines.append(f'  {ids[x]} [label="{label}"];')
    for a, b in lp.covers:
        lines.append(f"  {ids[a]} -> {ids[b]};")
    lines.append("}")
    return "\n".join(lines)


def render_lattice_text(lp) -> str:
    lines = [f"m = {lp.m}"]
    for a, b in lp.pairs:
        lines.append(f"pair: ({a.row},{a.col})[{a.content}] ~ "
                     f"({b.row},{b.col})[{b.content}]")
    for x in sorted(lp.nodes, key=lambda x: (len(x), sorted(x))):
        lines.append(f"node {_subset_name(x)}: {lp.nodes[x]}")
    lines.append(f"covers: {len(lp.covers)}")
    return "\n".join(lines)


def _lattice_json(lp) -> dict:
    return {
        "m": lp.m,
        "pairs": [[[a.row, a.col], [b.row, b.col]] for a, b in lp.pairs],
        "nodes": {",".join(str(i) for i in sorted(x)): str(p)
                  for x, p in lp.nodes.items()},
        "covers": [[",".join(str(i) for i in sorted(a)),
                    ",".join(str(i) for i in sorted(b))]
                   for a, b in lp.covers],
    }


# ------------------------------------------------------------------- verbs

def _cmd_blocks(args) -> int:
    bp = block_partition(args.n, args.delta)
    if args.format == "json":
        _print_json(block_partition_json(bp))
    else:
        for minimal, members in bp.classes:
            print(f"minimal {minimal}: " + " ".join(str(w) for w in members))
    return 0


def _cmd_same_block(args) -> int:
    lam, mu = args.partitions
    for p in (lam, mu):
        # without --n, refuse only a weight of no B_n(delta), as minimal does
        check_weight(p.size if args.n is None else args.n, args.delta, p)
    same = is_balanced(lam, mu, args.delta)
    if args.format == "json":
        _print_json({"delta": args.delta, "first": str(lam),
                     "second": str(mu), "same_block": same})
    else:
        print("same" if same else "different")
    return 0 if same else 1


def _cmd_minimal(args) -> int:
    lam = args.partition
    # a weight of B_|lam| stays one at every larger n of that parity, so
    # this refuses exactly a weight of no B_n(delta): the empty partition
    # at delta = 0
    check_weight(lam.size, args.delta, lam)
    minimal = is_minimal(lam, args.delta)
    if args.format == "json":
        _print_json({"delta": args.delta, "partition": str(lam),
                     "minimal": minimal})
    else:
        print(f"{lam} ({'minimal' if minimal else 'non-minimal'})")
    return 0 if minimal else 1


def _cmd_hom_target(args) -> int:
    lam = args.partition
    check_weight(lam.size, args.delta, lam)  # as in _cmd_minimal
    target = hom_target(lam, args.delta)
    if args.format == "json":
        _print_json({"delta": args.delta, "partition": str(lam),
                     "minimal": target is None,
                     "target": None if target is None else str(target)})
    elif target is None:
        print(f"{lam} (minimal)")
    else:
        print(target)
    return 0


def _cmd_lattice(args) -> int:
    lam, mu = args.partitions
    lp = lattice_predict(lam, mu, args.delta)
    if args.format == "json":
        _print_json(_lattice_json(lp))
    elif args.format == "dot":
        print(render_lattice_dot(lp))
    else:
        print(render_lattice_text(lp))
    return 0


def _cmd_hat(args) -> int:
    lam = args.partition
    core, steps = hat_steps(lam, args.delta)
    boxes = sorted(core.boxes)
    if args.format == "json":
        _print_json({"delta": args.delta, "partition": str(lam),
                     "steps": [{"strip": kind, "indices": idx}
                               for kind, idx in steps],
                     "core": [[b.row, b.col] for b in boxes]})
    else:
        for kind, idx in steps:
            print(f"strip {kind} {','.join(str(i) for i in idx)}")
        if boxes:
            print("core: " + " ".join(f"({b.row},{b.col})[{b.content}]"
                                      for b in boxes))
        else:
            print("core: (empty)")
    return 0


def _sampled_checks(n: int, seed: int) -> list[dict]:
    """Seeded spot-checks of the diagram product itself: associativity
    and the flip anti-automorphism on random triples.  Each side is a
    diagram with the loops its products closed, compared as such, so a
    miscounted loop fails at every delta, 0 included."""
    rng = random.Random(seed)
    pool = list(all_diagrams(min(n, 4)))
    checks = []
    for trial in range(8):
        a, b, c = (rng.choice(pool) for _ in range(3))
        (ab, loops_ab), (bc, loops_bc) = concat(a, b), concat(b, c)
        (left, loops_l), (right, loops_r) = concat(ab, c), concat(a, bc)
        assoc = (left, loops_ab + loops_l) == (right, loops_bc + loops_r)
        anti = (flip(ab), loops_ab) == concat(flip(b), flip(a))
        checks.append({"name": "sampled-associativity",
                       "params": {"seed": seed, "trial": trial},
                       "status": "pass" if assoc else "fail"})
        checks.append({"name": "sampled-flip-antihom",
                       "params": {"seed": seed, "trial": trial},
                       "status": "pass" if anti else "fail"})
    return checks


def _cmd_verify(args) -> int:
    report = verify_blocks(args.n, args.delta)
    report["checks"].extend(_sampled_checks(args.n, args.seed))
    failed = [c for c in report["checks"] if c["status"] != "pass"]
    if args.format == "json":
        _print_json(report)
    else:
        for c in report["checks"]:
            line = f"{c['status'].upper():4} {c['name']} {json.dumps(c['params'])}"
            if c.get("witness") is not None:
                line += f" witness={json.dumps(c['witness'])}"
            print(line)
        print(f"{len(report['checks']) - len(failed)} of "
              f"{len(report['checks'])} checks passed")
    return 0 if not failed else 3


def _cmd_render(args) -> int:
    lam, *rest = args.partitions
    print(render_skew(lam, rest[0] if rest else EMPTY))
    return 0


def _cmd_hom_dim(args) -> int:
    lam, mu = args.partitions
    q = HomQuery(args.n, args.delta, lam, mu)
    d = hom_dim(q)
    if args.format == "json":
        _print_json({"n": args.n, "delta": args.delta, "source": str(lam),
                     "target": str(mu), "dim": d})
    else:
        print(d)
    return 0


# ------------------------------------------------------------------ parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brauer",
        description="Block classification of the Brauer algebra B_n(delta)")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, helptext, *, n=None, delta=True, parts=0,
            formats=("text", "json"), seed=False):
        p = sub.add_parser(name, help=helptext)
        if n is not None:
            p.add_argument("--n", type=int, required=n == "required")
        if delta:
            p.add_argument("--delta", type=int, required=True)
        if parts == 1:
            p.add_argument("partition", type=_partition)
        elif parts == 2:
            p.add_argument("partitions", type=_partition, nargs=2)
        p.add_argument("--format", choices=formats, default="text")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=func, usage_error=p.error)
        return p

    add("blocks", _cmd_blocks, "group the weights of B_n(delta) into blocks",
        n="required")
    add("same-block", _cmd_same_block,
        "test whether two weights share a block", n="optional", parts=2)
    add("minimal", _cmd_minimal,
        "test whether a weight is minimal in its block", parts=1)
    add("hom-target", _cmd_hom_target,
        "homomorphism target of a non-minimal weight", parts=1)
    add("lattice", _cmd_lattice,
        "predicted submodule lattice for an isolated-box pair", parts=2,
        formats=("text", "json", "dot"))
    add("hat", _cmd_hat, "row/column stripping trace and surviving core",
        parts=1)
    add("verify", _cmd_verify,
        "machine-check the block predictions against the oracle",
        n="required", seed=True)
    renderp = sub.add_parser("render",
                             help="ASCII grid of a partition or a skew shape")
    # read as text and parsed in run, so that an unknown option is
    # reported by name, not as a bad partition literal
    renderp.add_argument("partitions", nargs="+")
    renderp.set_defaults(func=_cmd_render, usage_error=renderp.error)
    add("hom-dim", _cmd_hom_dim,
        "dimension of the Hom space between two cell modules", n="required",
        parts=2)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:
        args.usage_error(f"unrecognized arguments: {' '.join(extras)}")
    if args.verb == "render":
        if len(args.partitions) > 2:
            args.usage_error("render takes one partition or a partition pair")
        try:
            args.partitions = [parse_partition(p) for p in args.partitions]
        except ValueError as exc:
            args.usage_error(f"argument partitions: {exc}")
    try:
        return args.func(args)
    except AssertionError as exc:
        print(f"internal assertion failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
