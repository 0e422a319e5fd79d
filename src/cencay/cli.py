"""Command-line interface.

Exit codes: 0 success (or isomorphic), 1 non-isomorphic, 2 invalid input,
3 an internal size cap was exceeded, 4 a certificate check failed
(InternalError), 5 any other unexpected error (traceback on stderr).  A
failure never exits with 0 or 1, so it cannot be read as an answer.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from typing import Optional, Sequence

from . import cayley, files, fixtures, group, iso
from .errors import CapExceededError, InternalError, InvalidInputError

EXIT_OK = 0
EXIT_NON_ISOMORPHIC = 1
EXIT_INVALID = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4
EXIT_UNEXPECTED = 5


def _parse_merge(spec: str) -> list[list[int]]:
    groups = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            raise InvalidInputError("empty merge group in --merge")
        try:
            groups.append([int(x) for x in part.split(",")])
        except ValueError:
            raise InvalidInputError(f"--merge entries must be class indices: {part!r}") from None
    return groups


def _cmd_group(args) -> int:
    G = fixtures.builtin_group(args.name)
    if args.output:
        files.save_group(G, args.output)
    print(f"{args.name}: order {G.order}")
    return EXIT_OK


def _cmd_classes(args) -> int:
    G = files.load_group(args.groupfile)
    cc, orders = group.conjugacy_classes(G), group.element_orders(G)
    rows = [
        dict(size=len(cls), order=int(orders[cls[0]]), rep=G.names[cls[0]] if G.names else cls[0])
        for cls in cc.classes
    ]
    if args.json:
        print(json.dumps(rows))
    else:
        for i, row in enumerate(rows):
            print(f"{i}\tsize {row['size']}\torder {row['order']}\trep {row['rep']}")
    return EXIT_OK


def _cmd_graph(args) -> int:
    G = files.load_group(args.group)
    merge = _parse_merge(args.merge)
    partition = cayley.partition_from_class_merge(G, merge)
    gamma = cayley.build_central_cayley(G, partition)
    files.save_graph(gamma, args.output)
    print(f"graph: n={G.order} colors={gamma.k} -> {args.output}")
    return EXIT_OK


def _cmd_section(args) -> int:
    sec = iso.analyze(files.load_graph(args.graphfile)).sec
    if args.json:
        print(json.dumps(dict(section_kind=sec.kind, L=sec.L.order, U=sec.U.order, m=sec.m)))
    else:
        print(f"{sec.kind}, L={sec.L.order}, U={sec.U.order}, m={sec.m}")
    return EXIT_OK


def _report(result: iso.IsoResult, gamma, args, elapsed: float, sec=None) -> None:
    meta = dict(
        n=gamma.group.order,
        m=sec.m if sec is not None else None,
        section_kind=sec.kind if sec is not None else None,
        elapsed=elapsed,
    )
    # both outputs come from one report, so the emitted order is checked once:
    # by the decision's certificate, or by a chain for an oracle result
    if args.output:
        payload = files.emit_report(result, args.output, **meta)
    elif args.json:
        payload = files.report_to_dict(result, **meta)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"verdict: {result.verdict} (step {result.decided_at_step})")
        print(f"aut_order: {result.aut_order}")
        print(f"aut_generators: {len(result.aut_generators)}")


def _cmd_aut(args) -> int:
    t0 = time.perf_counter()
    gamma = files.load_graph(args.graphfile)
    analysis = iso.analyze(gamma)
    _report(analysis.aut, gamma, args, time.perf_counter() - t0, analysis.sec)
    return EXIT_OK


def _cmd_pair(args) -> int:
    """``iso`` and ``oracle``: one decision on two graph files."""
    decide = iso.iso_test if args.command == "iso" else iso.brute_force_oracle
    t0 = time.perf_counter()
    ga = files.load_graph(args.graph_a)
    gb = files.load_graph(args.graph_b)
    result = decide(ga, gb)
    _report(result, ga, args, time.perf_counter() - t0)
    return EXIT_OK if result.isomorphic else EXIT_NON_ISOMORPHIC


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")

    p = argparse.ArgumentParser(
        prog="cencay",
        description="Isomorphism testing for central colored Cayley graphs "
        "over almost simple groups.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="write a builtin group file")
    g.add_argument("name")
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(func=_cmd_group)

    c = sub.add_parser("classes", help="list conjugacy classes of a group file", parents=[common])
    c.add_argument("groupfile")
    c.set_defaults(func=_cmd_classes)

    gr = sub.add_parser("graph", help="build a central graph from class merges")
    gr.add_argument("--group", required=True)
    gr.add_argument("--merge", required=True, help='e.g. "0;1;2,3"')
    gr.add_argument("-o", "--output", required=True)
    gr.set_defaults(func=_cmd_graph)

    s = sub.add_parser("section", help="principal section of a graph file", parents=[common])
    s.add_argument("graphfile")
    s.set_defaults(func=_cmd_section)

    a = sub.add_parser("aut", help="automorphism group of a graph file", parents=[common])
    a.add_argument("graphfile")
    a.add_argument("-o", "--output", default=None)
    a.set_defaults(func=_cmd_aut)

    for name, what in (("iso", "isomorphism test"), ("oracle", "brute-force oracle")):
        i = sub.add_parser(name, help=f"{what} on two graph files", parents=[common])
        i.add_argument("graph_a")
        i.add_argument("graph_b")
        i.add_argument("-o", "--output", default=None)
        i.set_defaults(func=_cmd_pair)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InternalError as exc:
        print(f"internal error (a certificate check failed): {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    raise SystemExit(main())
