"""Command-line interface.

Commands: validate, analyze, audit, extend, grow, gen, circ, export-dot,
batch.  Reports are JSON on stdout (or --out).  Exit codes: 0 ok, 1 usage,
else the error type's ``exit_code`` (see ``errors``), with the error as JSON
on stderr; an unreadable file exits 2 like any other invalid input.
The environment variable ISOCYCLE_SEED overrides any --seed value.
"""

import argparse
import json
import logging
import os
import sys

from . import __version__
from .cycle_analysis import analyze_cycle, check_cycle, check_tree_lemma
from .discharging import apply_discharging
from .errors import DegenerateSide, ExtensionNotFound, IsocycleError, ParseError
from .extension import (
    find_extension_exhaustive,
    find_extension_fast,
    grow_to_bound,
    isolation_bound,
)
from .generators import gen_insertion_family, gen_random_triangulation, named_graph
from .oracles import oracle_circumference, oracle_isolating_cycles
from .plane_graph import (
    graph_to_dot,
    graph_to_json_dict,
    is_three_connected,
    load_graph,
)
from .tunnels import tracks


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_cycle(text):
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ParseError(f"invalid JSON in cycle sidecar: {exc}") from exc
        if not isinstance(data, list):
            raise ParseError("cycle sidecar must be a JSON list of vertex ids")
        return tuple(str(v) for v in data)
    items = [s for s in text.split(",") if s]
    if not items:
        raise ParseError("empty cycle argument")
    return tuple(items)


def _emit(args, payload):
    text = json.dumps(payload, indent=args.json_indent, default=str)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _node_name(node):
    return f"{node[0]}:{node[1]}"


def _tree_report(analysis, side):
    try:
        checks = check_tree_lemma(analysis, side)
    except DegenerateSide as exc:
        return {"degenerate": str(exc)}
    tree = checks.pop("tree")
    return {
        "kind": tree.kind,
        "nodes": [_node_name(x) for x in tree.nodes],
        "edges": [[_node_name(x), _node_name(y)] for x, y in tree.edges],
        "checks": checks,
    }


def _tunnel_report(analysis):
    out = []
    for tunnel in analysis.tunnels:
        entry = {
            "cyclic": tunnel.cyclic,
            "k": tunnel.k,
            "arches": [
                {"face": a.face, "kind": a.kind, "start": a.start} for a in tunnel.arches
            ],
        }
        if not tunnel.cyclic:
            entry["tracks"] = [
                {
                    "direction": track.direction,
                    "exit_face": track.exit_face,
                    "exit_position": track.exit_position,
                    "transfer_pairs": [
                        {"face": face, "position": e, "order": order}
                        for order, (face, e) in enumerate(track.pairs, start=1)
                    ],
                }
                for track in tracks(analysis, tunnel)
            ]
        out.append(entry)
    return out


def analysis_report(analysis):
    faces = []
    for fid in range(len(analysis.h.faces)):
        entry = {
            "id": fid,
            "side": analysis.face_side[fid],
            "size": len(analysis.h.faces[fid]),
            "m": analysis.m(fid),
            "minor": analysis.is_minor(fid),
        }
        if analysis.is_minor(fid):
            entry["thin"] = analysis.is_thin(fid)
            entry["arc"] = list(analysis.face_arc[fid])
            if fid in analysis.apex:
                entry["apex"] = analysis.apex[fid]
        faces.append(entry)
    arches = [
        {
            "face": a.face,
            "kind": a.kind,
            "path": list(a.path),
            "start": a.start,
            "length": a.length,
        }
        for a in analysis.all_arches()
    ]
    return {
        "c": analysis.c,
        "n": analysis.g.n,
        "v_minus": list(analysis.v_minus),
        "v_plus": list(analysis.v_plus),
        "deleted_chords": [list(e) for e in analysis.deleted_chords],
        "faces": faces,
        "arches": arches,
        "trees": {
            "minus": _tree_report(analysis, "minus"),
            "plus": _tree_report(analysis, "plus"),
        },
        "tunnels": _tunnel_report(analysis),
    }


def cmd_validate(args):
    try:
        g = load_graph(args.graph)
    except (IsocycleError, OSError) as exc:
        _emit(args, {"valid": False, "error": type(exc).__name__, "message": str(exc)})
        return 2
    three = is_three_connected(g)
    report = {
        "valid": True,
        "n": g.n,
        "m": g.m,
        "faces": len(g.faces),
        "three_connected": three,
    }
    _emit(args, report)
    if args.level == "polyhedral" and not three:
        return 2
    return 0


def cmd_analyze(args):
    g = load_graph(args.graph)
    cycle = _parse_cycle(args.cycle)
    analysis = analyze_cycle(g, cycle)
    _emit(args, analysis_report(analysis))
    return 0


def cmd_audit(args):
    g = load_graph(args.graph)
    cycle = _parse_cycle(args.cycle)
    analysis = analyze_cycle(g, cycle)
    ledger = apply_discharging(analysis)
    report = ledger.summary()
    report["inequality_verdicts"] = {
        "side_inequality": ledger.checks["side_inequality"],
        "length_bound": ledger.checks["length_bound"],
        "implied_bound": str(ledger.implied_bound),
    }
    _emit(args, report)
    return 0


def _runs_off(cycle, other):
    """Maximal runs of consecutive edges of ``cycle`` that ``other`` lacks.

    Each run is the tuple of vertices it passes, endpoints included.  A
    cycle that shares no edge with ``other`` comes back as one closed run.
    """
    edges = {frozenset(e) for e in zip(other, other[1:] + other[:1])}
    hit = [frozenset(e) not in edges for e in zip(cycle, cycle[1:] + cycle[:1])]
    if all(hit):
        return (tuple(cycle) + (cycle[0],),)
    c = len(cycle)
    runs = []
    starts = [i for i in range(c) if hit[i] and not hit[(i - 1) % c]]
    for i in starts:
        j = i
        while hit[j % c]:
            j += 1
        runs.append(tuple(cycle[k % c] for k in range(i, j + 1)))
    return tuple(runs)


def _move_report(old, move):
    """A move from the cycle ``old``, with the arcs it drops and paths it adds."""
    return {
        "pattern": move.pattern,
        "new_cycle": list(move.new_cycle),
        "added": list(move.added),
        "removed_arcs": [list(r) for r in _runs_off(old, move.new_cycle)],
        "inserted_paths": [list(r) for r in _runs_off(move.new_cycle, old)],
    }


def cmd_extend(args):
    g = load_graph(args.graph)
    cycle = _parse_cycle(args.cycle)
    move = None
    if not args.tier_2_only:
        move = find_extension_fast(g, cycle)
    if move is None:
        move = find_extension_exhaustive(g, cycle)
    if move is None:
        raise ExtensionNotFound(
            f"no extension found for a cycle of length {len(cycle)}",
            diagnostics={"cycle": list(cycle), "n": g.n},
        )
    _emit(args, _move_report(cycle, move))
    return 0


def cmd_grow(args):
    g = load_graph(args.graph)
    cycle = _parse_cycle(args.cycle)
    trace = grow_to_bound(g, cycle, tier2_only=args.tier_2_only)
    report = trace.summary()
    report["moves_detail"] = [
        _move_report(old, m) for old, m in zip(trace.cycles, trace.moves)
    ]
    _emit(args, report)
    if args.dump_dot:
        os.makedirs(args.dump_dot, exist_ok=True)
        for i, cyc in enumerate(trace.cycles):
            path = os.path.join(args.dump_dot, f"step{i:03d}.dot")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(graph_to_dot(g, highlight_cycle=cyc))
    return 0


def _seed(args):
    env = os.environ.get("ISOCYCLE_SEED")
    if env is None:
        return args.seed
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"ISOCYCLE_SEED must be an integer, got {env!r}") from None


def cmd_gen(args):
    if args.family == "named":
        if not args.name:
            raise UsageError("gen --family named needs --name")
        g = named_graph(args.name)
    elif args.family == "insertion":
        if not args.base:
            raise UsageError("gen --family insertion needs --base")
        if os.path.exists(args.base):
            base = load_graph(args.base)
        else:
            base = named_graph(args.base)
        g = gen_insertion_family(base, seed=_seed(args), fill_count=args.fill)
    elif args.family == "random":
        if args.n is None:
            raise UsageError("gen --family random needs --n")
        g = gen_random_triangulation(
            args.n, seed=_seed(args), require_four_connected=args.four_connected
        )
    else:
        raise UsageError(f"unknown family {args.family!r}")
    _emit(args, graph_to_json_dict(g))
    return 0


def cmd_circ(args):
    g = load_graph(args.graph)
    value = oracle_circumference(g, limit=args.limit)
    _emit(args, {"circumference": value, "n": g.n})
    return 0


def cmd_export_dot(args):
    g = load_graph(args.graph)
    cycle = _parse_cycle(args.cycle) if args.cycle else None
    if cycle:
        check_cycle(g, cycle)
    text = graph_to_dot(g, highlight_cycle=cycle)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def cmd_batch(args):
    seed = _seed(args)
    results = []
    alarms = 0
    fallbacks = 0
    for i in range(args.count):
        base = gen_random_triangulation(
            args.base_n, seed=seed + i, require_four_connected=True
        )
        fill = args.fill if args.fill is not None else len(base.faces)
        g = gen_insertion_family(base, seed=seed + i, fill_count=fill)
        bound = isolation_bound(g)
        cycles = oracle_isolating_cycles(
            g, min_length=6, max_length=bound - 1, max_count=args.cap
        )
        grown = 0
        for cyc in cycles:
            try:
                trace = grow_to_bound(g, cyc)
                grown += 1
                fallbacks += trace.fallbacks
            except ExtensionNotFound:
                alarms += 1
        results.append(
            {"n": g.n, "bound": bound, "cycles": len(cycles), "grown": grown}
        )
    _emit(
        args,
        {
            "instances": results,
            "alarms": alarms,
            "fallbacks": fallbacks,
        },
    )
    return ExtensionNotFound.exit_code if alarms else 0


def build_parser():
    p = Parser(prog="isocycle", description=__doc__)
    p.add_argument("--version", action="version", version=f"isocycle {__version__}")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command")

    def common(sp, graph=True, cycle=False, indent=True):
        if graph:
            sp.add_argument("--graph", required=True, help="graph JSON file")
        if cycle:
            sp.add_argument(
                "--cycle",
                required=True,
                help="comma-separated vertex ids, or @file.json",
            )
        sp.add_argument("--out", help="write the output here instead of stdout")
        if indent:
            sp.add_argument("--json-indent", type=int, default=2)

    sp = sub.add_parser("validate", help="check a graph file")
    common(sp)
    sp.add_argument("--level", choices=["embedding", "polyhedral"], default="embedding")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("analyze", help="cycle structure report")
    common(sp, cycle=True)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("audit", help="discharging ledger report")
    common(sp, cycle=True)
    sp.set_defaults(func=cmd_audit)

    sp = sub.add_parser("extend", help="one extension step")
    common(sp, cycle=True)
    sp.add_argument("--tier-2-only", action="store_true")
    sp.set_defaults(func=cmd_extend)

    sp = sub.add_parser("grow", help="extend a cycle to the length bound")
    common(sp, cycle=True)
    sp.add_argument("--tier-2-only", action="store_true")
    sp.add_argument("--dump-dot", metavar="DIR", help="write DOT snapshots per step")
    sp.set_defaults(func=cmd_grow)

    sp = sub.add_parser("gen", help="generate an instance")
    common(sp, graph=False)
    sp.add_argument("--family", choices=["named", "insertion", "random"], required=True)
    sp.add_argument("--name", help="named graph, e.g. cube or wheel:7")
    sp.add_argument("--base", help="base graph name or JSON path (insertion family)")
    sp.add_argument("--fill", type=int, help="number of faces to fill (insertion)")
    sp.add_argument("--n", type=int, help="vertex count (random family)")
    sp.add_argument(
        "--four-connected",
        action="store_true",
        help="random family: double_wheel(n - 2) for every seed (see ROADMAP item 6)",
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("circ", help="exact circumference")
    common(sp)
    sp.add_argument("--limit", type=int, default=30)
    sp.set_defaults(func=cmd_circ)

    sp = sub.add_parser("export-dot", help="Graphviz export")
    common(sp, indent=False)
    sp.add_argument("--cycle", help="highlight this cycle")
    sp.set_defaults(func=cmd_export_dot)

    sp = sub.add_parser("batch", help="generate and grow a corpus")
    common(sp, graph=False)
    sp.add_argument("--count", type=int, default=5)
    sp.add_argument("--base-n", type=int, default=8)
    sp.add_argument("--fill", type=int)
    sp.add_argument("--cap", type=int, default=5, help="isolating cycles per instance")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_batch)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (try --help)")
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (IsocycleError, OSError) as exc:
        # an unreadable input file is invalid input, like a malformed one
        report = {"error": type(exc).__name__, "message": str(exc)}
        report.update(getattr(exc, "diagnostics", {}))
        print(json.dumps(report, indent=2), file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
