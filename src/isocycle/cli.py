"""Command-line interface.

Commands: validate, analyze, audit, extend, grow, gen, circ, export-dot,
batch.  Reports are JSON with indent 2 (DOT for export-dot) on stdout, or
in the UTF-8 file --out.  Exit codes: 0 ok, 1 usage, 141 when the reader
closes stdout, else the error type's ``exit_code`` (see ``errors``), with the
error as JSON on stderr; an unreadable file exits 2 like any other invalid
input.
"""

import argparse
import json
import logging
import os
import sys
from itertools import groupby

from . import __version__
from .cycle_analysis import analyze_cycle
from .discharging import apply_discharging
from .errors import ExtensionNotFound, IsocycleError, ParseError
from .extension import (
    find_extension_exhaustive,
    find_extension_fast,
    grow_to_bound,
    isolation_bound,
)
from .generators import gen_insertion_family, gen_random_triangulation, named_graph
from .oracles import oracle_circumference, oracle_isolating_cycles
from .plane_graph import (
    check_cycle,
    graph_to_dot,
    graph_to_json_dict,
    is_three_connected,
    load_graph,
)


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
            except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
                raise ParseError(f"invalid JSON in cycle sidecar: {exc}") from exc
        if not isinstance(data, list):
            raise ParseError("cycle sidecar must be a JSON list of vertex ids")
        for v in data:
            # bool is an int subclass, but true is no vertex id
            if isinstance(v, bool) or not isinstance(v, (str, int)):
                raise ParseError(
                    f"cycle sidecar item {json.dumps(v)} is not a string or an integer"
                )
        return tuple(str(v) for v in data)
    items = [s for s in text.split(",") if s]
    if not items:
        raise ParseError("empty cycle argument")
    return tuple(items)


def _write(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        # flushed here, so a closed pipe raises inside main, not at exit
        sys.stdout.write(text)
        sys.stdout.flush()


def _emit(args, payload):
    _write(args, json.dumps(payload, indent=2, default=str) + "\n")


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
    _emit(args, analyze_cycle(g, cycle).summary())
    return 0


def cmd_audit(args):
    g = load_graph(args.graph)
    cycle = _parse_cycle(args.cycle)
    analysis = analyze_cycle(g, cycle)
    ledger = apply_discharging(analysis)
    report = ledger.summary()
    report["implied_bound"] = str(ledger.implied_bound)
    _emit(args, report)
    return 0


def _runs_off(path, other):
    """Maximal runs of consecutive edges of the path ``path`` that the path
    ``other`` lacks, in path order, each the list of vertices it passes."""
    edges = {frozenset(e) for e in zip(other, other[1:])}
    runs, i = [], 0
    for off, group in groupby(zip(path, path[1:]), lambda e: frozenset(e) not in edges):
        n = len(list(group))
        if off:
            runs.append(list(path[i : i + n + 1]))
        i += n
    return runs


def _closed(cycle, other):
    """The cycle as a closed path from its first vertex whose incoming edge
    the cycle ``other`` has, so that no run off ``other`` crosses the seam."""
    shared = {frozenset(e) for e in zip(other, other[1:] + other[:1])}
    i = next((k for k, v in enumerate(cycle) if frozenset((cycle[k - 1], v)) in shared), 0)
    return cycle[i:] + cycle[: i + 1]


def _changes(old, new):
    """The runs a move removes and inserts when it puts the path new in
    place of the path old."""
    return {"removed_arcs": _runs_off(old, new), "inserted_paths": _runs_off(new, old)}


def _grow_report(trace):
    """The trace's summary, each move's entry carrying the runs its step
    removed and inserted, read off its splice in O(|window| + |path|)."""
    report = trace.summary()
    for move, step in zip(report["moves"], trace.splices):
        old, new = step.window or step.path[::2], step.path  # apex: the edge (u, v)
        if step.pattern == "exhaustive":
            old, new = _closed(old, new), _closed(new, old)
        move.update(_changes(old, new))
    return report


def cmd_extend(args):
    g = load_graph(args.graph)
    cycle = _parse_cycle(args.cycle)
    move = find_extension_fast(g, cycle) or find_extension_exhaustive(g, cycle)
    if move is None:
        raise ExtensionNotFound(
            f"no extension found for a cycle of length {len(cycle)}",
            diagnostics={"cycle": list(cycle), "n": g.n},
        )
    new = move.new_cycle
    report = {"pattern": move.pattern, "new_cycle": list(new), "added": list(move.added)}
    _emit(args, {**report, **_changes(_closed(cycle, new), _closed(new, cycle))})
    return 0


def cmd_grow(args):
    g = load_graph(args.graph)
    cycle = _parse_cycle(args.cycle)
    trace = grow_to_bound(g, cycle)
    _emit(args, _grow_report(trace))
    if args.dump_dot:
        os.makedirs(args.dump_dot, exist_ok=True)
        for i, cyc in enumerate(trace.cycles):
            path = os.path.join(args.dump_dot, f"step{i:03d}.dot")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(graph_to_dot(g, highlight_cycle=cyc))
    return 0


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
        g = gen_insertion_family(base, seed=args.seed, fill_count=args.fill)
    else:
        if args.n is None:
            raise UsageError("gen --family random needs --n")
        g = gen_random_triangulation(
            args.n, seed=args.seed, require_four_connected=args.four_connected
        )
    _emit(args, graph_to_json_dict(g))
    return 0


def cmd_circ(args):
    if args.limit < 0:
        raise UsageError(f"--limit must be 0 or more, got {args.limit}")
    g = load_graph(args.graph)
    value = oracle_circumference(g, limit=args.limit)
    _emit(args, {"circumference": value, "n": g.n})
    return 0


def cmd_export_dot(args):
    g = load_graph(args.graph)
    cycle = None
    if args.cycle is not None:
        cycle = _parse_cycle(args.cycle)
        check_cycle(g, cycle)
    _write(args, graph_to_dot(g, highlight_cycle=cycle))
    return 0


def cmd_batch(args):
    if args.count < 0:
        raise UsageError(f"--count must be 0 or more, got {args.count}")
    if args.cap < 0:
        raise UsageError(f"--cap must be 0 or more, got {args.cap}")
    results = []
    alarms = 0
    fallbacks = 0
    for seed in range(args.seed, args.seed + args.count):
        base = gen_random_triangulation(
            args.base_n, seed=seed, require_four_connected=True
        )
        fill = args.fill if args.fill is not None else len(base.faces)
        g = gen_insertion_family(base, seed=seed, fill_count=fill)
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

    def common(sp, graph=True, cycle=False):
        if graph:
            sp.add_argument("--graph", required=True, help="graph JSON file")
        if cycle:
            sp.add_argument(
                "--cycle",
                required=True,
                help="comma-separated vertex ids, or @file.json",
            )
        sp.add_argument("--out", help="write the output here instead of stdout")

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
    sp.set_defaults(func=cmd_extend)

    sp = sub.add_parser("grow", help="extend a cycle to the length bound")
    common(sp, cycle=True)
    sp.add_argument(
        "--dump-dot",
        metavar="DIR",
        help="replay the growth into one DOT file per cycle, O(n (n + m)) bytes in all",
    )
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
        help="random family: double_wheel(n - 2) for every seed (see ROADMAP item 10)",
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("circ", help="exact circumference")
    common(sp)
    sp.add_argument("--limit", type=int, default=30)
    sp.set_defaults(func=cmd_circ)

    sp = sub.add_parser("export-dot", help="Graphviz export")
    common(sp)
    sp.add_argument("--cycle", help="highlight this cycle")
    sp.set_defaults(func=cmd_export_dot)

    sp = sub.add_parser("batch", help="generate and grow a corpus")
    common(sp, graph=False)
    sp.add_argument(
        "--count",
        type=int,
        default=5,
        help="instances to grow; without --fill every instance is the same "
        "filled double wheel until ROADMAP item 10 lands",
    )
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
    except BrokenPipeError:
        # the reader has gone: end quietly with the status of a SIGPIPE
        # death, and let the flush at exit write to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (IsocycleError, OSError) as exc:
        # an unreadable input file is invalid input, like a malformed one
        report = {"error": type(exc).__name__, "message": str(exc)}
        report.update(getattr(exc, "diagnostics", {}))
        print(json.dumps(report, indent=2), file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
