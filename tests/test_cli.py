"""End-to-end command-line runs, in process via main()."""

import hashlib
import json
import logging
import os
import subprocess
import sys
from collections import Counter

import pytest

import isocycle as ic
from conftest import TIGHT14_REROUTE_START, short_isolating_cycles, tight14_slice
from isocycle import cli, extension
from isocycle.cli import main
from isocycle.errors import ContractViolation, ExtensionNotFound, IsocycleError
from isocycle.generators import base_hamiltonian_cycle, double_wheel, named_graph

# the exit code of every package error: 2 invalid input, 3 a broken audit
# contract, 4 no extension
ERROR_EXIT_CODES = {
    "ParseError": 2,
    "NotSimple": 2,
    "InconsistentRotation": 2,
    "NonPlanarEmbedding": 2,
    "NotCycle": 2,
    "NotIsolating": 2,
    "InvalidMove": 2,
    "TooLarge": 2,
    "SizeTooSmall": 2,
    "BaseNotFourConnected": 2,
    "UnknownName": 2,
    "ContractViolation": 3,
    "CycleTooShort": 3,
    "MinorOneFacePresent": 3,
    "DegenerateSide": 3,
    "ExtensionNotFound": 4,
}
# sha256 of the moves of `isocycle grow` on the n=14 tight instance from
# TIGHT14_REROUTE_START, each projected onto its pattern, added,
# removed_arcs and inserted_paths, as sorted-key compact JSON
PINNED_TIGHT14_MOVES_DETAIL = (
    "e4f6f2bc3c9e39181ed4801bf931b9a8fa1320e5ba626cfdced50fba27dc7c2a"
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None


@pytest.fixture()
def octa_file(tmp_path):
    path = tmp_path / "octa.json"
    ic.save_graph(ic.octahedron(), path)
    return str(path)


@pytest.fixture()
def ladder_file(tmp_path, ladder):
    g, _ = ladder
    path = tmp_path / "ladder.json"
    ic.save_graph(g, path)
    return str(path)


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1


def test_unknown_flag_is_usage_error(capsys):
    assert main(["validate", "--graph", "x.json", "--frobnicate"]) == 1


def test_gen_rejects_transfer_pair_flag(capsys):
    # no command takes a transfer-pair flag
    assert main(["gen", "--family", "named", "--name", "k4", "--lax-transfer-pair"]) == 1


# arguments each command runs with, so that a refused flag is refused as such
COMMAND_ARGS = {
    "validate": ["--graph", "{graph}"],
    "analyze": ["--graph", "{graph}", "--cycle", "r0,r1,r2,r3"],
    "audit": ["--graph", "{graph}", "--cycle", "r0,r1,r2,r3"],
    "extend": ["--graph", "{graph}", "--cycle", "r0,r1,r2,r3"],
    "grow": ["--graph", "{graph}", "--cycle", "r0,r1,r2,r3"],
    "gen": ["--family", "named", "--name", "k4"],
    "circ": ["--graph", "{graph}"],
    "export-dot": ["--graph", "{graph}"],
    "batch": ["--count", "0"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_every_command_rejects_json_indent(octa_file, capsys, command):
    # every report is printed with indent 2; no flag changes it
    argv = [command] + [a.format(graph=octa_file) for a in COMMAND_ARGS[command]]
    assert main(argv + ["--json-indent", "2"]) == 1
    assert "unrecognized arguments: --json-indent" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--lax-transfer-pair", "--strict-transfer-pair"])
@pytest.mark.parametrize("command", ["analyze", "audit"])
def test_analyze_and_audit_reject_transfer_pair_flags(octa_file, capsys, command, flag):
    # the witness of a transfer pair is always an arch of the same tunnel
    argv = [command, "--graph", octa_file, "--cycle", "r0,r1,r2,r3", flag]
    assert main(argv) == 1


def test_missing_graph_file_is_validation_error(capsys):
    assert main(["validate", "--graph", "/nonexistent/g.json"]) == 2


def test_every_package_error_has_a_pinned_exit_code():
    assert {cls.__name__ for cls in IsocycleError.__subclasses__()} == set(ERROR_EXIT_CODES)


@pytest.mark.parametrize(
    "exc_type, code",
    [(cls, ERROR_EXIT_CODES[cls.__name__]) for cls in IsocycleError.__subclasses__()]
    + [(OSError, 2)],
    ids=lambda x: getattr(x, "__name__", str(x)),
)
def test_errors_exit_with_their_code(monkeypatch, capsys, exc_type, code):
    def fail(path):
        raise exc_type("boom")

    monkeypatch.setattr(cli, "load_graph", fail)
    assert main(["circ", "--graph", "g.json"]) == code
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == exc_type.__name__ and err["message"] == "boom"


def test_validate_reports_polyhedral(octa_file, capsys):
    code, rep = run_json(capsys, "validate", "--graph", octa_file, "--level", "polyhedral")
    assert code == 0
    assert rep["three_connected"] is True
    assert rep["n"] == 6 and rep["m"] == 12


def test_validate_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--graph", str(bad)]) == 2


def test_validate_polyhedral_fails_on_square(tmp_path, capsys):
    square = ic.graph_from_faces([("a", "b", "c", "d"), ("d", "c", "b", "a")])
    path = tmp_path / "square.json"
    ic.save_graph(square, path)
    assert main(["validate", "--graph", str(path), "--level", "polyhedral"]) == 2


@pytest.mark.parametrize(
    "doc", [{"vertices": ["a"], "rotation": {"a": []}}, {"vertices": [], "rotation": {}}]
)
def test_validate_rejects_a_graph_with_no_edge(tmp_path, capsys, doc):
    # K1 and the empty graph are refused by name, not as a failed Euler check
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "validate", "--graph", str(path))
    assert code == 2
    assert rep["valid"] is False and rep["error"] == "SizeTooSmall"
    assert "at least one edge" in rep["message"]


def test_analyze_equator(octa_file, capsys):
    code, rep = run_json(
        capsys, "analyze", "--graph", octa_file, "--cycle", "r0,r1,r2,r3"
    )
    assert code == 0
    assert rep["c"] == 4
    assert sorted(rep["v_minus"] + rep["v_plus"]) == ["a", "b"]
    assert len(rep["faces"]) == 8


def test_analyze_cycle_from_sidecar_file(octa_file, tmp_path, capsys):
    side = tmp_path / "cycle.json"
    side.write_text(json.dumps(["r0", "r1", "r2", "r3"]))
    code, rep = run_json(
        capsys, "analyze", "--graph", octa_file, "--cycle", f"@{side}"
    )
    assert code == 0 and rep["c"] == 4


def test_analyze_rejects_malformed_cycle_sidecar(octa_file, tmp_path, capsys):
    side = tmp_path / "bad.json"
    side.write_text("[r0, r1")
    assert main(["analyze", "--graph", octa_file, "--cycle", f"@{side}"]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_analyze_rejects_a_cycle_sidecar_that_is_no_list(octa_file, tmp_path, capsys):
    side = tmp_path / "object.json"
    side.write_text('{"cycle": ["r0", "r1", "r2", "r3"]}')
    assert main(["analyze", "--graph", octa_file, "--cycle", f"@{side}"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == "cycle sidecar must be a JSON list of vertex ids"


@pytest.mark.parametrize("item", ['["a"]', "true", "1.5", "null", '{"a": 1}'])
def test_analyze_rejects_a_cycle_sidecar_item_that_is_no_vertex_id(
    octa_file, tmp_path, capsys, item
):
    # only strings and integers name vertices; any other item is named in
    # the error, not stringified into an unknown vertex
    side = tmp_path / "bad.json"
    side.write_text(f'[{item}, "r0", "r1"]')
    assert main(["analyze", "--graph", octa_file, "--cycle", f"@{side}"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert json.dumps(json.loads(item)) in err["message"]


# "[]" saved as UTF-16 with its byte-order mark: not UTF-8, so not JSON
NOT_UTF8 = b"\xff\xfe[\x00]\x00"


def test_validate_rejects_non_utf8_graph(tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(NOT_UTF8)
    code, rep = run_json(capsys, "validate", "--graph", str(bad))
    assert code == 2
    assert rep["valid"] is False and rep["error"] == "ParseError"


def test_analyze_rejects_non_utf8_cycle_sidecar(octa_file, tmp_path, capsys):
    side = tmp_path / "utf16.json"
    side.write_bytes(NOT_UTF8)
    assert main(["analyze", "--graph", octa_file, "--cycle", f"@{side}"]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_validate_rejects_deeply_nested_graph(tmp_path, capsys):
    # json's decoder recurses once per bracket; that is a parse error too
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code, rep = run_json(capsys, "validate", "--graph", str(deep))
    assert code == 2
    assert rep["valid"] is False and rep["error"] == "ParseError"
    assert main(["circ", "--graph", str(deep)]) == 2


def test_analyze_rejects_deeply_nested_cycle_sidecar(octa_file, tmp_path, capsys):
    side = tmp_path / "deep.json"
    side.write_text("[" * 100000)
    assert main(["analyze", "--graph", octa_file, "--cycle", f"@{side}"]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_analyze_rejects_bad_cycle(octa_file, capsys):
    assert main(["analyze", "--graph", octa_file, "--cycle", "r0,r2,a"]) == 2


def test_audit_short_cycle_is_contract_error(octa_file, capsys):
    assert main(["audit", "--graph", octa_file, "--cycle", "r0,r1,r2,r3"]) == 3


def test_audit_ladder(ladder_file, capsys):
    cycle = ",".join(f"v{i}" for i in range(19))
    code, rep = run_json(capsys, "audit", "--graph", ladder_file, "--cycle", cycle)
    assert code == 0
    assert rep["checks"]["conservation"] is True
    assert rep["checks"]["conditions_exclusive"] is True
    assert sum(rep["final_weights"].values()) == 38
    # the ledger's summary and the implied bound once; no verdict twice
    assert list(rep) == [
        "c", "n", "pulls", "initial_weights", "final_weights", "checks", "violations",
        "implied_bound",
    ]
    assert rep["implied_bound"] == "58/3"


@pytest.mark.parametrize("command", ["extend", "grow"])
@pytest.mark.parametrize("cycle", ["r0,r2,a", "a,r0,r1"])
def test_extend_and_grow_reject_bad_cycles(octa_file, capsys, command, cycle):
    # r0,r2,a is not a cycle; a,r0,r1 is one that leaves b-r2 uncovered
    assert main([command, "--graph", octa_file, "--cycle", cycle]) == 2


def test_extend_hamiltonian_cycle_finds_nothing(octa_file, capsys):
    cycle = "r0,r1,a,r2,r3,b"
    assert main(["extend", "--graph", octa_file, "--cycle", cycle]) == 4


def test_extend_equator(octa_file, capsys):
    code, rep = run_json(
        capsys, "extend", "--graph", octa_file, "--cycle", "r0,r1,r2,r3"
    )
    assert code == 0
    assert rep["new_cycle"] == ["r0", "a", "r1", "r2", "r3"]
    assert rep["added"] == ["a"]
    assert rep["removed_arcs"] == [["r0", "r1"]]
    assert rep["inserted_paths"] == [["r0", "a", "r1"]]


def test_runs_off_returns_a_cycle_sharing_no_edge_as_one_closed_run():
    # the octahedron's equator and the 4-cycle through both poles share no
    # edge, so each, passed closed, comes back whole as one run
    equator, poles = ("r0", "r1", "r2", "r3"), ("a", "r0", "b", "r2")
    assert cli._runs_off(cli._closed(equator, poles), poles + poles[:1]) == [
        list(equator + ("r0",))
    ]
    assert cli._runs_off(cli._closed(poles, equator), equator + equator[:1]) == [
        list(poles + ("a",))
    ]
    turned = equator[1:] + equator[:1]
    assert cli._runs_off(cli._closed(equator, turned), turned + turned[:1]) == []


def test_a_closed_cycle_starts_where_no_run_crosses_it():
    # the run r-s-p-q of edges off ``other`` crosses position 0 of the cycle,
    # so the closed path starts at r, after the one shared edge q-r, and the
    # run comes back whole
    cycle, other = ("p", "q", "r", "s"), ("q", "r", "x", "s", "y")
    assert cli._closed(cycle, other) == ("r", "s", "p", "q", "r")
    assert cli._runs_off(cli._closed(cycle, other), other + other[:1]) == [["r", "s", "p", "q"]]
    assert cli._runs_off(("p", "q", "r"), ("r", "q")) == [["p", "q"]]


def _cyclic_runs_off(cycle, other):
    """Reference: the runs of edges of the cycle ``cycle`` that the cycle
    ``other`` lacks, found on the whole cycles, as `isocycle grow` once
    reported every move; a cycle sharing no edge is one closed run."""
    edges = {frozenset(e) for e in zip(other, other[1:] + other[:1])}
    hit = [frozenset(e) not in edges for e in zip(cycle, cycle[1:] + cycle[:1])]
    if all(hit):
        return [list(cycle) + [cycle[0]]]
    c = len(cycle)
    runs = []
    for i in range(c):
        if hit[i] and not hit[i - 1]:
            j = i
            while hit[j % c]:
                j += 1
            runs.append([cycle[k % c] for k in range(i, j + 1)])
    return runs


def _edges(path):
    return {frozenset(e) for e in zip(path, path[1:])}


def _assert_moves_diff_the_cycles(start, cycles, moves, reported):
    """Each reported move holds the runs of the whole-cycle diff of
    ``cycles`` (as sorted lists), and replaying ``start`` through the
    reported runs gives each cycle's edges in turn."""
    assert len(reported) == len(moves) == len(cycles) - 1
    edges = _edges(start + start[:1])
    for old, new, move, d in zip(cycles, cycles[1:], moves, reported):
        assert list(d) == ["pattern", "added", "length", "removed_arcs", "inserted_paths"]
        assert (d["pattern"], d["added"], d["length"]) == (
            move.pattern, list(move.added), len(new),
        )
        assert sorted(d["removed_arcs"]) == sorted(_cyclic_runs_off(old, new))
        assert sorted(d["inserted_paths"]) == sorted(_cyclic_runs_off(new, old))
        removed = set().union(*map(_edges, d["removed_arcs"]))
        inserted = set().union(*map(_edges, d["inserted_paths"]))
        assert removed <= edges and not inserted & edges
        edges = (edges - removed) | inserted
        assert edges == _edges(new + new[:1])


def test_grow_moves_hold_the_runs_of_the_whole_cycle_diff(sweep_corpus, monkeypatch):
    # each move's runs are read off its splice, O(|window| + |path|); they
    # must be the runs the whole-cycle diff finds, for every move of the
    # golden tight14 slice (1403 apex inserts and 204 reroutes), of a corpus
    # sample and of growths made of exhaustive moves only
    g, starts = tight14_slice()
    jobs = [(g, starts)] + [(h, short_isolating_cycles(h, cap=4)) for h in sweep_corpus[::9]]
    patterns = Counter()
    for h, hstarts in jobs:
        for start in hstarts:
            trace = ic.grow_to_bound(h, start)
            reported = cli._grow_report(trace)["moves"]
            _assert_moves_diff_the_cycles(start, trace.cycles, trace.moves, reported)
            patterns.update(d["pattern"] for d in reported)
    assert patterns == Counter({"apex-insert": 1403 + 456, "window-reroute": 204})
    monkeypatch.setattr(extension, "find_extension_fast", lambda g, cycle: None)
    equator = ("r0", "r1", "r2", "r3")
    for h, start in [(g, TIGHT14_REROUTE_START), (g, starts[1]), (ic.octahedron(), equator)]:
        trace = ic.grow_to_bound(h, start)
        reported = cli._grow_report(trace)["moves"]
        assert {d["pattern"] for d in reported} == {"exhaustive"}
        _assert_moves_diff_the_cycles(start, trace.cycles, trace.moves, reported)


def test_grow_report_on_the_double_wheel_replays_to_its_cycles(tmp_path, capsys, monkeypatch):
    # end to end on the n=200 double wheel: the report carries one record
    # and no cycle per move, and cmd_grow replays no trace without --dump-dot
    g = ic.gen_insertion_family(double_wheel(66))
    start = base_hamiltonian_cycle(66)
    path = tmp_path / "dwheel.json"
    ic.save_graph(g, path)
    trace = ic.grow_to_bound(g, start)
    cycles, moves = trace.cycles, trace.moves

    def replayed(self):
        raise AssertionError("the report replays the trace")

    monkeypatch.setattr(extension.GrowthTrace, "moves", property(replayed))
    monkeypatch.setattr(extension.GrowthTrace, "cycles", property(replayed))
    code, rep = run_json(capsys, "grow", "--graph", str(path), "--cycle", ",".join(start))
    assert code == 0 and "moves_detail" not in rep and len(rep["moves"]) == 68
    _assert_moves_diff_the_cycles(start, cycles, moves, rep["moves"])


def test_extend_report_is_the_whole_cycle_diff(sweep_corpus, tmp_path, capsys, monkeypatch):
    # `isocycle extend` diffs the whole old and new cycles, and lists the
    # runs in the order of the cyclic diff, on moves of both tiers
    g, starts = tight14_slice()
    starts = [c for c in starts[::10] if len(c) < ic.isolation_bound(g)]
    jobs = [(g, starts), (sweep_corpus[3], short_isolating_cycles(sweep_corpus[3], cap=4))]
    for tier in ("fast", "exhaustive"):
        if tier == "exhaustive":
            monkeypatch.setattr(cli, "find_extension_fast", lambda g, cycle: None)
        for i, (h, hstarts) in enumerate(jobs):
            path = tmp_path / f"g{i}.json"
            ic.save_graph(h, path)
            for start in hstarts:
                argv = ["extend", "--graph", str(path), "--cycle", ",".join(start)]
                code, rep = run_json(capsys, *argv)
                new = tuple(rep["new_cycle"])
                assert code == 0 and list(rep) == [
                    "pattern", "new_cycle", "added", "removed_arcs", "inserted_paths",
                ]
                assert rep["removed_arcs"] == _cyclic_runs_off(start, new)
                assert rep["inserted_paths"] == _cyclic_runs_off(new, start)


def test_extend_tier_2_only_is_exhaustive(monkeypatch, octa_file, capsys):
    # the exhaustive tier runs when the fast tier finds nothing
    monkeypatch.setattr(cli, "find_extension_fast", lambda g, cycle: None)
    code, rep = run_json(capsys, "extend", "--graph", octa_file, "--cycle", "r0,r1,r2,r3")
    assert code == 0
    assert rep["pattern"] == "exhaustive" and rep["added"] == ["a"]


def test_grow_tier_2_only_makes_only_exhaustive_moves(monkeypatch, octa_file, capsys):
    monkeypatch.setattr(extension, "find_extension_fast", lambda g, cycle: None)
    code, rep = run_json(capsys, "grow", "--graph", octa_file, "--cycle", "r0,r1,r2,r3")
    assert code == 0
    assert [m["pattern"] for m in rep["moves"]] == ["exhaustive"] * 2
    assert all(m["removed_arcs"] and m["inserted_paths"] for m in rep["moves"])
    assert "moves_detail" not in rep
    assert rep["fallbacks"] == 2 and rep["lengths"] == [4, 5, 6]


@pytest.mark.parametrize("command", ["extend", "grow"])
def test_extend_and_grow_reject_a_tier_switch(octa_file, capsys, command):
    # growth picks the tier itself; no flag forces the exhaustive one
    argv = [command, "--graph", octa_file, "--cycle", "r0,r1,r2,r3", "--tier-2-only"]
    assert main(argv) == 1


def test_verbose_flag_sets_debug_logging(monkeypatch, octa_file, capsys):
    levels = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
    code, rep = run_json(capsys, "-v", "grow", "--graph", octa_file, "--cycle", "r0,r1,r2,r3")
    assert code == 0 and rep["completed"] is True
    assert levels == [logging.DEBUG]


def test_grow_writes_report_and_snapshots(octa_file, tmp_path, capsys):
    out = tmp_path / "trace.json"
    dots = tmp_path / "dots"
    code = main([
        "grow", "--graph", octa_file, "--cycle", "r0,r1,r2,r3",
        "--out", str(out), "--dump-dot", str(dots),
    ])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["lengths"] == [4, 5, 6]
    assert rep["completed"] is True
    assert sorted(p.name for p in dots.iterdir()) == [
        "step000.dot", "step001.dot", "step002.dot",
    ]


def test_grow_moves_on_tight14_reroute(tmp_path, capsys):
    path = tmp_path / "tight14.json"
    ic.save_graph(ic.gen_insertion_family(ic.octahedron()), path)
    cycle = ",".join(TIGHT14_REROUTE_START)
    code, rep = run_json(capsys, "grow", "--graph", str(path), "--cycle", cycle)
    assert code == 0 and "moves_detail" not in rep
    moves = rep["moves"]
    assert [m["pattern"] for m in moves] == ["apex-insert"] * 5 + ["window-reroute"]
    assert "new_cycle" not in moves[0]
    keys = ("pattern", "added", "removed_arcs", "inserted_paths")
    projected = [{k: m[k] for k in keys} for m in moves]
    text = json.dumps(projected, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TIGHT14_MOVES_DETAIL


def test_grow_without_any_move_exits_four(monkeypatch, octa_file, capsys):
    monkeypatch.setattr(extension, "find_extension_fast", lambda g, cycle: None)
    monkeypatch.setattr(extension, "find_extension_exhaustive", lambda g, cycle: None)
    assert main(["grow", "--graph", octa_file, "--cycle", "r0,r1,r2,r3"]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ExtensionNotFound"
    assert {"cycle", "length", "bound", "n", "budget"} <= set(err)


def test_grow_on_a_broken_analysis_exits_three(monkeypatch, tmp_path, capsys):
    # a contract failure on a reroute step is reported as one (exit 3), not
    # as a missing extension (exit 4)
    def broken(g, cycle):
        raise ContractViolation("planted")

    monkeypatch.setattr(extension, "analyze_cycle", broken)
    path = tmp_path / "tight14.json"
    ic.save_graph(ic.gen_insertion_family(ic.octahedron()), path)
    cycle = ",".join(TIGHT14_REROUTE_START)
    assert main(["grow", "--graph", str(path), "--cycle", cycle]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ContractViolation", "message": "planted"}


def test_gen_named_graph_roundtrip(tmp_path, capsys):
    out = tmp_path / "cube.json"
    code = main(["gen", "--family", "named", "--name", "cube", "--out", str(out)])
    assert code == 0
    g = ic.load_graph(out)
    assert g.n == 8 and g.m == 12


@pytest.mark.parametrize("command", ["gen", "export-dot"])
def test_out_writes_the_bytes_stdout_gets(octa_file, tmp_path, capsys, command):
    argv = [command] + [a.format(graph=octa_file) for a in COMMAND_ARGS[command]]
    code, printed = run(capsys, *argv)
    assert code == 0
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("utf-8")
    if command == "gen":
        assert printed == json.dumps(ic.graph_to_json_dict(named_graph("k4")), indent=2) + "\n"


def test_out_into_a_missing_directory_is_invalid_input(tmp_path, capsys):
    out = tmp_path / "missing" / "k4.json"
    assert main(["gen", "--family", "named", "--name", "k4", "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"


@pytest.mark.parametrize("buffered", [True, False])
def test_a_closed_stdout_pipe_ends_quietly_with_141(buffered):
    # the reader is gone before the command writes: no error report, and
    # the status a SIGPIPE death gives, whether stdout is buffered or not
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ic.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        argv = [sys.executable, "-m", "isocycle.cli", "gen", "--family", "named", "--name", "k4"]
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.parametrize("family", ["named", "insertion", "random"])
def test_gen_without_its_family_argument_is_a_usage_error(capsys, family):
    # --name, --base and --n are each required by one family only
    assert main(["gen", "--family", family]) == 1
    assert f"gen --family {family} needs --" in capsys.readouterr().err


def test_gen_random_zero_vertices_is_validation_error(capsys):
    assert main(["gen", "--family", "random", "--n", "0"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SizeTooSmall"


def test_gen_insertion_family(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code = main([
        "gen", "--family", "insertion", "--base", "octahedron", "--out", str(out),
    ])
    assert code == 0
    assert ic.load_graph(out).n == 14


def test_gen_insertion_family_names_a_clashing_base_id(tmp_path, capsys):
    # a base vertex named like a new vertex is invalid input, not a crash
    d = json.loads(json.dumps(ic.graph_to_json_dict(ic.octahedron())).replace('"a"', '"w0"'))
    path = tmp_path / "base.json"
    ic.save_graph(ic.graph_from_json_dict(d), path)
    for fill in ([], ["--fill", "2"]):
        assert main(["gen", "--family", "insertion", "--base", str(path)] + fill) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "IsocycleError" and "'w0'" in err["message"]


def test_gen_random_four_connected_is_a_double_wheel(capsys):
    code, random_out = run(capsys, "gen", "--family", "random", "--n", "12", "--four-connected")
    assert code == 0
    code, named_out = run(capsys, "gen", "--family", "named", "--name", "double_wheel:10")
    assert code == 0 and random_out == named_out


def test_circ_octahedron(octa_file, capsys):
    code, rep = run_json(capsys, "circ", "--graph", octa_file)
    assert code == 0 and rep["circumference"] == 6


def test_circ_limit(octa_file, capsys):
    # the octahedron has 6 vertices: a limit of 5 refuses it, 6 admits it
    assert main(["circ", "--graph", octa_file, "--limit", "5"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "TooLarge"
    code, rep = run_json(capsys, "circ", "--graph", octa_file, "--limit", "6")
    assert code == 0 and rep["circumference"] == 6
    # a negative limit is a usage error, like a negative --count or --cap
    assert main(["circ", "--graph", octa_file, "--limit", "-1"]) == 1
    assert "--limit" in capsys.readouterr().err


def test_export_dot_highlight(octa_file, capsys):
    code, out = run(capsys, "export-dot", "--graph", octa_file, "--cycle", "r0,r1,r2,r3")
    assert code == 0
    assert out.startswith("graph")


@pytest.mark.parametrize("command", ["export-dot", "analyze", "grow"])
@pytest.mark.parametrize("cycle", ["", ","])
def test_empty_cycle_is_a_parse_error(octa_file, capsys, command, cycle):
    # export-dot's --cycle is optional, but an empty one is an error, not
    # a request to highlight nothing
    assert main([command, "--graph", octa_file, "--cycle", cycle]) == 2
    assert "empty cycle argument" in capsys.readouterr().err


def test_export_dot_out_is_utf8(tmp_path, capsys):
    d = ic.graph_to_json_dict(named_graph("k4"))
    d = json.loads(json.dumps(d).replace('"r1"', '"r1\u00e9"'))
    g = ic.graph_from_json_dict(d)
    graph = tmp_path / "k4.json"
    ic.save_graph(g, graph)
    out = tmp_path / "k4.dot"
    assert main(["export-dot", "--graph", str(graph), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == ic.graph_to_dot(g)


def test_batch_runs_clean(capsys):
    code, rep = run_json(
        capsys, "batch", "--count", "2", "--base-n", "8", "--cap", "2", "--seed", "3"
    )
    assert code == 0
    assert len(rep["instances"]) == 2
    assert all(row["grown"] == row["cycles"] for row in rep["instances"])
    assert rep["alarms"] == 0


def test_batch_counts_an_alarm_and_exits_four(capsys, monkeypatch):
    # a start whose growth finds no move is an alarm: the batch goes on,
    # reports it and exits 4
    real = cli.grow_to_bound
    calls = []

    def first_start_alarms(g, cycle):
        calls.append(cycle)
        if len(calls) == 1:
            raise ExtensionNotFound("planted")
        return real(g, cycle)

    monkeypatch.setattr(cli, "grow_to_bound", first_start_alarms)
    code, rep = run_json(
        capsys, "batch", "--count", "2", "--base-n", "8", "--cap", "2", "--seed", "3"
    )
    assert code == 4
    assert rep["alarms"] == 1
    assert [row["cycles"] - row["grown"] for row in rep["instances"]] == [1, 0]


def test_batch_fill_sets_the_instance_size(capsys):
    # each base has n = 8, and every filled face adds one vertex
    code, rep = run_json(
        capsys, "batch", "--count", "2", "--base-n", "8", "--fill", "3", "--cap", "1"
    )
    assert code == 0
    assert [row["n"] for row in rep["instances"]] == [11, 11]


def test_batch_cap_zero_grows_nothing_and_below_zero_is_usage_error(capsys):
    code, rep = run_json(capsys, "batch", "--count", "1", "--base-n", "8", "--cap", "0")
    assert code == 0
    assert rep["instances"][0]["cycles"] == rep["instances"][0]["grown"] == 0
    assert main(["batch", "--count", "1", "--cap", "-1"]) == 1
    assert "--cap" in capsys.readouterr().err
    # a negative count used to print an empty batch and exit 0
    assert main(["batch", "--count", "-2"]) == 1
    assert "--count" in capsys.readouterr().err
