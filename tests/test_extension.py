"""Extension moves, the two-tier search, and growth to the length bound."""

import gc
import sys
import tracemalloc
from collections import Counter
from itertools import combinations, permutations
from types import SimpleNamespace

import pytest

import isocycle as ic
from conftest import TIGHT14_REROUTE_START, short_isolating_cycles, tight14_slice
from isocycle import extension
from isocycle.cycle_analysis import Arch, analyze_cycle
from isocycle.discharging import apply_discharging
from isocycle.errors import (
    ContractViolation,
    CycleTooShort,
    DegenerateSide,
    ExtensionNotFound,
    InvalidMove,
    NotIsolating,
)
from isocycle.extension import Move, extension_budget
from isocycle.generators import base_hamiltonian_cycle, cube, double_wheel, k4, wheel
from isocycle.oracles import find_hamiltonian_path, hamiltonian_cycles
from isocycle.plane_graph import check_cycle
from isocycle.tunnels import Tunnel


EQUATOR = ("r0", "r1", "r2", "r3")
# a face triangle of the octahedron: b, r2 and r3 stay off it and are
# pairwise adjacent, so the triangle is a cycle but not an isolating one
TRIANGLE = ("a", "r0", "r1")
# an isolating 6-cycle of the cube: the cube is bipartite, so it grows by two
CUBE_SIX = ("v4", "v5", "v1", "v2", "v3", "v7")


def make_move(g, old_cycle, new_cycle, pattern):
    """The oracle for moves: check both whole cycles and build the move."""
    old = check_cycle(g, old_cycle)
    new = check_cycle(g, new_cycle)
    old_set = set(old)
    new_set = set(new)
    if not old_set <= new_set:
        raise InvalidMove("the new cycle must keep every old cycle vertex")
    added = tuple(g.sorted_vertices(new_set - old_set))
    if not added:
        raise InvalidMove("the new cycle must be strictly longer")
    budget = extension_budget(g)
    if len(added) > budget:
        raise InvalidMove(f"move adds {len(added)} vertices, budget is {budget}")
    return Move(new_cycle=new, added=added, pattern=pattern)


def test_isolation_bound_values():
    assert ic.isolation_bound(ic.octahedron()) == 6
    assert ic.isolation_bound(cube()) == 8
    # small graphs are capped by n rather than the two-thirds bound
    assert ic.isolation_bound(k4()) == 4


def test_extension_budget_counts_degree_five_vertices():
    g = ic.octahedron()
    # every octahedron vertex has degree 4; wheel(5) has five rim vertices
    # of degree 3 and a hub of degree 5
    assert extension_budget(g) == 3
    assert extension_budget(wheel(5)) == 4


def test_make_move_derives_patch_description():
    g = ic.octahedron()
    mv = make_move(g, EQUATOR, ("r0", "a", "r1", "r2", "r3"), "apex-insert")
    assert mv.added == ("a",)
    assert mv.pattern == "apex-insert"
    assert mv.new_cycle == ("r0", "a", "r1", "r2", "r3")


def test_make_move_rejects_dropped_vertices():
    g = ic.octahedron()
    with pytest.raises(InvalidMove):
        make_move(g, EQUATOR, ("r0", "a", "r1", "b", "r3"), "bad")


def test_make_move_rejects_no_growth():
    g = ic.octahedron()
    with pytest.raises(InvalidMove):
        make_move(g, EQUATOR, ("r1", "r2", "r3", "r0"), "noop")


def test_apply_move_returns_new_cycle():
    g = ic.octahedron()
    mv = make_move(g, EQUATOR, ("r0", "a", "r1", "r2", "r3"), "apex-insert")
    # validating the move's own new cycle again reproduces the move
    again = make_move(g, EQUATOR, mv.new_cycle, mv.pattern)
    assert again == mv and again.new_cycle == ("r0", "a", "r1", "r2", "r3")


def test_fast_extension_on_equator():
    g = ic.octahedron()
    mv = ic.find_extension_fast(g, EQUATOR)
    assert mv is not None
    assert len(mv.added) == 1
    assert ic.is_isolating(g, mv.new_cycle)


def test_exhaustive_extension_agrees_on_equator():
    g = ic.octahedron()
    mv = ic.find_extension_exhaustive(g, EQUATOR)
    assert mv is not None
    assert set(EQUATOR) < set(mv.new_cycle)
    assert len(mv.added) <= extension_budget(g)


def test_no_extension_past_hamiltonian():
    g = ic.octahedron()
    ham = next(hamiltonian_cycles(g), None)
    assert ic.find_extension_exhaustive(g, ham) is None


def test_grow_rejects_non_isolating_start():
    g = ic.octahedron()
    assert not ic.is_isolating(g, TRIANGLE)
    with pytest.raises(NotIsolating):
        ic.grow_to_bound(g, TRIANGLE)


def test_fast_tier_rejects_non_isolating_start():
    with pytest.raises(NotIsolating):
        ic.find_extension_fast(ic.octahedron(), TRIANGLE)


def test_exhaustive_tier_rejects_non_isolating_start():
    with pytest.raises(NotIsolating):
        ic.find_extension_exhaustive(ic.octahedron(), TRIANGLE)


def test_exhaustive_tier_past_the_recursion_limit():
    # the tier's cycle search runs through all 1003 vertices of the base
    # cycle and one chosen vertex, deeper than the interpreter's recursion
    # limit, and returns the first +1 move
    g = ic.gen_insertion_family(double_wheel(1000))
    start = base_hamiltonian_cycle(1000)
    assert len(start) + 1 > sys.getrecursionlimit()
    move = ic.find_extension_exhaustive(g, start)
    assert move.pattern == "exhaustive" and len(move.added) == 1
    assert set(move.new_cycle) == set(start).union(move.added)


def test_exhaustive_tier_checks_without_make_move(sweep_sample):
    # the exhaustive tier checks its start at entry and the cycle it finds
    # on the chosen vertex set; its moves equal the ones the oracle's full
    # checks build
    jobs = [(cube(), [CUBE_SIX])]
    jobs += [(g, short_isolating_cycles(g, cap=4)) for g in sweep_sample]
    found = [
        (g, start, ic.find_extension_exhaustive(g, start))
        for g, starts in jobs
        for start in starts
    ]
    assert len(found[0][2].added) == 2
    for g, start, move in found:
        assert move == make_move(g, start, move.new_cycle, "exhaustive")
    assert len(found) == 1 + 92


def test_grow_octahedron_step_by_step():
    g = ic.octahedron()
    trace = ic.grow_to_bound(g, EQUATOR)
    assert [len(c) for c in trace.cycles] == [4, 5, 6]
    assert trace.completed
    assert trace.fallbacks == 0
    assert trace.bound == 6


def test_grow_cube_adds_two_per_step():
    g = cube()
    trace = ic.grow_to_bound(g, CUBE_SIX)
    # a bipartite graph has no odd cycles, so a step adds two vertices
    assert [len(c) for c in trace.cycles] == [6, 8]
    assert trace.completed


def test_grow_is_noop_at_the_bound(ladder):
    g, cycle = ladder
    trace = ic.grow_to_bound(g, cycle)
    assert trace.cycles == [cycle]
    assert trace.moves == [] and trace.completed


def test_grow_cyclic_instance(cyclic_instance):
    g, cycle = cyclic_instance
    trace = ic.grow_to_bound(g, cycle)
    assert [len(c) for c in trace.cycles] == [8, 9]
    assert set(trace.cycles[-1]) - set(cycle) in ({"u"}, {"w"})


def test_tier2_only_reaches_the_same_bound(monkeypatch):
    # the exhaustive tier alone, with the fast tier patched to find nothing
    monkeypatch.setattr(extension, "find_extension_fast", lambda g, cycle: None)
    trace = ic.grow_to_bound(ic.octahedron(), EQUATOR)
    assert len(trace.cycles[-1]) == 6 and trace.completed
    assert all(m.pattern == "exhaustive" for m in trace.moves)
    # each step is a fallback from a fast tier that found nothing
    assert trace.fallbacks == len(trace.moves) == 2


def test_growth_falls_back_when_the_fast_tier_finds_nothing(monkeypatch):
    monkeypatch.setattr(extension, "find_extension_fast", lambda g, cycle: None)
    g = ic.gen_insertion_family(ic.octahedron())
    trace = ic.grow_to_bound(g, TIGHT14_REROUTE_START)
    assert trace.moves and all(m.pattern == "exhaustive" for m in trace.moves)
    assert trace.fallbacks == len(trace.moves)
    assert trace.completed


def test_a_broken_analysis_contract_propagates(monkeypatch, caplog):
    # a ContractViolation on a reroute step is a broken precondition: both
    # entry points raise it, and growth neither falls back nor counts one;
    # the patched calls run on a fresh graph, whose reroute memo is empty
    grown = ic.gen_insertion_family(ic.octahedron())
    reroute_cycle = ic.grow_to_bound(grown, TIGHT14_REROUTE_START).cycles[5]
    g = ic.gen_insertion_family(ic.octahedron())

    def broken(g, cycle):
        raise ContractViolation("planted")

    exhaustive = []
    monkeypatch.setattr(extension, "analyze_cycle", broken)
    monkeypatch.setattr(
        extension, "find_extension_exhaustive", lambda *a: exhaustive.append(a)
    )
    caplog.set_level("INFO", logger=extension.__name__)
    with pytest.raises(ContractViolation, match="planted"):
        ic.find_extension_fast(g, reroute_cycle)
    with pytest.raises(ContractViolation, match="planted"):
        ic.grow_to_bound(g, TIGHT14_REROUTE_START)
    assert exhaustive == []
    assert not [r for r in caplog.records if "falling back" in r.getMessage()]


def test_growth_without_any_move_raises_extension_not_found(monkeypatch):
    monkeypatch.setattr(extension, "find_extension_fast", lambda g, cycle: None)
    monkeypatch.setattr(extension, "find_extension_exhaustive", lambda g, cycle: None)
    g = ic.octahedron()
    with pytest.raises(ExtensionNotFound) as info:
        ic.grow_to_bound(g, EQUATOR)
    assert info.value.diagnostics == {
        "cycle": list(EQUATOR), "length": 4, "bound": 6, "n": 6, "budget": 3,
    }


def test_trace_summary_and_pattern_counts():
    g = ic.octahedron()
    trace = ic.grow_to_bound(g, EQUATOR)
    s = trace.summary()
    assert s["n"] == 6 and s["bound"] == 6
    assert trace.start_cycle == EQUATOR
    assert trace.final_cycle == trace.cycles[-1]
    assert [m["pattern"] for m in s["moves"]] == [m.pattern for m in trace.moves]


def test_growth_invariants_on_sample(sweep_sample):
    for g in sweep_sample:
        cycles = ic.oracle_isolating_cycles(
            g, min_length=6, max_length=ic.isolation_bound(g) - 1, max_count=2
        )
        for cycle in cycles:
            trace = ic.grow_to_bound(g, cycle)
            assert trace.completed
            lengths = [len(c) for c in trace.cycles]
            assert lengths == sorted(lengths) and len(set(lengths)) == len(lengths)
            for prev, cur in zip(trace.cycles, trace.cycles[1:]):
                assert set(prev) < set(cur)
                assert ic.is_isolating(g, cur)
                assert len(set(cur) - set(prev)) <= extension_budget(g)
            assert len(trace.cycles[-1]) >= trace.bound


@pytest.mark.parametrize(
    "instance, patterns, analyses, ledgers",
    [
        ((double_wheel(20), base_hamiltonian_cycle(20)), {"apex-insert": 22}, 0, 0),
        (
            (ic.octahedron(), TIGHT14_REROUTE_START),
            {"apex-insert": 5, "window-reroute": 1},
            1,
            1,
        ),
    ],
    ids=["dwheel20", "tight14-reroute"],
)
def test_growth_builds_one_move_per_step(monkeypatch, instance, patterns, analyses, ledgers):
    # the fast tier checks its moves itself; the whole check_isolating runs
    # on the start and the final cycle only, and a cycle analysis (and at
    # most one discharging ledger) only for reroute steps; growth calls the fast tier through the module attribute, once
    # per step, so a patched attribute (as the benchmark's pacing hook uses)
    # sees every step
    base, start = instance
    g = ic.gen_insertion_family(base)
    checked = []
    analysed = []
    searched = []
    real_check = extension.check_isolating
    monkeypatch.setattr(
        extension, "check_isolating", lambda *a: checked.append(a) or real_check(*a)
    )
    real_fast = extension.find_extension_fast
    monkeypatch.setattr(
        extension, "find_extension_fast", lambda *a: searched.append(a) or real_fast(*a)
    )
    real_analyze = extension.analyze_cycle
    monkeypatch.setattr(
        extension, "analyze_cycle", lambda *a: analysed.append(a) or real_analyze(*a)
    )
    audited = _count_ledgers(monkeypatch)
    trace = ic.grow_to_bound(g, start)
    assert Counter(s.pattern for s in trace.splices) == patterns and trace.fallbacks == 0
    assert [a[1] for a in checked] == [start, trace.final_cycle]
    assert len(searched) == len(trace.moves)
    assert len(analysed) == analyses
    assert len(audited) == ledgers


def _count_ledgers(monkeypatch):
    """The list of analyses the fast tier runs the discharging ledger on."""
    audited = []
    real = extension._deficient_minors
    monkeypatch.setattr(
        extension, "_deficient_minors", lambda a: audited.append(a) or real(a)
    )
    return audited


def golden_slices(sweep_sample):
    """(graph, starts) of the golden tight14 slice and corpus sample."""
    return [tight14_slice()] + [(g, short_isolating_cycles(g, cap=4)) for g in sweep_sample]


def _eager_reroute(g, cyc):
    """The reroute the fast tier chose when it always ran the ledger first.

    Candidates are the tunnel windows, the windows of minor faces with m in
    {2, 3} and of every face the ledger flags, each clipped as before, in
    one sorted list; then sizes 1 to 3, windows in order, extras by
    ``combinations``.
    """
    a = analyze_cycle(g, cyc)
    c = a.c
    windows = set()

    def add(start, length):
        length = min(length, extension.MAX_WINDOW, c - 2)
        if length >= 2:
            windows.add((start % c, length))

    for tunnel in a.tunnels:
        if tunnel.cyclic:
            add(tunnel.arches[-1].start - 1, 7)
        elif 2 * tunnel.k + 1 <= extension.MAX_WINDOW - 2:
            add(tunnel.arches[0].start - 1, 2 * tunnel.k + 3)
    for fid in a.minor_faces():
        arch = a.proper_arch[fid]
        if arch.length in (2, 3):
            add(arch.start - 2, arch.length + 4)
    try:
        violations = apply_discharging(a).violations
    except (CycleTooShort, DegenerateSide):
        violations = {}
    for key in ("deficient_thin_minors", "deficient_thick_minors"):
        for fid in violations.get(key, ()):
            arch = a.proper_arch[fid]
            add(arch.start - 2, arch.length + 4)
    on = set(cyc)
    for size in (1, 2, 3):
        for start, length in sorted(windows):
            window, extras = extension._window(g, cyc, on, start, length)
            for chosen in combinations(extras, size):
                path = find_hamiltonian_path(g, set(window).union(chosen), window[0], window[-1])
                if path is not None:
                    return tuple(path) + (cyc[start:] + cyc[:start])[length + 1 :]
    return None


def test_lazy_ledger_walk_matches_the_eager_rule(monkeypatch):
    # the fast tier runs the discharging ledger only when its window walk
    # reaches a window that only the ledger can add and that holds a path;
    # every reroute of the golden tight14 slice must still be the one the
    # eager rule picks.  The slice grows on one graph, whose reroute memo
    # searches each of the 156 distinct cycles of its 204 reroute steps
    # once, and runs the ledger on 59 of those 156 analyses (eagerly and
    # without the memo, 204 each)
    g, starts = tight14_slice()
    analysed = []
    real_analyze = extension.analyze_cycle
    monkeypatch.setattr(
        extension, "analyze_cycle", lambda *a: analysed.append(a) or real_analyze(*a)
    )
    audited = _count_ledgers(monkeypatch)
    reroutes = []
    for start in starts:
        trace = ic.grow_to_bound(g, start)
        reroutes += [
            (cyc, move)
            for cyc, move in zip(trace.cycles, trace.moves)
            if move.pattern == "window-reroute"
        ]
    assert (len(reroutes), len(analysed), len(audited)) == (204, 156, 59)
    assert len({cyc for cyc, _ in reroutes}) == 156
    monkeypatch.undo()
    for cyc, move in reroutes:
        assert _eager_reroute(g, cyc) == move.new_cycle


def windows_of(c, arcs, tunnels=()):
    """``_candidate_windows`` of a stand-in analysis holding just what it
    reads: c, the tunnels and a proper arch per (face, start, length)."""
    proper_arch = {f: Arch(f, "proper", (), s, m, c) for f, s, m in arcs}
    return extension._candidate_windows(
        SimpleNamespace(c=c, tunnels=tunnels, proper_arch=proper_arch)
    )


@pytest.mark.parametrize(
    "c, arcs, tunnels, window",
    [
        # an open 1-tunnel at 2 proposes (1, 5), as does the 4-face at 3
        (7, [(0, 3, 4)], [Tunnel((Arch(9, "proper", (), 2, 3, 7),), cyclic=False)], (1, 5)),
        # the 3-face and the 5-face at 4 both propose (2, 7), in either order
        (9, [(0, 4, 3), (1, 4, 5)], [], (2, 7)),
        (9, [(1, 4, 5), (0, 4, 3)], [], (2, 7)),
    ],
)
def test_a_window_proposed_without_the_ledger_needs_none(c, arcs, tunnels, window):
    # windows clip to c - 2 edges, so a ledger-free proposer and a face with
    # m >= 4 can propose one window; it is then searched without the ledger
    assert windows_of(c, arcs, tunnels) == [(window, None)]


def test_ledger_only_faces_of_one_window_are_listed_together():
    # on c = 9 the 4-face and the 5-face at 4 both clip to the window (2, 7),
    # which the ledger confirms through either; the 2-face at 0 needs no ledger
    arcs = [(0, 4, 4), (2, 0, 2), (1, 4, 5)]
    assert windows_of(9, arcs) == [((2, 7), [0, 1]), ((7, 6), None)]


def test_a_cyclic_tunnel_proposes_its_seam():
    # a cyclic tunnel of four arches wraps c = 8; its one window is the seam
    # from just before the last arch, 7 edges clipped to c - 2 = 6
    arches = tuple(Arch(f, "proper", (), 2 * f, 3, 8) for f in range(4))
    assert windows_of(8, [], [Tunnel(arches, cyclic=True)]) == [((5, 6), None)]


@pytest.mark.parametrize(
    "stand_in",
    [
        SimpleNamespace(c=5),
        SimpleNamespace(c=8, degenerate_faces=frozenset({0})),
    ],
    ids=["too-short", "degenerate"],
)
def test_a_cycle_the_audit_does_not_cover_flags_nothing(stand_in):
    # the ledger refuses c < 6 and a minor face spanning the whole cycle
    # before it reads anything else; the engine then flags no face
    assert extension._flagged_faces(stand_in) == frozenset()


def test_apex_pick_matches_the_analysis_rule(sweep_sample):
    # the fast tier reads apex inserts off the triangles of g; the analysis
    # rule is the first thick minor face with one C-edge in minor_faces() order
    steps = both_sides = 0
    for g, starts in golden_slices(sweep_sample):
        for start in starts:
            trace = ic.grow_to_bound(g, start)
            for cyc, move in zip(trace.cycles, trace.moves):
                a = analyze_cycle(g, cyc)
                picks = [
                    (a.proper_arch[f].start, a.proper_arch[f].apex)
                    for f in a.minor_faces()
                    if a.m(f) == 1 and not a.is_thin(f)
                ]
                if picks:
                    s, apex = picks[0]
                    assert move.pattern == "apex-insert"
                    assert move.new_cycle == cyc[: s + 1] + (apex,) + cyc[s + 1 :]
                else:
                    assert move.pattern != "apex-insert"
                steps += 1
                both_sides += len({s for s, _ in picks}) < len(picks)
    # the pinned golden slices: 1403 + 204 tight14 moves, 456 corpus moves
    assert steps == 1607 + 456
    assert both_sides > 0


# on corpus instance 20 this start grows by three apex inserts, a reroute and
# an apex insert; no golden slice has an apex insert after a reroute, which
# the growth's apex scan must find by starting again at position 0
REROUTE_THEN_APEX = (20, ("a", "r0", "r6", "b", "r5", "r4", "r3", "r2", "r1"))


def _chain_summary(trace, cycles, moves):
    """summary() as it reads off the whole chain of cycles and moves."""
    return {
        "n": trace.graph.n,
        "bound": trace.bound,
        "lengths": [len(c) for c in cycles],
        "start": list(cycles[0]),
        "final": list(cycles[-1]),
        "moves": [
            {"pattern": m.pattern, "added": list(m.added), "length": len(m.new_cycle)}
            for m in moves
        ],
        "fallbacks": trace.fallbacks,
        "completed": len(cycles[-1]) >= trace.bound,
    }


def _assert_replays(g, start, trace, tiers):
    """The trace replays into the chain that plain calls make from start,
    one call of ``tiers[i]`` for step i, and summary() is that chain's."""
    moves = trace.moves
    cycles = trace.cycles
    assert cycles == [start] + [m.new_cycle for m in moves]
    assert cycles[-1] == trace.final_cycle
    for tier, cyc, move in zip(tiers, cycles, moves):
        assert tier(g, cyc) == move
        assert make_move(g, cyc, move.new_cycle, move.pattern) == move
    assert trace.summary() == _chain_summary(trace, cycles, moves)
    return moves


def test_growth_steps_equal_fresh_checked_calls(sweep_corpus, sweep_sample):
    # growth carries the live cycle as a successor map and keeps each step
    # as the splice it applied; replaying the splices must give, step by
    # step, the move a fresh fast-tier call finds on the plain cycle and the
    # move make_move's full checks build.  The double wheel grows by 68 apex
    # inserts, from its base cycle and from a rotation of it, which puts the
    # head of the live cycle elsewhere
    k, start = REROUTE_THEN_APEX
    dwheel = ic.gen_insertion_family(double_wheel(66))
    base = base_hamiltonian_cycle(66)
    jobs = golden_slices(sweep_sample) + [
        (dwheel, [base, base[17:] + base[:17]]),
        (sweep_corpus[k], [start]),
    ]
    steps = 0
    for g, starts in jobs:
        for start in starts:
            trace = ic.grow_to_bound(g, start)
            tiers = [ic.find_extension_fast] * len(trace.splices)
            steps += len(_assert_replays(g, start, trace, tiers))
    assert steps == 1607 + 456 + 2 * 68 + 5
    assert [m.pattern for m in trace.moves][-2:] == ["window-reroute", "apex-insert"]


def test_exhaustive_steps_replay_from_the_trace(monkeypatch):
    # an exhaustive move is kept as its whole cycle, and growth restarts its
    # live cycle from it: a growth whose fast steps all find nothing, and
    # one whose first fast step finds nothing, replay to the moves plain
    # calls of each tier make
    g = ic.gen_insertion_family(ic.octahedron())
    start = TIGHT14_REROUTE_START
    real = extension.find_extension_fast
    monkeypatch.setattr(extension, "find_extension_fast", lambda g, cycle: None)
    trace = ic.grow_to_bound(g, start)
    monkeypatch.undo()
    moves = _assert_replays(g, start, trace, [ic.find_extension_exhaustive] * len(trace.splices))
    assert len(moves) > 1 and trace.fallbacks == len(moves)

    calls = []

    def first_finds_nothing(g, cycle):
        calls.append(cycle)
        return real(g, cycle) if len(calls) > 1 else None

    monkeypatch.setattr(extension, "find_extension_fast", first_finds_nothing)
    trace = ic.grow_to_bound(g, start)
    monkeypatch.undo()
    tiers = [ic.find_extension_exhaustive] + [ic.find_extension_fast] * (len(trace.splices) - 1)
    moves = _assert_replays(g, start, trace, tiers)
    assert trace.fallbacks == 1 and len(moves) > 1


@pytest.mark.parametrize("end", [0, 1], ids=["misses-first-end", "misses-second-end"])
def test_growth_rejects_an_apex_off_the_edge(end):
    # an apex insert is checked in O(1), as the path (u, apex, v): a triangle
    # table that lists, on the cycle's first edge (u, v), an off-cycle vertex
    # adjacent to only one of u and v is refused by both entry points
    g = ic.gen_insertion_family(double_wheel(20))
    cycle = base_hamiltonian_cycle(20)
    u, v = cycle[0], cycle[1]
    keep, miss = (v, u) if end == 0 else (u, v)
    apex = next(
        x for x in g.vertices if x not in cycle and keep in g.adj[x] and miss not in g.adj[x]
    )
    edge = f"{u!r}-{apex!r}" if end == 0 else f"{apex!r}-{v!r}"
    g.triangles[(u, v)] = (apex,)
    with pytest.raises(InvalidMove, match=f"missing edge {edge}"):
        ic.find_extension_fast(g, cycle)
    with pytest.raises(InvalidMove, match=f"missing edge {edge}"):
        ic.grow_to_bound(g, cycle)


def test_a_successor_map_that_miscounts_is_refused():
    # the tuple form of the live cycle is built by walking the successor map
    # from the head, and must close after exactly as many vertices as the
    # vertex set holds
    state = extension._Growing(EQUATOR, 3)
    assert state.cycle() == EQUATOR
    state.succ["r0"] = "r2"
    with pytest.raises(ContractViolation, match="length 4"):
        state.cycle()
    state = extension._Growing(EQUATOR, 3)
    state.on.add("a")
    with pytest.raises(ContractViolation, match="length 5"):
        state.cycle()


def test_a_held_trace_grows_linearly():
    # a trace keeps one splice per step, not one cycle per step: held, the
    # trace of the n=998 double wheel's growth (334 apex inserts) takes well
    # under 0.5 MB, where a cycle per step would take about 1.4 MB
    g = ic.gen_insertion_family(double_wheel(332))
    start = base_hamiltonian_cycle(332)
    ic.grow_to_bound(g, start)  # fills the graph's triangle table and budget
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = ic.grow_to_bound(g, start)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert {s.pattern for s in trace.splices} == {"apex-insert"}
    assert len(trace.splices) == 334 and trace.completed
    assert held < 0.5e6


def _drop_window_vertex(g, path):
    # the path still joins the window's ends but skips a window vertex
    return path[:1] + path[2:]


def _take_a_non_edge(g, path):
    # the same vertices between the same ends, in an order with a non-edge
    for inner in permutations(path[1:-1]):
        bad = (path[0],) + inner + (path[-1],)
        if any(v not in g.adj[u] for u, v in zip(bad, bad[1:])):
            return bad
    raise AssertionError("every order is a path")


def _repeat_a_vertex(g, path):
    # the same ends, with the second vertex visited twice
    return path[:2] + path[1:]


def _drop_the_last_vertex(g, path):
    # the path stops one vertex short of the window's far end
    return path[:-1]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_drop_window_vertex, "window's cycle vertices"),
        (_take_a_non_edge, "missing edge"),
        (_repeat_a_vertex, "repeats a vertex"),
        (_drop_the_last_vertex, "join the ends"),
    ],
    ids=["missing-window-vertex", "non-edge", "repeated-vertex", "loose-end"],
)
def test_growth_rejects_a_bad_reroute_path(monkeypatch, corrupt, message):
    # the fast tier's move check is live: a corrupt path from the kernel is
    # refused with InvalidMove instead of entering the trace; the patched
    # growth runs on a fresh graph, so its reroute step reaches the kernel
    trace = ic.grow_to_bound(ic.gen_insertion_family(ic.octahedron()), TIGHT14_REROUTE_START)
    i = next(i for i, m in enumerate(trace.moves) if m.pattern == "window-reroute")
    # the reroute's path opens the new cycle, and its second vertex (the one
    # _drop_window_vertex skips) is on the old cycle
    assert trace.moves[i].new_cycle[1] in trace.cycles[i]
    real = extension.find_hamiltonian_path

    def corrupted(g, vertices, s, t):
        path = real(g, vertices, s, t)
        return None if path is None else corrupt(g, tuple(path))

    monkeypatch.setattr(extension, "find_hamiltonian_path", corrupted)
    g = ic.gen_insertion_family(ic.octahedron())
    with pytest.raises(InvalidMove, match=message):
        ic.grow_to_bound(g, TIGHT14_REROUTE_START)


def _reroute_step(g):
    """(cycle, move) of the window reroute in the growth of the reroute start."""
    trace = ic.grow_to_bound(g, TIGHT14_REROUTE_START)
    return next(
        (cyc, move)
        for cyc, move in zip(trace.cycles, trace.moves)
        if move.pattern == "window-reroute"
    )


def test_reroute_memo_searches_each_cycle_once(monkeypatch):
    # the graph keeps each reroute search's result, keyed by the exact cycle
    # tuple: a second growth on the same graph reuses it and gives the same
    # trace, and a growth without a reroute step builds no memo
    dwheel = ic.gen_insertion_family(double_wheel(20))
    ic.grow_to_bound(dwheel, base_hamiltonian_cycle(20))
    assert dwheel._reroutes is None
    g = ic.gen_insertion_family(ic.octahedron())
    analysed = []
    real_analyze = extension.analyze_cycle
    monkeypatch.setattr(
        extension, "analyze_cycle", lambda *a: analysed.append(a) or real_analyze(*a)
    )
    first = ic.grow_to_bound(g, TIGHT14_REROUTE_START)
    second = ic.grow_to_bound(g, TIGHT14_REROUTE_START)
    assert first.summary() == second.summary()
    assert [s.pattern for s in first.splices].count("window-reroute") == 1
    assert len(analysed) == 1
    assert list(g._reroutes) == [analysed[0][1]]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_drop_window_vertex, "window's cycle vertices"),
        (_take_a_non_edge, "missing edge"),
    ],
    ids=["missing-window-vertex", "non-edge"],
)
def test_a_corrupt_memo_entry_is_refused(corrupt, message):
    # a memo hit is checked like a fresh search: the move built from a
    # stored path goes through the same O(change) check
    g = ic.gen_insertion_family(ic.octahedron())
    cyc, _ = _reroute_step(g)
    start, length, path = g._reroutes[cyc]
    g._reroutes[cyc] = (start, length, corrupt(g, path))
    with pytest.raises(InvalidMove, match=message):
        ic.find_extension_fast(g, cyc)
    with pytest.raises(InvalidMove, match=message):
        ic.grow_to_bound(g, TIGHT14_REROUTE_START)


def test_a_failed_reroute_search_is_not_stored(monkeypatch):
    # an error in the search leaves no memo entry, so the next call on the
    # same graph searches again
    cyc, move = _reroute_step(ic.gen_insertion_family(ic.octahedron()))
    g = ic.gen_insertion_family(ic.octahedron())

    def broken(g, cycle):
        raise ContractViolation("planted")

    monkeypatch.setattr(extension, "analyze_cycle", broken)
    with pytest.raises(ContractViolation, match="planted"):
        ic.find_extension_fast(g, cyc)
    assert g._reroutes == {}
    monkeypatch.undo()
    assert ic.find_extension_fast(g, cyc) == move
    assert list(g._reroutes) == [cyc]
