"""End-to-end acceptance gate.

One test per advertised guarantee.  Each prints a single line

    ACCEPTANCE <k> <slug>: PASS|FAIL (detail)

so a plain ``pytest -s tests/test_acceptance.py`` reads as a checklist; the
same verdicts show up as PASSED/FAILED under ``pytest -v``.
"""

import time
from contextlib import contextmanager

import isocycle as ic
from conftest import AUDITABLE_CORPUS_CYCLE, short_isolating_cycles
from isocycle.cycle_analysis import MINUS, PLUS
from isocycle.extension import extension_budget
from isocycle.generators import base_hamiltonian_cycle, cube, double_wheel
from isocycle.plane_graph import is_essentially_four_connected
from isocycle.tunnels import (
    eligible_three_arches,
    find_tunnels,
    on_track,
    tracks,
)


@contextmanager
def criterion(num, slug):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"ACCEPTANCE {num} {slug}: FAIL")
        raise
    line = f"ACCEPTANCE {num} {slug}: PASS"
    if "detail" in info:
        line += f" ({info['detail']})"
    print(line)


def test_criterion_1_bound_is_tight_and_always_reached():
    # the octahedron with every face filled has circumference exactly
    # floor(2/3(n+4)), so growth can never overshoot and must never stall
    with criterion(1, "tight-bound-instance") as info:
        t0 = time.perf_counter()
        g = ic.gen_insertion_family(ic.octahedron())
        assert g.n == 14
        bound = ic.isolation_bound(g)
        assert bound == (2 * (g.n + 4)) // 3 == 12
        assert ic.oracle_circumference(g) == bound
        starts = 0
        finals = set()
        for cycle in ic.oracle_isolating_cycles(g):
            trace = ic.grow_to_bound(g, cycle)
            finals.add(len(trace.final_cycle))
            starts += 1
        elapsed = time.perf_counter() - t0
        assert starts > 1000
        assert finals == {bound}
        assert elapsed < 30.0
        info["detail"] = f"{starts} starts all reach {bound}, {elapsed:.1f}s"


def test_criterion_2_exhaustive_search_never_stalls_on_corpus(sweep_corpus):
    with criterion(2, "exhaustive-sweep") as info:
        t0 = time.perf_counter()
        assert len(sweep_corpus) >= 100
        checked = 0
        alarms = 0
        for g in sweep_corpus:
            assert 14 <= g.n <= 24
            assert is_essentially_four_connected(g)
            budget = extension_budget(g)
            for cycle in short_isolating_cycles(g, cap=50):
                move = ic.find_extension_exhaustive(g, cycle)
                if move is None:
                    alarms += 1
                    continue
                assert 1 <= len(move.added) <= budget
                checked += 1
        elapsed = time.perf_counter() - t0
        assert alarms == 0
        assert checked > 2000
        assert elapsed < 600.0
        info["detail"] = (
            f"{len(sweep_corpus)} instances, {checked} cycles, "
            f"0 alarms, {elapsed:.0f}s"
        )


def test_criterion_3_growth_traces_respect_the_contract(sweep_sample):
    with criterion(3, "growth-contract") as info:
        jobs = [
            (g, list(ic.oracle_isolating_cycles(g, max_count=6)))
            for g in (ic.octahedron(), cube())
        ]
        jobs += [(g, short_isolating_cycles(g, cap=4)) for g in sweep_sample]
        traces = 0
        for g, cycles in jobs:
            bound = ic.isolation_bound(g)
            for cycle in cycles:
                trace = ic.grow_to_bound(g, cycle)
                lengths = [len(c) for c in trace.cycles]
                assert all(x < y for x, y in zip(lengths, lengths[1:]))
                for small, big in zip(trace.cycles, trace.cycles[1:]):
                    assert set(small) < set(big)
                for c in trace.cycles:
                    assert ic.is_isolating(g, c)
                assert lengths[-1] >= bound
                assert trace.completed
                traces += 1
        assert traces >= 40
        info["detail"] = f"{traces} traces checked step by step"


def test_criterion_4_extension_trees(
    sweep_sample, ladder_analysis, arch_analysis, hex_instance
):
    with criterion(4, "extension-trees") as info:
        pool = [ladder_analysis, arch_analysis]
        g, cycle = hex_instance
        pool.append(ic.analyze_cycle(g, cycle))
        o = ic.octahedron()
        pool.append(ic.analyze_cycle(o, ("r0", "r1", "r2", "r3")))
        for g in sweep_sample:
            for cycle in short_isolating_cycles(g, cap=3):
                pool.append(ic.analyze_cycle(g, cycle))
        checked = 0
        for a in pool:
            for side in (MINUS, PLUS):
                try:
                    checks = ic.check_tree_lemma(a, side)
                except ic.DegenerateSide:
                    continue
                assert checks["is_tree"]
                assert checks["leaves_are_minor_faces"]
                assert checks["minor_face_lower_bound"]
                assert checks["no_degree_two"]
                checked += 1
        assert checked >= 20
        info["detail"] = f"{checked} side trees verified"


def test_criterion_5_discharging_audit(
    sweep_corpus, sweep_sample, ladder_analysis, arch_analysis
):
    with criterion(5, "discharging-audit") as info:
        pool = [
            ic.analyze_cycle(sweep_corpus[1], AUDITABLE_CORPUS_CYCLE),
            ladder_analysis,
            arch_analysis,
        ]
        for g in sweep_sample:
            for cycle in short_isolating_cycles(g, cap=8):
                pool.append(ic.analyze_cycle(g, cycle))
        audited = 0
        for a in pool:
            # the audit preconditions, stated explicitly
            if a.c < 6 or a.degenerate_faces:
                continue
            if any(a.m(f) == 1 for f in a.minor_faces()):
                continue
            led = ic.apply_discharging(a)
            assert sum(led.final.values()) == 2 * a.c
            assert led.checks["conservation"]
            assert led.checks["pulls_per_edge_at_most_one"]
            assert led.checks["conditions_exclusive"]
            reruns = [ic.apply_discharging(a).summary() for _ in range(3)]
            assert reruns[0] == reruns[1] == reruns[2] == led.summary()
            audited += 1
        assert audited >= 3
        info["detail"] = f"{audited} audits, each deterministic across reruns"


def test_criterion_6_tunnel_machinery(
    ladder_analysis, cyclic_instance, arch_analysis
):
    with criterion(6, "tunnel-machinery") as info:
        g, cycle = cyclic_instance
        cyclic_a = ic.analyze_cycle(g, cycle)
        for a in (ladder_analysis, cyclic_a, arch_analysis):
            eligible = sorted(
                (A.face, A.start) for A in eligible_three_arches(a)
            )
            covered = [
                (A.face, A.start)
                for t in find_tunnels(a)
                for A in t.arches
            ]
            assert sorted(covered) == eligible
            assert len(covered) == len(set(covered))

        a = ladder_analysis
        t = find_tunnels(a)[0]
        exit_pair = (1, 0)
        for pair in [(1, 0), (0, 2), (2, 4), (7, 6), (9, 8), (11, 10)]:
            assert on_track(a, t, exit_pair, pair), pair
        for pair in [(7, 4), (9, 6), (11, 8)]:
            assert not on_track(a, t, exit_pair, pair), pair

        trks = tracks(a, t)
        ccw = trks[0] if trks[0].direction == "ccw" else trks[1]
        assert ccw.pairs == ((0, 2), (2, 4), (7, 6))
        assert (9, 8) not in ccw.pairs
        assert (11, 10) not in ccw.pairs
        info["detail"] = "partition + on-track table + 3 positives, 2 negatives"


def test_criterion_7_cube_grows_six_to_eight():
    with criterion(7, "cube-growth") as info:
        g = cube()
        sixes = list(ic.oracle_isolating_cycles(g, min_length=6, max_length=6))
        assert len(sixes) == 4
        for cycle in sixes:
            trace = ic.grow_to_bound(g, cycle)
            assert [len(c) for c in trace.cycles] == [6, 8]
        info["detail"] = "all 4 six-cycles grow 6 -> 8"


def test_criterion_8_large_instance_growth():
    with criterion(8, "large-instance") as info:
        base = double_wheel(66)
        g = ic.gen_insertion_family(base)
        assert g.n == 200
        start = base_hamiltonian_cycle(66)
        assert len(start) == 68
        t0 = time.perf_counter()
        trace = ic.grow_to_bound(g, start)
        elapsed = time.perf_counter() - t0
        bound = ic.isolation_bound(g)
        assert bound == 136
        assert len(trace.final_cycle) == bound
        assert trace.completed
        assert elapsed < 60.0
        info["detail"] = (
            f"n=200, grew 68 -> {len(trace.final_cycle)} in {elapsed:.1f}s, "
            f"tier-2 fallbacks {trace.fallbacks}/{len(trace.moves)}"
        )
