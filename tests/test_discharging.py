"""Weight ledger: preconditions, conditions C1-C7, audit checks."""

from fractions import Fraction

import pytest

import isocycle as ic
from conftest import AUDITABLE_CORPUS_CYCLE
from isocycle.errors import CycleTooShort, DegenerateSide, MinorOneFacePresent
from isocycle.generators import wheel
from isocycle.plane_graph import graph_from_json_dict
from isocycle.tunnels import tracks


def pull_rows(ledger):
    return sorted((p.condition, p.taker, p.position) for p in ledger.pulls)


# -- preconditions -------------------------------------------------------------


def test_refuses_short_cycles():
    g = ic.octahedron()
    a = ic.analyze_cycle(g, ("r0", "r1", "r2", "r3"))
    with pytest.raises(CycleTooShort):
        ic.apply_discharging(a)


def test_refuses_minor_one_faces(cyclic_instance):
    g, cycle = cyclic_instance
    a = ic.analyze_cycle(g, cycle)
    with pytest.raises(MinorOneFacePresent):
        ic.apply_discharging(a)


def test_refuses_degenerate_faces():
    # the rim of a wheel alone bounds the outer face, which is never minor
    a = ic.analyze_cycle(wheel(7), tuple(f"r{i}" for i in range(7)))
    with pytest.raises(DegenerateSide, match="bounded by the cycle alone"):
        ic.apply_discharging(a)


# -- the ladder ledger, pinned end to end ---------------------------------------


def test_ladder_initial_weights(ladder_analysis):
    led = ic.apply_discharging(ladder_analysis)
    # every face starts with its count of cycle edges
    assert led.initial == {
        f: ladder_analysis.m(f) for f in range(len(ladder_analysis.h.faces))
    }
    assert sum(led.initial.values()) == 2 * ladder_analysis.c


def test_ladder_pull_list(ladder_analysis):
    led = ic.apply_discharging(ladder_analysis)
    assert pull_rows(led) == [
        ("C1", 2, 3), ("C1", 5, 15), ("C1", 5, 16), ("C1", 7, 5),
        ("C1", 9, 7), ("C1", 12, 13), ("C1", 12, 14),
        ("C2", 1, 0), ("C2", 1, 1), ("C2", 6, 17), ("C2", 6, 18),
        ("C2", 13, 11), ("C2", 13, 12),
        ("C3", 11, 9),
        ("C7", 0, 2), ("C7", 2, 4), ("C7", 7, 6),
    ]


def test_ladder_final_weights(ladder_analysis):
    led = ic.apply_discharging(ladder_analysis)
    assert led.final == {
        0: 2, 1: 4, 2: 4, 3: 0, 4: 0, 5: 4, 6: 4,
        7: 4, 8: 0, 9: 4, 10: 0, 11: 4, 12: 4, 13: 4,
    }
    assert sum(led.final.values()) == 2 * ladder_analysis.c


def test_condition_seven_follows_the_transfer_chain(ladder_analysis):
    led = ic.apply_discharging(ladder_analysis)
    c7 = sorted((p.taker, p.position) for p in led.pulls if p.condition == "C7")
    # exactly the counterclockwise transfer pairs, routed toward the exit
    assert c7 == [(0, 2), (2, 4), (7, 6)]
    assert led.conditions_at[(1, 0)] == ("C2",)


def test_ladder_checks(ladder_analysis):
    led = ic.apply_discharging(ladder_analysis)
    assert led.checks == {
        "conservation": True,
        "pulls_per_edge_at_most_one": True,
        "conditions_exclusive": True,
        "majors_nonnegative": True,
        "thin_minors_keep_two": True,
        "thick_minors_keep_four": False,
        "side_inequality": False,
        "length_bound": False,
    }
    # the three quantitative verdicts fail honestly: this instance is not
    # essentially 4-connected and its cycle sits below the length bound
    assert led.violations["crowded_edges"] == []
    assert led.violations["deficient_majors"] == []
    assert led.violations["deficient_thin_minors"] == []
    assert led.violations["deficient_thick_minors"] == [0]
    assert led.final[0] == 2
    assert led.implied_bound == Fraction(58, 3)


def test_ladder_ledger_deterministic(ladder_analysis):
    runs = [ic.apply_discharging(ladder_analysis) for _ in range(3)]
    assert pull_rows(runs[0]) == pull_rows(runs[1]) == pull_rows(runs[2])
    assert runs[0].final == runs[1].final == runs[2].final


# -- a second pinned ledger ------------------------------------------------------


def test_arch_instance_ledger(arch_analysis):
    led = ic.apply_discharging(arch_analysis)
    assert led.initial == {0: 3, 1: 2, 2: 3, 3: 2, 4: 2, 5: 2, 6: 2}
    assert pull_rows(led) == [
        ("C1", 0, 1), ("C1", 2, 6), ("C2", 5, 3), ("C2", 5, 4),
    ]
    assert led.final == {0: 4, 1: 2, 2: 4, 3: 0, 4: 1, 5: 4, 6: 1}
    assert led.checks["conservation"]
    assert led.checks["conditions_exclusive"]
    # the two thin minors across the pulled edges drop below their target
    assert led.violations["deficient_majors"] == []
    assert led.violations["deficient_thin_minors"] == [4, 6]
    assert led.violations["deficient_thick_minors"] == []
    assert (led.final[4], led.final[6]) == (1, 1)
    assert (led.checks["side_inequality"], led.checks["length_bound"]) == (False, True)
    assert led.implied_bound == Fraction(8, 1)


# -- properties over generated instances -----------------------------------------


def test_audit_properties_on_sample(sweep_corpus, ladder_analysis, arch_analysis):
    pool = [ic.analyze_cycle(sweep_corpus[1], AUDITABLE_CORPUS_CYCLE)]
    pool += [ladder_analysis, arch_analysis]
    for g in sweep_corpus[::9]:
        for cycle in ic.oracle_isolating_cycles(
            g, min_length=6, max_length=ic.isolation_bound(g) - 1, max_count=8
        ):
            a = ic.analyze_cycle(g, cycle)
            try:
                ic.apply_discharging(a)
            except (MinorOneFacePresent, DegenerateSide):
                continue
            pool.append(a)
    audited = 0
    for a in pool:
        led = ic.apply_discharging(a)
        audited += 1
        assert led.checks["conservation"], (a.c, a.cycle)
        assert led.checks["pulls_per_edge_at_most_one"], (a.c, a.cycle)
        assert led.checks["conditions_exclusive"], (a.c, a.cycle)
        assert led.checks["majors_nonnegative"], (a.c, a.cycle)
        again = ic.apply_discharging(a)
        assert pull_rows(led) == pull_rows(again)
    assert audited >= 3


def test_pinned_corpus_cycle_exercises_condition_seven(sweep_corpus):
    led = ic.apply_discharging(
        ic.analyze_cycle(sweep_corpus[1], AUDITABLE_CORPUS_CYCLE)
    )
    assert pull_rows(led) == [
        ("C2", 0, 0), ("C2", 0, 1), ("C2", 4, 9), ("C2", 4, 10),
        ("C2", 5, 2), ("C2", 5, 3), ("C2", 8, 6), ("C2", 8, 7),
        ("C7", 3, 8), ("C7", 6, 4), ("C7", 7, 5),
    ]
    assert led.checks["conservation"] and led.checks["conditions_exclusive"]


# -- the first instances where C4 and C5 fire ---------------------------------------

# Both are 3-connected non-triangulations with one face of size five; on
# triangulations neither condition has been seen to fire.
C4_INSTANCE = {
    "vertices": ["h", "r0", "r1", "r2", "t0", "t1", "t2", "t3", "t4"],
    "rotation": {
        "h": ["t0", "t3", "r1", "r0", "t2", "t4"],
        "r0": ["h", "r1", "r2", "t2"],
        "r1": ["h", "t3", "r0"],
        "r2": ["t4", "t1", "r0", "t0"],
        "t0": ["h", "r2", "t3"],
        "t1": ["t2", "r2", "t4"],
        "t2": ["h", "r0", "t1"],
        "t3": ["h", "t0", "r1"],
        "t4": ["h", "t1", "r2"],
    },
}
C4_CYCLE = ("h", "t0", "t3", "r1", "r0", "r2", "t1", "t4")

C5_INSTANCE = {
    "vertices": ["h", "r0", "r1", "r2", "t0", "t1", "t2", "t3", "t4", "t5", "t6"],
    "rotation": {
        "h": ["r2", "r1", "t1", "r0", "t4", "t2"],
        "r0": ["h", "t1", "t3", "t6", "t5", "t0", "t4"],
        "r1": ["h", "t3", "t1"],
        "r2": ["h", "t2", "t0", "t5", "t6"],
        "t0": ["t4", "r0", "t5", "r2", "t2"],
        "t1": ["h", "r1", "r0"],
        "t2": ["h", "t0", "r2"],
        "t3": ["r0", "r1", "t6"],
        "t4": ["h", "r0", "t0"],
        "t5": ["r0", "r2", "t0"],
        "t6": ["r0", "t3", "r2"],
    },
}
C5_CYCLE = ("h", "r2", "t6", "t3", "r1", "t1", "r0", "t4", "t0", "t2")


@pytest.mark.parametrize(
    "doc, cycle, size, name, pull, failed",
    [
        (C4_INSTANCE, C4_CYCLE, (9, 16), "C4", (3, 1, 2), "thin_minors_keep_two"),
        (C5_INSTANCE, C5_CYCLE, (11, 22), "C5", (1, 6, 2), "thick_minors_keep_four"),
    ],
    ids=["C4", "C5"],
)
def test_pinned_instance_fires_condition(doc, cycle, size, name, pull, failed):
    g = graph_from_json_dict(doc)
    assert (g.n, len(g.edges)) == size
    assert ic.is_three_connected(g)
    assert sorted(len(f) for f in g.faces).count(5) == 1
    led = ic.apply_discharging(ic.analyze_cycle(g, cycle))
    taker, giver, position = pull
    holds = [key for key, conds in led.conditions_at.items() if name in conds]
    assert holds == [(taker, position)]
    assert led.conditions_at[(taker, position)] == (name,)
    assert [
        (p.condition, p.taker, p.giver, p.position)
        for p in led.pulls
        if p.condition in ("C4", "C5")
    ] == [(name, taker, giver, position)]
    assert [check for check, ok in led.checks.items() if not ok] == [failed]


def test_c5_instance_rests_on_a_transfer_pair():
    # C5 at (1, 2) asks whether (0, 0) is a transfer pair: face 0 lies
    # across C-edge 0, the far end of face 1's 4-arch.  It is the one pair
    # of the counterclockwise track of the tunnel at start 8.
    a = ic.analyze_cycle(graph_from_json_dict(C5_INSTANCE), C5_CYCLE)
    assert [
        (t.arches[0].start, track.direction, track.pairs)
        for t in a.tunnels
        for track in tracks(a, t)
    ] == [
        (3, "ccw", ()), (3, "cw", ()), (7, "ccw", ()), (7, "cw", ()),
        (8, "ccw", ((0, 0),)), (8, "cw", ((0, 8),)),
    ]


# A 3-connected non-triangulation, found by a bounded search over random
# stacked triangulations less some edges, where C5's transfer pair holds but
# a 2-arch refuses it
C5_REFUSED_INSTANCE = {
    "vertices": ["h", "r0", "r1", "r2", "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"],
    "rotation": {
        "h": ["r2", "r1", "t4", "t3", "r0", "t6", "t8"],
        "r0": ["h", "t3", "r1", "t0", "t1"],
        "r1": ["h", "r2", "t0", "r0", "t3", "t4"],
        "r2": ["h", "t8", "t5", "t2", "t7", "t0", "r1"],
        "t0": ["r0", "r1", "r2"],
        "t1": ["r0", "t7", "t6"],
        "t2": ["t6", "t7", "r2", "t5"],
        "t3": ["h", "t4", "r1", "r0"],
        "t4": ["r1", "t3", "h"],
        "t5": ["t2", "r2", "t8"],
        "t6": ["t1", "t2", "h"],
        "t7": ["r2", "t2", "t1"],
        "t8": ["h", "t5", "r2"],
    },
}
C5_REFUSED_CYCLE = ("h", "r2", "t8", "t5", "t2", "t7", "t1", "r0", "t3", "r1", "t4")


def test_c5_is_refused_by_a_two_arch_at_the_far_end():
    # face 0's 4-arch h-t6-t2 spans C-edges 0 to 3; at (0, 2) C5 asks the
    # pair (1, 0) across its far end, a transfer pair, but face 0 also keeps
    # the chord 2-arch h-t8, which ends at h, the far end's vertex
    g = graph_from_json_dict(C5_REFUSED_INSTANCE)
    assert ic.is_three_connected(g)
    a = ic.analyze_cycle(g, C5_REFUSED_CYCLE)
    assert (a.proper_arch[0].path, a.proper_arch[0].start) == (("h", "t6", "t2"), 0)
    assert [A.path for A in a.arches(0) if A.length == 2] == [("h", "t8")]
    pairs = {p for t in a.tunnels if not t.cyclic for track in tracks(a, t) for p in track.pairs}
    assert (1, 0) in pairs
    led = ic.apply_discharging(a)
    assert led.conditions_at[(0, 2)] == ()
    assert "C5" not in {p.condition for p in led.pulls}
