"""Cycle checks, region partition, pruning, face classes, arches, trees."""

from collections import Counter

import pytest

import isocycle as ic
from conftest import short_isolating_cycles
from isocycle.cycle_analysis import MINUS, PLUS, extension_tree
from isocycle.errors import ContractViolation, DegenerateSide, NotCycle, NotIsolating
from isocycle.generators import cube, k4, prism, wheel
from isocycle.oracles import hamiltonian_cycles
from isocycle.plane_graph import canonical_cycle


EQUATOR = ("r0", "r1", "r2", "r3")


def octa():
    return ic.octahedron()


# -- cycle validation --------------------------------------------------------


def test_check_cycle_rejects_short_sequences():
    with pytest.raises(NotCycle):
        ic.check_cycle(octa(), ("r0", "r1"))


def test_check_cycle_rejects_unknown_vertices():
    with pytest.raises(NotCycle):
        ic.check_cycle(octa(), ("r0", "r1", "zz"))


def test_check_cycle_rejects_repeats():
    with pytest.raises(NotCycle):
        ic.check_cycle(octa(), ("r0", "r1", "r2", "r1"))


def test_check_cycle_rejects_non_edges():
    # r0 and r2 are the one antipodal pair among the rim labels
    with pytest.raises(NotCycle, match="^missing edge 'r0'-'r2'$"):
        ic.check_cycle(octa(), ("r0", "r2", "a"))


def test_check_cycle_reports_the_wrap_around_pair_first():
    # r2-r0 (last to first) and r1-r3 are both missing; the pair that
    # closes the cycle is checked first
    with pytest.raises(NotCycle, match="^missing edge 'r2'-'r0'$"):
        ic.check_cycle(octa(), ("r0", "r1", "r3", "r2"))


def test_canonical_cycle_collapses_rotation_and_reflection():
    g = octa()
    base = canonical_cycle(g, EQUATOR)
    assert canonical_cycle(g, ("r2", "r3", "r0", "r1")) == base
    assert canonical_cycle(g, tuple(reversed(EQUATOR))) == base


def test_is_isolating():
    g = octa()
    assert ic.is_isolating(g, EQUATOR)
    g = cube()
    face = g.faces[0]
    # a cube face leaves the antipodal face, a connected 4-cycle
    assert not ic.is_isolating(g, face)
    ham = next(hamiltonian_cycles(g), None)
    assert ic.is_isolating(g, ham)


def _every_edge_meets(g, cycle):
    """The edge-walk form of isolation, kept as the reference."""
    on = set(cycle)
    return all(u in on or v in on for u, v in g.edges)


def test_is_isolating_matches_the_edge_walk(sweep_sample):
    g14 = ic.gen_insertion_family(ic.octahedron())
    cycles = ic.oracle_isolating_cycles(g14)
    assert len(cycles) == 6580
    for cycle in cycles:
        assert ic.is_isolating(g14, cycle) and _every_edge_meets(g14, cycle)
    # near misses: the vertex sets one short of an isolating cycle
    verdicts = set()
    for cycle in cycles[::10]:
        for i in range(len(cycle)):
            rest = cycle[:i] + cycle[i + 1:]
            verdict = ic.is_isolating(g14, rest)
            assert verdict == _every_edge_meets(g14, rest)
            verdicts.add(verdict)
    assert verdicts == {True, False}
    # a face of a triangulation on more than four vertices is not isolating
    for g in sweep_sample:
        for face in g.faces:
            assert not ic.is_isolating(g, face) and not _every_edge_meets(g, face)


def test_analyze_rejects_non_isolating_cycle():
    g = cube()
    with pytest.raises(NotIsolating):
        ic.analyze_cycle(g, g.faces[0])


# -- region partition and pruning --------------------------------------------


def test_equator_partition_one_apex_each_side():
    a = ic.analyze_cycle(octa(), EQUATOR)
    assert sorted(a.v_minus + a.v_plus) == ["a", "b"]
    assert len(a.v_minus) == len(a.v_plus) == 1


def test_hamiltonian_cycle_has_empty_sides():
    g = k4()
    ham = next(hamiltonian_cycles(g), None)
    a = ic.analyze_cycle(g, ham)
    assert a.v_minus == () and a.v_plus == ()


def test_wheel_rim_puts_hub_on_plus_side():
    a = ic.analyze_cycle(wheel(7), tuple(f"r{i}" for i in range(7)))
    assert a.v_minus == () and a.v_plus == ("h",)


def _sides_by_search(g, cycle):
    """A face 2-colouring of G by search over all its faces, kept as the
    reference for the sides the analysis reads off the rings: crossing a cycle edge switches sides, crossing any other edge
    does not, starting from 'L' on the face traced from (v_0, v_1)."""
    c = len(cycle)
    cycle_edges = {g.edge(cycle[i - 1], cycle[i]) for i in range(c)}
    side = {g.face_id[(cycle[0], cycle[1])]: "L"}
    stack = [g.face_id[(cycle[0], cycle[1])]]
    while stack:
        fid = stack.pop()
        face = g.faces[fid]
        k = len(face)
        for i in range(k):
            u, v = face[i], face[(i + 1) % k]
            other = g.face_id[(v, u)]
            if g.edge(u, v) in cycle_edges:
                want = "R" if side[fid] == "L" else "L"
            else:
                want = side[fid]
            if other in side:
                if side[other] != want:
                    raise ContractViolation("inconsistent side 2-colouring")
            else:
                side[other] = want
                stack.append(other)
    if len(side) != len(g.faces):
        raise ContractViolation("side propagation did not reach every face")
    return side


def test_face_sides_match_the_colouring_search(
    ladder, cyclic_instance, hex_instance, arch_instance, sweep_sample
):
    # the sides read off the rings against a search over all faces of G, on
    # the fixtures, every isolating cycle of the n=14 tight instance, the
    # cube and the prism, and short isolating cycles of a corpus slice: each
    # face of H has the side of its first dart's face of G, and each vertex
    # off the cycle the side of its faces of G, with 'L' and 'R' mapped one
    # to one onto minus and plus
    cases = [ladder, cyclic_instance, hex_instance, arch_instance]
    for g in (ic.gen_insertion_family(ic.octahedron()), cube(), prism()):
        cases += [(g, cycle) for cycle in ic.oracle_isolating_cycles(g)]
    for g in sweep_sample:
        cases += [(g, cycle) for cycle in short_isolating_cycles(g, cap=4)]
    assert len(cases) == 6695
    for g, cycle in cases:
        lr = _sides_by_search(g, cycle)
        a = ic.analyze_cycle(g, cycle)
        pairs = {
            (lr[g.face_id[(face[0], face[1])]], a.face_side[fid])
            for fid, face in enumerate(a.h.faces)
        }
        off = [v for v in g.vertices if v not in cycle]
        assert sorted(a.vertex_side) == sorted(off), cycle
        for v in off:
            (v_lr,) = {lr[g.face_id[(v, w)]] for w in g.rotation[v]}
            pairs.add((v_lr, a.vertex_side[v]))
        # one side per label, and one label per side
        assert len(pairs) == len(dict(pairs)) == len({side for _, side in pairs}), cycle


def test_across_reads_the_two_faces_of_a_c_edge(ladder_analysis):
    a = ladder_analysis
    for p in range(a.c):
        u, v = a.cycle[p], a.cycle[(p + 1) % a.c]
        f, g = a.edge_faces[p]
        assert (f, g) == (a.h.face_id[(u, v)], a.h.face_id[(v, u)])
        assert a.across(f, p) == g and a.across(g, p) == f
        off = next(x for x in range(len(a.h.faces)) if x not in (f, g))
        with pytest.raises(KeyError):
            a.across(off, p)


def test_equator_has_no_chords():
    a = ic.analyze_cycle(octa(), EQUATOR)
    assert a.deleted_chords == ()
    assert a.h.m == octa().m


def test_pruning_deletes_all_chords_when_minus_occupied(ladder_analysis):
    # both sides carry vertices, so every chord goes
    deleted = sorted(map(tuple, map(sorted, ladder_analysis.deleted_chords)))
    assert deleted == [
        ("v1", "v3"), ("v10", "v8"), ("v12", "v14"),
        ("v16", "v18"), ("v6", "v9"),
    ]
    assert ladder_analysis.h.m == 42 - 5


def test_pruning_keeps_minus_chords_when_minus_empty(hex_instance):
    g, cycle = hex_instance
    a = ic.analyze_cycle(g, cycle)
    assert a.v_minus == () and a.v_plus == ("w",)
    assert a.deleted_chords == ()
    assert a.h.m == g.m


def test_pruning_keeps_outside_chords_of_arch_instance(arch_instance, arch_analysis):
    g, _ = arch_instance
    h, deleted = arch_analysis.h, arch_analysis.deleted_chords
    assert sorted(map(tuple, map(sorted, deleted))) == [("v0", "v2"), ("v0", "v3")]
    # the outside chords survive: they live on the empty minus side
    assert h.edge("v1", "v7") in set(h.edges)
    assert h.m == g.m - 2


# -- face classification -----------------------------------------------------


def test_equator_faces_all_thick_minor_one_faces():
    a = ic.analyze_cycle(octa(), EQUATOR)
    assert len(a.h.faces) == 8
    assert a.minor_faces() == sorted(range(8), key=lambda f: (a.proper_arch[f].start, f))
    assert all(not a.is_thin(f) and a.m(f) == 1 for f in range(8))
    assert sorted(A.apex for A in a.proper_arch.values()) == ["a"] * 4 + ["b"] * 4


def test_hamiltonian_cycle_on_k4_has_no_minor_faces():
    g = k4()
    a = ic.analyze_cycle(g, next(hamiltonian_cycles(g), None))
    assert a.minor_faces() == []
    assert not a.has_thin_side


def test_ladder_face_classification(ladder_analysis):
    a = ladder_analysis
    # (side, minor?, m_f) per face of the pruned graph, in face order
    got = [
        ("-" if a.face_side[f] == MINUS else "+", a.is_minor(f), a.m(f))
        for f in range(len(a.h.faces))
    ]
    assert got == [
        ("-", True, 3), ("+", True, 2), ("+", True, 3), ("+", False, 2),
        ("-", False, 1), ("-", True, 4), ("+", True, 2), ("-", True, 3),
        ("+", False, 3), ("+", True, 5), ("-", False, 1), ("-", True, 3),
        ("-", True, 4), ("+", True, 2),
    ]
    # both sides occupied, so nothing is thin
    assert not a.has_thin_side
    assert a.minor_faces(MINUS) == [0, 7, 11, 12, 5]
    assert a.minor_faces(PLUS) == [1, 2, 9, 13, 6]
    assert a.proper_arch[9].apex == "b2" and a.m(9) == 5


def test_hex_thin_classification(hex_instance):
    g, cycle = hex_instance
    a = ic.analyze_cycle(g, cycle)
    minus = [f for f in range(len(a.h.faces)) if a.face_side[f] == MINUS]
    assert all(a.is_thin(f) for f in minus)
    thin_minors = [f for f in minus if a.is_minor(f)]
    thin_majors = [f for f in minus if not a.is_minor(f)]
    assert len(thin_minors) == 2 and len(thin_majors) == 1
    # the thin major is the quadrilateral carrying two chords
    (tm,) = thin_majors
    assert sorted(a.h.faces[tm]) == ["v0", "v2", "v3", "v4"]
    # a thin minor's single chord joins the ends of its arc
    for f in thin_minors:
        arch = a.proper_arch[f]
        assert arch.length == 2 and arch.apex is None
        assert {arch.path[0], arch.path[-1]} <= set(a.h.faces[f])
    # six thick minor 1-faces around the hub
    plus_minors = a.minor_faces(PLUS)
    assert len(plus_minors) == 6
    assert all(a.m(f) == 1 and a.proper_arch[f].apex == "w" for f in plus_minors)


def test_thick_minor_faces_are_arc_plus_apex(ladder_analysis):
    a = ladder_analysis
    for f in a.minor_faces():
        arch = a.proper_arch[f]
        s, m = arch.start, arch.length
        assert len(a.h.faces[f]) == m + 2
        arc = {a.cycle[(s + i) % a.c] for i in range(m + 1)}
        assert arc | {arch.apex} == set(a.h.faces[f])


def test_degenerate_face_on_wheel_rim():
    a = ic.analyze_cycle(wheel(7), tuple(f"r{i}" for i in range(7)))
    assert len(a.degenerate_faces) == 1
    (f,) = a.degenerate_faces
    assert a.m(f) == a.c
    assert not a.is_minor(f)


def test_ladder_face_rows(ladder_analysis):
    rows = ladder_analysis.summary()["faces"]
    assert len(rows) == len(ladder_analysis.h.faces)
    minors = [r for r in rows if r["minor"]]
    assert len(minors) == len(ladder_analysis.minor_faces()) == 10


# -- arches -------------------------------------------------------------------


def test_equator_arches_are_apex_paths():
    a = ic.analyze_cycle(octa(), EQUATOR)
    arches = a.all_arches()
    assert len(arches) == 8
    assert all(A.kind == "proper" and A.length == 1 for A in arches)
    assert all(len(A.path) == 3 for A in arches)


def test_hex_thin_arches_are_chords(hex_instance):
    g, cycle = hex_instance
    a = ic.analyze_cycle(g, cycle)
    thin_arches = [A for A in a.all_arches() if a.is_thin(A.face)]
    assert sorted((A.start, A.path) for A in thin_arches) == [
        (0, ("v0", "v2")), (4, ("v4", "v0")),
    ]


def test_deleted_chord_becomes_chord_arch(arch_analysis):
    a = arch_analysis
    chord_arches = [A for A in a.all_arches() if A.kind == "chord"]
    assert [(A.start, A.length, A.path) for A in chord_arches] == [
        (0, 2, ("v0", "v2"))
    ]


def test_chord_joining_extremal_vertices_is_excluded(arch_analysis):
    # v0-v3 was deleted and lands in the merged face whose arc ends are
    # exactly v0 and v3, so it must not be hosted as an arch
    paths = {frozenset((A.path[0], A.path[-1])) for A in arch_analysis.all_arches()}
    assert frozenset(("v0", "v2")) in paths
    deleted = {frozenset(e) for e in arch_analysis.deleted_chords}
    assert frozenset(("v0", "v3")) in deleted
    host = [A for A in arch_analysis.all_arches() if A.face == 0]
    assert sorted((A.kind, A.path) for A in host) == [
        ("chord", ("v0", "v2")), ("proper", ("v0", "u", "v3")),
    ]


# -- extension trees ----------------------------------------------------------


def _degrees(tree):
    return Counter(x for edge in tree.edges for x in edge)


def _leaves(tree):
    degrees = _degrees(tree)
    return sorted(x for x in tree.nodes if degrees[x] <= 1)


def test_equator_trees_are_stars():
    a = ic.analyze_cycle(octa(), EQUATOR)
    for side, apex in ((MINUS, a.v_minus[0]), (PLUS, a.v_plus[0])):
        t = extension_tree(a, side)
        assert ("vertex", apex) in t.nodes
        assert len(t.nodes) == 5 and len(t.edges) == 4
        assert _leaves(t) == sorted(
            ("face", f) for f in a.minor_faces(side)
        )


def test_hex_weak_dual_is_a_path(hex_instance):
    g, cycle = hex_instance
    a = ic.analyze_cycle(g, cycle)
    t = extension_tree(a, MINUS)
    assert len(t.nodes) == 3 and len(t.edges) == 2
    assert t.kind == "weak_dual"
    degrees = _degrees(t)
    centre = max(degrees, key=degrees.get)
    assert sorted(a.h.faces[centre[1]]) == ["v0", "v2", "v3", "v4"]


def test_wheel_rim_minus_side_is_degenerate():
    a = ic.analyze_cycle(wheel(7), tuple(f"r{i}" for i in range(7)))
    with pytest.raises(DegenerateSide):
        extension_tree(a, MINUS)
    assert a.summary()["trees"]["minus"] == {
        "degenerate": "the minus side of the cycle has no structure"
    }


def test_ladder_trees_and_lemma(ladder_analysis):
    a = ladder_analysis
    tm = extension_tree(a, MINUS)
    tp = extension_tree(a, PLUS)
    assert (len(tm.nodes), len(tm.edges)) == (8, 7)
    assert (len(tp.nodes), len(tp.edges)) == (8, 7)
    assert _leaves(tm) == [("face", f) for f in (0, 5, 7, 11, 12)]
    assert _leaves(tp) == [("face", f) for f in (1, 2, 6, 9, 13)]
    assert ic.check_tree_lemma(a, MINUS)["ok"]
    assert ic.check_tree_lemma(a, PLUS)["ok"]


def test_build_extension_trees_wrapper(ladder_analysis):
    # the tree pair of both sides, each tagged with the side it was built on
    tm, tp = (extension_tree(ladder_analysis, side) for side in (MINUS, PLUS))
    assert tm.side == "minus" and tp.side == "plus"


def test_extension_tree_refuses_an_unknown_side(ladder_analysis):
    with pytest.raises(ValueError, match="side must be"):
        extension_tree(ladder_analysis, "left")


def test_minor_face_count_lower_bound(sweep_sample):
    # each side of an isolating cycle keeps at least |side| + 2 minor faces
    checked = 0
    for g in sweep_sample:
        for cycle in ic.oracle_isolating_cycles(
            g, min_length=6, max_length=ic.isolation_bound(g) - 1, max_count=6
        ):
            a = ic.analyze_cycle(g, cycle)
            for side, verts in ((MINUS, a.v_minus), (PLUS, a.v_plus)):
                try:
                    res = ic.check_tree_lemma(a, side)
                except DegenerateSide:
                    continue
                assert res["ok"], (g.n, cycle, side, res)
                assert len(a.minor_faces(side)) >= len(verts) + 2
                checked += 1
    assert checked > 20
