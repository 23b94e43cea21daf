"""Eligible 3-arches, tunnels, tracks, on-track, transfer pairs."""

import sys
from types import SimpleNamespace

import pytest

import isocycle as ic
from conftest import tight14_slice
from isocycle.cycle_analysis import Arch
from isocycle.errors import ContractViolation
from isocycle.extension import _candidate_windows
from isocycle.tunnels import eligible_three_arches, find_tunnels, on_track, tracks


def consecutive(a, b):
    """True when the archways of two arches share exactly one C-edge: the
    reference for the start arithmetic ``find_tunnels`` uses."""
    return len(set(a.positions) & set(b.positions)) == 1


def get_tracks(analysis):
    t = find_tunnels(analysis)[0]
    trks = tracks(analysis, t)
    ccw = trks[0] if trks[0].direction == "ccw" else trks[1]
    cw = trks[1] if trks[0].direction == "ccw" else trks[0]
    return t, ccw, cw


# -- eligibility and the consecutive relation ---------------------------------


def test_ladder_eligible_three_arches(ladder_analysis):
    el = eligible_three_arches(ladder_analysis)
    assert [(A.face, A.start) for A in el] == [
        (0, 0), (2, 2), (7, 4), (9, 6), (11, 8)
    ]
    # the arch through the merged face is a rehosted chord, not a boundary path
    kinds = [A.kind for A in el]
    assert kinds == ["proper", "proper", "proper", "chord", "proper"]


def test_no_three_arches_no_tunnels(hex_instance):
    g, cycle = hex_instance
    a = ic.analyze_cycle(g, cycle)
    assert eligible_three_arches(a) == []
    assert find_tunnels(a) == []


# a 3-connected n=10 plane graph, not a triangulation, with the isolating
# cycle v0 ... v7 and the off-cycle vertices x and y.  Pruning the chord
# v0v2 gives x a thick minor face over positions 0-2, the one 3-arch; its
# middle C-edge v1v2 lies on the thin minor 2-face (v1, v2, v3), so it is
# not eligible.  No workload reaches this exclusion on a triangulation
EXCLUDED_ARCH_FACES = [
    ("v1", "v2", "v3"), ("v3", "v4", "v5"), ("v5", "v6", "v7"), ("v7", "v0", "v1"),
    ("v1", "v3", "v5", "v7"),
    ("v2", "v1", "v0"), ("v3", "v2", "v0", "x"), ("v4", "v3", "x"), ("x", "v0", "y", "v4"),
    ("v5", "v4", "y"), ("v6", "v5", "y"), ("v7", "v6", "y"), ("v0", "v7", "y"),
]
EXCLUDED_ARCH_CYCLE = tuple(f"v{i}" for i in range(8))


def test_a_three_arch_over_a_thin_minor_two_face_is_not_eligible():
    g = ic.graph_from_faces(EXCLUDED_ARCH_FACES)
    assert g.n == 10 and ic.is_three_connected(g)
    assert ic.is_isolating(g, EXCLUDED_ARCH_CYCLE)
    a = ic.analyze_cycle(g, EXCLUDED_ARCH_CYCLE)
    (arch,) = [A for A in a.all_arches() if A.length == 3]
    assert arch.positions == (0, 1, 2) and not a.is_thin(arch.face)
    thin = [f for f in a.edge_faces[arch.middle_position] if a.is_thin(f)]
    assert len(thin) == 1 and a.is_minor(thin[0]) and a.m(thin[0]) == 2
    assert eligible_three_arches(a) == []
    assert a.tunnels == []


def test_consecutive_means_sharing_exactly_one_position(ladder_analysis):
    el = eligible_three_arches(ladder_analysis)
    assert consecutive(el[0], el[1])
    assert consecutive(el[1], el[2])
    assert not consecutive(el[0], el[2])
    assert not consecutive(el[0], el[0])


def _chained_pairs(analysis):
    """The unordered pairs of arches that follow each other in a tunnel."""
    pairs = set()
    for t in find_tunnels(analysis):
        following = t.arches[1:] + t.arches[:1] if t.cyclic else t.arches[1:]
        pairs.update(frozenset((id(a), id(b))) for a, b in zip(t.arches, following))
    return pairs


def test_tunnel_mates_are_the_consecutive_pairs(ladder, cyclic_instance):
    # find_tunnels pairs arches by their starts; its mates are exactly the
    # pairs of eligible 3-arches whose archways share one C-edge, on the
    # fixtures and every tenth isolating cycle of the n=14 tight instance
    g14, starts = tight14_slice()
    cases = [ladder, cyclic_instance] + [(g14, cycle) for cycle in starts]
    chained = 0
    for g, cycle in cases:
        a = ic.analyze_cycle(g, cycle)
        el = eligible_three_arches(a)
        want = {
            frozenset((id(x), id(y)))
            for i, x in enumerate(el)
            for y in el[i + 1:]
            if consecutive(x, y)
        }
        assert _chained_pairs(a) == want, cycle
        chained += len(want)
    assert chained == 4 + 4 + 256


# -- tunnels -------------------------------------------------------------------


def test_ladder_single_acyclic_tunnel(ladder_analysis):
    tunnels = find_tunnels(ladder_analysis)
    assert len(tunnels) == 1
    t = tunnels[0]
    assert not t.cyclic and t.k == 5
    assert [A.start for A in t.arches] == [0, 2, 4, 6, 8]


def test_tunnels_partition_eligible_arches(ladder_analysis, cyclic_instance):
    g, cycle = cyclic_instance
    for a in (ladder_analysis, ic.analyze_cycle(g, cycle)):
        el = eligible_three_arches(a)
        seen = [A for t in find_tunnels(a) for A in t.arches]
        assert sorted((A.face, A.start) for A in seen) == sorted(
            (A.face, A.start) for A in el
        )
        assert len(seen) == len(el)


def test_cyclic_tunnel_forces_even_cycle(cyclic_instance):
    g, cycle = cyclic_instance
    a = ic.analyze_cycle(g, cycle)
    tunnels = find_tunnels(a)
    assert len(tunnels) == 1
    t = tunnels[0]
    assert t.cyclic and t.k == 4
    assert [A.start for A in t.arches] == [0, 2, 4, 6]
    assert a.c == 2 * t.k


def test_two_isolated_three_arches_stay_separate(arch_analysis):
    tunnels = find_tunnels(arch_analysis)
    assert [(t.k, t.cyclic) for t in tunnels] == [(1, False), (1, False)]
    assert sorted(t.arches[0].start for t in tunnels) == [0, 5]


# -- tunnel invariants on hand-built arch sets ---------------------------------


def stand_in(c, placed):
    """An analysis holding just what find_tunnels reads.

    placed lists (archway start, side) per 3-arch, each on a face of its
    own; with no minor faces every 3-arch is eligible.
    """
    arches = [Arch(face, "proper", (), start, 3, c) for face, (start, _) in enumerate(placed)]
    return SimpleNamespace(
        c=c,
        all_arches=lambda: arches,
        edge_faces=[()] * c,
        is_minor=lambda f: False,
        is_thin=lambda f: False,
        m=lambda f: 0,
        face_side={face: side for face, (_, side) in enumerate(placed)},
    )


@pytest.mark.parametrize(
    "c, placed, faces",
    [
        # a ladder: one open tunnel, listed from its low end
        (12, [(2, "R"), (0, "L"), (4, "L")], [(False, [1, 0, 2])]),
        # a ring wrapping c = 2k, listed from its lowest start
        (8, [(4, "L"), (2, "R"), (6, "R"), (0, "L")], [(True, [3, 1, 0, 2])]),
        # arches at one start are not consecutive; the tie keeps arch order
        (12, [(3, "L"), (3, "R")], [(False, [0]), (False, [1])]),
        # on a 4-cycle archways two starts apart share two C-edges
        (4, [(0, "L"), (2, "R")], [(False, [0]), (False, [1])]),
    ],
)
def test_hand_built_tunnels(c, placed, faces):
    tunnels = find_tunnels(stand_in(c, placed))
    assert [(t.cyclic, [A.face for A in t.arches]) for t in tunnels] == faces


@pytest.mark.parametrize(
    "c, placed",
    [
        (12, [(0, "L"), (2, "R"), (2, "R")]),  # two mates above one arch
        (12, [(2, "L"), (0, "R"), (0, "R")]),  # two mates below one arch
        (5, [(0, "L"), (2, "R"), (4, "L"), (1, "R"), (3, "L")]),  # wraps twice
        (12, [(0, "L"), (2, "L")]),  # consecutive arches on one side
        (6, [(0, "L"), (2, "R"), (4, "L")]),  # a ring whose last and first share a side
    ],
)
def test_malformed_arch_sets_raise(c, placed):
    with pytest.raises(ContractViolation):
        find_tunnels(stand_in(c, placed))


# -- tracks --------------------------------------------------------------------


def test_ladder_tracks_and_exits(ladder_analysis):
    t, ccw, cw = get_tracks(ladder_analysis)
    assert [A.start for A in ccw.arches] == [0, 2, 4, 6, 8]
    assert [A.start for A in cw.arches] == [8, 6, 4, 2, 0]
    # the exit pair sits just outside the first arch, across the cycle edge
    assert (ccw.exit_face, ccw.exit_position) == (1, 0)
    assert (cw.exit_face, cw.exit_position) == (9, 10)


def test_cyclic_tunnel_has_no_tracks(cyclic_instance):
    g, cycle = cyclic_instance
    a = ic.analyze_cycle(g, cycle)
    t = find_tunnels(a)[0]
    with pytest.raises(ValueError):
        tracks(a, t)
    with pytest.raises(ValueError, match="needs an acyclic tunnel"):
        on_track(a, t, (0, 0), (0, 0))
    # the only tunnel is cyclic, so there is no track to pull along
    assert [t.cyclic for t in a.tunnels] == [True]


def test_build_tunnels_wrapper(ladder_analysis):
    # the tunnels the analysis owns, each with the two tracks along it
    (t,) = ladder_analysis.tunnels
    assert t.k == 5
    trks = tracks(ladder_analysis, t)
    assert tuple(tr.direction for tr in trks) == ("ccw", "cw")


# -- on-track ------------------------------------------------------------------


def test_on_track_truth_table(ladder_analysis):
    a = ladder_analysis
    t = find_tunnels(a)[0]
    exit_pair = (1, 0)
    positives = [(1, 0), (0, 2), (2, 4), (7, 6), (9, 8), (11, 10)]
    for pair in positives:
        assert on_track(a, t, exit_pair, pair), pair
    negatives = [(7, 4), (9, 6), (11, 8)]
    for pair in negatives:
        assert not on_track(a, t, exit_pair, pair), pair
    # pairs on opposite sides four steps apart are on track with each other
    assert on_track(a, t, (7, 4), (9, 10))
    # C-edge 13 lies past the span's last edge, 10
    with pytest.raises(ValueError, match="C-edge 13 is not on the tunnel span"):
        on_track(a, t, exit_pair, (12, 13))


def test_on_track_is_symmetric(ladder_analysis):
    a = ladder_analysis
    t = find_tunnels(a)[0]
    pairs = [(1, 0), (0, 2), (7, 4), (9, 8), (11, 10)]
    for p in pairs:
        for q in pairs:
            assert on_track(a, t, p, q) == on_track(a, t, q, p)


# -- transfer pairs ------------------------------------------------------------


def test_ladder_transfer_pairs(ladder_analysis):
    t, ccw, cw = get_tracks(ladder_analysis)
    assert ccw.pairs == ((0, 2), (2, 4), (7, 6))
    # the clockwise chain dies immediately: the face across its first
    # candidate edge is the preceding tunnel face itself
    assert cw.pairs == ()


def test_ladder_transfer_negatives(ladder_analysis):
    t, ccw, cw = get_tracks(ladder_analysis)
    # (9, 8): across the merged face the edge is neither extremal nor next
    # to an extremal one, so the chain breaks there
    assert (9, 8) not in ccw.pairs
    # (11, 10): past the break nothing further qualifies
    assert (11, 10) not in ccw.pairs


def test_is_transfer_pair_positive_lookup(ladder_analysis):
    t, ccw, cw = get_tracks(ladder_analysis)
    for pair in [(0, 2), (2, 4), (7, 6)]:
        assert pair in ccw.pairs


def test_transfer_registry_and_arches(ladder_analysis):
    # the transfer pairs over all tracks, keyed by (face, edge)
    all_tracks = [
        track for t in ladder_analysis.tunnels for track in tracks(ladder_analysis, t)
    ]
    registry = {pair for track in all_tracks for pair in track.pairs}
    assert sorted(registry) == [(0, 2), (2, 4), (7, 6)]
    assert [(track.direction, len(track.pairs)) for track in all_tracks] == [
        ("ccw", 3), ("cw", 0)
    ]
    # the arches whose candidate pair qualified, on either track
    qualified = [A for track in all_tracks for A in track.arches[: len(track.pairs)]]
    assert [(A.face, A.start) for A in qualified] == [(0, 0), (2, 2), (7, 4)]


# -- one tunnel computation per analysis ---------------------------------------


def test_analysis_builds_tunnels_once(ladder, ladder_analysis, cyclic_instance, monkeypatch):
    calls = []
    original = find_tunnels

    def counting(analysis):
        calls.append(analysis)
        return original(analysis)

    # patch every module that bound the function by name, as a tracer would
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "isocycle" and getattr(mod, "find_tunnels", None) is original:
            monkeypatch.setattr(mod, "find_tunnels", counting)
    g, cycle = ladder
    a = ic.analyze_cycle(g, cycle)
    _candidate_windows(a)
    ic.apply_discharging(a)
    a.summary()
    assert calls == [a]

    # the cached member is exactly what a fresh search finds
    g, cycle = cyclic_instance
    for a in (ladder_analysis, ic.analyze_cycle(g, cycle)):
        fresh = original(a)
        assert [(t.cyclic, t.arches) for t in a.tunnels] == [
            (t.cyclic, t.arches) for t in fresh
        ]
