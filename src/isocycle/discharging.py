"""Discharging audit over the minor faces of an isolating cycle.

Every face of H starts with weight equal to its number of C-edges, so the
total weight is 2c.  For every minor face g and every C-edge e of g, the
conditions C1 to C6 decide whether g pulls one unit of weight across e from
the face f on the other side.  C1 holds exactly when f is major, and then
it is the only condition that holds, so C2 to C6 are asked only about a
minor f.  Their arches are found once per (g, e): C3 and C6 share the
3-arch of g with middle e, C4 and C5 share the 4-arch of g around e with
its far end, and C3, C5 and C6 read the other 3-arches they ask about from
one map built per ledger, keyed by middle C-edge: a face has a 3-arch with
extremal C-edge e exactly when the map lists it at e - 1 or e + 1.  C7 runs
afterwards and lets every transfer pair of a track pull when the track's
exit pair itself satisfies one of C1 to C6.  The conditions read each
face's C-edge count from one table, the initial weights.

``apply_discharging`` runs both phases and audits the final weights.  The
audit records every pull, the final weights, and a set of verdicts:
exclusivity of pulls per edge, conservation, the per-face weight bounds
(majors stay nonnegative, minor faces keep their floor: 2 when thin, 4 when
thick), the side inequality they imply, and the resulting lower bound on
c.  On a cycle that still extends, some verdict must fail; the audit
reports which.  The extension engine runs the same ledger, lazily, on
reroute steps and reads the deficient minor faces off its verdicts: 122
ledgers in a cold pass over the n=14 tight instance, 413 at seed 1
(``tools/work_counts.py``).

Preconditions: c >= 6, no face of H bounded by the cycle alone, and no
minor face with a single C-edge (such faces are extension fodder, not audit
input).
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import NamedTuple

from .cycle_analysis import MINUS
from .errors import CycleTooShort, DegenerateSide, MinorOneFacePresent
from .tunnels import tracks


class Pull(NamedTuple):
    """One unit of weight moved from ``giver`` to ``taker`` across C-edge
    ``position`` under the named condition."""

    condition: str
    taker: int
    giver: int
    position: int
    mono: bool = False


# the conditions asked about a minor face f across the C-edge, in order
_MINOR_CONDITIONS = ("C2", "C3", "C4", "C5", "C6")


def _three_arch_ends_at(three_at, fid, e, c):
    """Whether fid has a 3-arch ending at C-edge e (middle e - 1 or e + 1)."""
    return any(fid in three_at.get((e + d) % c, ()) for d in (-1, 1))


def _four_arch_with_inner(analysis, fid, e):
    for a in analysis.arches(fid):
        if a.length == 4 and e in a.positions and e not in a.extremal_positions:
            return a
    return None


def _cond_c2(analysis, m, g, f):
    if not analysis.is_thin(g) and m[g] == 2:
        return True
    if m[g] == 3:
        h = analysis.across(g, analysis.proper_arch[g].middle_position)
        return h != f and analysis.is_minor(h) and analysis.is_thin(h) and m[h] == 2
    return False


def _cond_c3(analysis, m, g, f, e, b, three_at):
    """m maps each face of H to its C-edge count; b is the 3-arch of g with
    middle e, or None; three_at maps a middle C-edge to the minor faces with
    a 3-arch there."""
    if b is None or m[f] < 3 or _three_arch_ends_at(three_at, f, e, analysis.c):
        return False
    if any(analysis.is_minor(analysis.across(g, p)) is False for p in b.positions):
        return False
    g_ext = analysis.proper_arch[g].extremal_positions
    hits = [p for p in b.extremal_positions if p in g_ext]
    if not hits:
        return False
    if m[g] == 3:
        return True
    ext = b.extremal_positions
    other = ext[0] if ext[1] == hits[0] else ext[1]
    return analysis.across(g, other) != f


def _is_mono(analysis, f, e):
    c = analysis.c
    ps = set(analysis.face_c_positions.get(f, ()))
    return {(e - 1) % c, e, (e + 1) % c} <= ps


def _c45_common(analysis, g, f, e):
    """Shared setup of C4 and C5: the 4-arch of g around e, its far end and
    the face across that end, or None when neither condition can hold."""
    b = _four_arch_with_inner(analysis, g, e)
    if b is None:
        return None
    c = analysis.c
    lo, hi = b.extremal_positions
    adj = lo if (e - b.start) % c == 1 else hi
    far = hi if adj == lo else lo
    if adj not in analysis.proper_arch[g].extremal_positions:
        return None
    if len(set(analysis.face_c_positions.get(f, ())) & set(b.positions)) != 3:
        return None
    return b, far, analysis.across(g, far)


def _cond_c4(analysis, m, setup):
    if setup is None:
        return False
    _, _, h = setup
    return not analysis.is_thin(h) and m[h] == 2


def _cond_c5(analysis, registry, g, f, e, setup, three_at):
    if setup is None:
        return False
    b, far, h = setup
    if (h, far) not in registry:
        return False
    c = analysis.c
    end_vertex = (
        analysis.cycle[b.start] if far == b.start else analysis.cycle[(b.start + 4) % c]
    )
    for fid in (g, h):
        for a in analysis.arches(fid):
            if a.length == 2 and end_vertex in (a.path[0], a.path[-1]):
                return False
    return not any(_three_arch_ends_at(three_at, fid, e, c) for fid in (f, g))


def _cond_c6(analysis, m, g, f, e, b, three_at):
    """m, b and three_at as for C3."""
    if b is not None or analysis.is_thin(g) or m[g] != 4:
        return False
    arch = analysis.proper_arch[g]
    if e in arch.extremal_positions:
        return False
    c, s = analysis.c, arch.start
    far = (s + 3) % c if (e - s) % c == 1 else s
    return any(fid != f for fid in three_at.get(far, ()))


@dataclass(eq=False)
class WeightLedger:
    analysis: object
    pulls: tuple
    initial: dict
    final: dict
    conditions_at: dict
    checks: dict
    violations: dict
    implied_bound: Fraction

    def summary(self):
        a = self.analysis
        return {
            "c": a.c,
            "n": a.g.n,
            "pulls": [p._asdict() for p in self.pulls],
            "initial_weights": {str(f): w for f, w in sorted(self.initial.items())},
            "final_weights": {str(f): w for f, w in sorted(self.final.items())},
            "checks": dict(self.checks),
            "violations": {k: list(v) for k, v in self.violations.items()},
        }


def apply_discharging(analysis):
    """Run both discharging phases and audit the resulting weights."""
    c = analysis.c
    if c < 6:
        raise CycleTooShort(f"discharging needs c >= 6, got {c}")
    if analysis.degenerate_faces:
        raise DegenerateSide("a face of H is bounded by the cycle alone")
    m = {fid: analysis.m(fid) for fid in range(len(analysis.h.faces))}
    for fid in analysis.minor_faces():
        if m[fid] == 1:
            raise MinorOneFacePresent(
                f"minor face {fid} has a single C-edge; extend across it first"
            )

    # the tracks of the acyclic tunnels: C5 asks their transfer pairs, C7
    # pulls along them
    all_tracks = [
        track
        for tunnel in analysis.tunnels
        if not tunnel.cyclic
        for track in tracks(analysis, tunnel)
    ]
    registry = {pair for track in all_tracks for pair in track.pairs}

    # middle C-edge -> {minor face: its 3-arch there}, shared by C3, C5 and
    # C6; C4 and C5 need a 4-arch of the taker
    three_at = {}
    with_four = set()
    for a in analysis.all_arches():
        if a.length == 3:
            three_at.setdefault(a.middle_position, {}).setdefault(a.face, a)
        elif a.length == 4:
            with_four.add(a.face)

    pulls = []
    conditions_at = {}
    none_there = {}
    for g, arch in analysis.proper_arch.items():
        for e in arch.positions:
            f = analysis.across(g, e)
            if analysis.is_minor(f):
                b = three_at.get(e, none_there).get(g)
                setup = _c45_common(analysis, g, f, e) if g in with_four else None
                conds = tuple(compress(_MINOR_CONDITIONS, (
                    _cond_c2(analysis, m, g, f),
                    _cond_c3(analysis, m, g, f, e, b, three_at),
                    _cond_c4(analysis, m, setup),
                    _cond_c5(analysis, registry, g, f, e, setup, three_at),
                    _cond_c6(analysis, m, g, f, e, b, three_at),
                )))
            else:
                conds = ("C1",)
            conditions_at[(g, e)] = conds
            if conds:
                cond = conds[0]
                pulls.append(Pull(cond, g, f, e, cond == "C3" and _is_mono(analysis, f, e)))

    for track in all_tracks:
        if not analysis.is_minor(track.exit_face):
            continue
        if not conditions_at.get((track.exit_face, track.exit_position)):
            continue
        for face, e in track.pairs:
            pulls.append(Pull("C7", face, analysis.across(face, e), e))

    final = dict(m)
    for p in pulls:
        final[p.giver] -= 1
        final[p.taker] += 1
    checks, violations, implied = _audit(analysis, pulls, conditions_at, final)
    return WeightLedger(
        analysis=analysis,
        pulls=tuple(pulls),
        initial=m,
        final=final,
        conditions_at=conditions_at,
        checks=checks,
        violations=violations,
        implied_bound=implied,
    )


def _audit(analysis, pulls, conditions_at, final):
    c = analysis.c
    n = analysis.g.n

    per_edge = Counter(p.position for p in pulls)
    crowded = sorted(e for e, k in per_edge.items() if k > 1)

    non_exclusive = sorted(
        (g, e) for (g, e), conds in conditions_at.items() if len(conds) > 1
    )

    minors = analysis.proper_arch
    weak_majors = sorted(f for f, w in final.items() if w < 0 and f not in minors)
    # a minor face keeps its floor: 2 when thin, 4 when thick
    thin = {f for f in minors if analysis.is_thin(f)}
    weak_thin = sorted(f for f in thin if final[f] < 2)
    weak_thick = sorted(f for f in minors if f not in thin and final[f] < 4)

    m_minus = sum(analysis.face_side[f] == MINUS for f in minors)
    m_plus = len(minors) - m_minus
    if analysis.v_minus:
        side_inequality = 2 * c >= 4 * (m_minus + m_plus)
        implied = Fraction(2 * (n + 4), 3)
    else:
        side_inequality = 2 * c >= 2 * m_minus + 4 * m_plus
        implied = Fraction(2 * (n + 3), 3)

    checks = {
        "conservation": sum(final.values()) == 2 * c,
        "pulls_per_edge_at_most_one": not crowded,
        "conditions_exclusive": not non_exclusive,
        "majors_nonnegative": not weak_majors,
        "thin_minors_keep_two": not weak_thin,
        "thick_minors_keep_four": not weak_thick,
        "side_inequality": side_inequality,
        "length_bound": c >= implied,
    }
    violations = {
        "crowded_edges": crowded,
        "non_exclusive_pairs": non_exclusive,
        "deficient_majors": weak_majors,
        "deficient_thin_minors": weak_thin,
        "deficient_thick_minors": weak_thick,
    }
    return checks, violations, implied
