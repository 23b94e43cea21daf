"""Tunnels: chains of interlocking 3-arches along the cycle.

A 3-arch (an arch whose archway has three C-edges) is eligible when its
middle C-edge is not a C-edge of a thin minor 2-face.  Two eligible 3-arches
are consecutive when their archways share exactly one C-edge, so their
starts lie two positions apart; the faces of consecutive arches always lie
on opposite sides of the cycle.  Each arch has at most one such mate two
starts below it and one two starts above it, and tunnels are the chains
T_1 ... T_k of mates, walked by archway start: either open (acyclic) or
wrapping around the whole cycle (cyclic, which forces c = 2k).  Within a
tunnel each start occurs once.

An acyclic tunnel is walked in two directions.  Listing the arches with
ascending archway starts gives the counterclockwise track; the reversed order
gives the clockwise track.  Each track has an exit pair: for the
counterclockwise track the exit edge is the lowest archway edge of T_1 and
the exit face lies across it from f(T_1); the clockwise track mirrors this at
the top end of T_k.

Pairs (face, C-edge) with the edge on the tunnel's span are compared by the
on-track relation: the pair distance is the gap between the edge positions
along the span, and two pairs are on-track exactly when (faces on the same
side) coincides with (distance divisible by four).

Transfer pairs formalize pulling weight along a track, and each track
carries its own as (face, C-edge) pairs in order from the exit.  The
candidate pair of the j-th arch B on a track is (f(B), e) with e the
archway edge of B farthest along the track direction; it qualifies when the
previous candidate qualified (the exit pair grounds the recursion) and the
three clauses checked in ``_transfer_bullets`` hold.  The witness arch of
the last clause is the next arch on the track, the only other arch of the
tunnel with e as an extremal edge.
"""

from dataclasses import dataclass

from .errors import ContractViolation


def eligible_three_arches(analysis):
    """All 3-arches whose middle C-edge avoids thin minor 2-faces."""
    out = []
    for arch in analysis.all_arches():
        if arch.length != 3:
            continue
        if any(
            analysis.is_minor(x) and analysis.is_thin(x) and analysis.m(x) == 2
            for x in analysis.edge_faces[arch.middle_position]
        ):
            continue
        out.append(arch)
    return out


def consecutive(a, b):
    """True when the archways of two arches share exactly one C-edge."""
    return len(set(a.positions) & set(b.positions)) == 1


@dataclass(eq=False)
class Tunnel:
    """A maximal chain of consecutive eligible 3-arches."""

    arches: tuple
    cyclic: bool

    @property
    def k(self):
        return len(self.arches)


@dataclass(eq=False)
class Track:
    """One direction of walking an acyclic tunnel, with its transfer pairs."""

    direction: str  # 'ccw' (ascending starts) or 'cw'
    arches: tuple
    exit_face: int
    exit_position: int
    pairs: tuple  # (face, C-edge position) transfer pairs, in order from the exit


def find_tunnels(analysis):
    """Partition the eligible 3-arches into tunnels.

    A tunnel is the walk from an arch down to its low end, then up; it is
    cyclic when that walk returns to its low end, and then starts at its
    lowest start.  Callers read the cached ``analysis.tunnels`` instead.
    """
    c = analysis.c
    arches = eligible_three_arches(analysis)
    at_start = {}
    for i, a in enumerate(arches):
        at_start.setdefault(a.start, []).append(i)
    # (i, -2) and (i, 2) -> the mate of arch i two starts down and up, or
    # None; ``consecutive`` rules out c = 4, where both steps land on one start
    mates = {}
    for i, a in enumerate(arches):
        for step in (-2, 2):
            near = at_start.get((a.start + step) % c, ())
            found = [j for j in near if consecutive(a, arches[j])]
            if len(found) > 1:
                raise ContractViolation("an eligible 3-arch has two mates on one side")
            mates[i, step] = found[0] if found else None

    done = set()
    tunnels = []
    for i in range(len(arches)):
        if i in done:
            continue
        low = i
        while mates[low, -2] not in (None, i):
            low = mates[low, -2]
        chain = [low]
        while mates[chain[-1], 2] not in (None, low):
            chain.append(mates[chain[-1], 2])
        cyclic = mates[chain[-1], 2] == low
        done.update(chain)
        if cyclic:
            if c != 2 * len(chain):
                raise ContractViolation("cyclic tunnel does not wrap the whole cycle")
            first = min(range(len(chain)), key=lambda x: arches[chain[x]].start)
            chain = chain[first:] + chain[:first]
        ordered = tuple(arches[x] for x in chain)
        following = ordered[1:] + ordered[:1] if cyclic else ordered[1:]
        for a, b in zip(ordered, following):
            if analysis.face_side[a.face] == analysis.face_side[b.face]:
                raise ContractViolation("consecutive tunnel arches on the same side")
        tunnels.append(Tunnel(arches=ordered, cyclic=cyclic))
    tunnels.sort(key=lambda t: t.arches[0].start)
    return tunnels


def tracks(analysis, tunnel):
    """The counterclockwise and clockwise tracks of an acyclic tunnel."""
    if tunnel.cyclic:
        raise ValueError("cyclic tunnels have no tracks")
    c = analysis.c
    out = []
    # forward: offset from an archway start to the edge farthest along the
    # track; the exit edge is the first arch's edge at the other end
    for direction, arches, forward in (
        ("ccw", tunnel.arches, 2),
        ("cw", tunnel.arches[::-1], 0),
    ):
        exit_position = (arches[0].start + 2 - forward) % c
        exit_face = analysis.across(arches[0].face, exit_position)
        pairs = []
        preceding = exit_face
        for arch, witness in zip(arches, arches[1:] + (None,)):
            e = (arch.start + forward) % c
            if not _transfer_bullets(analysis, arch, e, preceding, witness):
                break
            pairs.append((arch.face, e))
            preceding = arch.face
        out.append(Track(direction, arches, exit_face, exit_position, tuple(pairs)))
    return tuple(out)


def on_track(analysis, tunnel, pair_a, pair_b):
    """The on-track relation between two (face, C-edge position) pairs.

    Defined for edges on the span of an acyclic tunnel: the pairs are
    on-track exactly when face sides agree if and only if their edge distance
    along the span is divisible by four.  A pair is always on-track with
    itself.
    """
    if tunnel.cyclic:
        raise ValueError("the on-track relation needs an acyclic tunnel")

    def offset(p):
        idx = (p - tunnel.arches[0].start) % analysis.c
        if idx > 2 * tunnel.k:
            raise ValueError(f"C-edge {p} is not on the tunnel span")
        return idx

    fa, pa = pair_a
    fb, pb = pair_b
    same_side = analysis.face_side[fa] == analysis.face_side[fb]
    return same_side == ((offset(pa) - offset(pb)) % 4 == 0)


def _adjacent_positions(p, q, c):
    return (p - q) % c in (1, c - 1)


def _transfer_bullets(analysis, arch, e, preceding_face, witness):
    """The three clauses a candidate pair (f(arch), e) must satisfy.

    e is the forward archway edge of ``arch``, and preceding_face the face
    of the previous pair on the track (the exit face for the first arch).
    The witness in the last clause is the next arch on the track, or None
    for the last arch.
    """
    c = analysis.c
    g = arch.face
    if not analysis.is_thick(g):
        return False
    f = analysis.across(g, e)
    if not analysis.is_minor(f) or analysis.m(f) < 3 or preceding_face == f:
        return False
    g_ext = analysis.proper_arch[g].extremal_positions
    if e in g_ext:
        return True
    if not any(_adjacent_positions(e, x, c) for x in g_ext):
        return False
    across_mid = analysis.across(g, arch.middle_position)
    if across_mid == f:
        return True
    if analysis.is_minor(across_mid) or witness is None:
        return False
    # across the middle lies a major face: the witness 3-arch, which shares
    # the extremal edge e, must point at something minor on its far end
    ext = witness.extremal_positions
    other = ext[0] if ext[1] == e else ext[1]
    return analysis.is_minor(analysis.across(witness.face, other))
