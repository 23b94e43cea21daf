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

Transfer pairs formalize pulling weight along a track.  The candidate pair of
the j-th arch B on a track is (f(B), e) with e the archway edge of B farthest
along the track direction; it qualifies when the previous candidate qualified
(the exit pair grounds the recursion) and the three clauses checked in
``transfer_bullets`` hold.  The witness arch of the last clause is the next
arch on the track, the only other arch of the tunnel with e as an extremal
edge.
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
    cycle_length: int

    @property
    def k(self):
        return len(self.arches)

    def arc_index(self, p):
        """Offset of the C-edge position p along the tunnel span."""
        idx = (p - self.arches[0].start) % self.cycle_length
        limit = self.cycle_length if self.cyclic else 2 * self.k + 1
        if idx >= limit:
            raise ValueError(f"C-edge {p} is not on the tunnel span")
        return idx


@dataclass(eq=False)
class Track:
    """One direction of walking an acyclic tunnel."""

    tunnel: Tunnel
    direction: str  # 'ccw' (ascending starts) or 'cw'
    arches: tuple
    exit_face: int
    exit_position: int

    @property
    def exit_pair(self):
        return (self.exit_face, self.exit_position)

    def forward_position(self, arch):
        """The archway edge of an arch farthest along the track direction."""
        if self.direction == "ccw":
            return (arch.start + 2) % arch.cycle_length
        return arch.start


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
        for a, b in zip(ordered, ordered[1:]):
            if analysis.face_side[a.face] == analysis.face_side[b.face]:
                raise ContractViolation("consecutive tunnel arches on the same side")
        tunnels.append(Tunnel(arches=ordered, cyclic=cyclic, cycle_length=c))
    tunnels.sort(key=lambda t: t.arches[0].start)
    return tunnels


def tracks(analysis, tunnel):
    """The counterclockwise and clockwise tracks of an acyclic tunnel."""
    if tunnel.cyclic:
        raise ValueError("cyclic tunnels have no tracks")
    c = analysis.c
    low = tunnel.arches[0]
    high = tunnel.arches[-1]
    low_edge = low.start
    high_edge = (high.start + 2) % c
    ccw = Track(
        tunnel=tunnel,
        direction="ccw",
        arches=tunnel.arches,
        exit_face=analysis.across(low.face, low_edge),
        exit_position=low_edge,
    )
    cw = Track(
        tunnel=tunnel,
        direction="cw",
        arches=tuple(reversed(tunnel.arches)),
        exit_face=analysis.across(high.face, high_edge),
        exit_position=high_edge,
    )
    return ccw, cw


def on_track(analysis, tunnel, pair_a, pair_b):
    """The on-track relation between two (face, C-edge position) pairs.

    Defined for edges on the span of an acyclic tunnel: the pairs are
    on-track exactly when face sides agree if and only if their edge distance
    along the span is divisible by four.  A pair is always on-track with
    itself.
    """
    if tunnel.cyclic:
        raise ValueError("the on-track relation needs an acyclic tunnel")
    fa, pa = pair_a
    fb, pb = pair_b
    ia = tunnel.arc_index(pa)
    ib = tunnel.arc_index(pb)
    same_side = analysis.face_side[fa] == analysis.face_side[fb]
    return same_side == (abs(ia - ib) % 4 == 0)


@dataclass(frozen=True)
class TransferPair:
    """A qualified candidate pair on a track, with its chain position."""

    face: int
    position: int
    order: int
    direction: str


def _adjacent_positions(p, q, c):
    return (p - q) % c in (1, c - 1)


def transfer_bullets(analysis, g, e, arch, preceding_face, witness):
    """The three clauses a candidate pair (g, e) must satisfy.

    g is the face of ``arch``, e its forward archway edge, and
    preceding_face the face of the previous pair on the track (the exit face
    for the first arch).  The witness in the last clause is the next arch on
    the track, or None for the last arch.
    """
    c = analysis.c
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


def transfer_pairs(analysis, track):
    """Transfer pairs of a track, in order from the exit."""
    out = []
    preceding = track.exit_face
    for order, arch in enumerate(track.arches, start=1):
        e = track.forward_position(arch)
        g = arch.face
        witness = track.arches[order] if order < len(track.arches) else None
        if not transfer_bullets(analysis, g, e, arch, preceding, witness):
            break
        out.append(
            TransferPair(face=g, position=e, order=order, direction=track.direction)
        )
        preceding = g
    return out


def track_transfer_pairs(analysis):
    """(track, its transfer pairs) for both tracks of every acyclic tunnel."""
    return [
        (track, transfer_pairs(analysis, track))
        for tunnel in analysis.tunnels
        if not tunnel.cyclic
        for track in tracks(analysis, tunnel)
    ]


def is_transfer_pair(analysis, face, position, track):
    """The transfer-pair record for (face, position) on this track, if any."""
    for pair in transfer_pairs(analysis, track):
        if pair.face == face and pair.position == position:
            return pair
    return None
