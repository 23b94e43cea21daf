"""Structure of an isolating cycle in a plane graph.

Fix a cycle C = v_0 ... v_{c-1} of a 3-connected plane graph G.  The two
sides of C are read off its rotations: at v_i, the neighbours w strictly
after v_{i+1} and before v_{i-1} (clockwise) lie on side R, the others on
side L, and the face traced from (v_i, w) is on side R exactly when w runs
from just after v_{i+1} up to v_{i-1}.  When C is isolating every vertex off
C and every chord of C appears in the rings of C's vertices, so one walk
over those rings gives every vertex side and every chord with its side.  The
smaller vertex side is called the minus side.  The pruned graph H is
obtained from G by deleting chords of C: all of them when the minus side has
vertices, otherwise only the chords on the plus side.  ``edge_faces[p]``
holds the two faces of H on the C-edge at position p, traced from
(v_p, v_{p+1}) and from (v_{p+1}, v_p); the C-edges of each face and the
face across each C-edge are read from it.

Every face of H lies on one side of C.  When the minus side has no vertices
(and the plus side does) the minus-side faces are called thin; every other
face is thick.  A face is minor when it is thin with exactly one non-C
boundary edge, or thick with exactly one boundary vertex off C (its apex);
all other faces are major.  m_f counts the C-edges of a face f; the C-edges
of a minor face always form one contiguous arc of C.  Every minor face
carries arches: its proper arch (the boundary minus the C-arc) plus one arch
per deleted chord drawn inside the face, except chords joining the two ends
of the face's arc.  The archway of an arch is the sub-arc of C it spans.
A deleted chord (a, b) is drawn inside the face of H traced from (u, a),
where u is the last neighbour before b in G's clockwise rotation at a that
H keeps: that face turns at a through the corner the chord was drawn in.

C is isolating when every vertex off C has all its neighbours on C.  The
analysis requires an isolating cycle; everything else (including
3-connectivity of G) is the caller's responsibility; the cycle checks it
runs live in ``plane_graph``.  The tunnels of the arches (see ``tunnels``)
are derived once per analysis, on first use.  ``CycleAnalysis.summary()``
is the analysis report that ``isocycle analyze`` prints.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ContractViolation, DegenerateSide
from .plane_graph import check_isolating, reachable
from .tunnels import find_tunnels, tracks

MINUS = "minus"
PLUS = "plus"


@dataclass(frozen=True, init=False)
class Arch:
    """An arch of a minor face.

    kind is 'proper' (the face boundary minus its C-arc) or 'chord' (a
    deleted chord drawn inside the face).  path runs from one C-endpoint to
    the other; start/length describe the archway, the sub-arc of C spanned by
    the arch, as edge positions along the cycle.  The archway's positions
    are computed on first use and kept.
    """

    face: int
    kind: str
    path: tuple
    start: int
    length: int
    cycle_length: int

    def __init__(self, face, kind, path, start, length, cycle_length):
        # the generated __init__ of a frozen dataclass sets each field
        # through object.__setattr__; one write of the instance dict costs
        # half as much, and an analysis builds an arch per minor face and
        # per hosted chord
        object.__setattr__(self, "__dict__", {
            "face": face, "kind": kind, "path": path, "start": start,
            "length": length, "cycle_length": cycle_length,
        })

    @property
    def apex(self):
        """The off-cycle vertex of a thick minor face's proper arch, else None."""
        return self.path[1] if len(self.path) == 3 else None

    @cached_property
    def positions(self):
        """Edge positions of the archway, in arc order."""
        return tuple((self.start + i) % self.cycle_length for i in range(self.length))

    @cached_property
    def extremal_positions(self):
        first = self.start
        last = (self.start + self.length - 1) % self.cycle_length
        return (first, last)

    @property
    def middle_position(self):
        if self.length % 2 == 0:
            return None
        return (self.start + self.length // 2) % self.cycle_length


@dataclass(eq=False)
class CycleAnalysis:
    g: object
    cycle: tuple
    pos_of_edge: dict = field(repr=False)
    vertex_side: dict = field(repr=False)
    v_minus: tuple = ()
    v_plus: tuple = ()
    h: object = None
    deleted_chords: tuple = ()
    edge_faces: tuple = field(default=(), repr=False)
    face_side: dict = field(default_factory=dict, repr=False)
    face_c_positions: dict = field(default_factory=dict, repr=False)
    has_thin_side: bool = False
    arches_of: dict = field(default_factory=dict, repr=False)
    proper_arch: dict = field(default_factory=dict, repr=False)
    degenerate_faces: frozenset = frozenset()

    @property
    def c(self):
        return len(self.cycle)

    # -- positions ---------------------------------------------------------

    def across(self, fid, p):
        """The face of H on the other side of the C-edge at position p."""
        a, b = self.edge_faces[p]
        if a == fid:
            return b
        if b == fid:
            return a
        raise KeyError(f"C-edge {p} is not on face {fid}")

    # -- faces --------------------------------------------------------------

    def m(self, fid):
        """Number of C-edges on a face of H, major or minor.

        ``apply_discharging`` starts every face at this weight.
        """
        return len(self.face_c_positions.get(fid, ()))

    def is_minor(self, fid):
        return fid in self.proper_arch

    def is_thin(self, fid):
        return self.has_thin_side and self.face_side[fid] == MINUS

    def minor_faces(self, side=None):
        """Minor face ids by (arc start, id), the order of proper_arch."""
        if side is None:
            return list(self.proper_arch)
        return [f for f in self.proper_arch if self.face_side[f] == side]

    # -- arches ---------------------------------------------------------------

    def arches(self, fid):
        return self.arches_of.get(fid, ())

    def all_arches(self):
        out = []
        for fid in self.minor_faces():
            out.extend(self.arches_of.get(fid, ()))
        return out

    @cached_property
    def tunnels(self):
        """The tunnels of the eligible 3-arches, computed once."""
        return find_tunnels(self)

    # -- report ---------------------------------------------------------------

    def summary(self):
        """The analysis as plain JSON data: faces, arches, side trees, tunnels."""
        faces = []
        for fid in range(len(self.h.faces)):
            entry = {
                "id": fid,
                "side": self.face_side[fid],
                "size": len(self.h.faces[fid]),
                "m": self.m(fid),
                "minor": self.is_minor(fid),
            }
            if self.is_minor(fid):
                arch = self.proper_arch[fid]
                entry["thin"] = self.is_thin(fid)
                entry["arc"] = [arch.start, arch.length]
                if arch.apex is not None:
                    entry["apex"] = arch.apex
            faces.append(entry)
        arches = [
            {
                "face": a.face,
                "kind": a.kind,
                "path": list(a.path),
                "start": a.start,
                "length": a.length,
            }
            for a in self.all_arches()
        ]
        return {
            "c": self.c,
            "n": self.g.n,
            "v_minus": list(self.v_minus),
            "v_plus": list(self.v_plus),
            "deleted_chords": [list(e) for e in self.deleted_chords],
            "faces": faces,
            "arches": arches,
            "trees": {side: self._tree_summary(side) for side in (MINUS, PLUS)},
            "tunnels": [self._tunnel_summary(tunnel) for tunnel in self.tunnels],
        }

    def _tree_summary(self, side):
        try:
            checks = check_tree_lemma(self, side)
        except DegenerateSide as exc:
            return {"degenerate": str(exc)}
        tree = checks.pop("tree")

        def name(node):
            return f"{node[0]}:{node[1]}"

        return {
            "kind": tree.kind,
            "nodes": [name(x) for x in tree.nodes],
            "edges": [[name(x), name(y)] for x, y in tree.edges],
            "checks": checks,
        }

    def _tunnel_summary(self, tunnel):
        entry = {
            "cyclic": tunnel.cyclic,
            "k": tunnel.k,
            "arches": [
                {"face": a.face, "kind": a.kind, "start": a.start} for a in tunnel.arches
            ],
        }
        if not tunnel.cyclic:
            entry["tracks"] = [
                {
                    "direction": track.direction,
                    "exit_face": track.exit_face,
                    "exit_position": track.exit_position,
                    "transfer_pairs": [
                        {"face": face, "position": e, "order": order}
                        for order, (face, e) in enumerate(track.pairs, start=1)
                    ],
                }
                for track in tracks(self, tunnel)
            ]
        return entry


def _cyclic_run(ps, c):
    """Start and length of the contiguous cyclic run of the ascending,
    distinct positions ps, short of the full circle."""
    m = len(ps)
    if ps[-1] - ps[0] == m - 1:
        return (ps[0], m)
    # a run through position 0: 0 .. i-1, then the rest up to c - 1
    i = 1
    while ps[i] == i:
        i += 1
    if ps[0] != 0 or ps[-1] != c - 1 or ps[-1] - ps[i] != m - 1 - i:
        raise ContractViolation("C-edges of a minor face are not contiguous")
    return (ps[i], m)


def analyze_cycle(g, cycle):
    """Full side/pruning/face/arch analysis of a cycle of g.

    g must be 3-connected (not rechecked here).  Raises NotIsolating unless
    the cycle is isolating.
    """
    cyc = check_isolating(g, cycle)
    c = len(cyc)
    index = g.index
    succ = cyc[1:] + cyc[:1]

    pos = {v: i for i, v in enumerate(cyc)}
    pos_of_edge = {
        ((u, v) if index[u] <= index[v] else (v, u)): i
        for i, (u, v) in enumerate(zip(cyc, succ))
    }

    # one walk over each cycle vertex's ring: every off-cycle vertex and
    # every chord is a neighbour of the cycle, and takes its side there; at
    # v_i the R arc runs from just after v_{i+1} to just before v_{i-1}, and
    # the L arc from just after v_{i-1} to just before v_{i+1}.  An arc's
    # chords all lie on its side, so the neighbours H keeps in it are its
    # off-cycle vertices; before_chord[(a, b)] is the last of them before b
    # in the arc at a, or the cycle neighbour the arc starts after
    vertex_lr = {}
    chord_lr = {}
    before_chord = {}
    prev = cyc[-1]
    for v, nxt in zip(cyc, succ):
        ring = g.rotation[v]
        j = ring.index(nxt)
        k = ring.index(prev)
        if j < k:
            arcs = (("R", nxt, ring[j + 1:k]), ("L", prev, ring[k + 1:] + ring[:j]))
        else:
            arcs = (("R", nxt, ring[j + 1:] + ring[:k]), ("L", prev, ring[k + 1:j]))
        for lr, kept, arc in arcs:
            for w in arc:
                if w not in pos:
                    if vertex_lr.setdefault(w, lr) != lr:
                        raise ContractViolation(f"vertex {w!r} touches both sides")
                    kept = w
                    continue
                if index[v] <= index[w]:
                    e = (v, w)
                    before_chord[e] = kept
                else:
                    e = (w, v)
                if chord_lr.setdefault(e, lr) != lr:
                    raise ContractViolation(f"chord {v!r}-{w!r} touches both sides")
        prev = v
    # g.edges lists every edge once, index-sorted, as the chords are keyed
    chords = tuple(filter(chord_lr.__contains__, g.edges))

    v_L = sorted((v for v in vertex_lr if vertex_lr[v] == "L"), key=index.__getitem__)
    v_R = sorted((v for v in vertex_lr if vertex_lr[v] == "R"), key=index.__getitem__)
    if len(v_L) != len(v_R):
        side_of_minus = "L" if len(v_L) < len(v_R) else "R"
    elif v_L:
        side_of_minus = "L" if index[v_L[0]] < index[v_R[0]] else "R"
    else:
        side_of_minus = "L"

    vertex_side = {
        v: MINUS if lr == side_of_minus else PLUS for v, lr in vertex_lr.items()
    }
    v_minus = tuple(v_L if side_of_minus == "L" else v_R)
    v_plus = tuple(v_R if side_of_minus == "L" else v_L)

    if v_minus:
        deleted = chords
    else:
        deleted = tuple(e for e in chords if chord_lr[e] != side_of_minus)
    h = g.delete_edges(deleted)
    face_id = h.face_id

    # a face of H is faces of G merged across deleted chords, each chord
    # with both of its G-faces on its side, so a face of H has the side of
    # its first dart (a, b): the side of a or b when one is off the cycle,
    # else L along the cycle's direction, R against it, and a kept chord's
    # own side
    face_side = {}
    for fid, face in enumerate(h.faces):
        a, b = face[0], face[1]
        if a not in pos:
            lr = vertex_lr[a]
        elif b not in pos:
            lr = vertex_lr[b]
        elif b == succ[pos[a]]:
            lr = "L"
        elif a == succ[pos[b]]:
            lr = "R"
        else:
            lr = chord_lr[(a, b) if index[a] <= index[b] else (b, a)]
        face_side[fid] = MINUS if lr == side_of_minus else PLUS

    edge_faces = tuple([(face_id[u, v], face_id[v, u]) for u, v in zip(cyc, succ)])
    face_c_positions = {}
    for p, (left, right) in enumerate(edge_faces):
        face_c_positions.setdefault(left, []).append(p)
        face_c_positions.setdefault(right, []).append(p)

    # every side sees each C-edge in exactly one of its faces: the 2c
    # C-edge slots split c on the minus side, so c on the plus side
    total = sum(
        len(ps) for fid, ps in face_c_positions.items() if face_side[fid] == MINUS
    )
    if total != c:
        raise ContractViolation(f"C-edge count on side {MINUS} is {total}, not {c}")

    # thin faces exist only when the minus side is empty (and something is
    # left to isolate); every other face is thick
    has_thin_side = not v_minus and bool(v_plus)

    # minor: thin with exactly one non-C boundary edge, or thick with exactly
    # one off-cycle boundary vertex; its proper arch runs from one end of its
    # arc to the other, through the apex of a thick face.  A face's boundary
    # runs along each of its C-edges once, so the rest of it is
    # len(boundary) - m edges
    proper_arch = {}
    degenerate = set()
    for fid, ps in face_c_positions.items():
        m = len(ps)
        if m == c:
            degenerate.add(fid)
            continue
        boundary = h.faces[fid]
        if has_thin_side and face_side[fid] == MINUS:
            if len(boundary) != m + 1:
                continue
            s, m = _cyclic_run(ps, c)
            path = (cyc[s], cyc[(s + m) % c])
            # the one boundary edge that is no C-edge
            x = boundary[-1]
            for y in boundary:
                if ((x, y) if index[x] <= index[y] else (y, x)) not in pos_of_edge:
                    break
                x = y
            if {x, y} != set(path):
                raise ContractViolation(
                    f"chord of thin minor face {fid} misses the arc ends"
                )
        else:
            off = [v for v in boundary if v not in pos]
            if len(off) != 1:
                continue
            s, m = _cyclic_run(ps, c)
            if len(boundary) != m + 2:
                raise ContractViolation(
                    f"thick minor face {fid} is not an arc plus apex"
                )
            path = (cyc[s], off[0], cyc[(s + m) % c])
        proper_arch[fid] = Arch(fid, "proper", path, s, m, c)

    # the face of H that holds each deleted chord (a, b): the one turning at
    # a from the last neighbour before b that H keeps
    chord_hosts = {}
    for e in deleted:
        chord_hosts.setdefault(face_id[before_chord[e], e[0]], []).append(e)

    # each face's arches in archway order: by offset from the arc start s,
    # then length.  The proper arch spans the whole arc, so it holds every
    # chord arch and follows those at offset 0; no two chord arches share
    # both, since G is simple
    arches_of = {}
    for fid, proper in proper_arch.items():
        s, m = proper.start, proper.length
        spans = []
        for a, b in chord_hosts.get(fid, ()):
            lo = (pos[a] - s) % c
            hi = (pos[b] - s) % c
            if lo > m or hi > m:
                raise ContractViolation(
                    f"chord {a!r}-{b!r} hosted by face {fid} leaves its arc"
                )
            if lo > hi:
                lo, hi = hi, lo
            if lo == 0 and hi == m:
                # a chord joining the two ends of the arc is not an arch
                continue
            spans.append((lo, hi - lo, (cyc[(s + lo) % c], cyc[(s + hi) % c])))
        if not spans:
            arches_of[fid] = (proper,)
            continue
        spans.sort()
        for i, (a1, k1, _) in enumerate(spans):
            for a2, k2, _ in spans[i + 1:]:
                # a1 <= a2: nested, disjoint or crossing
                if a2 < a1 + k1 < a2 + k2 and a1 != a2:
                    raise ContractViolation(f"archways of face {fid} are not laminar")
        arches = [Arch(fid, "chord", path, (s + lo) % c, k, c) for lo, k, path in spans]
        # after the chord arches at offset 0, which sort below (1,)
        arches.insert(bisect_left(spans, (1,)), proper)
        arches_of[fid] = tuple(arches)

    return CycleAnalysis(
        g=g,
        cycle=cyc,
        pos_of_edge=pos_of_edge,
        vertex_side=vertex_side,
        v_minus=v_minus,
        v_plus=v_plus,
        h=h,
        deleted_chords=tuple(deleted),
        edge_faces=edge_faces,
        face_side=face_side,
        face_c_positions=face_c_positions,
        has_thin_side=has_thin_side,
        arches_of=arches_of,
        proper_arch=dict(sorted(proper_arch.items(), key=lambda kv: (kv[1].start, kv[0]))),
        degenerate_faces=frozenset(degenerate),
    )


# ---------------------------------------------------------------------------
# extension trees


@dataclass(eq=False)
class SideTree:
    """The extension tree of one side of the cycle.

    Nodes are ('face', fid) and ('vertex', v) pairs.  When the side has
    vertices, every minor face hangs off its apex and the vertices met by a
    common major face are joined in a star.  When the side has no vertices,
    the tree is the weak dual of the side: its faces, joined whenever they
    share a chord.
    """

    side: str
    kind: str
    nodes: tuple
    edges: tuple
    adj: dict = field(repr=False)

    def degree(self, node):
        return len(self.adj[node])

    def leaves(self):
        return [x for x in self.nodes if len(self.adj[x]) <= 1]

    def is_tree(self):
        if not self.nodes:
            return False
        if len(self.edges) != len(self.nodes) - 1:
            return False
        nodes = set(self.nodes)
        return reachable(self.adj, self.nodes[:1], nodes) == nodes


def extension_tree(analysis, side):
    """Build the extension tree for one side of the cycle."""
    if side not in (MINUS, PLUS):
        raise ValueError(f"side must be {MINUS!r} or {PLUS!r}")
    h = analysis.h
    side_vertices = analysis.v_minus if side == MINUS else analysis.v_plus
    minor = analysis.minor_faces(side)

    if side_vertices:
        nodes = [("face", f) for f in minor]
        nodes += [("vertex", v) for v in side_vertices]
        edges = set()
        for f in minor:
            edges.add((("face", f), ("vertex", analysis.proper_arch[f].apex)))
        for f in range(len(h.faces)):
            if analysis.face_side[f] != side or analysis.is_minor(f):
                continue
            met = [v for v in set(h.faces[f]) if analysis.vertex_side.get(v) == side]
            met = h.sorted_vertices(met)
            for w in met[1:]:
                edges.add((("vertex", met[0]), ("vertex", w)))
        kind = "incidence"
    else:
        side_faces = [
            f for f in range(len(h.faces)) if analysis.face_side[f] == side
        ]
        if len(side_faces) < 2:
            raise DegenerateSide(f"the {side} side of the cycle has no structure")
        nodes = [("face", f) for f in side_faces]
        edges = set()
        for e in h.edges:
            if e in analysis.pos_of_edge:
                continue
            a, b = h.face_id[e], h.face_id[e[::-1]]
            if analysis.face_side[a] == side and analysis.face_side[b] == side:
                if a != b:
                    edges.add(tuple(sorted((("face", a), ("face", b)))))
        kind = "weak_dual"

    adj = {x: set() for x in nodes}
    for x, y in edges:
        adj[x].add(y)
        adj[y].add(x)
    return SideTree(side=side, kind=kind, nodes=tuple(nodes), edges=tuple(sorted(edges)), adj=adj)


def check_tree_lemma(analysis, side):
    """Evaluate the structural claims about one side's extension tree.

    Returns a dict of named boolean checks plus the tree itself under 'tree'.
    """
    tree = extension_tree(analysis, side)
    minor = {("face", f) for f in analysis.minor_faces(side)}
    side_vertices = analysis.v_minus if side == MINUS else analysis.v_plus

    leaves = set(tree.leaves())
    degrees = [tree.degree(x) for x in tree.nodes]
    leaf_count = sum(1 for d in degrees if d <= 1)
    branching = sum(d - 2 for d in degrees if d >= 3)

    checks = {
        "is_tree": tree.is_tree(),
        "leaves_are_minor_faces": leaves == minor,
        "leaf_count_identity": len(tree.nodes) < 2 or leaf_count == 2 + branching,
        "minor_face_lower_bound": len(minor) >= len(side_vertices) + 2,
        "no_degree_two": (not side_vertices) or all(d != 2 for d in degrees),
    }
    checks["ok"] = all(checks.values())
    checks["tree"] = tree
    return checks
