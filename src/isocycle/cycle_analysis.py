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

from dataclasses import dataclass, field
from functools import cached_property

from .errors import ContractViolation, DegenerateSide
from .plane_graph import check_isolating, reachable
from .tunnels import find_tunnels, tracks

MINUS = "minus"
PLUS = "plus"


@dataclass(frozen=True)
class Arch:
    """An arch of a minor face.

    kind is 'proper' (the face boundary minus its C-arc) or 'chord' (a
    deleted chord drawn inside the face).  path runs from one C-endpoint to
    the other; start/length describe the archway, the sub-arc of C spanned by
    the arch, as edge positions along the cycle.
    """

    face: int
    kind: str
    path: tuple
    start: int
    length: int
    cycle_length: int

    @property
    def apex(self):
        """The off-cycle vertex of a thick minor face's proper arch, else None."""
        return self.path[1] if len(self.path) == 3 else None

    @property
    def positions(self):
        """Edge positions of the archway, in arc order."""
        return tuple((self.start + i) % self.cycle_length for i in range(self.length))

    @property
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

    def is_thick(self, fid):
        return not self.is_thin(fid)

    def minor_faces(self, side=None):
        """Minor face ids by (arc start, id), the order of proper_arch."""
        if side is None:
            return list(self.proper_arch)
        return [f for f in self.proper_arch if self.face_side[f] == side]

    def major_faces(self, side=None):
        fids = [f for f in range(len(self.h.faces)) if not self.is_minor(f)]
        if side is None:
            return fids
        return [f for f in fids if self.face_side[f] == side]

    # -- arches ---------------------------------------------------------------

    def arches(self, fid):
        return self.arches_of.get(fid, ())

    def all_arches(self):
        out = []
        for fid in self.minor_faces():
            out.extend(self.arches_of.get(fid, ()))
        return out

    def m_shared(self, fid, arch):
        """Number of C-edges of face fid lying on the archway of ``arch``."""
        return len(set(self.face_c_positions.get(fid, ())) & set(arch.positions))

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


def _cyclic_run(positions, c):
    """Start and length of a contiguous cyclic run short of the full circle."""
    ps = set(positions)
    m = len(ps)
    starts = [p for p in ps if (p - 1) % c not in ps]
    if len(starts) != 1:
        raise ContractViolation("C-edges of a minor face are not contiguous")
    s = starts[0]
    if any((s + i) % c not in ps for i in range(m)):
        raise ContractViolation("C-edges of a minor face are not contiguous")
    return (s, m)


def analyze_cycle(g, cycle):
    """Full side/pruning/face/arch analysis of a cycle of g.

    g must be 3-connected (not rechecked here).  Raises NotIsolating unless
    the cycle is isolating.
    """
    cyc = check_isolating(g, cycle)
    c = len(cyc)

    pos = {v: i for i, v in enumerate(cyc)}
    pos_of_edge = {g.edge(cyc[i], cyc[(i + 1) % c]): i for i in range(c)}

    # one walk over each cycle vertex's ring: every off-cycle vertex and
    # every chord is a neighbour of the cycle, and takes its side there;
    # r_arc[v_i] is the R arc from just after v_{i+1} up to v_{i-1}
    r_arc = {}
    vertex_lr = {}
    chord_lr = {}
    for i, v in enumerate(cyc):
        ring = g.rotation[v]
        j = ring.index(cyc[(i + 1) % c]) + 1
        walk = ring[j:] + ring[:j - 1]
        k = walk.index(cyc[i - 1])
        r_arc[v] = set(walk[:k + 1])
        for t, w in enumerate(walk):
            lr = "R" if t < k else "L"
            if w not in pos:
                if vertex_lr.setdefault(w, lr) != lr:
                    raise ContractViolation(f"vertex {w!r} touches both sides")
            elif t != k and chord_lr.setdefault(g.edge(v, w), lr) != lr:
                raise ContractViolation(f"chord {v!r}-{w!r} touches both sides")
    chords = tuple(sorted(chord_lr, key=lambda e: (g.index[e[0]], g.index[e[1]])))

    v_L = sorted((v for v in vertex_lr if vertex_lr[v] == "L"), key=g.index.__getitem__)
    v_R = sorted((v for v in vertex_lr if vertex_lr[v] == "R"), key=g.index.__getitem__)
    if len(v_L) != len(v_R):
        side_of_minus = "L" if len(v_L) < len(v_R) else "R"
    elif v_L:
        side_of_minus = "L" if g.index[v_L[0]] < g.index[v_R[0]] else "R"
    else:
        side_of_minus = "L"

    def to_side(lr):
        return MINUS if lr == side_of_minus else PLUS

    vertex_side = {v: to_side(lr) for v, lr in vertex_lr.items()}
    v_minus = tuple(v_L if side_of_minus == "L" else v_R)
    v_plus = tuple(v_R if side_of_minus == "L" else v_L)

    if v_minus:
        deleted = chords
    else:
        deleted = tuple(e for e in chords if chord_lr[e] != side_of_minus)
    h = g.delete_edges(deleted)

    # a face of H is faces of G merged across deleted chords, each chord
    # with both of its G-faces on its side, so a face of H has the side of
    # its first dart: R at v_i exactly when the dart ends in v_i's R arc
    def lr_of(face):
        if face[0] in r_arc:
            return "R" if face[1] in r_arc[face[0]] else "L"
        return vertex_lr[face[0]]

    face_side = {fid: to_side(lr_of(face)) for fid, face in enumerate(h.faces)}

    edge_faces = tuple(
        (h.face_id[(u, v)], h.face_id[(v, u)]) for u, v in zip(cyc, cyc[1:] + cyc[:1])
    )
    face_c_positions = {}
    for p, pair in enumerate(edge_faces):
        for fid in pair:
            face_c_positions.setdefault(fid, []).append(p)

    # every side sees each C-edge in exactly one of its faces
    for side in (MINUS, PLUS):
        total = sum(
            len(ps)
            for fid, ps in face_c_positions.items()
            if face_side[fid] == side
        )
        if total != c:
            raise ContractViolation(f"C-edge count on side {side} is {total}, not {c}")

    # thin faces exist only when the minus side is empty (and something is
    # left to isolate); every other face is thick
    has_thin_side = not v_minus and bool(v_plus)

    # minor: thin with exactly one non-C boundary edge, or thick with exactly
    # one off-cycle boundary vertex; its proper arch runs from one end of its
    # arc to the other, through the apex of a thick face
    proper_arch = {}
    degenerate = set()
    for fid, ps in face_c_positions.items():
        if len(ps) == c:
            degenerate.add(fid)
            continue
        boundary = h.faces[fid]
        if has_thin_side and face_side[fid] == MINUS:
            non_c = [
                h.edge(boundary[i - 1], boundary[i])
                for i in range(len(boundary))
                if h.edge(boundary[i - 1], boundary[i]) not in pos_of_edge
            ]
            if len(non_c) != 1:
                continue
            s, m = _cyclic_run(ps, c)
            path = (cyc[s], cyc[(s + m) % c])
            if set(non_c[0]) != set(path):
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
    # a from u, the last neighbour before b at a that H keeps
    chord_hosts = {}
    for a, b in deleted:
        ring = g.rotation[a]
        i = ring.index(b) - 1
        while ring[i] not in h.adj[a]:
            i -= 1
        chord_hosts.setdefault(h.face_id[(ring[i], a)], []).append((a, b))

    arches_of = {}
    for fid, proper in proper_arch.items():
        s, m = proper.start, proper.length
        arches = [proper]
        for a, b in chord_hosts.get(fid, ()):
            ra = (pos[a] - s) % c
            rb = (pos[b] - s) % c
            if ra > m or rb > m:
                raise ContractViolation(
                    f"chord {a!r}-{b!r} hosted by face {fid} leaves its arc"
                )
            lo, hi = sorted((ra, rb))
            if lo == 0 and hi == m:
                # a chord joining the two ends of the arc is not an arch
                continue
            arches.append(
                Arch(fid, "chord", (cyc[(s + lo) % c], cyc[(s + hi) % c]),
                     (s + lo) % c, hi - lo, c)
            )
        arches.sort(key=lambda A: ((A.start - s) % c, A.length, A.kind))
        for i, A in enumerate(arches):
            a1 = (A.start - s) % c
            b1 = a1 + A.length - 1
            for B in arches[i + 1:]:
                a2 = (B.start - s) % c
                b2 = a2 + B.length - 1
                nested = (a1 <= a2 and b2 <= b1) or (a2 <= a1 and b1 <= b2)
                disjoint = b1 < a2 or b2 < a1
                if not (nested or disjoint):
                    raise ContractViolation(
                        f"archways of face {fid} are not laminar"
                    )
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
        for f in analysis.major_faces(side):
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
