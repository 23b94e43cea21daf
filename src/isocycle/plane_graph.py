"""Plane graphs as rotation systems.

A plane graph is stored combinatorially: every vertex carries the clockwise
cyclic order of its neighbours.  Faces are recovered by tracing: from the
directed edge (u, v) the walk continues with (v, w), where w is the successor
of u in the rotation at v.  Every directed edge lies on exactly one face, and
a connected rotation system describes an embedding in the sphere exactly
when Euler's formula holds for the traced faces.

The module also owns the cycle contract, which reads only the graph:
``check_cycle`` and ``canonical_cycle`` for cycles, ``is_isolating`` and
``check_isolating`` for isolating ones.
"""

import json
from dataclasses import dataclass, field
from itertools import combinations, filterfalse

from .errors import (
    InconsistentRotation,
    NonPlanarEmbedding,
    NotCycle,
    NotIsolating,
    NotSimple,
    ParseError,
    SizeTooSmall,
)


@dataclass(eq=False)
class PlaneGraph:
    """A connected simple plane graph, built via :func:`build_plane_graph`.

    Attributes:
        vertices: all vertex ids, in input order (used for tie-breaking).
        rotation: vertex -> tuple of neighbours in clockwise order.
        index: vertex -> position in ``vertices``.
        adj: vertex -> frozenset of neighbours.
        edges: tuple of canonical edge pairs, sorted by vertex index.
        faces: tuple of faces; each face is the tuple of its boundary
            vertices in tracing order.
        face_id: directed edge (u, v) -> index of the face traced from it.
        adj_mask: vertex index -> int bitmask of its neighbours' indices,
            built on first use (see :attr:`adj_mask`).
        triangles: directed edge (u, v) -> the third vertices of the
            triangular faces on {u, v}, in increasing face id, built on
            first use (see :attr:`triangles`).

    A graph is constructed once, with its faces, in O(n + m):
    :func:`build_plane_graph` and :meth:`delete_edges` both hand their
    rotation system to :func:`_with_faces`, which walks every face through a
    successor map on the directed edges and returns the finished graph.  No
    graph keeps that map or any other per-vertex ring index, and no graph
    is edited: the generators edit rotations on a private editor
    (``generators._RotationEditor``) and build one graph at the end.

    The extension engine keeps the move budget in ``_budget``, counted on
    first use (see :func:`isocycle.extension.extension_budget`), and its
    reroute results in ``_reroutes``, a dict it builds on the graph's first
    reroute step (see :func:`isocycle.extension.find_extension_fast`).
    """

    vertices: tuple
    rotation: dict
    index: dict = field(repr=False)
    adj: dict = field(repr=False)
    edges: tuple = field(repr=False)
    faces: tuple = field(repr=False)
    face_id: dict = field(repr=False)
    # a declared field, not functools.cached_property: a key added to the
    # instance __dict__ after construction makes every attribute load slower
    _adj_mask: list = field(default=None, repr=False)
    _triangles: dict = field(default=None, repr=False)
    _budget: int = field(default=None, repr=False)
    _reroutes: dict = field(default=None, repr=False)

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        return len(self.edges)

    @property
    def adj_mask(self):
        """For each vertex index, the bitmask of its neighbours' indices.

        About n^2/8 bytes, so it is built only when a search asks for it.
        """
        if self._adj_mask is None:
            index = self.index
            self._adj_mask = [
                sum(1 << index[w] for w in self.rotation[v]) for v in self.vertices
            ]
        return self._adj_mask

    @property
    def triangles(self):
        """For each directed edge (u, v) on a triangular face, the third
        vertices of the triangular faces on {u, v}, in increasing face id.

        Edges on no triangular face have no entry.  Built on first use, so a
        graph that never asks (such as the pruned graph of a reroute
        analysis) pays nothing.  Both directions of an edge share one value
        tuple, and the keys are ``face_id``'s own key tuples, so the table
        adds one dict slot per directed edge and one small tuple per edge.
        """
        if self._triangles is None:
            faces, face_id = self.faces, self.face_id
            table = {}
            for key, fid in face_id.items():
                u, v = key
                apexes = table.get((v, u))
                if apexes is None:
                    apexes = tuple(
                        w
                        for f in sorted((fid, face_id[(v, u)]))
                        if len(faces[f]) == 3
                        for w in faces[f]
                        if w != u and w != v
                    )
                if apexes:
                    table[key] = apexes
            self._triangles = table
        return self._triangles

    def degree(self, v):
        return len(self.rotation[v])

    def edge(self, u, v):
        """Canonical (index-sorted) form of the undirected edge {u, v}."""
        if self.index[u] <= self.index[v]:
            return (u, v)
        return (v, u)

    def sorted_vertices(self, vs):
        return sorted(vs, key=self.index.__getitem__)

    def delete_edges(self, edge_keys):
        """New plane graph with the given undirected edges removed.

        Pairs that are not edges are ignored.  The result is built without
        re-validating what a deletion keeps: it shares this graph's
        ``vertices`` and ``index``, keeps the rings and neighbour sets of
        every vertex no deleted edge touches, filters the sorted ``edges``,
        and traces its faces with :func:`_with_faces`, as
        :func:`build_plane_graph` does.  Deleting edges from a simple,
        symmetric, planar rotation system leaves one, and every component of
        the result is planar, so k components trace V - E + F = 2k faces.
        The only check left to fail is then Euler's formula, which raises
        NonPlanarEmbedding exactly when the deletion disconnects the graph.
        """
        adj = dict(self.adj)
        gone = set()
        drop = {}
        for u, v in edge_keys:
            if v in adj.get(u, ()):
                gone.add((u, v))
                gone.add((v, u))
                drop.setdefault(u, []).append(v)
                drop.setdefault(v, []).append(u)
        rotation = dict(self.rotation)
        for v, ws in drop.items():
            keep = adj[v] = adj[v].difference(ws)
            rotation[v] = tuple(filter(keep.__contains__, rotation[v]))
        edges = tuple(filterfalse(gone.__contains__, self.edges))
        return _with_faces(self.vertices, rotation, self.index, adj, edges)


def build_plane_graph(vertices, rotation):
    """Validate a rotation system and return the resulting PlaneGraph.

    Raises NotSimple for loops or repeated edges, InconsistentRotation when
    the two ends of an edge disagree, SizeTooSmall when there is no edge (a
    graph with no edge has no face to trace, so even K1 would fail Euler's
    formula), and NonPlanarEmbedding when the graph is not connected (found
    with :func:`reachable`) or the traced faces violate Euler's formula.
    Every check and the build take O(n + m).
    """
    vertices = tuple(vertices)
    seen = set()
    for v in vertices:
        if v in seen:
            raise NotSimple(f"vertex {v!r} listed twice")
        seen.add(v)
    if set(rotation) != seen:
        extra = sorted(set(rotation) - seen, key=str)
        missing = sorted(seen - set(rotation), key=str)
        raise InconsistentRotation(
            f"rotation keys do not match vertices (extra={extra}, missing={missing})"
        )

    rot = {}
    adj = {}
    for v in vertices:
        ring = tuple(rotation[v])
        if v in ring:
            raise NotSimple(f"loop at vertex {v!r}")
        nbrs = frozenset(ring)
        if len(nbrs) != len(ring):
            raise NotSimple(f"repeated neighbour in rotation at {v!r}")
        if not nbrs <= seen:
            w = next(w for w in ring if w not in seen)
            raise InconsistentRotation(f"unknown neighbour {w!r} at {v!r}")
        rot[v] = ring
        adj[v] = nbrs

    # edge (w, v) joins w's bucket on v's turn in the vertex order, so the
    # buckets, read in vertex order, give the edges sorted by vertex index
    index = {v: i for i, v in enumerate(vertices)}
    later = {v: [] for v in vertices}
    for v in vertices:
        i = index[v]
        for w in rot[v]:
            if v not in adj[w]:
                raise InconsistentRotation(f"edge {v!r}-{w!r} missing at {w!r}")
            if index[w] < i:
                later[w].append((w, v))
    edges = tuple(e for v in vertices for e in later[v])
    if not edges:
        raise SizeTooSmall(
            f"a plane graph needs at least one edge, got V={len(vertices)} E=0"
        )

    if reachable(adj, vertices[:1], seen) != seen:
        raise NonPlanarEmbedding("graph is not connected")

    return _with_faces(vertices, rot, index, adj, tuple(edges))


def _with_faces(vertices, rotation, index, adj, edges):
    """Trace and number the faces of a rotation system, check Euler's
    formula, and return the finished PlaneGraph.

    The walk runs on a successor map of the directed edges, local to this
    call: ``after[b][a]`` is the neighbour just after a in the clockwise
    ring at b, so the walk from (a, b) goes on with (b, after[b][a]).  The
    map is a permutation of the directed edges, so a walk ends when it is
    back at its first edge.  The walk pops ``after[b][a]`` as it leaves
    (a, b), so (v, w) is still to be traced exactly when v is a key of
    ``after[w]``.  A vertex with an empty ring has no directed edges and
    adds nothing.  The map is keyed by vertex, not by (a, b) tuples: a
    tuple per directed edge, freed after tracing, raised the peak memory
    of a build.

    Faces are numbered in the order their first directed edge appears,
    vertex by vertex in ``vertices`` order and round each rotation, and
    each face starts at the tail of that edge.  Both
    :func:`build_plane_graph` and :meth:`PlaneGraph.delete_edges` construct
    their graph here.  Raises NonPlanarEmbedding when V - E + F != 2.  That
    decides planarity only for a connected rotation system: a toroidal K4
    beside a disjoint triangle gives 7 - 9 + 4 = 2.  So ``build_plane_graph``
    checks connectivity with :func:`reachable` first, and ``delete_edges``
    relies on every component of a deletion from a planar graph being planar.
    """
    after = {b: dict(zip(ring, ring[1:] + ring[:1])) for b, ring in rotation.items()}
    faces = []
    face_id = {}
    for v in vertices:
        for w in rotation[v]:
            if v not in after[w]:
                continue
            fid = len(faces)
            face = []
            a, b = v, w
            while True:
                face_id[a, b] = fid
                face.append(a)
                a, b = b, after[b].pop(a)
                if b == w and a == v:
                    break
            faces.append(tuple(face))

    # Euler: V - E + F = 2 on the sphere
    if len(vertices) - len(edges) + len(faces) != 2:
        raise NonPlanarEmbedding(
            f"Euler check failed: V={len(vertices)} E={len(edges)} F={len(faces)}"
        )
    return PlaneGraph(
        vertices=vertices,
        rotation=rotation,
        index=index,
        adj=adj,
        edges=edges,
        faces=tuple(faces),
        face_id=face_id,
    )


def graph_from_faces(face_list):
    """Build a plane graph from a consistently oriented list of its faces.

    Every directed edge must appear in exactly one face.  The rotation at a
    vertex v is recovered by chaining: if a face passes u, v, w then w is the
    clockwise successor of u at v.
    """
    succ_map = {}
    order = []
    for face in face_list:
        k = len(face)
        for j in range(k):
            u, v, w = face[j - 1], face[j], face[(j + 1) % k]
            if v not in succ_map:
                succ_map[v] = {}
                order.append(v)
            if u in succ_map[v]:
                raise InconsistentRotation(
                    f"directed edge ({u!r}, {v!r}) appears in two faces"
                )
            succ_map[v][u] = w

    rotation = {}
    for v in order:
        chain = succ_map[v]
        if set(chain.values()) != set(chain):
            raise InconsistentRotation(f"unmatched directed edges at {v!r}")
        start = next(iter(chain))
        ring = [start]
        w = chain[start]
        while w != start:
            ring.append(w)
            w = chain[w]
        if len(ring) != len(chain):
            raise InconsistentRotation(
                f"rotation at {v!r} splits into several cycles"
            )
        rotation[v] = ring
    return build_plane_graph(order, rotation)


# ---------------------------------------------------------------------------
# cycles


def check_cycle(g, seq):
    """Validate that seq is a cycle of g and return it as a tuple."""
    seq = tuple(seq)
    if len(seq) < 3:
        raise NotCycle(f"a cycle needs at least 3 vertices, got {len(seq)}")
    for v in seq:
        if v not in g.index:
            raise NotCycle(f"unknown vertex {v!r}")
    if len(set(seq)) != len(seq):
        raise NotCycle("repeated vertex")
    # the wrap-around pair (seq[-1], seq[0]) is checked first
    adj = g.adj
    u = seq[-1]
    for v in seq:
        if v not in adj[u]:
            raise NotCycle(f"missing edge {u!r}-{v!r}")
        u = v
    return seq


def canonical_cycle(g, seq):
    """Rotate/reflect a cycle into a canonical form for comparisons."""
    seq = check_cycle(g, seq)
    k = len(seq)
    i = min(range(k), key=lambda j: g.index[seq[j]])
    rot = seq[i:] + seq[:i]
    if g.index[rot[-1]] < g.index[rot[1]]:
        rot = (rot[0],) + tuple(reversed(rot[1:]))
    return rot


def is_isolating(g, cycle):
    """True when every vertex off the cycle has all its neighbours on it."""
    on = set(cycle)
    # only the off-cycle vertices, and no Python-level loop over them
    return all(map(on.issuperset, map(g.adj.__getitem__, g.index.keys() - on)))


def check_isolating(g, seq):
    """check_cycle, plus NotIsolating unless the cycle is isolating."""
    cyc = check_cycle(g, seq)
    if not is_isolating(g, cyc):
        raise NotIsolating("some edge of the graph avoids the cycle")
    return cyc


# ---------------------------------------------------------------------------
# connectivity


def reachable(adj, starts, allowed):
    """The vertices of ``allowed`` reachable from ``starts`` inside it.

    adj maps each vertex to an iterable of its neighbours, and starts
    outside ``allowed`` are ignored.  Every set-based reachability search of
    the package runs here; the oracles flood vertex bitmasks instead.
    """
    seen = set(starts) & allowed
    stack = list(seen)
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y in allowed and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _separators(g, k):
    """Yield (cut, components) for every k-set whose removal disconnects g."""
    for cut in combinations(g.vertices, k):
        remaining = set(g.vertices).difference(cut)
        comps = []
        while remaining:
            comp = reachable(g.adj, [next(iter(remaining))], remaining)
            remaining -= comp
            comps.append(comp)
        if len(comps) > 1:
            yield cut, comps


def is_maximal_planar(g):
    """True when every face of the embedding is a triangle (and n >= 4)."""
    return g.n >= 4 and all(len(f) == 3 for f in g.faces)


def is_three_connected(g):
    if g.n < 4:
        return False
    # simple maximal planar graphs on >= 4 vertices are 3-connected
    return is_maximal_planar(g) or not any(_separators(g, 2))


def separating_triangles(g):
    """Every triangle of g that does not bound a face, as an index-sorted
    triple (u, v, w), ordered by its edge (u, v) in ``g.edges``, then by w.

    This holds on any plane graph.  On a maximal planar graph with at least
    5 vertices these triangles are exactly the 3-separators.  A triangle on
    edge uv is facial when it bounds one of the two faces on uv, so the
    apexes of those faces, when they are triangles, are the only common
    neighbours of u and v to pass over.
    """
    index, adj, faces, face_id = g.index, g.adj, g.faces, g.face_id
    out = []
    for u, v in g.edges:
        common = adj[u] & adj[v]
        f, h = faces[face_id[u, v]], faces[face_id[v, u]]
        if len(common) <= (len(f) == 3) + (len(h) == 3):
            continue
        # each triangular face on uv holds u, v and its apex
        facial = (f if len(f) == 3 else ()) + (h if len(h) == 3 else ())
        i = index[v]
        for w in sorted(common, key=index.__getitem__):
            if index[w] > i and w not in facial:
                out.append((u, v, w))
    return out


def is_four_connected(g):
    if g.n < 5:
        return False
    if any(g.degree(v) < 4 for v in g.vertices):
        return False
    if is_maximal_planar(g):
        return not separating_triangles(g)
    return not any(_separators(g, 3))


def is_essentially_four_connected(g):
    """3-connected, and every 3-cut is the neighbourhood of a single vertex."""
    if not is_three_connected(g):
        return False
    if is_maximal_planar(g):
        cuts = separating_triangles(g)
    else:
        cuts = (cut for cut, _ in _separators(g, 3))
    necks = {g.adj[v] for v in g.vertices if g.degree(v) == 3}
    return all(frozenset(cut) in necks for cut in cuts)


# ---------------------------------------------------------------------------
# serialization


def graph_to_json_dict(g):
    names, taken = {}, set()
    for v in g.vertices:
        s = v if isinstance(v, str) else str(v)
        if s in taken:
            raise ParseError(f"vertex ids collide when stringified: {s!r}")
        names[v] = s
        taken.add(s)
    return {
        "vertices": [names[v] for v in g.vertices],
        "rotation": {names[v]: [names[w] for w in g.rotation[v]] for v in g.vertices},
    }


def graph_from_json_dict(d):
    if not isinstance(d, dict):
        raise ParseError("graph document must be a JSON object")
    for key in ("vertices", "rotation"):
        if key not in d:
            raise ParseError(f"missing key {key!r}")
    vertices = d["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ParseError("'vertices' must be a list of strings")
    rotation = d["rotation"]
    if not isinstance(rotation, dict):
        raise ParseError("'rotation' must be an object")
    for v, ring in rotation.items():
        if not isinstance(ring, list) or not all(isinstance(w, str) for w in ring):
            raise ParseError(f"rotation at {v!r} must be a list of strings")
    return build_plane_graph(vertices, rotation)


def save_graph(g, path):
    with open(path, "w") as fh:
        json.dump(graph_to_json_dict(g), fh, indent=2)
        fh.write("\n")


def load_graph(path):
    with open(path, encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    return graph_from_json_dict(d)


def graph_to_dot(g, highlight_cycle=None):
    """Graphviz source for the graph; cycle edges are drawn bold if given."""
    bold = set()
    if highlight_cycle:
        c = list(highlight_cycle)
        for i in range(len(c)):
            bold.add(g.edge(c[i - 1], c[i]))

    def quote(v):
        return '"' + str(v).replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph G {"]
    for v in g.vertices:
        lines.append(f"  {quote(v)};")
    for u, v in g.edges:
        style = " [style=bold]" if (u, v) in bold else ""
        lines.append(f"  {quote(u)} -- {quote(v)}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
