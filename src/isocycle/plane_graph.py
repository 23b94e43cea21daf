"""Plane graphs as rotation systems.

A plane graph is stored combinatorially: every vertex carries the clockwise
cyclic order of its neighbours.  Faces are recovered by tracing: from the
directed edge (u, v) the walk continues with (v, w), where w is the successor
of u in the rotation at v.  Every directed edge lies on exactly one face, and
a rotation system describes an embedding in the sphere exactly when Euler's
formula holds for the traced faces.
"""

import json
from dataclasses import dataclass, field
from itertools import combinations

from .errors import (
    InconsistentRotation,
    NonPlanarEmbedding,
    NotSimple,
    ParseError,
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
    """

    vertices: tuple
    rotation: dict
    index: dict = field(repr=False)
    adj: dict = field(repr=False)
    edges: tuple = field(repr=False)
    faces: tuple = field(repr=False)
    face_id: dict = field(repr=False)
    _pos: dict = field(default=None, repr=False)
    # a declared field, not functools.cached_property: a key added to the
    # instance __dict__ after construction makes every attribute load slower
    _adj_mask: list = field(default=None, repr=False)

    def __post_init__(self):
        if self._pos is None:
            self._pos = {
                v: {u: i for i, u in enumerate(ring)}
                for v, ring in self.rotation.items()
            }

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

    def degree(self, v):
        return len(self.rotation[v])

    def has_edge(self, u, v):
        return v in self.adj[u]

    def edge(self, u, v):
        """Canonical (index-sorted) form of the undirected edge {u, v}."""
        if self.index[u] <= self.index[v]:
            return (u, v)
        return (v, u)

    def succ(self, v, u):
        """Neighbour directly after u in the clockwise rotation at v."""
        ring = self.rotation[v]
        return ring[(self._pos[v][u] + 1) % len(ring)]

    def next_directed(self, u, v):
        """Directed edge following (u, v) on the face traced from it."""
        return (v, self.succ(v, u))

    def trace_face(self, u, v):
        """All vertices of the face containing the directed edge (u, v)."""
        out = [u]
        a, b = self.next_directed(u, v)
        while (a, b) != (u, v):
            out.append(a)
            a, b = self.next_directed(a, b)
        return tuple(out)

    def faces_of_edge(self, u, v):
        """The one or two faces incident to the undirected edge {u, v}."""
        a = self.face_id[(u, v)]
        b = self.face_id[(v, u)]
        return (a, b)

    def sorted_vertices(self, vs):
        return sorted(vs, key=self.index.__getitem__)

    def delete_edges(self, edge_keys):
        """New plane graph with the given undirected edges removed."""
        drop = set()
        for u, v in edge_keys:
            drop.add((u, v))
            drop.add((v, u))
        rotation = {
            v: [w for w in ring if (v, w) not in drop]
            for v, ring in self.rotation.items()
        }
        return build_plane_graph(list(self.vertices), rotation)


def build_plane_graph(vertices, rotation):
    """Validate a rotation system and return the resulting PlaneGraph.

    Raises NotSimple for loops or repeated edges, InconsistentRotation when
    the two ends of an edge disagree, and NonPlanarEmbedding when the traced
    faces violate Euler's formula (which also catches disconnected input).
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
    for v in vertices:
        ring = tuple(rotation[v])
        if v in ring:
            raise NotSimple(f"loop at vertex {v!r}")
        if len(set(ring)) != len(ring):
            raise NotSimple(f"repeated neighbour in rotation at {v!r}")
        for w in ring:
            if w not in seen:
                raise InconsistentRotation(f"unknown neighbour {w!r} at {v!r}")
        rot[v] = ring
    for v in vertices:
        for w in rot[v]:
            if v not in rot[w]:
                raise InconsistentRotation(f"edge {v!r}-{w!r} missing at {w!r}")

    index = {v: i for i, v in enumerate(vertices)}
    adj = {v: frozenset(rot[v]) for v in vertices}
    edges = []
    for v in vertices:
        for w in rot[v]:
            if index[v] < index[w]:
                edges.append((v, w))
    edges.sort(key=lambda e: (index[e[0]], index[e[1]]))

    if reachable(adj, vertices[:1], seen) != seen:
        raise NonPlanarEmbedding("graph is not connected")

    g = PlaneGraph(
        vertices=vertices,
        rotation=rot,
        index=index,
        adj=adj,
        edges=tuple(edges),
        faces=(),
        face_id={},
    )
    faces = []
    face_id = {}
    for v in vertices:
        for w in rot[v]:
            if (v, w) in face_id:
                continue
            cycle = g.trace_face(v, w)
            fid = len(faces)
            faces.append(cycle)
            k = len(cycle)
            for i in range(k):
                face_id[(cycle[i], cycle[(i + 1) % k])] = fid
    g.faces = tuple(faces)
    g.face_id = face_id

    # Euler: V - E + F = 2 on the sphere
    if len(vertices) - len(edges) + len(faces) != 2:
        raise NonPlanarEmbedding(
            f"Euler check failed: V={len(vertices)} E={len(edges)} F={len(faces)}"
        )
    return g


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
    """All triangles of a maximal planar graph that are not faces.

    In a maximal planar graph on >= 5 vertices these are exactly the
    3-separators.
    """
    face_triples = {frozenset(f) for f in g.faces if len(f) == 3}
    out = []
    for u, v in g.edges:
        for w in g.sorted_vertices(g.adj[u] & g.adj[v]):
            if g.index[w] <= g.index[v]:
                continue
            t = frozenset((u, v, w))
            if t not in face_triples:
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
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
