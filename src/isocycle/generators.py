"""Instance generators: named graphs, insertion families, random triangulations.

All generators emit plane graphs with string vertex ids so every instance
serializes directly to the JSON graph format.  A generator makes its edits
(face splits, diagonal flips) in O(1) each on one private rotation editor,
and builds its graph once, through the validating ``build_plane_graph``, in
O(n + m); no public function edits a graph.
"""

import random

from .errors import BaseNotFourConnected, IsocycleError, SizeTooSmall, UnknownName
from .plane_graph import (
    build_plane_graph,
    graph_from_faces,
    is_four_connected,
    is_essentially_four_connected,
    is_maximal_planar,
)


def wheel(k):
    """Wheel: a hub adjacent to every vertex of a k-cycle rim (k >= 3)."""
    if k < 3:
        raise SizeTooSmall("a wheel needs a rim of at least 3 vertices")
    rim = [f"r{i}" for i in range(k)]
    rotation = {"h": list(reversed(rim))}
    for i in range(k):
        rotation[rim[i]] = ["h", rim[(i + 1) % k], rim[(i - 1) % k]]
    return build_plane_graph(["h"] + rim, rotation)


def double_wheel(k):
    """Two hubs on opposite sides of a k-cycle rim (k >= 3)."""
    if k < 3:
        raise SizeTooSmall("a double wheel needs a rim of at least 3 vertices")
    rim = [f"r{i}" for i in range(k)]
    rotation = {"a": list(reversed(rim)), "b": list(rim)}
    for i in range(k):
        rotation[rim[i]] = ["a", rim[(i + 1) % k], "b", rim[(i - 1) % k]]
    return build_plane_graph(["a", "b"] + rim, rotation)


def octahedron():
    return double_wheel(4)


def k4():
    return wheel(3)


def cube():
    faces = [
        ("v0", "v4", "v5", "v1"),
        ("v1", "v5", "v6", "v2"),
        ("v2", "v6", "v7", "v3"),
        ("v3", "v7", "v4", "v0"),
        ("v4", "v7", "v6", "v5"),
        ("v0", "v1", "v2", "v3"),
    ]
    return graph_from_faces(faces)


def prism():
    faces = [
        ("v0", "v1", "v2"),
        ("v0", "v3", "v4", "v1"),
        ("v1", "v4", "v5", "v2"),
        ("v2", "v5", "v3", "v0"),
        ("v3", "v5", "v4"),
    ]
    return graph_from_faces(faces)


def named_graph(name):
    """Look up a named graph; wheels take a rim size, e.g. 'wheel:7'."""
    plain = {
        "k4": k4,
        "cube": cube,
        "prism": prism,
        "octahedron": octahedron,
    }
    key = name.strip().lower()
    if key in plain:
        return plain[key]()
    if ":" in key:
        base, _, arg = key.partition(":")
        try:
            k = int(arg)
        except ValueError:
            raise UnknownName(f"bad size in graph name {name!r}") from None
        if base == "wheel":
            return wheel(k)
        if base in ("double_wheel", "double-wheel"):
            return double_wheel(k)
    raise UnknownName(f"unknown graph name {name!r}")


class _RotationEditor:
    """A rotation system edited in place, then frozen once into a PlaneGraph.

    Each ring is a successor map, ``succ[v][w]`` being the neighbour just
    after w clockwise round v, together with the ring's first neighbour.  A
    face split and a diagonal flip each cost O(1): every neighbour an edit
    removes is the apex of a triangle beside it, so its predecessor is known
    and no predecessor map is kept.  A rebuilt ring keeps its start under
    ``list.insert`` after a neighbour and moves it to the next neighbour
    under ``list.remove`` of the first; the editor moves ring starts the
    same way, so a frozen graph equals, field for field, what building the
    graph anew after every edit gives.
    """

    def __init__(self, g):
        self.vertices = list(g.vertices)
        self.first = {}
        self.succ = {}
        for v, ring in g.rotation.items():
            self.first[v] = ring[0]
            self.succ[v] = dict(zip(ring, ring[1:] + ring[:1]))

    def split(self, a, b, c, x):
        """Put the new vertex x inside the face a, b, c (in tracing order)."""
        succ = self.succ
        ring = succ[a]  # x goes after c at a, after a at b, after b at c
        ring[x] = ring[c]
        ring[c] = x
        ring = succ[b]
        ring[x] = ring[a]
        ring[a] = x
        ring = succ[c]
        ring[x] = ring[b]
        ring[b] = x
        succ[x] = {a: c, c: b, b: a}
        self.first[x] = a
        self.vertices.append(x)

    def flip(self, u, v):
        """Replace edge uv by the other diagonal xy of its two triangles.

        Returns (x, y), or None with nothing changed when the flip is
        illegal: a side of uv is not a triangle, x and y are adjacent, or u
        or v has degree 3.
        """
        succ = self.succ
        su, sv = succ[u], succ[v]
        x, y = sv[u], su[v]
        sx, sy = succ[x], succ[y]
        if sx[v] != u or su[x] != v or sy[u] != v or sv[y] != u:
            return None
        if y in sx or len(su) <= 3 or len(sv) <= 3:
            return None
        # x precedes v at u and y precedes u at v
        del su[v]
        su[x] = y
        del sv[u]
        sv[y] = x
        first = self.first
        if first[u] == v:
            first[u] = y
        if first[v] == u:
            first[v] = x
        sx[y] = sx[v]
        sx[v] = y
        sy[x] = sy[u]
        sy[u] = x
        return x, y

    def ring(self, v):
        """The ring at v as a list, from its first neighbour."""
        succ = self.succ[v]
        w = self.first[v]
        out = [w]
        for _ in range(len(succ) - 1):
            w = succ[w]
            out.append(w)
        return out

    def freeze(self):
        """The edited graph, validated by :func:`build_plane_graph`."""
        return build_plane_graph(self.vertices, {v: self.ring(v) for v in self.vertices})


def gen_insertion_family(base, seed=0, fill_count=None):
    """Insert a degree-3 vertex into faces of a 4-connected triangulation.

    With fill_count=None every face is filled; otherwise a seeded sample of
    that many faces.  The new vertices are named w0, w1, ..., so a base
    already holding one of those ids raises IsocycleError.  The result is
    an essentially 4-connected maximal planar graph.
    """
    if not (is_maximal_planar(base) and is_four_connected(base)):
        raise BaseNotFourConnected(
            "insertion families need a 4-connected maximal planar base"
        )
    triples = list(base.faces)
    if fill_count is not None:
        if not 0 <= fill_count <= len(triples):
            raise SizeTooSmall(
                f"fill count must be between 0 and {len(triples)}"
            )
        rng = random.Random(seed)
        chosen = sorted(rng.sample(range(len(triples)), fill_count))
        triples = [base.faces[i] for i in chosen]
    new_ids = [f"w{i}" for i in range(len(triples))]
    clash = next((v for v in new_ids if v in base.index), None)
    if clash is not None:
        raise IsocycleError(
            f"base vertex {clash!r} clashes with the new vertex ids w0, w1, ..."
        )
    # each triple is a distinct face of base, and stays a face until it is split
    editor = _RotationEditor(base)
    for (a, b, c), new_id in zip(triples, new_ids):
        editor.split(a, b, c, new_id)
    g = editor.freeze()
    if not is_essentially_four_connected(g):
        raise BaseNotFourConnected("insertion result is not essentially 4-connected")
    return g


def base_hamiltonian_cycle(k):
    """A Hamiltonian cycle of double_wheel(k), as a vertex tuple."""
    rim = [f"r{i}" for i in range(k)]
    return tuple(["a"] + rim[: k - 1] + ["b", rim[k - 1]])


def gen_random_triangulation(n, seed=0, require_four_connected=False):
    """Random maximal planar graph on n vertices.

    The plain variant stacks random vertex insertions from K4 (every such
    graph keeps a degree-3 vertex, so it is never 4-connected): vertex
    ``t{i}`` goes into face ``rng.randrange(len(faces))`` of a plain list
    that holds each current face once, in tracing order, so the draw is
    uniform.  Splitting face a, b, c by x puts a, b, x in its slot and
    appends b, c, x and c, a, x.  The splits run on the rotation editor and
    the graph is built once: 0.007-0.013 s at n = 800 and 0.18-0.24 s at
    n = 10^4 (rows ``stacked_800`` and ``stacked_10000`` of
    ``tools/timing.py``).  The 4-connected variant is not
    random: it returns double_wheel(n - 2) for every seed, since every
    diagonal flip of a double wheel leaves a vertex of degree 3.  A flip
    walk that repairs 4-connectivity is ROADMAP item 10.
    """
    if require_four_connected:
        if n < 6:
            raise SizeTooSmall("4-connected planar graphs need at least 6 vertices")
        return double_wheel(n - 2)
    if n < 4:
        raise SizeTooSmall("a triangulation needs at least 4 vertices")
    rng = random.Random(seed)
    g = k4()
    editor, faces = _RotationEditor(g), list(g.faces)
    for i in range(n - 4):
        r = rng.randrange(len(faces))
        a, b, c = faces[r]
        x = f"t{i}"
        editor.split(a, b, c, x)
        faces[r] = (a, b, x)
        faces += ((b, c, x), (c, a, x))
    return editor.freeze()
