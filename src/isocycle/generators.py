"""Instance generators: named graphs, insertion families, random triangulations.

All generators emit plane graphs with string vertex ids so every instance
serializes directly to the JSON graph format.  Edits (face splits and
diagonal flips) run in O(1) each on a private rotation editor, which builds
its graph once, through the validating ``build_plane_graph``, in O(n + m).
"""

import random

from .errors import BaseNotFourConnected, SizeTooSmall, UnknownName
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
            self.first[v] = ring[0] if ring else None
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
        if not succ:
            return []
        w = self.first[v]
        out = [w]
        for _ in range(len(succ) - 1):
            w = succ[w]
            out.append(w)
        return out

    def freeze(self):
        """The edited graph, validated by :func:`build_plane_graph`."""
        return build_plane_graph(self.vertices, {v: self.ring(v) for v in self.vertices})


def insert_vertex(g, face_triple, new_id):
    """Split a triangular face (a, b, c) into three by a new inner vertex.

    The triple must be a face of g in tracing order.
    """
    a, b, c = face_triple
    fid = g.face_id.get((a, b))
    if fid is None or fid != g.face_id.get((b, c)) or len(g.faces[fid]) != 3:
        raise ValueError(f"({a}, {b}, {c}) is not a directed face of the graph")
    if new_id in g.index:
        raise ValueError(f"vertex id {new_id!r} already taken")
    return _insert_vertices(g, [(face_triple, new_id)])


def _insert_vertices(g, insertions):
    """Split each face triple of g by its new vertex id, then build once.

    The triples must be distinct faces of g in tracing order: each stays a
    face until it is split, so the result equals a chain of insert_vertex
    calls in the same order.
    """
    editor = _RotationEditor(g)
    for (a, b, c), new_id in insertions:
        editor.split(a, b, c, new_id)
    return editor.freeze()


def diagonal_flip(g, u, v):
    """Replace edge uv by the other diagonal xy of its two triangles.

    Returns None when the flip is illegal (non-triangular sides, existing
    diagonal, or an endpoint of degree 3).  Raises ValueError when uv is
    not an edge of g.
    """
    if v not in g.adj.get(u, ()):
        raise ValueError(f"({u}, {v}) is not an edge of the graph")
    editor = _RotationEditor(g)
    if editor.flip(u, v) is None:
        return None
    return editor.freeze()


def gen_insertion_family(base, seed=0, fill_count=None):
    """Insert a degree-3 vertex into faces of a 4-connected triangulation.

    With fill_count=None every face is filled; otherwise a seeded sample of
    that many faces.  The result is an essentially 4-connected maximal
    planar graph.
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
    g = _insert_vertices(base, [(t, f"w{i}") for i, t in enumerate(triples)])
    if not is_essentially_four_connected(g):
        raise BaseNotFourConnected("insertion result is not essentially 4-connected")
    return g


def base_hamiltonian_cycle(k):
    """A Hamiltonian cycle of double_wheel(k), as a vertex tuple."""
    rim = [f"r{i}" for i in range(k)]
    return tuple(["a"] + rim[: k - 1] + ["b", rim[k - 1]])


class _StackedFaces:
    """The faces of a triangulation under face splits, in trace order.

    A split takes the r-th face of the graph as :func:`build_plane_graph`
    would number it and puts a new vertex, the latest in vertex order,
    inside it, on an editor.  That numbering starts each face at its lowest
    corner in vertex order, its owner, and orders the faces by owner, then
    by the ring position at the owner of the edge leaving it along the face.
    A Fenwick tree over vertex indices counts the faces each vertex owns,
    ``count`` in all, so the owner v of the r-th face is found in O(log n).
    The face is then read off v's ring: the walk from ``editor.first[v]``
    meets each neighbour w in ring order, and the face v, w, ``succ[w][v]``
    is v's exactly when w and ``succ[w][v]`` both come after v.  The walk
    costs O(deg v) and is bounded by the ring's length, so a miscount
    raises.  Splitting face a, b, c by x leaves a, b, x and c, a, x to a
    and gives b, c, x to the lower of b and c.

    The walk replaced ring labels and a sorted list of owned faces per
    vertex (``tools/build_scaling.py``, 2-core host, three interleaved runs
    each): the median at n = 800 went 0.013-0.023 -> 0.011-0.013 s, at
    n = 10^4 0.28-0.37 -> 0.26-0.37 s, and the traced peak 2.5 -> 2.1 MB
    and 31.4 -> 26.8 MB.  The structures a split loop holds went 8.7 -> 4.1
    MB at n = 10^4 and 96 -> 46 MB at n = 10^5.  The split loop alone at
    n = 10^5, where the top degree is 1172, went 2.2-2.8 -> 3.2-3.7 s.
    """

    def __init__(self, g, n):
        """Start from the triangulation g, which will grow to n vertices."""
        self.editor = _RotationEditor(g)
        self.index = dict(g.index)
        self.count = 0
        self.tree = [0] * (n + 1)
        for face in g.faces:
            self._count(face[0])

    def _count(self, v):
        tree, size = self.tree, len(self.tree)
        i = self.index[v] + 1
        while i < size:
            tree[i] += 1
            i += i & -i
        self.count += 1

    def face(self, r):
        """The r-th face, as the triple build_plane_graph would trace."""
        tree, size = self.tree, len(self.tree)
        i, step = 0, 1 << size.bit_length()
        while step:
            if i + step < size and tree[i + step] <= r:
                i += step
                r -= tree[i]
            step >>= 1
        editor, index, succ = self.editor, self.index, self.editor.succ
        v = editor.vertices[i]
        ring = succ[v]
        w = editor.first[v]
        for _ in range(len(ring)):
            u = succ[w][v]
            if index[w] > i and index[u] > i:
                if not r:
                    return v, w, u
                r -= 1
            w = ring[w]
        raise IndexError(f"{v!r} owns fewer faces than its count")

    def split(self, r, x):
        """Put the new vertex x inside the r-th face."""
        a, b, c = self.face(r)
        self.editor.split(a, b, c, x)
        index = self.index
        index[x] = len(index)
        self._count(a)
        self._count(b if index[b] < index[c] else c)


def gen_random_triangulation(n, seed=0, require_four_connected=False):
    """Random maximal planar graph on n vertices.

    The plain variant stacks random vertex insertions from K4 (every such
    graph keeps a degree-3 vertex, so it is never 4-connected): vertex
    ``t{i}`` goes into face ``rng.randrange(len(faces))`` of the graph so
    far.  The splits run on the rotation editor, each face read off its
    owner's ring in trace order by :class:`_StackedFaces`, and the graph is
    built once: 0.011-0.013 s at n = 800 and about 0.3 s at n = 10^4
    (``tools/build_scaling.py``).  The 4-connected variant is not random: it
    returns double_wheel(n - 2) for every seed, since every diagonal flip of
    a double wheel leaves a vertex of degree 3.  A flip walk that repairs
    4-connectivity is ROADMAP item 10.
    """
    if require_four_connected:
        if n < 6:
            raise SizeTooSmall("4-connected planar graphs need at least 6 vertices")
        return double_wheel(n - 2)
    if n < 4:
        raise SizeTooSmall("a triangulation needs at least 4 vertices")
    rng = random.Random(seed)
    faces = _StackedFaces(k4(), n)
    for i in range(n - 4):
        faces.split(rng.randrange(faces.count), f"t{i}")
    return faces.editor.freeze()
