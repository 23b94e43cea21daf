"""Instance generators: named graphs, insertion families, random triangulations.

All generators emit plane graphs with string vertex ids so every instance
serializes directly to the JSON graph format.
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
    rotation = {v: list(g.rotation[v]) for v in g.vertices}
    for (a, b, c), new_id in insertions:
        rotation[a].insert(rotation[a].index(c) + 1, new_id)
        rotation[b].insert(rotation[b].index(a) + 1, new_id)
        rotation[c].insert(rotation[c].index(b) + 1, new_id)
        rotation[new_id] = [a, c, b]
    new_ids = [new_id for _, new_id in insertions]
    return build_plane_graph(list(g.vertices) + new_ids, rotation)


def diagonal_flip(g, u, v):
    """Replace edge uv by the other diagonal xy of its two triangles.

    Returns None when the flip is illegal (non-triangular sides, existing
    diagonal, or an endpoint of degree 3).
    """
    fa = g.faces[g.face_id[(u, v)]]
    fb = g.faces[g.face_id[(v, u)]]
    if len(fa) != 3 or len(fb) != 3:
        return None
    x = next(w for w in fa if w not in (u, v))
    y = next(w for w in fb if w not in (u, v))
    if y in g.adj[x] or g.degree(u) <= 3 or g.degree(v) <= 3:
        return None
    rotation = {w: list(g.rotation[w]) for w in g.vertices}
    rotation[u].remove(v)
    rotation[v].remove(u)
    rotation[x].insert(rotation[x].index(v) + 1, y)
    rotation[y].insert(rotation[y].index(u) + 1, x)
    return build_plane_graph(list(g.vertices), rotation)


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


def gen_random_triangulation(n, seed=0, require_four_connected=False):
    """Random maximal planar graph on n vertices.

    The plain variant stacks random vertex insertions from K4 (every such
    graph keeps a degree-3 vertex, so it is never 4-connected).  The
    4-connected variant is not random: it returns double_wheel(n - 2) for
    every seed, since every diagonal flip of a double wheel leaves a vertex
    of degree 3.  A flip walk that repairs 4-connectivity is ROADMAP item 10.
    """
    if require_four_connected:
        if n < 6:
            raise SizeTooSmall("4-connected planar graphs need at least 6 vertices")
        return double_wheel(n - 2)
    if n < 4:
        raise SizeTooSmall("a triangulation needs at least 4 vertices")
    rng = random.Random(seed)
    g = k4()
    for i in range(n - 4):
        triples = [f for f in g.faces]
        g = insert_vertex(g, triples[rng.randrange(len(triples))], f"t{i}")
    return g
