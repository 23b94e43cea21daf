"""Embedding construction, validation, connectivity and serialization."""

import json
import random
import re
from itertools import combinations

import pytest

import isocycle as ic
from conftest import short_isolating_cycles, tight14_slice
from isocycle.errors import (
    InconsistentRotation,
    NonPlanarEmbedding,
    NotSimple,
    ParseError,
    SizeTooSmall,
)
from isocycle.generators import (
    base_hamiltonian_cycle,
    cube,
    double_wheel,
    k4,
    prism,
    wheel,
)
from isocycle.plane_graph import (
    _separators,
    _with_faces,
    graph_from_json_dict,
    is_essentially_four_connected,
    is_four_connected,
    is_maximal_planar,
    separating_triangles,
)


def test_k4_faces():
    g = k4()
    # Euler: 4 - 6 + F = 2, so F = 4, all triangles.
    assert (g.n, g.m, len(g.faces)) == (4, 6, 4)
    assert all(len(f) == 3 for f in g.faces)


def test_octahedron_faces():
    g = ic.octahedron()
    # Euler: 6 - 12 + F = 2, so F = 8.
    assert (g.n, g.m, len(g.faces)) == (6, 12, 8)
    assert all(len(f) == 3 for f in g.faces)


def test_cube_faces():
    g = cube()
    # Euler: 8 - 12 + F = 2, so F = 6, all quadrilaterals.
    assert (g.n, g.m, len(g.faces)) == (8, 12, 6)
    assert all(len(f) == 4 for f in g.faces)


def test_every_directed_edge_traced_once():
    g = ic.octahedron()
    darts = [(f[i - 1], f[i]) for f in g.faces for i in range(len(f))]
    assert len(darts) == 2 * g.m
    assert len(set(darts)) == len(darts)


def test_rejects_self_loop():
    with pytest.raises(NotSimple):
        ic.build_plane_graph(["a", "b"], {"a": ["a", "b"], "b": ["a"]})


def test_rejects_parallel_edges():
    with pytest.raises(NotSimple):
        ic.build_plane_graph(["a", "b"], {"a": ["b", "b"], "b": ["a", "a"]})


def test_rejects_one_sided_edge():
    with pytest.raises(InconsistentRotation):
        ic.build_plane_graph(
            ["a", "b", "c"], {"a": ["b", "c"], "b": ["a"], "c": []}
        )


def test_rejects_nonplanar_rotation():
    # K5 admits no planar embedding; face tracing must expose the genus.
    vs = ["a", "b", "c", "d", "e"]
    rotation = {v: [w for w in vs if w != v] for v in vs}
    with pytest.raises(NonPlanarEmbedding):
        ic.build_plane_graph(vs, rotation)


def _same_graph(h, ref):
    assert h.vertices == ref.vertices
    assert h.rotation == ref.rotation
    assert h.adj == ref.adj
    assert h.edges == ref.edges
    assert h.faces == ref.faces
    assert h.face_id == ref.face_id


def _ring_position_faces(g):
    """The faces and face ids of g by the earlier tracing rule, kept as the
    oracle of the successor-map tracer: each vertex's ring positions are
    indexed, and the walk from (a, b) goes on with the neighbour at the
    position after a's in the ring at b, until it is back at its first
    edge.  Faces are numbered by their first directed edge, in
    ``g.vertices`` order and then ring order."""
    pos = {v: {u: i for i, u in enumerate(ring)} for v, ring in g.rotation.items()}
    faces, face_id = [], {}
    for v in g.vertices:
        for w in g.rotation[v]:
            if (v, w) in face_id:
                continue
            face, a, b = [], v, w
            while True:
                face.append(a)
                ring = g.rotation[b]
                a, b = b, ring[(pos[b][a] + 1) % len(ring)]
                if (a, b) == (v, w):
                    break
            for i in range(len(face)):
                face_id[(face[i - 1], face[i])] = len(faces)
            faces.append(tuple(face))
    return tuple(faces), face_id


def _same_faces_as_ring_positions(g):
    faces, face_id = _ring_position_faces(g)
    assert g.faces == faces
    assert g.face_id == face_id


def test_faces_match_the_ring_position_walk(sweep_sample):
    graphs = [k4(), ic.octahedron(), cube(), prism(), wheel(7)]
    graphs.append(ic.graph_from_faces(cube().faces))
    graphs += [ic.gen_random_triangulation(30, seed=s) for s in range(4)]
    graphs.append(ic.gen_insertion_family(ic.octahedron()))
    graphs.append(ic.gen_insertion_family(double_wheel(66)))
    assert graphs[-1].n == 200
    for g in graphs + list(sweep_sample):
        _same_faces_as_ring_positions(g)
        # numbering follows g.vertices, not the order of the rotation's keys
        rotation = dict(reversed(g.rotation.items()))
        h = _with_faces(g.vertices, rotation, g.index, g.adj, g.edges)
        _same_faces_as_ring_positions(h)


def test_delete_edges_equals_a_validated_rebuild():
    # delete_edges skips the checks a deletion cannot fail; on the pruned
    # graph H of every reroute step of the golden tight14 slice it must
    # build what build_plane_graph builds from the reduced rotation
    g, starts = tight14_slice()
    steps = 0
    for start in starts:
        trace = ic.grow_to_bound(g, start)
        for cyc, move in zip(trace.cycles, trace.moves):
            if move.pattern != "window-reroute":
                continue
            chords = ic.analyze_cycle(g, cyc).deleted_chords
            assert chords
            drop = {(u, v) for u, v in chords} | {(v, u) for u, v in chords}
            rotation = {
                v: [w for w in ring if (v, w) not in drop]
                for v, ring in g.rotation.items()
            }
            h = g.delete_edges(chords)
            _same_graph(h, ic.build_plane_graph(g.vertices, rotation))
            _same_faces_as_ring_positions(h)
            steps += 1
    assert steps == 204


def test_delete_edges_that_disconnect_raise():
    # the Euler check is the one check a deletion can fail: isolating a
    # vertex leaves V - E + F = 3
    g = ic.octahedron()
    v = g.vertices[0]
    with pytest.raises(NonPlanarEmbedding, match="Euler"):
        g.delete_edges([(v, w) for w in g.rotation[v]])


def test_delete_edges_ignores_non_edges():
    g = ic.octahedron()
    u = g.vertices[0]
    w = next(x for x in g.vertices if x != u and x not in g.adj[u])
    h = g.delete_edges([(u, w), (w, u), ("no such vertex", u)])
    _same_graph(h, g)


# -- the triangle table ------------------------------------------------------


def _old_apex(g, u, v, on):
    """The apex rule the table replaces: of the faces traced from (u, v) and
    (v, u), the triangles whose third vertex is off the cycle, lowest face id
    first."""

    def succ(x, w):
        ring = g.rotation[x]
        return ring[(ring.index(w) + 1) % len(ring)]

    triangles = [
        (fid, apex)
        for fid, apex in ((g.face_id[(u, v)], succ(v, u)), (g.face_id[(v, u)], succ(u, v)))
        if len(g.faces[fid]) == 3 and apex not in on
    ]
    return min(triangles)[1] if triangles else None


def _table_apex(g, u, v, on):
    return next((w for w in g.triangles.get((u, v), ()) if w not in on), None)


def _same_apexes(g, cycles):
    """Table and old rule agree on every edge of every cycle; returns the
    number of edges with an apex off the cycle."""
    found = 0
    for cyc in cycles:
        on = set(cyc)
        for i in range(len(cyc)):
            u, v = cyc[i - 1], cyc[i]
            apex = _old_apex(g, u, v, on)
            assert _table_apex(g, u, v, on) == apex, (cyc, u, v)
            found += apex is not None
    return found


def _c4_c5_graphs():
    from test_discharging import C4_INSTANCE, C5_INSTANCE

    return [graph_from_json_dict(doc) for doc in (C4_INSTANCE, C5_INSTANCE)]


def test_triangle_table_picks_the_old_apex_on_small_graphs(sweep_sample):
    # every isolating cycle of the octahedron, the cube, the tight14 graph and
    # the pinned C4 and C5 non-triangulations (triangles beside a 4- or
    # 5-face), and short isolating cycles of the corpus sample
    tight14 = ic.gen_insertion_family(ic.octahedron())
    graphs = [ic.octahedron(), cube(), tight14, *_c4_c5_graphs()]
    jobs = [(g, ic.oracle_isolating_cycles(g)) for g in graphs]
    assert len(jobs[2][1]) == 6580
    jobs += [(g, short_isolating_cycles(g, cap=30)) for g in sweep_sample]
    found = [_same_apexes(g, cycles) for g, cycles in jobs]
    assert graphs[1].triangles == {}
    assert found[1] == 0
    assert all(found[i] > 0 for i in (0, 2, 3, 4))
    # C4 and C5 have edges with a triangle on one side only
    assert all(any(len(a) == 1 for a in g.triangles.values()) for g in graphs[3:])


def test_triangle_table_picks_the_old_apex_on_the_double_wheel():
    # the n=200 filled double wheel: every cycle of the growth from its base
    # cycle is isolating, and every step there is an apex insert
    g = ic.gen_insertion_family(double_wheel(66))
    trace = ic.grow_to_bound(g, base_hamiltonian_cycle(66))
    assert _same_apexes(g, trace.cycles) > 0


def test_triangle_table_shares_keys_and_values():
    # both directions of an edge share one value tuple, and the keys are
    # face_id's own key tuples
    g = ic.gen_insertion_family(ic.octahedron())
    keys = {k: k for k in g.face_id}
    assert len(g.triangles) == 2 * g.m
    for key, apexes in g.triangles.items():
        u, v = key
        assert key is keys[key]
        assert g.triangles[(v, u)] is apexes
        fids = sorted((g.face_id[(u, v)], g.face_id[(v, u)]))
        assert apexes == tuple(
            w for f in fids for w in g.faces[f] if len(g.faces[f]) == 3 and w not in key
        )


def test_delete_edges_builds_its_own_triangle_table():
    # H never inherits G's table: it has none until its own first use, and
    # that table is built from H's faces
    g = ic.octahedron()
    u, v = g.edges[0]
    assert (u, v) in g.triangles
    h = g.delete_edges([(u, v)])
    assert h._triangles is None
    assert (u, v) not in h.triangles
    assert h.triangles == ic.build_plane_graph(h.vertices, h.rotation).triangles
    # the two triangles on {u, v} merge into one 4-face of H
    assert sorted(map(len, h.faces)) == [3] * 6 + [4]
    # whose four edges keep only their other triangle
    assert len(h.triangles) == len(g.triangles) - 2
    four = next(f for f in h.faces if len(f) == 4)
    assert [len(h.triangles[(four[i - 1], four[i])]) for i in range(4)] == [1] * 4


NOT_A_LIST = "'vertices' must be a list of strings"
NOT_A_RING = "rotation at 'a' must be a list of strings"


@pytest.mark.parametrize(
    "doc, error, message",
    [
        ([], ParseError, "graph document must be a JSON object"),
        ({"rotation": {}}, ParseError, "missing key 'vertices'"),
        ({"vertices": []}, ParseError, "missing key 'rotation'"),
        ({"vertices": "ab", "rotation": {}}, ParseError, NOT_A_LIST),
        ({"vertices": ["a", 1], "rotation": {}}, ParseError, NOT_A_LIST),
        ({"vertices": ["a"], "rotation": []}, ParseError, "'rotation' must be an object"),
        ({"vertices": ["a"], "rotation": {"a": "b"}}, ParseError, NOT_A_RING),
        ({"vertices": ["a"], "rotation": {"a": [None]}}, ParseError, NOT_A_RING),
        ({"vertices": ["a", "a"], "rotation": {"a": []}}, NotSimple, "vertex 'a' listed twice"),
        (
            {"vertices": ["a", "b", "c", "d"], "rotation": {"a": [], "x": [], "y": []}},
            InconsistentRotation,
            "rotation keys do not match vertices"
            " (extra=['x', 'y'], missing=['b', 'c', 'd'])",
        ),
        (
            {"vertices": ["a", "b"], "rotation": {"a": ["b", "z"], "b": ["a"]}},
            InconsistentRotation,
            "unknown neighbour 'z' at 'a'",
        ),
        (
            {
                "vertices": ["a", "b", "c", "x", "y", "z"],
                "rotation": {
                    "a": ["b", "c"], "b": ["c", "a"], "c": ["a", "b"],
                    "x": ["y", "z"], "y": ["z", "x"], "z": ["x", "y"],
                },
            },
            NonPlanarEmbedding,
            "graph is not connected",
        ),
        (
            # a toroidal K4 (rings in index order, 2 faces) beside a
            # triangle passes Euler, 7 - 9 + 4 = 2: only the connectivity
            # check refuses it
            {
                "vertices": ["a", "b", "c", "d", "x", "y", "z"],
                "rotation": {
                    "a": ["b", "c", "d"], "b": ["a", "c", "d"],
                    "c": ["a", "b", "d"], "d": ["a", "b", "c"],
                    "x": ["y", "z"], "y": ["z", "x"], "z": ["x", "y"],
                },
            },
            NonPlanarEmbedding,
            "graph is not connected",
        ),
        # the first failing check in this order wins: per ring in vertex
        # order a loop, a repeat, then the first unknown neighbour in ring
        # order; then, over every ring, the first one-sided edge
        (
            {"vertices": ["a", "b"], "rotation": {"a": ["b", "y", "z", "y"], "b": ["a"]}},
            NotSimple,
            "repeated neighbour in rotation at 'a'",
        ),
        (
            {"vertices": ["a", "b"], "rotation": {"a": ["b", "z", "y"], "b": ["a"]}},
            InconsistentRotation,
            "unknown neighbour 'z' at 'a'",
        ),
        (
            {"vertices": ["a", "b", "c"], "rotation": {"a": ["b", "c"], "b": ["a"], "c": ["c"]}},
            NotSimple,
            "loop at vertex 'c'",
        ),
        (
            {"vertices": ["a", "b", "c"], "rotation": {"a": ["c", "b"], "b": ["c"], "c": ["b"]}},
            InconsistentRotation,
            "edge 'a'-'c' missing at 'c'",
        ),
        # K1 and the empty graph trace no face, so Euler's formula would
        # refuse even K1; a graph with no edge is refused by name first
        (
            {"vertices": ["a"], "rotation": {"a": []}},
            SizeTooSmall,
            "a plane graph needs at least one edge, got V=1 E=0",
        ),
        (
            {"vertices": [], "rotation": {}},
            SizeTooSmall,
            "a plane graph needs at least one edge, got V=0 E=0",
        ),
    ],
)
def test_graph_document_validation(doc, error, message):
    with pytest.raises(error) as info:
        ic.graph_from_json_dict(doc)
    assert str(info.value) == message


def test_graph_from_faces_rejects_reused_dart():
    with pytest.raises(InconsistentRotation):
        ic.graph_from_faces([("a", "b", "c"), ("a", "b", "d")])


def test_connectivity_ladder_of_predicates():
    path = ic.build_plane_graph(
        ["a", "b", "c"], {"a": ["b"], "b": ["a", "c"], "c": ["b"]}
    )
    assert not ic.is_three_connected(path)

    square = ic.graph_from_faces([("a", "b", "c", "d"), ("d", "c", "b", "a")])
    assert not ic.is_three_connected(square)

    assert ic.is_three_connected(k4())
    assert not is_four_connected(cube())
    assert is_four_connected(ic.octahedron())
    assert is_four_connected(double_wheel(6))


def test_wheel_is_essentially_four_connected():
    # Every 3-separator of a wheel is the neighbourhood of a rim vertex.
    assert is_essentially_four_connected(wheel(5))
    assert is_essentially_four_connected(ic.octahedron())


def glued_octahedra():
    """Two octahedra sharing the triangle x, y, z."""
    def antiprism(outer, inner):
        x, y, z = outer
        p, q, r = inner
        return [
            (x, y, p), (y, q, p), (y, z, q), (z, r, q),
            (z, x, r), (x, p, r), (p, q, r),
        ]

    inside = antiprism(("x", "y", "z"), ("p", "q", "r"))
    outside = [tuple(reversed(f)) for f in antiprism(("x", "y", "z"), ("s", "t", "u"))]
    return ic.graph_from_faces(inside + outside)


def test_glued_octahedra_are_not_essentially_four_connected():
    # the shared triangle separates two triples, neither a single vertex
    g = glued_octahedra()
    assert ic.is_three_connected(g)
    assert not is_essentially_four_connected(g)
    assert separating_triangles(g) == [("x", "y", "z")]


def _component_count_rule(g):
    """Reference: 3-connected, and every 3-cut leaves exactly two components,
    one of them a single vertex."""
    return ic.is_three_connected(g) and all(
        len(comps) == 2 and min(map(len, comps)) == 1 for _, comps in _separators(g, 3)
    )


def test_essential_four_connectivity_matches_the_component_count_rule(sweep_corpus):
    # the 3-cut-is-a-vertex-neighbourhood rule against the component count,
    # on graphs where it holds (the corpus, small wheels) and fails (stacked
    # triangulations past n = 7, larger wheels, the glued octahedra)
    graphs = list(sweep_corpus)
    graphs += [ic.gen_random_triangulation(n, seed=n) for n in range(5, 30)]
    graphs += [wheel(k) for k in range(3, 13)]
    graphs += [glued_octahedra(), cube(), ic.octahedron(), double_wheel(5)]
    verdicts = [is_essentially_four_connected(g) for g in graphs]
    assert verdicts == [_component_count_rule(g) for g in graphs]
    assert True in verdicts and False in verdicts


def test_two_k4s_sharing_a_triangle():
    # Both off-triangle sides are single vertices, so the only separating
    # triangle is a vertex neighbourhood and the graph stays essentially
    # 4-connected.
    g = ic.graph_from_faces([
        ("a", "b", "d"), ("b", "c", "d"), ("c", "a", "d"),
        ("b", "a", "e"), ("c", "b", "e"), ("a", "c", "e"),
    ])
    assert separating_triangles(g) == [("a", "b", "c")]
    assert is_essentially_four_connected(g)


def test_separating_triangles_of_insertion_instance():
    base = ic.octahedron()
    g = ic.gen_insertion_family(base, fill_count=None)
    # one inserted vertex per base face, each wrapped by its own triangle
    assert len(separating_triangles(g)) == len(base.faces)


def antiprism(k):
    """The k-gonal antiprism: two k-gon faces joined by a band of 2k triangles."""
    a = [f"a{i}" for i in range(k)]
    b = [f"b{i}" for i in range(k)]
    faces = [tuple(a), tuple(reversed(b))]
    for i in range(k):
        j = (i + 1) % k
        faces += [(a[j], a[i], b[i]), (b[i], b[j], a[j])]
    return ic.graph_from_faces(faces)


def icosahedron_faces():
    """The 20 faces of the icosahedron, from T over two 5-rings u, l to B."""
    u = [f"u{i}" for i in range(5)]
    l = [f"l{i}" for i in range(5)]
    faces = []
    for i in range(5):
        j = (i + 1) % 5
        faces += [("T", u[i], u[j]), (u[i], l[i], u[j]), (u[j], l[i], l[j]), ("B", l[j], l[i])]
    return faces


def octahedron_in_an_icosahedron():
    """An octahedron glued into the face T, u0, u1 of an icosahedron, less the
    edge B-l0 far from it: minimum degree 4, not a triangulation, and the
    triangle T, u0, u1 is a 3-cut."""
    inside = [
        ("T", "u0", "p"), ("u0", "q", "p"), ("u0", "u1", "q"), ("u1", "r", "q"),
        ("u1", "T", "r"), ("T", "p", "r"), ("p", "q", "r"),
    ]
    faces = [f for f in icosahedron_faces() if f != ("T", "u0", "u1")] + inside
    return ic.graph_from_faces(faces).delete_edges([("B", "l0")])


def _node_connectivity(g):
    import networkx as nx

    return nx.node_connectivity(nx.Graph(list(g.edges)))


def test_four_connectivity_off_triangulations():
    square = antiprism(4)
    glued = octahedron_in_an_icosahedron()
    for g in (square, glued):
        assert not is_maximal_planar(g)
        assert min(g.degree(v) for v in g.vertices) == 4
    assert is_four_connected(square)
    assert _node_connectivity(square) == 4
    assert not is_four_connected(glued)
    assert _node_connectivity(glued) == 3
    assert [set(cut) for cut, _ in _separators(glued, 3)] == [{"T", "u0", "u1"}]


def _triangles_less_faces(g):
    """Reference: every mutually adjacent index-sorted triple, less those
    that bound a triangular face, in index order."""
    facial = {frozenset(f) for f in g.faces if len(f) == 3}
    return [
        t
        for t in combinations(g.vertices, 3)
        if t[1] in g.adj[t[0]] and t[2] in g.adj[t[1]] and t[2] in g.adj[t[0]]
        and frozenset(t) not in facial
    ]


def test_separating_triangles_match_the_brute_force_off_triangulations():
    graphs = [cube(), prism(), antiprism(4), antiprism(5), octahedron_in_an_icosahedron()]
    graphs += [glued_octahedra(), wheel(6), double_wheel(5), ic.gen_random_triangulation(12, seed=1)]
    rng = random.Random(0)
    for seed in range(8):
        g = ic.gen_random_triangulation(10 + seed, seed=seed)
        for u, v in rng.sample(g.edges, 6):
            try:
                g = g.delete_edges([(u, v)])
            except NonPlanarEmbedding:
                continue
        graphs.append(g)
    found = 0
    for g in graphs:
        cuts = separating_triangles(g)
        assert cuts == _triangles_less_faces(g)
        found += len(cuts)
    assert found and any(not is_maximal_planar(g) and separating_triangles(g) for g in graphs)


def test_maximal_planar_predicate():
    assert is_maximal_planar(k4())
    assert is_maximal_planar(ic.octahedron())
    assert not is_maximal_planar(cube())


def test_json_round_trip():
    g = ic.octahedron()
    d = ic.graph_to_json_dict(g)
    h = ic.graph_from_json_dict(d)
    assert sorted(h.vertices) == sorted(g.vertices)
    assert sorted(h.edges) == sorted(g.edges)
    assert {frozenset(f) for f in h.faces} == {frozenset(f) for f in g.faces}


def test_outer_face_key_is_ignored_on_load():
    # saved graphs carry no outer face; older documents with one still load
    d = ic.graph_to_json_dict(ic.octahedron())
    assert set(d) == {"vertices", "rotation"}
    with_key = dict(d, outer_face=["a", "r0", "r1"])
    assert ic.graph_to_json_dict(ic.graph_from_json_dict(with_key)) == d


def test_save_and_load(tmp_path):
    g = double_wheel(6)
    path = tmp_path / "dw.json"
    ic.save_graph(g, path)
    h = ic.load_graph(path)
    assert sorted(h.edges) == sorted(g.edges)


def test_dot_export_mentions_all_vertices():
    g = cube()
    dot = ic.graph_to_dot(g)
    assert dot.startswith("graph")
    for v in g.vertices:
        assert f'"{v}"' in dot


def test_dot_export_escapes_vertex_ids():
    # ids with a quote and a trailing backslash, renamed from k4's h and r0
    text = json.dumps(ic.graph_to_json_dict(k4()))
    text = text.replace('"h"', json.dumps('h"x')).replace('"r0"', json.dumps("r0\\"))
    g = ic.graph_from_json_dict(json.loads(text))
    assert {'h"x', "r0\\"} <= set(g.vertices)
    quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
    decoded = [
        [re.sub(r"\\(.)", r"\1", tok) for tok in quoted.findall(line)]
        for line in ic.graph_to_dot(g).splitlines()[1:-1]
    ]
    assert decoded == [[v] for v in g.vertices] + [list(e) for e in g.edges]


def test_dot_export_highlights_cycle():
    g = cube()
    cycle = ("v4", "v5", "v1", "v2", "v3", "v7")
    plain = ic.graph_to_dot(g)
    marked = ic.graph_to_dot(g, highlight_cycle=cycle)
    assert plain != marked


def test_sorted_vertices_orders_by_insertion():
    g = ic.octahedron()
    assert g.sorted_vertices({"r1", "a", "r0"}) == [
        v for v in g.vertices if v in {"r1", "a", "r0"}
    ]


def test_json_rejects_ids_that_collide_when_stringified():
    # K4 with two of its vertices renamed 1 and "1": both serialise as "1"
    g = k4()
    name = {v: v for v in g.vertices}
    name.update(zip(g.vertices, (1, "1")))
    h = ic.build_plane_graph(
        [name[v] for v in g.vertices],
        {name[v]: [name[w] for w in g.rotation[v]] for v in g.vertices},
    )
    with pytest.raises(ParseError, match="'1'"):
        ic.graph_to_json_dict(h)
