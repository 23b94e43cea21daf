"""Embedding construction, validation, connectivity and serialization."""

import json
import re

import pytest

import isocycle as ic
from isocycle.errors import (
    InconsistentRotation,
    NonPlanarEmbedding,
    NotSimple,
    ParseError,
)
from isocycle.generators import cube, double_wheel, k4, wheel
from isocycle.plane_graph import (
    _separators,
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
