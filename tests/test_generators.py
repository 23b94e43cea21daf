"""Named graphs, vertex insertion, diagonal flips, random families."""

import hashlib
import json

import pytest

import isocycle as ic
from test_rotation_editor import rebuilt_insert
from isocycle.errors import BaseNotFourConnected, IsocycleError, SizeTooSmall, UnknownName
from isocycle.generators import (
    _RotationEditor,
    base_hamiltonian_cycle,
    cube,
    double_wheel,
    k4,
    wheel,
)
from isocycle.plane_graph import (
    graph_to_json_dict,
    is_essentially_four_connected,
    is_four_connected,
    is_maximal_planar,
)

# sha256 of gen_random_triangulation(40, seed=3) as sorted-key compact JSON:
# a change to the seed mapping must re-pin it
PINNED_STACKED_40_SEED_3 = "d3bd389ed32700bcce6e3c02df13de035a5b6623f6553d0845e925224e3d38c8"


def test_named_graph_lookup():
    for name in ("k4", "octahedron", "cube", "prism"):
        g = ic.named_graph(name)
        assert ic.is_three_connected(g)
    with pytest.raises(UnknownName):
        ic.named_graph("dodecahedron-but-misspelled")
    assert ic.named_graph("wheel:7").n == 8
    assert ic.named_graph("double-wheel:5").n == 7


@pytest.mark.parametrize(
    "name, error",
    [
        ("wheel:x", UnknownName),
        ("double_wheel:", UnknownName),
        ("cylinder:5", UnknownName),
        ("wheel:2", SizeTooSmall),
        ("double-wheel:2", SizeTooSmall),
    ],
)
def test_named_graph_rejects_bad_names(name, error):
    with pytest.raises(error):
        ic.named_graph(name)


def test_wheel_shape():
    g = wheel(5)
    assert g.n == 6 and g.degree("h") == 5
    assert all(g.degree(f"r{i}") == 3 for i in range(5))


def test_double_wheel_is_four_connected_triangulation():
    g = double_wheel(6)
    assert g.n == 8
    assert is_maximal_planar(g)
    assert is_four_connected(g)
    assert g.degree("a") == g.degree("b") == 6


def test_base_hamiltonian_cycle():
    for k in (5, 6, 9):
        g = double_wheel(k)
        cycle = base_hamiltonian_cycle(k)
        assert len(cycle) == g.n
        assert ic.check_cycle(g, cycle) == cycle


def test_insert_vertex_adds_degree_three_vertex():
    g = ic.octahedron()
    face = g.faces[0]
    editor = _RotationEditor(g)
    editor.split(*face, "z")
    h = editor.freeze()
    assert h.n == g.n + 1
    assert h.degree("z") == 3
    assert len(h.faces) == len(g.faces) + 2
    assert sorted(h.adj["z"]) == sorted(face)


def test_diagonal_flip_keeps_triangulation():
    g = double_wheel(6)
    u, v = g.edges[0]
    editor = _RotationEditor(g)
    assert editor.flip(u, v) is not None
    h = editor.freeze()
    assert is_maximal_planar(h)
    assert h.n == g.n and h.m == g.m
    assert h.edge(u, v) not in set(h.edges)


def test_insertion_family_fills_every_face():
    base = ic.octahedron()
    g = ic.gen_insertion_family(base, fill_count=None)
    assert g.n == base.n + len(base.faces) == 14
    assert is_essentially_four_connected(g)
    assert is_maximal_planar(g)


def test_insertion_family_partial_fill_is_seeded():
    base = double_wheel(6)
    g1 = ic.gen_insertion_family(base, seed=5, fill_count=4)
    g2 = ic.gen_insertion_family(base, seed=5, fill_count=4)
    g3 = ic.gen_insertion_family(base, seed=6, fill_count=4)
    assert [tuple(f) for f in g1.faces] == [tuple(f) for f in g2.faces]
    assert {frozenset(f) for f in g1.faces} != {frozenset(f) for f in g3.faces}
    assert g1.n == base.n + 4
    assert is_essentially_four_connected(g1)


@pytest.mark.parametrize(
    "base, seed, fill_count",
    [
        (ic.octahedron(), 0, None),
        (double_wheel(6), 5, 4),
        (double_wheel(10), 0, None),
        (double_wheel(12), 3, 7),
        (ic.gen_random_triangulation(12, seed=2, require_four_connected=True), 1, 9),
    ],
    ids=["octahedron", "dwheel6-fill4", "dwheel10", "dwheel12-fill7", "random12-fill9"],
)
def test_insertion_family_equals_the_insert_vertex_chain(base, seed, fill_count):
    # the family is built once from every insertion; inserting the same
    # vertices one at a time, in order, with a rebuild after each, must give
    # the identical graph
    g = ic.gen_insertion_family(base, seed=seed, fill_count=fill_count)
    new_ids = g.vertices[base.n :]
    assert new_ids == tuple(f"w{i}" for i in range(len(new_ids)))
    chain = base
    for new_id in new_ids:
        a, c, b = g.rotation[new_id]
        chain = rebuilt_insert(chain, (a, b, c), new_id)
    for attr in ("vertices", "rotation", "faces", "face_id", "edges"):
        assert getattr(g, attr) == getattr(chain, attr)


def test_insertion_family_rejects_weak_bases():
    with pytest.raises(BaseNotFourConnected):
        ic.gen_insertion_family(cube())  # not even a triangulation
    with pytest.raises(BaseNotFourConnected):
        ic.gen_insertion_family(k4())  # maximal planar but only 3-connected
    with pytest.raises(SizeTooSmall):
        ic.gen_insertion_family(ic.octahedron(), fill_count=99)


def test_insertion_family_rejects_a_base_holding_a_new_vertex_id():
    # the new vertices are w0, w1, ...; an octahedron with a renamed w1
    # clashes on a full fill and on a fill of two faces, but not of one
    d = json.loads(json.dumps(graph_to_json_dict(ic.octahedron())).replace('"a"', '"w1"'))
    base = ic.graph_from_json_dict(d)
    for fill_count in (None, 2):
        with pytest.raises(IsocycleError, match="'w1'"):
            ic.gen_insertion_family(base, fill_count=fill_count)
    assert ic.gen_insertion_family(base, fill_count=1).vertices[-1] == "w0"


def test_stacked_triangulation_seed_mapping_is_pinned():
    d = graph_to_json_dict(ic.gen_random_triangulation(40, seed=3))
    text = json.dumps(d, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_STACKED_40_SEED_3


def test_random_triangulation_is_valid_and_seeded():
    g1 = ic.gen_random_triangulation(12, seed=2)
    g2 = ic.gen_random_triangulation(12, seed=2)
    g3 = ic.gen_random_triangulation(12, seed=3)
    assert g1.n == 12 and is_maximal_planar(g1)
    assert [tuple(f) for f in g1.faces] == [tuple(f) for f in g2.faces]
    assert {frozenset(f) for f in g1.faces} != {frozenset(f) for f in g3.faces}
    # stacked insertions always leave a degree-3 vertex
    assert not is_four_connected(g1)


def test_random_four_connected_triangulation():
    g = ic.gen_random_triangulation(10, seed=1, require_four_connected=True)
    assert g.n == 10
    assert is_maximal_planar(g)
    assert is_four_connected(g)


def test_four_connected_random_triangulation_is_the_double_wheel():
    for n in range(6, 31):
        wheel_json = graph_to_json_dict(double_wheel(n - 2))
        for seed in range(4):
            g = ic.gen_random_triangulation(n, seed=seed, require_four_connected=True)
            assert graph_to_json_dict(g) == wheel_json


def test_random_triangulation_size_guards():
    with pytest.raises(SizeTooSmall):
        ic.gen_random_triangulation(3)
    with pytest.raises(SizeTooSmall):
        ic.gen_random_triangulation(5, require_four_connected=True)


def test_sweep_corpus_shape(sweep_corpus):
    assert len(sweep_corpus) >= 100
    assert all(14 <= g.n <= 24 for g in sweep_corpus)
    # the generator asserts essential 4-connectivity; spot-check anyway
    for g in sweep_corpus[::40]:
        assert is_essentially_four_connected(g)
