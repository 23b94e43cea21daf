"""The in-place rotation editor against a rebuild after every edit.

The generators split faces (and flips will change diagonals) on
``_RotationEditor``, which edits rings in place and builds its graph once.
The oracle here is the chain it replaces: copy every ring into a list,
apply one edit with ``list.insert`` and ``list.remove``, and build a
validated graph after each edit.  Face numbering follows the vertex order
and each ring's first neighbour, and growth traces follow face numbering,
so the two must agree field for field and in their JSON bytes.
"""

import json
import random

import pytest

import isocycle as ic
from isocycle.generators import _RotationEditor, cube, double_wheel, k4
from isocycle.plane_graph import build_plane_graph, graph_to_json_dict

SEEDS = range(50)


def rebuilt_insert(g, face_triple, new_id):
    a, b, c = face_triple
    rotation = {v: list(g.rotation[v]) for v in g.vertices}
    rotation[a].insert(rotation[a].index(c) + 1, new_id)
    rotation[b].insert(rotation[b].index(a) + 1, new_id)
    rotation[c].insert(rotation[c].index(b) + 1, new_id)
    rotation[new_id] = [a, c, b]
    return build_plane_graph(list(g.vertices) + [new_id], rotation)


def rebuilt_flip(g, u, v):
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


def rebuilt_stack(n, seed):
    """Yield each graph of the stacked chain, rebuilt after every split,
    with the face list the generator draws its next face from."""
    rng = random.Random(seed)
    g = k4()
    faces = list(g.faces)
    yield g, faces
    for i in range(n - 4):
        r = rng.randrange(len(faces))
        a, b, c = faces[r]
        x = f"t{i}"
        g = rebuilt_insert(g, (a, b, c), x)
        faces[r] = (a, b, x)
        faces += [(b, c, x), (c, a, x)]
        yield g, faces


def assert_same_graph(h, ref):
    for attr in ("vertices", "rotation", "edges", "faces", "face_id"):
        assert getattr(h, attr) == getattr(ref, attr), attr
    assert json.dumps(graph_to_json_dict(h)) == json.dumps(graph_to_json_dict(ref))


def test_stacked_triangulation_equals_the_rebuild_chain():
    # sizes 4 to 200
    for seed in SEEDS:
        n = 200 - 4 * seed if seed % 5 == 0 else 4 + seed
        for ref, _ in rebuilt_stack(n, seed):
            pass
        assert_same_graph(ic.gen_random_triangulation(n, seed=seed), ref)


def _rotated_to_min(face):
    k = face.index(min(face))
    return face[k:] + face[:k]


def test_stacked_face_list_holds_every_face_once():
    # the draw is uniform over the faces because the list holds each face
    # of the graph exactly once, as a rotation of its traced tuple
    for seed in range(6):
        for g, faces in rebuilt_stack(20 + 8 * seed, seed):
            assert len(faces) == len(g.faces)
            assert sorted(map(_rotated_to_min, faces)) == sorted(map(_rotated_to_min, g.faces))


def _bases(seed):
    return [
        ic.octahedron(),
        double_wheel(5 + seed % 7),
        ic.gen_random_triangulation(8 + seed % 13, seed=seed),
    ]


def test_insert_vertex_chain_equals_the_rebuild_chain():
    # any rotation of a face triple is a face in tracing order; the editor
    # is frozen after every split, and freezing leaves it as it was
    for seed in SEEDS:
        rng = random.Random(seed)
        ref = _bases(seed)[seed % 3]
        editor = _RotationEditor(ref)
        for i in range(8):
            face = ref.faces[rng.randrange(len(ref.faces))]
            k = rng.randrange(3)
            triple = face[k:] + face[:k]
            editor.split(*triple, f"z{i}")
            ref = rebuilt_insert(ref, triple, f"z{i}")
            assert_same_graph(editor.freeze(), ref)


def _flip_sequence(g, rng, count):
    """``count`` edges drawn at random from the graph each flip leaves,
    with the flips of the rebuild chain; None for an illegal flip."""
    steps = []
    for _ in range(count):
        u, v = g.edges[rng.randrange(g.m)]
        if rng.random() < 0.5:
            u, v = v, u
        h = rebuilt_flip(g, u, v)
        steps.append((u, v, h))
        g = h or g
    return steps


def test_diagonal_flips_equal_the_rebuild_chain():
    # the editor is frozen after every flip; an illegal one changes nothing
    legal = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        g = _bases(seed)[seed % 3]
        editor = _RotationEditor(g)
        for u, v, ref in _flip_sequence(g, rng, 12):
            flipped = editor.flip(u, v)
            if ref is None:
                assert flipped is None
                assert_same_graph(editor.freeze(), g)
                continue
            g = editor.freeze()
            assert_same_graph(g, ref)
            legal += 1
    assert legal > 200


def test_editor_flips_and_splits_freeze_to_the_rebuild_chain():
    # many edits on one editor, frozen once: the path of a flip walk
    for seed in SEEDS:
        rng = random.Random(seed)
        base = _bases(seed)[seed % 3]
        editor, ref = _RotationEditor(base), base
        for u, v, h in _flip_sequence(base, rng, 10):
            flipped = editor.flip(u, v)
            assert (flipped is None) == (h is None)
            ref = h or ref
        face = ref.faces[rng.randrange(len(ref.faces))]
        editor.split(*face, "z")
        ref = rebuilt_insert(ref, face, "z")
        assert_same_graph(editor.freeze(), ref)


def test_editor_flip_moves_a_ring_start_as_list_remove_does():
    # the ring at r0 starts at the hub a; flipping r0-a removes a from it
    g = ic.octahedron()
    assert g.rotation["r0"][:2] == ("a", "r1")
    editor = _RotationEditor(g)
    assert editor.flip("r0", "a") == ("r3", "r1")
    assert editor.first["r0"] == "r1"
    assert_same_graph(editor.freeze(), rebuilt_flip(g, "r0", "a"))


@pytest.mark.parametrize("u, v", [("a", "b"), ("r0", "r2"), ("a", "nowhere"), ("nowhere", "a")])
def test_diagonal_flip_rejects_a_non_edge(u, v):
    # the editor looks v up at u before it changes a ring, so a non-edge or
    # an unknown vertex raises KeyError and leaves every ring as it was
    g = ic.octahedron()
    editor = _RotationEditor(g)
    with pytest.raises(KeyError):
        editor.flip(u, v)
    assert_same_graph(editor.freeze(), g)


@pytest.mark.parametrize("make", [cube, k4], ids=["square-sides", "degree-three"])
def test_diagonal_flip_refuses_an_illegal_flip(make):
    # a cube edge has squares on both sides; a K4 edge joins degree-3
    # vertices whose two opposite corners are adjacent
    g = make()
    editor = _RotationEditor(g)
    assert editor.flip(*g.edges[0]) is None
    assert rebuilt_flip(g, *g.edges[0]) is None
    assert_same_graph(editor.freeze(), g)
