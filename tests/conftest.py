"""Shared fixtures: four hand-drawn instances and a generated sweep corpus.

Each bespoke instance below was sketched by hand, encoded as its face list,
and then every structural value asserted in the tests was produced by
running the package and the brute-force oracles on it.  The face lists are
the source of truth; the graphs are rebuilt from them per session.
"""

import pytest

import isocycle as ic
from isocycle.generators import double_wheel

# A 19-cycle with three apexes inside (a1, a2, a3), three outside
# (b0, b1, b2), four chords inside and one outside.  Pruning deletes all
# five chords and merges two outside faces across v6-v9 into one big minor
# face.  The five 3-arches that survive eligibility form a single acyclic
# tunnel, which makes this the workhorse for track, on-track, transfer-pair
# and condition-C7 tests.
LADDER_FACES = [
    ("v1", "v2", "v3"), ("v0", "v1", "v3", "a1"),
    ("v4", "v5", "v6", "v7", "a2"),
    ("v8", "v9", "v10"), ("v8", "v10", "v11", "a3"),
    ("v12", "v13", "v14"), ("v11", "v12", "v14", "v15", "a3"),
    ("v7", "v8", "a3", "v15", "a2"), ("v3", "v4", "a2", "v15", "a1"),
    ("v16", "v17", "v18"), ("v15", "v16", "v18", "v0", "a1"),
    ("v2", "v1", "v0", "b0"), ("v5", "v4", "v3", "v2", "b1"),
    ("v9", "v8", "v7", "v6"), ("v11", "v10", "v9", "v6", "b2"),
    ("v13", "v12", "v11", "b2"), ("v6", "v5", "b1", "v15", "v14", "v13", "b2"),
    ("v17", "v16", "v15", "b1", "v2", "b0"), ("v0", "v18", "v17", "b0"),
]
LADDER_CYCLE = tuple(f"v{i}" for i in range(19))

# An 8-cycle with one apex per side, placed so that the four 3-arches close
# up into a cyclic tunnel (which forces c = 2k).  The apex triangles are
# minor 1-faces, so the discharging audit must refuse this instance.
CYCLIC_FACES = [
    ("v0", "v1", "v2", "v3", "u"), ("v3", "v4", "u"),
    ("v4", "v5", "v6", "v7", "u"), ("v7", "v0", "u"),
    ("v2", "v1", "w"), ("v5", "v4", "v3", "v2", "w"),
    ("v6", "v5", "w"), ("v1", "v0", "v7", "v6", "w"),
]
CYCLIC_CYCLE = tuple(f"v{i}" for i in range(8))

# A hexagon with two chords inside and a hub outside.  The chord side has
# no vertices, so its faces are thin; the quadrilateral with two chords on
# its boundary is a thin major face sitting between two thin minor ones,
# and the side tree is the weak dual, a path on three faces.
HEX_FACES = [
    ("v0", "v1", "v2"), ("v0", "v2", "v3", "v4"), ("v0", "v4", "v5"),
    ("v1", "v0", "w"), ("v2", "v1", "w"), ("v3", "v2", "w"),
    ("v4", "v3", "w"), ("v5", "v4", "w"), ("v0", "v5", "w"),
]
HEX_CYCLE = tuple(f"v{i}" for i in range(6))

# An 8-cycle with an apex and two chords sharing the vertex v0 inside, and
# three chords outside that keep the graph 3-connected.  Pruning deletes
# both inner chords and merges three faces into (v0, v1, v2, v3, u); the
# deleted chord v0-v3 joins that face's extremal vertices and must not
# come back as a chord arch, while v0-v2 must.
ARCH_FACES = [
    ("v0", "v1", "v2"), ("v0", "v2", "v3"), ("v0", "v3", "u"),
    ("u", "v3", "v4", "v5"), ("v5", "v6", "v7", "v0", "u"),
    ("v1", "v0", "v7"), ("v4", "v3", "v2"), ("v6", "v5", "v4"),
    ("v7", "v6", "v4", "v2", "v1"),
]
ARCH_CYCLE = tuple(f"v{i}" for i in range(8))

# an isolating 6-cycle of the n=14 tight instance (the octahedron with every
# face filled) whose growth takes five apex inserts and one window reroute
TIGHT14_REROUTE_START = ("a", "r0", "b", "r3", "r2", "r1")


def tight14_slice():
    """(graph, starts): every tenth isolating cycle of the n=14 tight instance.

    Growth from these 658 starts is the golden tight14 slice: 1403 apex
    inserts and 204 window reroutes.
    """
    g = ic.gen_insertion_family(ic.octahedron())
    return g, ic.oracle_isolating_cycles(g)[::10]


@pytest.fixture(scope="session")
def ladder():
    return ic.graph_from_faces(LADDER_FACES), LADDER_CYCLE


@pytest.fixture(scope="session")
def ladder_analysis(ladder):
    g, cycle = ladder
    return ic.analyze_cycle(g, cycle)


@pytest.fixture(scope="session")
def cyclic_instance():
    return ic.graph_from_faces(CYCLIC_FACES), CYCLIC_CYCLE


@pytest.fixture(scope="session")
def hex_instance():
    return ic.graph_from_faces(HEX_FACES), HEX_CYCLE


@pytest.fixture(scope="session")
def arch_instance():
    return ic.graph_from_faces(ARCH_FACES), ARCH_CYCLE


@pytest.fixture(scope="session")
def arch_analysis(arch_instance):
    g, cycle = arch_instance
    return ic.analyze_cycle(g, cycle)


def sweep_instances():
    """Essentially 4-connected instances with 14 <= n <= 24.

    Degree-3 insertions into a 4-connected maximal planar base only create
    separating triangles around single inserted vertices, so every
    instance is essentially 4-connected by construction; the generator
    re-checks and raises if that ever fails.
    """
    bases = [double_wheel(k) for k in (6, 7, 8, 9, 10)]
    bases += [
        ic.gen_random_triangulation(nb, seed=s, require_four_connected=True)
        for nb in (8, 9, 10)
        for s in (0, 1)
    ]
    instances = []
    for bi, base in enumerate(bases):
        n_faces = len(base.faces)
        for fill in range(1, n_faces + 1):
            if not 14 <= base.n + fill <= 24:
                continue
            seeds = (0,) if fill == n_faces else (0, 1)
            for seed in seeds:
                instances.append(
                    ic.gen_insertion_family(base, seed=seed + 13 * bi, fill_count=fill)
                )
    return instances


@pytest.fixture(scope="session")
def sweep_corpus():
    return sweep_instances()


@pytest.fixture(scope="session")
def sweep_sample(sweep_corpus):
    """A thinned slice of the corpus for the slower property tests."""
    return sweep_corpus[::9]


def short_isolating_cycles(g, cap):
    """Oracle-found isolating cycles strictly below the guaranteed bound."""
    bound = ic.isolation_bound(g)
    return ic.oracle_isolating_cycles(
        g, min_length=6, max_length=bound - 1, max_count=cap
    )


# In a triangulation nearly every isolating cycle leaves some apex triangle
# as a minor 1-face, so auditable generated cycles are rare; this one was dug
# out of corpus instance 1 by a deep oracle run and stays auditable as long
# as the corpus seeds stay fixed.
AUDITABLE_CORPUS_CYCLE = (
    "a", "w0", "r5", "r4", "b", "w5", "r3", "w4", "r2", "r1", "w3",
)
