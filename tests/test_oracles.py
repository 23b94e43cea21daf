"""Brute-force ground truth: circumference, Hamiltonian search, isolation."""

import pytest

import isocycle as ic
from isocycle.cycle_analysis import canonical_cycle
from isocycle.errors import TooLarge
from isocycle.generators import cube, double_wheel, k4, prism, wheel
from isocycle.oracles import (
    find_hamiltonian_cycle,
    find_hamiltonian_path,
    hamiltonian_cycles,
    independent_sets_of_size,
    max_independent_set_size,
)


def test_circumference_of_named_graphs():
    # K4, the wheel and the prism are Hamiltonian; counts are their orders
    assert ic.oracle_circumference(k4()) == 4
    assert ic.oracle_circumference(wheel(5)) == 6
    assert ic.oracle_circumference(prism()) == 6
    assert ic.oracle_circumference(ic.octahedron()) == 6
    assert ic.oracle_circumference(cube()) == 8


def test_insertion_instance_circumference_hits_the_bound():
    g = ic.gen_insertion_family(ic.octahedron(), fill_count=None)
    # n = 14, and the longest cycle has exactly floor(2/3(n+4)) = 12 vertices
    assert g.n == 14
    assert ic.oracle_circumference(g) == 12 == ic.isolation_bound(g)


def test_k4_has_three_hamiltonian_cycles():
    cycles = {canonical_cycle(k4(), c) for c in hamiltonian_cycles(k4())}
    assert len(cycles) == 3


def test_hamiltonian_cycle_lookup():
    assert find_hamiltonian_cycle(cube()) is not None
    assert find_hamiltonian_cycle(ic.octahedron()) is not None
    # the star K1,3 has no cycle at all
    star = ic.build_plane_graph(
        ["h", "a", "b", "c"],
        {"h": ["a", "b", "c"], "a": ["h"], "b": ["h"], "c": ["h"]},
    )
    assert find_hamiltonian_cycle(star) is None


def test_hamiltonian_path_between_endpoints():
    g = cube()
    path = find_hamiltonian_path(g, list(g.vertices), "v0", "v6")
    assert path is not None
    assert path[0] == "v0" and path[-1] == "v6"
    assert len(set(path)) == g.n


def test_isolating_cycle_lengths():
    # a triangle of K4 leaves one vertex; the Hamiltonian cycle leaves none
    assert sorted({len(c) for c in ic.oracle_isolating_cycles(k4())}) == [3, 4]
    assert sorted(
        {len(c) for c in ic.oracle_isolating_cycles(ic.octahedron())}
    ) == [4, 5, 6]
    # the cube is bipartite: only even lengths appear
    assert sorted({len(c) for c in ic.oracle_isolating_cycles(cube())}) == [6, 8]


def test_isolating_cycle_count_on_octahedron():
    # frozen from a full enumeration run
    assert len(ic.oracle_isolating_cycles(ic.octahedron())) == 43


def test_isolating_enumeration_respects_filters():
    g = ic.octahedron()
    fives = ic.oracle_isolating_cycles(g, min_length=5, max_length=5)
    assert fives and all(len(c) == 5 for c in fives)
    capped = ic.oracle_isolating_cycles(g, max_count=7)
    assert len(capped) == 7
    for c in capped:
        assert ic.is_isolating(g, c)


def test_enumeration_returns_canonical_cycles():
    g = ic.octahedron()
    cycles = ic.oracle_isolating_cycles(g)
    assert len(set(cycles)) == len(cycles)
    assert all(canonical_cycle(g, c) == c for c in cycles)


def test_independent_set_helpers():
    # the octahedron pairs up antipodal vertices; the cube splits in half
    assert max_independent_set_size(ic.octahedron()) == 2
    assert len(list(independent_sets_of_size(ic.octahedron(), 2))) == 3
    assert max_independent_set_size(cube()) == 4


def test_size_guard():
    big = double_wheel(30)
    with pytest.raises(TooLarge):
        ic.oracle_circumference(big)
    assert ic.oracle_circumference(big, limit=big.n) == 32
