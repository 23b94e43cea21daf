"""Brute-force ground truth: circumference, Hamiltonian search, isolation."""

import dataclasses
import random
import sys
from itertools import combinations, islice, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isocycle as ic
from isocycle import oracles
from isocycle.errors import TooLarge
from isocycle.generators import cube, double_wheel, k4, prism, wheel
from isocycle.plane_graph import PlaneGraph, canonical_cycle, reachable
from isocycle.oracles import find_hamiltonian_path, hamiltonian_cycles


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
    assert next(hamiltonian_cycles(cube()), None) is not None
    assert next(hamiltonian_cycles(ic.octahedron()), None) is not None
    # the star K1,3 has no cycle at all
    star = ic.build_plane_graph(
        ["h", "a", "b", "c"],
        {"h": ["a", "b", "c"], "a": ["h"], "b": ["h"], "c": ["h"]},
    )
    assert next(hamiltonian_cycles(star), None) is None


def test_a_cycle_through_more_vertices_than_the_recursion_limit():
    # the search keeps its path on an explicit stack, so its depth is not
    # bounded by the interpreter's recursion limit
    g = double_wheel(1200)
    assert g.n > sys.getrecursionlimit()
    cycle = next(hamiltonian_cycles(g))
    assert len(cycle) == g.n == 1202
    assert sorted(cycle) == sorted(g.vertices) and _is_walk(g, cycle + cycle[:1])


def test_circumference_through_more_vertices_than_the_recursion_limit():
    # the circumference search keeps its path on an explicit stack too; a
    # wheel's longest cycle runs through all of its 301 vertices
    g = wheel(300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        value = ic.oracle_circumference(g, limit=g.n)
    finally:
        sys.setrecursionlimit(limit)
    assert value == g.n == 301


def test_hamiltonian_path_between_endpoints():
    g = cube()
    path = find_hamiltonian_path(g, list(g.vertices), "v0", "v6")
    assert path is not None
    assert path[0] == "v0" and path[-1] == "v6"
    assert len(set(path)) == g.n


def _is_walk(g, seq):
    return all(seq[i] in g.adj[seq[i - 1]] for i in range(1, len(seq)))


def _brute_cycles(g, vertices):
    """Every Hamiltonian cycle of g[vertices] from its lowest-index vertex,
    oriented so the second vertex has lower index than the last."""
    start, *rest = g.sorted_vertices(vertices)
    out = []
    for perm in permutations(rest):
        cyc = (start,) + perm
        if (
            g.index[cyc[1]] < g.index[cyc[-1]]
            and _is_walk(g, cyc)
            and start in g.adj[cyc[-1]]
        ):
            out.append(cyc)
    return out


def _by_index(g):
    return lambda seq: [g.index[v] for v in seq]


@pytest.mark.parametrize(
    "g, vertices",
    [
        (k4(), None),
        (prism(), None),
        (cube(), None),
        (ic.octahedron(), None),
        (wheel(5), None),
        # the double wheel on 8 vertices less one rim vertex
        (double_wheel(6), [f"r{i}" for i in range(1, 6)] + ["a", "b"]),
    ],
    ids=["k4", "prism", "cube", "octahedron", "wheel5", "double-wheel-less-r0"],
)
def test_hamiltonian_cycles_match_brute_force(g, vertices):
    vs = list(g.vertices) if vertices is None else vertices
    got = list(hamiltonian_cycles(g, vertices))
    want = _brute_cycles(g, vs)
    assert want
    # each cycle once, in canonical orientation, in index-lexicographic order
    assert got == sorted(want, key=_by_index(g))
    assert all(canonical_cycle(g, c) == c for c in got)


@pytest.mark.parametrize("g", [cube(), prism()], ids=["cube", "prism"])
def test_hamiltonian_paths_match_brute_force(g):
    vs = list(g.vertices)
    for s in vs:
        for t in vs:
            if s == t:
                continue
            inner = [v for v in vs if v not in (s, t)]
            want = [
                (s,) + perm + (t,)
                for perm in permutations(inner)
                if _is_walk(g, (s,) + perm + (t,))
            ]
            path = find_hamiltonian_path(g, vs, s, t)
            if not want:
                assert path is None, (s, t)
                continue
            assert path is not None, (s, t)
            assert path[0] == s and path[-1] == t
            assert sorted(path) == sorted(vs) and _is_walk(g, path)
            # the search tries neighbours in index order
            assert path == min(want, key=_by_index(g))


def test_hamiltonian_path_rejects_bad_endpoints():
    g = cube()
    with pytest.raises(ValueError):
        find_hamiltonian_path(g, list(g.vertices), "v0", "v0")
    with pytest.raises(ValueError):
        find_hamiltonian_path(g, ["v0", "v1", "v2"], "v0", "v6")


def test_unknown_vertices_are_named():
    g = ic.octahedron()
    with pytest.raises(ValueError, match="unknown vertex 'zz'"):
        next(hamiltonian_cycles(g, ["a", "b", "zz"]))
    with pytest.raises(ValueError, match="unknown vertex 'zz'"):
        find_hamiltonian_path(g, ["a", "b", "zz", "r0"], "a", "b")


def test_isolating_cycle_lengths():
    # a triangle of K4 leaves one vertex; the Hamiltonian cycle leaves none
    assert sorted({len(c) for c in ic.oracle_isolating_cycles(k4())}) == [3, 4]
    assert sorted(
        {len(c) for c in ic.oracle_isolating_cycles(ic.octahedron())}
    ) == [4, 5, 6]
    # the cube is bipartite: only even lengths appear
    assert sorted({len(c) for c in ic.oracle_isolating_cycles(cube())}) == [6, 8]


def test_oracle_limits():
    g = ic.octahedron()
    assert ic.oracle_circumference(g, limit=6) == 6
    with pytest.raises(ic.TooLarge):
        ic.oracle_circumference(g, limit=5)
    with pytest.raises(ic.TooLarge):
        ic.oracle_isolating_cycles(g, limit=5)
    # a negative limit is an error, as a negative max_count is, not TooLarge
    with pytest.raises(ValueError, match="limit"):
        ic.oracle_circumference(g, limit=-1)
    with pytest.raises(ValueError, match="limit"):
        ic.oracle_isolating_cycles(g, limit=-1)


def test_isolating_cycle_count_on_octahedron():
    # frozen from a full enumeration run
    assert len(ic.oracle_isolating_cycles(ic.octahedron())) == 43


def test_isolating_enumeration_respects_filters(monkeypatch):
    g = ic.octahedron()
    fives = ic.oracle_isolating_cycles(g, min_length=5, max_length=5)
    assert fives and all(len(c) == 5 for c in fives)
    capped = ic.oracle_isolating_cycles(g, max_count=7)
    assert len(capped) == 7
    for c in capped:
        assert ic.is_isolating(g, c)
    # a cap is a prefix of the full list; 0 searches nothing, and a negative
    # cap is an error rather than one cycle
    every = ic.oracle_isolating_cycles(g)
    for cap in (1, 7, len(every), len(every) + 1):
        assert ic.oracle_isolating_cycles(g, max_count=cap) == every[:cap]
    with pytest.raises(ValueError, match="max_count"):
        ic.oracle_isolating_cycles(g, max_count=-1)

    def no_search(*args):
        raise AssertionError("searched with a cap of 0")

    monkeypatch.setattr(oracles, "_independent_masks", no_search)
    monkeypatch.setattr(oracles, "_hamiltonian_paths", no_search)
    assert ic.oracle_isolating_cycles(g, max_count=0) == []


def _independent_sets(g, k):
    """Every independent set of k vertices as a tuple of names, decoded from
    the enumeration's bitmask walk."""
    for chosen in oracles._independent_masks(g.adj_mask, g.n, k):
        yield tuple(v for i, v in enumerate(g.vertices) if chosen >> i & 1)


def _composed_enumeration(g, min_length=3, max_length=None, max_count=None):
    """The enumeration composed from the decoded independent-set walk and
    the public Hamiltonian search, kept as the reference for the bitmask
    one."""
    n = g.n
    top = n if max_length is None else min(max_length, n)

    def cycles():
        for c in range(min_length, top + 1):
            for ind in _independent_sets(g, n - c):
                missed = set(ind)
                yield from hamiltonian_cycles(g, [v for v in g.vertices if v not in missed])

    return list(islice(cycles(), max_count))


def test_enumeration_matches_composed_reference(sweep_corpus):
    # whole lists with the corpus set-up's arguments, and uncapped up to
    # n = 16 (an uncapped n = 22 instance has 270004 isolating cycles)
    graphs = [ic.gen_insertion_family(ic.octahedron(), fill_count=None)]
    graphs += sweep_corpus[::10]
    total = 0
    for g in graphs:
        bound = ic.isolation_bound(g)
        runs = [dict(min_length=6, max_length=bound - 1, max_count=50)]
        if g.n <= 16:
            runs.append({})
        for kwargs in runs:
            want = _composed_enumeration(g, **kwargs)
            assert ic.oracle_isolating_cycles(g, **kwargs) == want, (g.n, kwargs)
            total += len(want)
    assert total > 6580


def test_enumeration_returns_canonical_cycles():
    g = ic.octahedron()
    cycles = ic.oracle_isolating_cycles(g)
    assert len(set(cycles)) == len(cycles)
    assert all(canonical_cycle(g, c) == c for c in cycles)


def _kernel(g, vertices, s, t):
    """The bitmask kernel, called with vertex names."""
    vmask = sum(1 << g.index[v] for v in set(vertices))
    return oracles._hamiltonian_paths(g, vmask, g.index[s], g.index[t])


def _set_kernel(g, vertices, s, t):
    """The set-based Hamiltonian search the bitmask kernel replaced, kept
    as the reference for its output sequence."""
    vs = g.sorted_vertices(vertices)
    vset = frozenset(vs)
    adj = {v: [w for w in g.sorted_vertices(g.adj[v]) if w in vset] for v in vs}
    closed = s == t
    total = len(vs)
    if closed and (total < 3 or len(adj[s]) < 2):
        return
    index = g.index
    path = [s]
    visited = {s}

    def rec():
        head = path[-1]
        if len(path) == total:
            if not closed or (s in g.adj[head] and index[path[1]] < index[head]):
                yield tuple(path)
            return
        unvisited = vset - visited
        usable = unvisited | {head, t}
        for u in unvisited:
            if u != t and len(usable.intersection(adj[u])) < 2:
                return
        if reachable(adj, [w for w in adj[head] if w in unvisited], unvisited) != unvisited:
            return
        for w in adj[head]:
            if w in visited or (w == t and len(path) != total - 1):
                continue
            path.append(w)
            visited.add(w)
            yield from rec()
            path.pop()
            visited.discard(w)

    yield from rec()


def test_bitmask_kernel_matches_set_kernel(
    ladder, cyclic_instance, hex_instance, arch_instance, sweep_corpus
):
    # every cut is sound, so the search order alone fixes the sequence; any
    # difference means a cut took a branch that yields something
    graphs = [k4(), prism(), cube(), ic.octahedron(), wheel(5), double_wheel(6)]
    graphs += [inst[0] for inst in (ladder, cyclic_instance, hex_instance, arch_instance)]
    graphs.append(ic.gen_insertion_family(ic.octahedron(), fill_count=None))
    graphs += sweep_corpus[::10]
    rng = random.Random(0)
    compared = found = 0
    for g in graphs:
        subsets = [list(g.vertices)]
        subsets += [rng.sample(g.vertices, rng.randint(3, g.n)) for _ in range(12)]
        for vs in subsets:
            s, t = rng.sample(vs, 2)
            for a, b in ((s, s), (s, t)):
                want = list(islice(_set_kernel(g, vs, a, b), 50))
                got = list(islice(_kernel(g, vs, a, b), 50))
                assert got == want, (g.n, vs, a, b)
                compared += 1
                found += bool(want)
    assert found > compared // 4


def test_enumeration_searches_match_set_kernel(monkeypatch):
    # the closed searches of the isolating-cycle enumeration are where the
    # closing rule and the forced step cut hardest; compare whole sequences
    # on every tenth vertex set G - I that it walks on the n=14 instance
    g = ic.gen_insertion_family(ic.octahedron(), fill_count=None)
    walked = []
    real = oracles._hamiltonian_paths

    def recorded(g, vmask, si, ti):
        walked.append((vmask, si, ti))
        return real(g, vmask, si, ti)

    monkeypatch.setattr(oracles, "_hamiltonian_paths", recorded)
    assert len(ic.oracle_isolating_cycles(g)) == 6580
    assert len(walked) == 355
    found = 0
    for vmask, si, ti in walked[::10]:
        vs = [v for v in g.vertices if vmask >> g.index[v] & 1]
        s = min(vs, key=g.index.__getitem__)
        # each search starts at the lowest vertex of its set and closes
        assert si == ti == g.index[s]
        want = list(_set_kernel(g, vs, s, s))
        assert list(real(g, vmask, si, ti)) == want, vs
        found += len(want)
    assert found == 678


_DRAWN_GRAPHS = [
    k4(), prism(), cube(), ic.octahedron(), wheel(5), wheel(6), double_wheel(6),
    ic.gen_insertion_family(ic.octahedron(), fill_count=None),
]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_kernel_matches_set_kernel_on_drawn_searches(data, hex_instance, arch_instance):
    # a fixture graph less a drawn vertex set (few vertices, so most
    # searches run deep), drawn endpoints, and both the open and the closed
    # search compared whole against the reference
    g = data.draw(st.sampled_from(_DRAWN_GRAPHS + [hex_instance[0], arch_instance[0]]))
    dropped = data.draw(st.sets(st.sampled_from(g.vertices), max_size=g.n - 2))
    vs = [v for v in g.vertices if v not in dropped]
    s = data.draw(st.sampled_from(vs))
    t = data.draw(st.sampled_from([v for v in vs if v != s]))
    for a, b in ((s, s), (s, t)):
        want = list(_set_kernel(g, vs, a, b))
        assert list(_kernel(g, vs, a, b)) == want


def _parts(g, vs):
    """The vertex sets of the components of g[vs]."""
    left = set(vs)
    out = []
    while left:
        part = reachable(g.adj, [min(left, key=g.index.__getitem__)], left)
        out.append(part)
        left -= part
    return out


def _shape(g, vs):
    """'disconnected', 'cut vertex', 'two-cut' (two vertices split g[vs]
    into parts of at least two vertices each) or 'other'."""
    if len(_parts(g, vs)) > 1:
        return "disconnected"
    if any(len(_parts(g, set(vs) - {x})) > 1 for x in vs):
        return "cut vertex"
    for x, y in combinations(vs, 2):
        parts = _parts(g, set(vs) - {x, y})
        if len(parts) > 1 and all(len(p) >= 2 for p in parts):
            return "two-cut"
    return "other"


def _shaped_vertex_sets(g, rng):
    """Vertex sets of g built to be disconnected (a vertex cut off from the
    rest), to have a cut vertex (a vertex hanging off one neighbour), or to
    fall apart once the search has taken a few vertices (random subsets
    with a two-vertex cut)."""
    out = []
    for v in rng.sample(g.vertices, min(4, g.n)):
        nbrs = g.sorted_vertices(g.adj[v])
        out.append([w for w in g.vertices if w not in g.adj[v]])
        out.append([w for w in g.vertices if w == nbrs[0] or w not in g.adj[v]])
    two_cuts = 0
    for _ in range(40):
        if two_cuts == 3:
            break
        vs = rng.sample(g.vertices, rng.randint(max(3, g.n // 2), g.n - 1))
        out.append(vs)
        two_cuts += _shape(g, vs) == "two-cut"
    return [vs for vs in out if len(vs) >= 3]


def test_connectivity_prune_keeps_the_full_sequence(sweep_corpus):
    # the kernel keeps the unvisited set connected with a check on head's
    # neighbours and floods only where that fails; whole sequences, not a
    # prefix, must equal the reference's on sets that are disconnected,
    # have a cut vertex or split after a few steps.  The cube and the prism
    # have no triangles, so there the local check always falls back.
    graphs = [prism(), cube(), ic.octahedron(), wheel(6), double_wheel(6)]
    graphs.append(ic.gen_insertion_family(ic.octahedron(), fill_count=None))
    graphs += sweep_corpus[::60]
    rng = random.Random(1)
    shapes = {}
    found = 0
    for g in graphs:
        for vs in _shaped_vertex_sets(g, rng):
            shape = _shape(g, vs)
            shapes[shape] = shapes.get(shape, 0) + 1
            s, t = rng.sample(vs, 2)
            for a, b in ((s, s), (s, t), (t, t)):
                want = list(_set_kernel(g, vs, a, b))
                assert list(_kernel(g, vs, a, b)) == want, (g.n, vs, a, b)
                found += len(want)
    assert shapes["disconnected"] >= 20 and shapes["cut vertex"] >= 20
    assert shapes["two-cut"] >= 20
    assert found > 100


def test_disconnected_set_costs_one_flood(monkeypatch):
    # the wheel's hub with two rim pairs: r0-r1 and r3-r4 meet only at h,
    # so the set less h is disconnected and the root's one flood ends the
    # search; a per-node flood would take one at the root and one in each
    # of its four children
    calls = []
    real = oracles._flood

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracles, "_flood", counted)
    vs = ["h", "r0", "r1", "r3", "r4"]
    assert list(_kernel(wheel(6), vs, "h", "h")) == []
    assert len(calls) == 1


def test_closing_rule_cuts_before_the_flood(monkeypatch):
    # a closed search yields a cycle only when its last vertex is a
    # neighbour of s above the second vertex.  On K4 from h: the root's one
    # flood, then children r0 and r1 each flood their two unvisited
    # neighbours.  r2 is h's highest neighbour, so no vertex could close a
    # cycle that starts h, r2: that child is cut before its flood, as is
    # r1's child r2, which would leave only r0 to close.  A search without
    # the rule floods r2's two unvisited neighbours as well.
    calls = []
    real = oracles._flood

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracles, "_flood", counted)
    g = k4()
    assert list(_kernel(g, g.vertices, "h", "h")) == [
        ("h", "r0", "r1", "r2"),
        ("h", "r0", "r2", "r1"),
        ("h", "r1", "r0", "r2"),
    ]
    assert len(calls) == 3


def test_kernel_leaves_the_instance_layout_alone():
    # the masks live in a declared field; a key added to the instance
    # __dict__ later would slow every attribute load on the graph
    g = cube()
    declared = {f.name for f in dataclasses.fields(PlaneGraph)}
    assert set(vars(g)) == declared
    assert next(hamiltonian_cycles(g), None) is not None
    assert set(vars(g)) == declared
    assert g.adj_mask[g.index["v0"]] == sum(1 << g.index[w] for w in g.adj["v0"])


def test_independent_sets_match_brute_force():
    # every size from 0 through n + 1: the empty set, the largest sets,
    # sizes above the independence number and sizes above n
    graphs = [cube(), ic.octahedron(), wheel(5), double_wheel(6)]
    graphs.append(ic.gen_insertion_family(ic.octahedron(), fill_count=None))
    for g in graphs:
        sizes = []
        for k in range(g.n + 2):
            want = [
                c for c in combinations(g.vertices, k)
                if not any(v in g.adj[u] for u, v in combinations(c, 2))
            ]
            assert list(_independent_sets(g, k)) == want, (g.n, k)
            sizes.append(len(want))
        assert sizes[0] == 1 and sizes[-1] == 0
        # sizes above the independence number are walked too
        assert sizes.index(0) < g.n


def test_independent_set_helpers():
    # the octahedron pairs up antipodal vertices; the cube splits in half
    assert len(list(_independent_sets(ic.octahedron(), 2))) == 3
    assert list(_independent_sets(ic.octahedron(), 3)) == []
    assert len(list(_independent_sets(cube(), 4))) == 2
    assert list(_independent_sets(cube(), 5)) == []
    # a size above n ends at once, at the popcount cut (walking every
    # independent set of this n=62 graph takes over a minute)
    g = ic.gen_insertion_family(double_wheel(20))
    assert g.n == 62
    assert list(_independent_sets(g, g.n + 1)) == []


def test_size_guard():
    big = double_wheel(30)
    with pytest.raises(TooLarge):
        ic.oracle_circumference(big)
    assert ic.oracle_circumference(big, limit=big.n) == 32
