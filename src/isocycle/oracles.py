"""Exact brute-force oracles for small graphs.

These are deliberately simple reference implementations: depth-first search
with branch-and-bound for the circumference, one backtracking search with
degree and connectivity pruning for Hamiltonian cycles and paths, and
enumeration of isolating cycles via their complements (a cycle is isolating
exactly when the vertices it misses form an independent set).  The oracle
entry points refuse graphs above a size limit; the raw engines have no guard
and are reused by the extension search on small induced subgraphs.

The module depends only on ``plane_graph``, whose ``reachable`` walk prunes
both searches, and on ``errors``.  Nothing here reads the cycle analysis or
the extension engine that the oracles are used to check.
"""

from .errors import TooLarge
from .plane_graph import reachable


def _hamiltonian_paths(g, vertices, s, t):
    """Yield every Hamiltonian s-t path of g[vertices], in search order.

    With t == s the paths close into cycles through s, each yielded once,
    oriented so the second vertex has lower index than the last.  The search
    tries neighbours in index order and cuts a branch when an unvisited
    vertex other than t has fewer than two usable neighbours, or when the
    head cannot reach every unvisited vertex.
    """
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
            # an open path can only have taken t last
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


def hamiltonian_cycles(g, vertices=None):
    """Yield every Hamiltonian cycle of g[vertices], each exactly once.

    Cycles start at the lowest-index vertex and are oriented so the second
    vertex has lower index than the last.
    """
    vs = g.vertices if vertices is None else vertices
    if vs:
        start = min(vs, key=g.index.__getitem__)
        yield from _hamiltonian_paths(g, vs, start, start)


def find_hamiltonian_path(g, vertices, s, t):
    """A path from s to t visiting all of ``vertices``, or None."""
    if s == t or s not in vertices or t not in vertices:
        raise ValueError("endpoints must be distinct members of the vertex set")
    return next(_hamiltonian_paths(g, vertices, s, t), None)


def oracle_circumference(g, limit=30):
    """Length of a longest cycle, by anchored branch-and-bound search."""
    if g.n > limit:
        raise TooLarge(f"circumference oracle limited to {limit} vertices, got {g.n}")
    if g.n < 3:
        return 0
    best = 0
    order = list(g.vertices)
    for ai, anchor in enumerate(order):
        # cycles whose lowest-index vertex is the anchor
        allowed = frozenset(order[ai:])
        if len(allowed) <= best:
            break
        adj = {v: [w for w in g.sorted_vertices(g.adj[v]) if w in allowed] for v in allowed}
        path = [anchor]
        visited = {anchor}

        def rec():
            nonlocal best
            head = path[-1]
            if len(path) >= 3 and anchor in g.adj[head]:
                best = max(best, len(path))
            unvisited = allowed - visited
            grow = reachable(adj, [w for w in adj[head] if w in unvisited], unvisited)
            if len(path) + len(grow) <= best:
                return
            if not any(anchor in g.adj[x] for x in grow | {head}):
                return
            for w in adj[head]:
                if w in visited:
                    continue
                path.append(w)
                visited.add(w)
                rec()
                path.pop()
                visited.discard(w)

        rec()
    return best


def max_independent_set_size(g):
    """Exact independence number, by branch and bound."""
    order = list(g.vertices)

    def rec(candidates, size):
        best = size
        while candidates:
            if size + len(candidates) <= best:
                return best
            v = candidates[0]
            candidates = candidates[1:]
            best = max(best, rec([w for w in candidates if w not in g.adj[v]], size + 1))
        return best

    return rec(order, 0)


def independent_sets_of_size(g, k):
    """Yield every independent set of exactly k vertices, in index order."""
    order = list(g.vertices)

    def rec(i, chosen):
        if len(chosen) == k:
            yield tuple(chosen)
            return
        if len(order) - i < k - len(chosen):
            return
        for j in range(i, len(order)):
            v = order[j]
            if any(v in g.adj[w] for w in chosen):
                continue
            chosen.append(v)
            yield from rec(j + 1, chosen)
            chosen.pop()

    if k == 0:
        yield ()
    else:
        yield from rec(0, [])


def oracle_isolating_cycles(g, min_length=3, max_length=None, max_count=None, limit=30):
    """Enumerate isolating cycles of g by ascending length.

    A cycle is isolating exactly when the vertices it misses form an
    independent set, so the enumeration walks independent sets I of size
    n - c and lists the Hamiltonian cycles of g - I.  Cycles come out in
    the canonical form ``hamiltonian_cycles`` yields; max_count stops the
    enumeration early.
    """
    if g.n > limit:
        raise TooLarge(f"isolating-cycle oracle limited to {limit} vertices, got {g.n}")
    n = g.n
    alpha = max_independent_set_size(g)
    top = n if max_length is None else min(max_length, n)
    out = []
    for c in range(max(min_length, n - alpha), top + 1):
        for ind in independent_sets_of_size(g, n - c):
            rest = [v for v in g.vertices if v not in set(ind)]
            for cycle in hamiltonian_cycles(g, rest):
                out.append(cycle)
                if max_count is not None and len(out) >= max_count:
                    return out
    return out
