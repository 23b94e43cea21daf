"""Exact brute-force oracles for small graphs.

These are deliberately simple reference implementations: depth-first search
with branch-and-bound for the circumference, backtracking with degree and
connectivity pruning for Hamiltonian cycles and paths, and enumeration of
isolating cycles via their complements (a cycle is isolating exactly when
the vertices it misses form an independent set).  The oracle entry points
refuse graphs above a size limit; the raw engines have no guard and are
reused by the extension search on small induced subgraphs.
"""

from .errors import TooLarge
from .cycle_analysis import canonical_cycle


def _reachable(adj, start_set, allowed):
    seen = set(start_set) & allowed
    stack = list(seen)
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y in allowed and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def hamiltonian_cycles(g, vertices=None):
    """Yield every Hamiltonian cycle of g[vertices], each exactly once.

    Cycles start at the lowest-index vertex and are oriented so the second
    vertex has lower index than the last.
    """
    vs = g.sorted_vertices(vertices if vertices is not None else g.vertices)
    if len(vs) < 3:
        return
    vset = frozenset(vs)
    adj = {v: [w for w in g.sorted_vertices(g.adj[v]) if w in vset] for v in vs}
    if any(len(adj[v]) < 2 for v in vs):
        return
    start = vs[0]
    total = len(vs)
    path = [start]
    visited = {start}

    def rec():
        head = path[-1]
        if len(path) == total:
            if start in g.adj[head] and g.index[path[1]] < g.index[path[-1]]:
                yield tuple(path)
            return
        unvisited = vset - visited
        for u in unvisited:
            avail = sum(1 for w in adj[u] if w in unvisited or w == head or w == start)
            if avail < 2:
                return
        if _reachable(adj, [w for w in adj[head] if w in unvisited], unvisited) != unvisited:
            return
        for w in adj[head]:
            if w in visited:
                continue
            path.append(w)
            visited.add(w)
            yield from rec()
            path.pop()
            visited.discard(w)

    yield from rec()


def find_hamiltonian_cycle(g, vertices=None):
    """First Hamiltonian cycle of g[vertices], or None."""
    for cycle in hamiltonian_cycles(g, vertices):
        return cycle
    return None


def find_hamiltonian_path(g, vertices, s, t):
    """A path from s to t visiting all of ``vertices``, or None."""
    vs = g.sorted_vertices(vertices)
    vset = frozenset(vs)
    if s == t or s not in vset or t not in vset:
        raise ValueError("endpoints must be distinct members of the vertex set")
    adj = {v: [w for w in g.sorted_vertices(g.adj[v]) if w in vset] for v in vs}
    total = len(vs)
    path = [s]
    visited = {s}

    def rec():
        head = path[-1]
        if len(path) == total:
            return list(path) if head == t else None
        unvisited = vset - visited
        for u in unvisited:
            if u == t:
                continue
            avail = sum(1 for w in adj[u] if w in unvisited or w == head)
            if avail < 2:
                return None
        if _reachable(adj, [w for w in adj[head] if w in unvisited], unvisited) != unvisited:
            return None
        for w in adj[head]:
            if w in visited or (w == t and len(path) != total - 1):
                continue
            path.append(w)
            visited.add(w)
            got = rec()
            if got is not None:
                return got
            path.pop()
            visited.discard(w)
        return None

    got = rec()
    return tuple(got) if got is not None else None


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
            grow = _reachable(adj, [w for w in adj[head] if w in unvisited], unvisited)
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
    canonical form; max_count stops the enumeration early.
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
                out.append(canonical_cycle(g, cycle))
                if max_count is not None and len(out) >= max_count:
                    return out
    return out
