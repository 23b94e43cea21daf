"""Exact brute-force oracles for small graphs.

These are deliberately simple reference implementations: depth-first search
with branch-and-bound for the circumference, one backtracking search with
degree and connectivity pruning for Hamiltonian cycles and paths, and
enumeration of isolating cycles via their complements (a cycle is isolating
exactly when the vertices it misses form an independent set).  The oracle
entry points refuse graphs above a size limit; the raw engines have no guard
and are reused by the extension search on small induced subgraphs.

The searches hold vertex sets as int bitmasks over vertex indices, read
neighbours from ``PlaneGraph.adj_mask`` and try them lowest bit first, which
is index order.  Both prunes of the Hamiltonian search cut only branches
that have no Hamiltonian completion, so the depth-first order alone fixes
which paths come out and in what order; a sound prune, however it is
computed, never changes that sequence.  The connectivity prune keeps an
invariant: the unvisited set U is connected, since the rest of a completion
is a path through all of U.  One flood checks it at the root.  Below the
root U was connected before the head left it, so U stays connected when
the head's unvisited neighbours are connected among themselves; that local
check floods a few bits, and all of U is flooded only when it fails.

The masks cost about n^2/8 bytes per graph and are built the first time a
search runs on it.

The module depends only on ``errors``.  Nothing here reads the cycle
analysis or the extension engine that the oracles are used to check.
"""

from itertools import islice

from .errors import TooLarge


def _flood(masks, seeds, allowed):
    """Bitmask of the vertices of ``allowed`` connected to ``seeds`` in it.

    masks[i] is the neighbour bitmask of vertex index i; seed bits outside
    ``allowed`` are ignored.
    """
    seen = frontier = seeds & allowed
    while frontier and seen != allowed:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & allowed & ~seen
        seen |= frontier
    return seen


def _hamiltonian_paths(g, vertices, s, t):
    """Yield every Hamiltonian s-t path of g[vertices], in search order.

    With t == s the paths close into cycles through s, each yielded once,
    oriented so the second vertex has lower index than the last.  The search
    tries neighbours in index order and cuts a branch when an unvisited
    vertex other than t has fewer than two usable neighbours (unvisited
    ones, the head or t), or when the unvisited set is not connected.
    Stepping off a head only takes it out of its neighbours' usable sets, so
    below the root the degree check looks at those alone.  Likewise the
    unvisited set, connected at the parent with the head in it, can only
    split at the head: it is checked whole at the root, and below it only
    when the head's unvisited neighbours are not connected among themselves.
    """
    index = g.index
    masks = g.adj_mask
    names = g.vertices
    si = index[s]
    sbit = 1 << si
    tbit = 1 << index[t]
    closed = s == t
    vmask = 0
    for v in vertices:
        vmask |= 1 << index[v]
    if closed and (vmask.bit_count() < 3 or (masks[si] & vmask).bit_count() < 2):
        return
    path = [si]

    def rec(head, unvisited, suspects):
        # suspects: the unvisited vertices other than t that may have lost a
        # usable neighbour since the parent node passed the degree check
        if not unvisited:
            # an open path can only have taken t last
            if not closed or (masks[head] & sbit and path[1] < head):
                yield tuple(names[i] for i in path)
            return
        usable = unvisited | (1 << head) | tbit
        while suspects:
            low = suspects & -suspects
            x = masks[low.bit_length() - 1] & usable
            if x & (x - 1) == 0:
                return
            suspects ^= low
        # unvisited | head was connected, so unvisited is too when head's
        # unvisited neighbours are connected among themselves; all of
        # unvisited is flooded only where head may be a cut vertex
        step = masks[head] & unvisited
        low = step & -step
        if step != low:
            part = _flood(masks, low, step)
            if part != step and _flood(masks, part, unvisited) != unvisited:
                return
        # leaving head takes it out of the usable set of its neighbours
        around = step & ~tbit
        if unvisited != tbit:
            step = around  # t comes only as the last vertex
        while step:
            low = step & -step
            path.append(low.bit_length() - 1)
            yield from rec(path[-1], unvisited ^ low, around & ~low)
            path.pop()
            step ^= low

    unvisited = vmask & ~sbit
    if _flood(masks, unvisited & -unvisited, unvisited) != unvisited:
        return
    yield from rec(si, unvisited, unvisited & ~tbit)


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
    masks = g.adj_mask

    def rec(head, unvisited, length):
        # extend a path of ``length`` vertices from the anchor, ending at head
        nonlocal best
        if length >= 3 and closing >> head & 1:
            best = max(best, length)
        step = masks[head] & unvisited
        grow = _flood(masks, step, unvisited)
        if length + grow.bit_count() <= best:
            return
        if not (grow | 1 << head) & closing:
            return
        while step:
            low = step & -step
            rec(low.bit_length() - 1, unvisited ^ low, length + 1)
            step ^= low

    for anchor in range(g.n):
        # cycles whose lowest-index vertex is the anchor
        if g.n - anchor <= best:
            break
        closing = masks[anchor]
        rec(anchor, (1 << g.n) - (2 << anchor), 1)
    return best


def independent_sets_of_size(g, k):
    """Yield every independent set of exactly k vertices, in index order."""
    order = g.vertices
    masks = g.adj_mask

    def rec(free, chosen):
        # free: the vertices after the last chosen one with no chosen neighbour
        if len(chosen) == k:
            yield tuple(chosen)
            return
        if free.bit_count() < k - len(chosen):
            return
        while free:
            low = free & -free
            free ^= low
            j = low.bit_length() - 1
            chosen.append(order[j])
            yield from rec(free & ~masks[j], chosen)
            chosen.pop()

    yield from rec((1 << len(order)) - 1, [])


def oracle_isolating_cycles(g, min_length=3, max_length=None, max_count=None, limit=30):
    """Enumerate isolating cycles of g by ascending length.

    A cycle is isolating exactly when the vertices it misses form an
    independent set, so the enumeration walks independent sets I of size
    n - c and lists the Hamiltonian cycles of g - I.  A length too short
    for any independent set of size n - c costs only the popcount cut of
    ``independent_sets_of_size``.  Cycles come out in the canonical form
    ``hamiltonian_cycles`` yields.  max_count, when given, stops the
    enumeration after that many cycles; 0 searches nothing, and a negative
    count raises ValueError.
    """
    if max_count is not None and max_count < 0:
        raise ValueError(f"max_count must be None or at least 0, got {max_count}")
    if g.n > limit:
        raise TooLarge(f"isolating-cycle oracle limited to {limit} vertices, got {g.n}")
    n = g.n
    top = n if max_length is None else min(max_length, n)

    def cycles():
        for c in range(min_length, top + 1):
            for ind in independent_sets_of_size(g, n - c):
                missed = set(ind)
                yield from hamiltonian_cycles(g, [v for v in g.vertices if v not in missed])

    return list(islice(cycles(), max_count))
