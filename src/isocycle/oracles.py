"""Exact brute-force oracles for small graphs.

These are deliberately simple reference implementations: depth-first search
with branch-and-bound for the circumference, one backtracking search with
degree, connectivity and closing cuts for Hamiltonian cycles and paths, and
enumeration of isolating cycles via their complements (a cycle is isolating
exactly when the vertices it misses form an independent set).  The oracle
entry points refuse graphs above a size limit; the raw engines have no guard
and are reused by the extension search on small induced subgraphs.

The searches hold vertex sets as int bitmasks over vertex indices, read
neighbours from ``PlaneGraph.adj_mask`` and try them lowest bit first, which
is index order.  The circumference search, the Hamiltonian search and the
independent-set walk are each one loop over an explicit stack of bitmasks,
so their depth is not bounded by the recursion limit.  The isolating-cycle
enumeration passes masks from the walk to the Hamiltonian search, and vertex
names appear only in the cycles it yields.  The Hamiltonian search's three
rules cut only branches that yield nothing, so the depth-first order alone
fixes which paths come out and in what order; a sound cut, however it is
computed, never changes that sequence.  The degree rule (every unvisited
vertex but t keeps two usable neighbours) is decided once per parent for all
its children: stepping off the head changes only the counts of the head's
unvisited neighbours, so two of them short of two neighbours leave no child
and one leaves it as the only child.  The connectivity rule keeps the
unvisited set U connected, since the rest of the path runs through all of
U.  One flood checks it at the root.  Below the root U was connected before
the head left it, so U stays connected when the head's unvisited neighbours
are connected among themselves; that local check floods a few bits, and all
of U is flooded only when it fails.  The closing rule, for cycles, cuts a
child when no vertex left could close the cycle in its canonical
orientation.

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


def _hamiltonian_paths(g, vmask, si, ti):
    """Yield every Hamiltonian s-t path of g[vmask], in search order.

    ``vmask`` is the bitmask of the vertex set and si, ti are the indices of
    s and t, both in it.  With ti == si the paths close into cycles through
    s, each yielded once, oriented so the second vertex has lower index than
    the last.  The search is depth first: one loop keeps the head's untried
    children in a bitmask and those of every earlier path vertex on an
    explicit stack, and tries children in index order.  t comes only as the
    last vertex, and a child is never created when its branch would yield
    nothing by one of three rules:

    - degree: every unvisited vertex other than t keeps two usable
      neighbours (unvisited ones, the head or t).  The root checks them
      all.  Stepping from head h to a child takes h out of the usable sets
      of h's unvisited neighbours and nothing else, so the parent counts
      once, for each such neighbour y other than t, the usable neighbours
      y keeps without h.  Two or more y short of two leave no child, one
      such y is the only child (it must come next), and none leaves every
      child.
    - connectivity: the unvisited set U stays connected, since the rest of
      the path runs through all of it.  One flood checks it at the root.
      Below the root U was connected with the head in it, so it can only
      split at the head: it is flooded whole only when the head's unvisited
      neighbours are not connected among themselves.
    - closing, for closed searches: the last vertex must be a neighbour of
      s with index above the second vertex, so a child is cut when the U it
      leaves holds no such vertex.

    So every leaf the search reaches yields: an open path there ends at t,
    and a closed one at a vertex that closes the cycle.
    """
    masks = g.adj_mask
    names = g.vertices
    sbit = 1 << si
    tbit = 1 << ti
    closed = si == ti
    if closed and (vmask.bit_count() < 3 or (masks[si] & vmask).bit_count() < 2):
        return
    unvisited = vmask & ~sbit
    if _flood(masks, unvisited & -unvisited, unvisited) != unvisited:
        return
    usable = vmask | tbit
    rest = unvisited & ~tbit
    while rest:
        low = rest & -rest
        x = masks[low.bit_length() - 1] & usable
        if x & (x - 1) == 0:
            return
        rest ^= low
    closing = 0  # closed: the neighbours of s above path[1]
    path = [si]
    stack = []  # the untried children of each path vertex but the last
    head = si
    while True:
        # head passed every check; keep the children the degree rule leaves
        kids = masks[head] & unvisited
        around = kids & ~tbit
        if unvisited != tbit:
            kids = around
        usable = unvisited | tbit
        short = 0
        while around:
            y = around & -around
            x = masks[y.bit_length() - 1] & usable
            if x & (x - 1) == 0:
                if short:
                    kids = 0
                    break
                short = kids = y
            around ^= y
        # the next child: the lowest untried one of the deepest node with one
        while True:
            if not kids:
                if not stack:
                    return
                kids = stack.pop()
                unvisited |= 1 << path.pop()
                continue
            low = kids & -kids
            kids ^= low
            head = low.bit_length() - 1
            left = unvisited ^ low
            if not left:
                path.append(head)
                yield tuple(map(names.__getitem__, path))
                path.pop()
                continue
            if closed:
                if not stack:
                    closing = masks[si] & -(2 << head)
                if not left & closing:
                    continue
            # left | head was connected, so left is too when head's unvisited
            # neighbours are connected among themselves; all of left is
            # flooded only where head may be a cut vertex
            step = masks[head] & left
            low = step & -step
            if step != low:
                part = _flood(masks, low, step)
                if part != step and _flood(masks, part, left) != left:
                    continue
            break
        stack.append(kids)
        path.append(head)
        unvisited = left


def _vertex_mask(g, vertices):
    """Bitmask of ``vertices`` in g; ValueError for a vertex not in g."""
    index = g.index
    vmask = 0
    try:
        for v in vertices:
            vmask |= 1 << index[v]
    except KeyError as e:
        raise ValueError(f"unknown vertex {e.args[0]!r}") from None
    return vmask


def hamiltonian_cycles(g, vertices=None):
    """Yield every Hamiltonian cycle of g[vertices], each exactly once.

    Cycles start at the lowest-index vertex and are oriented so the second
    vertex has lower index than the last.  A vertex not in g raises
    ValueError.
    """
    vmask = (1 << g.n) - 1 if vertices is None else _vertex_mask(g, vertices)
    if vmask:
        si = (vmask & -vmask).bit_length() - 1
        yield from _hamiltonian_paths(g, vmask, si, si)


def find_hamiltonian_path(g, vertices, s, t):
    """A path from s to t visiting all of ``vertices``, or None.

    Raises ValueError unless s and t are distinct members of ``vertices``
    and every vertex is in g.
    """
    if s == t or s not in vertices or t not in vertices:
        raise ValueError("endpoints must be distinct members of the vertex set")
    vmask = _vertex_mask(g, vertices)
    return next(_hamiltonian_paths(g, vmask, g.index[s], g.index[t]), None)


def oracle_circumference(g, limit=30):
    """Length of a longest cycle, by anchored branch-and-bound search.

    Raises TooLarge when g has more than ``limit`` vertices, and ValueError
    on a negative limit.
    """
    if limit < 0:
        raise ValueError(f"limit must be at least 0, got {limit}")
    if g.n > limit:
        raise TooLarge(f"circumference oracle limited to {limit} vertices, got {g.n}")
    if g.n < 3:
        return 0
    best = 0
    masks = g.adj_mask
    for anchor in range(g.n):
        # cycles whose lowest-index vertex is the anchor, by depth-first
        # search over paths from it; the stack holds the untried children
        # and unvisited set of each path vertex but the head
        if g.n - anchor <= best:
            break
        closing = masks[anchor]
        stack = []
        head, unvisited = anchor, (1 << g.n) - (2 << anchor)
        while True:
            length = len(stack) + 1
            if length >= 3 and closing >> head & 1:
                best = max(best, length)
            kids = masks[head] & unvisited
            grow = _flood(masks, kids, unvisited)
            if length + grow.bit_count() <= best or not (grow | 1 << head) & closing:
                kids = 0
            while not kids and stack:
                kids, unvisited = stack.pop()
            if not kids:
                break
            low = kids & -kids
            stack.append((kids ^ low, unvisited))
            head = low.bit_length() - 1
            unvisited ^= low
    return best


def _independent_masks(masks, n, k):
    """Yield the bitmask of every independent set of k of the n vertices,
    in lexicographic index order.

    masks[i] is the neighbour bitmask of vertex index i.  One loop walks
    the sets depth first: ``free`` holds the vertices after the last chosen
    one with no chosen neighbour, and the stack keeps the (chosen, free)
    pair each earlier choice may still try.  A node is cut when ``free``
    holds fewer vertices than it still needs, so k above n ends at the
    root.
    """
    stack = []
    chosen, free, need = 0, (1 << n) - 1, k
    while True:
        if not need:
            yield chosen
        elif free.bit_count() >= need:
            low = free & -free
            free ^= low
            stack.append((chosen, free))
            chosen |= low
            free &= ~masks[low.bit_length() - 1]
            need -= 1
            continue
        if not stack:
            return
        chosen, free = stack.pop()
        need = k - chosen.bit_count()


def oracle_isolating_cycles(g, min_length=3, max_length=None, max_count=None, limit=30):
    """Enumerate isolating cycles of g by ascending length.

    A cycle is isolating exactly when the vertices it misses form an
    independent set, so the enumeration walks the independent sets I of
    size n - c as bitmasks and hands the Hamiltonian search the complement
    of each, from its lowest vertex.  A length too short for any
    independent set of size n - c costs a walk that yields nothing, cut at
    every node with fewer free vertices than it still needs.  Cycles come
    out in the canonical form ``hamiltonian_cycles`` yields.  max_count,
    when given, stops the enumeration after that many cycles; 0 searches
    nothing, and a negative count raises ValueError.  Raises TooLarge when
    g has more than ``limit`` vertices, and ValueError on a negative limit.
    """
    if max_count is not None and max_count < 0:
        raise ValueError(f"max_count must be None or at least 0, got {max_count}")
    if limit < 0:
        raise ValueError(f"limit must be at least 0, got {limit}")
    if g.n > limit:
        raise TooLarge(f"isolating-cycle oracle limited to {limit} vertices, got {g.n}")
    n = g.n
    top = n if max_length is None else min(max_length, n)
    masks = g.adj_mask
    full = (1 << n) - 1

    def cycles():
        # a cycle has at least three vertices, so the complement is never empty
        for c in range(max(min_length, 3), top + 1):
            for missed in _independent_masks(masks, n, n - c):
                rest = full ^ missed
                si = (rest & -rest).bit_length() - 1
                yield from _hamiltonian_paths(g, rest, si, si)

    return list(islice(cycles(), max_count))
