"""Extending isolating cycles toward the length bound.

Every isolating cycle C with 6 <= |E(C)| < min{floor(2/3 (n+4)), n}
extends to a longer cycle through all its vertices, adding at most
3 + (number of degree-5 vertices) new ones.  Shorter starts, such as the
octahedron's 4-cycle equator, still grow here but fall outside that
guarantee.  ``extension_budget`` counts the degree-5 vertices of G, while
the paper's abstract ties the +3 to faces of size five; which count the
theorem needs is an open question.

The fast tier inspects the cycle structure for known profitable spots: a
thick minor face with a single C-edge absorbs its apex directly, and short
windows around tunnels, small minor faces, and faces flagged by the
discharging audit are rerouted by an exact search that keeps every window
vertex and adds a few off-cycle ones.

A thick minor face with a single C-edge is exactly a triangular face of G
on a C-edge whose third vertex is off C: pruning deletes only chords, and no
chord fits inside such a triangle.  So the fast tier's move is found on G
itself: the first cycle position s whose edge (v_s, v_{s+1}) lies on such a
triangle, taking the triangle with the lower face id of G when both sides
have one (the order of ``minor_faces()``, since H numbers the faces it
shares with G in the same order).  The apexes are read off the per-graph
triangle table ``PlaneGraph.triangles``, which lists the third vertices of
the triangles on each edge in increasing face id and is built on the
graph's first apex scan; the first apex off the cycle wins, which is the
same lowest-face-id rule.  Only when no such triangle exists is the
cycle analysed, and the move is the reroute that adds the fewest vertices,
the first such window in ``_candidate_windows`` order (lowest start, then
shortest).  Only that winner is built as a Move, and no window is built
before the search reaches it or searched at a size beyond the winner's.
The discharging ledger runs lazily, and the rule above is unchanged by it:
windows of tunnels and of minor faces with m in {2, 3} are known without
it.  A window that only the ledger can add (a minor face with another m)
is searched like any other, and one that holds a path is taken only if
the ledger flags one of its faces as deficient.  The ledger runs the
first time such a window holds a path: the whole of ``apply_discharging``,
whose deficient thin and thick minor faces are the flagged ones.  The
winner is the first window that is a candidate and holds a path, so the
order of the two tests cannot change it.  On this path no
minor face has m = 1, so the ledger's MinorOneFacePresent cannot fire: a
thick one is a triangle of G on a C-edge with its apex off the cycle, which
the apex scan would have taken, and a thin one would be a second edge
beside a C-edge, impossible in a simple graph.

The reroute search depends only on the graph and the exact cycle tuple, so
the graph remembers its result, in ``PlaneGraph._reroutes``, for as long as
the graph lives.  The key is the tuple itself, not its canonical form: the
winning window depends on where the cycle starts and which way it runs.  A
search that finds nothing stores None; a search that raises stores nothing,
so the next call searches again.  A remembered result is rebuilt into the
move and checked exactly as a new one is.  The memory is one entry per
distinct cycle a reroute step meets, each a path of at most MAX_WINDOW + 4
vertices: a cold full pass over the n=14 tight instance makes 1763 reroute
steps on 364 distinct cycles, so it analyses 364 cycles and runs the
ledger on 122 of them; from the benchmark's seed-1 starts (shuffled and
rotated) it analyses 1228 and runs 413 ledgers (``tools/work_counts.py``).
A graph that never reroutes builds no memo.

The fast tier checks the move it builds in O(Δ), Δ the number of cycle
positions the move changes: every new edge is an edge of G, the added
vertices are off the cycle and distinct, a reroute path covers exactly its
window and the chosen extras, and the move fits the budget.  The oracle for
moves, ``make_move`` in ``tests/test_extension.py``, checks both whole cycles.

``grow_to_bound`` carries the live cycle from step to step as a successor
map (``_Growing``): each vertex's successor, the head (position 0 of the
tuple form), the vertex set (its size is the length), the budget (counted
once per graph) and the vertex and position where the apex scan resumes.
The fast tier takes this state in place of a plain cycle, which would get
the full ``check_isolating`` at entry, applies its move in place and
returns the move as a ``Splice``.  Isolation needs no recheck between steps, since
adding vertices keeps a cycle isolating; the full check runs on the start
cycle and on the final one.  An apex insert at position s sets two
successors, in O(1), leaves every cycle edge before s unchanged and only
grows the vertex set, so the next scan starts at s; after a reroute or an
exhaustive move it starts again at 0.  Over a run of apex inserts the scan
only moves forward, so all its scans cost O(n) together, and growth does
O(n) work and holds O(n) memory: no apex insert builds a cycle tuple, a
``Move`` or a set.  A reroute step builds the cycle tuple from the head, in
O(c), which its memo key needs anyway, and relinks the path; the new cycle
starts at the path's first vertex, as the tuple form always has.  The trace
keeps the splices, and replays them into moves and cycles only when asked.

The exhaustive tier tries every small set of off-cycle vertices and asks for
a Hamiltonian cycle of the induced subgraph; it is the fallback of record,
and growth traces count how often it was needed.  Growth runs it only when
the fast tier finds nothing; no argument forces a tier.  It checks its
start cycle at entry and the cycle it finds on its vertex set, and does not
check the start again.  Both tiers, and the growth loop, raise NotIsolating
on a start cycle that is not isolating.
"""

import logging
from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations

from .cycle_analysis import analyze_cycle
from .discharging import apply_discharging
from .errors import (
    ContractViolation,
    CycleTooShort,
    DegenerateSide,
    ExtensionNotFound,
    InvalidMove,
)
from .oracles import find_hamiltonian_path, hamiltonian_cycles
from .plane_graph import check_cycle, check_isolating

logger = logging.getLogger(__name__)

MAX_WINDOW = 14


def isolation_bound(g):
    """min{floor(2/3 (n+4)), n}: isolating cycles below it always extend."""
    return min((2 * (g.n + 4)) // 3, g.n)


def extension_budget(g):
    """Largest number of vertices a single extension move may add.

    Three plus the number of degree-5 vertices, counted on the first call
    for a graph and kept in ``g._budget``.
    """
    if g._budget is None:
        g._budget = 3 + sum(1 for ring in g.rotation.values() if len(ring) == 5)
    return g._budget


@dataclass(frozen=True)
class Move:
    """One extension step: the new cycle, the vertices it adds, its pattern."""

    new_cycle: tuple
    added: tuple
    pattern: str


# ---------------------------------------------------------------------------
# fast tier


def _candidate_windows(analysis):
    """Anchor windows (start, edge count) worth an exact reroute search.

    Returns a sorted list of (window, faces) pairs.  faces is None for a
    window proposed without the discharging ledger: around a tunnel or a
    minor face with m in {2, 3}.  Otherwise it lists the minor faces with
    another m that propose the window, in ``minor_faces()`` order; such a
    window is a candidate only when the ledger flags one of them as
    deficient (see ``_flagged_faces``).  A window proposed both ways needs
    no ledger.
    """
    c = analysis.c
    windows = {}

    def propose(start, length, fid=None):
        length = min(length, MAX_WINDOW, c - 2)
        if length >= 2:
            window = (start % c, length)
            if fid is None:
                windows[window] = None
            elif windows.setdefault(window, []) is not None:
                windows[window].append(fid)

    for tunnel in analysis.tunnels:
        k = tunnel.k
        if tunnel.cyclic:
            # the seam between the last and first arch
            propose(tunnel.arches[-1].start - 1, 7)
        elif 2 * k + 1 <= MAX_WINDOW - 2:
            propose(tunnel.arches[0].start - 1, 2 * k + 3)

    for fid, arch in analysis.proper_arch.items():
        m = arch.length
        propose(arch.start - 2, m + 4, None if m in (2, 3) else fid)
    return sorted(windows.items())


def _flagged_faces(analysis):
    """The minor faces the discharging ledger flags as deficient.

    A cycle the audit does not cover (c < 6, or a face of H bounded by the
    cycle alone) flags none.
    """
    try:
        violations = apply_discharging(analysis).violations
    except (CycleTooShort, DegenerateSide):
        return frozenset()
    return frozenset(violations["deficient_thin_minors"] + violations["deficient_thick_minors"])


def _window(g, cyc, on, start, length):
    """One reroute window of the cycle cyc, with vertex set on.

    Returns (window, extras): window is the path of ``length`` cycle edges
    from position ``start``, and extras are up to ten off-cycle vertices
    adjacent to at least two window vertices, most such neighbours first,
    then by index.  They are counted from the window's neighbourhoods, in
    O(length * max degree).
    """
    # length <= c - 2, so the window is a prefix of the rotated cycle
    window = (cyc[start:] + cyc[:start])[: length + 1]
    adj, index = g.adj, g.index
    hits = {}
    for w in window:
        for v in adj[w]:
            if v not in on:
                hits[v] = hits.get(v, 0) + 1
    scored = sorted([(-k, index[v], v) for v, k in hits.items() if k >= 2])
    return window, [v for *_, v in scored[:10]]


def _reroute(g, cyc, on):
    """The winning reroute of the cycle cyc, with vertex set on.

    Returns (start, length, path), path the tuple that replaces the window
    of ``length`` cycle edges from position ``start``, or None when no
    window works.  The walk is the selection rule of the module docstring,
    so the result depends only on g and cyc: for each number of extras from
    one to three, each candidate window in order, and each choice of that
    many of its extras by ``combinations``, the first Hamiltonian path
    through the window and the extras wins.  A window only the ledger can
    make a candidate is searched first, and asks the ledger only when it
    holds a path; the ledger runs at most once.
    """
    analysis = analyze_cycle(g, cyc)
    candidates = _candidate_windows(analysis)
    flagged = None
    for size in (1, 2, 3):
        for (start, length), faces in candidates:
            window, extras = _window(g, cyc, on, start, length)
            for chosen in combinations(extras, size):
                path = find_hamiltonian_path(g, set(window).union(chosen), window[0], window[-1])
                if path is not None:
                    break
            else:
                continue
            if faces is not None:
                if flagged is None:
                    flagged = _flagged_faces(analysis)
                if flagged.isdisjoint(faces):
                    continue
            return start, length, tuple(path)
    return None


Splice = namedtuple("Splice", "pattern added at window path")
Splice.__doc__ = """One growth step, recorded as the change it made to the cycle.

pattern and added are the move's.  A fast-tier step puts ``path`` in place
of ``window``, the stretch of the old cycle from position ``at``.  An apex
insert ("apex-insert") keeps the head; its path is (u, apex, v), and its
window, the edge (u, v) between the path's ends, is None.  A reroute
("window-reroute") starts the new cycle at the path's first vertex.  An
exhaustive move keeps the whole old and new cycles in ``window`` and
``path``, and ``at`` is None.  ``isocycle grow`` reads the arcs a step
removed and the paths it inserted off ``window`` and ``path`` alone, and
``GrowthTrace.fallbacks`` counts the exhaustive splices.
"""


def _replay(cyc, step):
    """The cycle tuple ``step`` makes of the cycle tuple cyc, in O(c)."""
    if step.pattern == "apex-insert":
        return cyc[: step.at + 1] + step.added + cyc[step.at + 1 :]
    if step.pattern == "window-reroute":
        rot = cyc[step.at :] + cyc[: step.at]
        return step.path + rot[len(step.window) :]
    return step.path


class _Growing:
    """A checked isolating cycle, carried by grow_to_bound from step to step.

    The cycle is a successor map ``succ`` with a ``head``, its tuple form
    starting at the head.  The state also holds the cycle's vertex set
    ``on``, whose size is the cycle's length, the move budget, and the
    vertex ``scan`` at position ``pos`` where the next apex scan starts.
    ``find_extension_fast`` takes it in place of a cycle, skips its entry
    check and applies its move in place.
    """

    __slots__ = ("succ", "head", "on", "budget", "scan", "pos")

    def __init__(self, cycle, budget):
        self.succ = dict(zip(cycle, cycle[1:] + cycle[:1]))
        self.head = self.scan = cycle[0]
        self.on = set(cycle)
        self.budget = budget
        self.pos = 0

    def cycle(self):
        """The cycle as a tuple from the head, in O(c).

        Raises ContractViolation unless the walk from the head returns to it
        after exactly ``len(on)`` vertices.
        """
        succ, head, length = self.succ, self.head, len(self.on)
        out = [head]
        v = succ[head]
        for _ in range(length):
            if v == head:
                break
            out.append(v)
            v = succ[v]
        if v != head or len(out) != length:
            raise ContractViolation(
                f"the successor map does not close into a cycle of length {length}"
            )
        return tuple(out)


def _spliced(g, state, window, path):
    """The vertices path adds in place of window, sorted by index.

    Only what the splice changes is checked, in O(len(path)): path joins the
    ends of window through every window vertex, its other vertices are off
    the cycle, no vertex repeats, each path edge is an edge of g, and it adds
    between one and ``state.budget`` vertices.  The rest of the new cycle is
    the old cycle, so the new cycle is a cycle of g through every old
    vertex, and it is isolating because the old one is.
    """
    if path[0] != window[0] or path[-1] != window[-1]:
        raise InvalidMove("the new path must join the ends of the window")
    vs = set(path)
    if len(vs) != len(path):
        raise InvalidMove("the new path repeats a vertex")
    on = state.on
    if vs & on != set(window):
        raise InvalidMove("the new path must keep exactly the window's cycle vertices")
    adj = g.adj
    for u, v in zip(path, path[1:]):
        if v not in adj[u]:
            raise InvalidMove(f"missing edge {u!r}-{v!r}")
    added = vs - on
    if not added:
        raise InvalidMove("the new cycle must be strictly longer")
    if len(added) > state.budget:
        raise InvalidMove(f"move adds {len(added)} vertices, budget is {state.budget}")
    return tuple(g.sorted_vertices(added))


def _extend(g, state):
    """Find the fast tier's move on the growth state, apply it in place and
    return its Splice, or None when no window works.

    An apex insert puts the apex between the cycle vertices u and v at
    position s in O(1).  Its checks are the ones ``_spliced`` makes on the
    path (u, apex, v) with apex off the cycle: both its edges are edges of
    g, and the budget allows one vertex.
    """
    succ, on = state.succ, state.on
    triangles = g.triangles
    u = state.scan
    for s in range(state.pos, len(on)):
        v = succ[u]
        # the apexes on (u, v) come in increasing face id
        for apex in triangles.get((u, v), ()):
            if apex not in on:
                adj = g.adj[apex]
                if u not in adj:
                    raise InvalidMove(f"missing edge {u!r}-{apex!r}")
                if v not in adj:
                    raise InvalidMove(f"missing edge {apex!r}-{v!r}")
                if state.budget < 1:
                    raise InvalidMove(f"move adds 1 vertices, budget is {state.budget}")
                succ[u] = apex
                succ[apex] = v
                on.add(apex)
                state.scan, state.pos = u, s
                return Splice("apex-insert", (apex,), s, None, (u, apex, v))
        u = v

    cyc = state.cycle()
    memo = g._reroutes
    if memo is None:
        memo = g._reroutes = {}
    if cyc not in memo:
        # a raising search stores nothing
        memo[cyc] = _reroute(g, cyc, on)
    found = memo[cyc]
    if found is None:
        return None
    start, length, path = found
    # the window: the length cycle edges from position start
    window = (cyc[start:] + cyc[:start])[: length + 1]
    added = _spliced(g, state, window, path)
    for a, b in zip(path, path[1:]):
        succ[a] = b
    on.update(added)
    state.head = state.scan = path[0]
    state.pos = 0
    return Splice("window-reroute", added, start, window, path)


def find_extension_fast(g, cycle):
    """Pattern-directed extension search.

    Given a plain cycle, returns a Move or None.  Given the growth state of
    ``grow_to_bound``, applies the move to it in place and returns the
    move's Splice, or None.

    The move is the winner of the selection rule in the module docstring,
    the only move built, and is checked in O(size of the change); a reroute
    step's search is remembered per graph and per cycle (``g._reroutes``).

    Raises NotCycle or NotIsolating on a bad start cycle, and InvalidMove on
    a move that fails its check.  On a reroute step every error of
    ``analyze_cycle`` and ``find_tunnels`` propagates, and so does every
    error of the ledger but CycleTooShort and DegenerateSide (which flag no
    face), on a step whose walk reaches a ledger-only window holding a
    path; such an error stores nothing in the memo.  None means only that
    no window worked.
    """
    if isinstance(cycle, _Growing):
        return _extend(g, cycle)
    cyc = check_isolating(g, cycle)
    step = _extend(g, _Growing(cyc, extension_budget(g)))
    if step is None:
        return None
    return Move(new_cycle=_replay(cyc, step), added=step.added, pattern=step.pattern)


# ---------------------------------------------------------------------------
# exhaustive tier


def find_extension_exhaustive(g, cycle):
    """Try every small off-cycle vertex set, smallest first.

    The start cycle is checked once, at entry.  The move is checked where
    it is new: the found cycle must be a cycle of g through exactly the old
    vertices and the chosen ones, which the loop keeps within the budget.
    """
    cyc = check_isolating(g, cycle)
    on = set(cyc)
    off = [v for v in g.vertices if v not in on]
    budget = min(extension_budget(g), len(off))
    for size in range(1, budget + 1):
        # off is in index order, so each chosen tuple is sorted
        for chosen in combinations(off, size):
            keep = on.union(chosen)
            for found in hamiltonian_cycles(g, keep):
                new = check_cycle(g, found)
                if set(new) != keep:
                    raise InvalidMove("the cycle found misses the old or chosen vertices")
                return Move(new_cycle=new, added=chosen, pattern="exhaustive")
    return None


# ---------------------------------------------------------------------------
# growth loop


@dataclass(eq=False)
class GrowthTrace:
    """A growth chain: the start cycle, the splices that extended it and the
    final cycle.

    Each step is kept as the ``Splice`` growth applied to its live cycle:
    O(1) memory for an apex insert, and whole cycles only for an exhaustive
    move.  ``summary()``, ``fallbacks`` (the number of exhaustive splices),
    ``bound``, ``completed`` and the runs each step removed and inserted
    (``isocycle grow``) read these directly.  ``moves`` and ``cycles``
    replay the splices from the start cycle and cost O(sum of the cycle
    lengths) on each access, so read one and derive the other from it when
    both are needed.
    """

    graph: object
    start_cycle: tuple
    splices: list
    final_cycle: tuple

    @property
    def fallbacks(self):
        return sum(step.pattern == "exhaustive" for step in self.splices)

    @property
    def moves(self):
        out = []
        cyc = self.start_cycle
        for step in self.splices:
            cyc = _replay(cyc, step)
            out.append(Move(new_cycle=cyc, added=step.added, pattern=step.pattern))
        return out

    @property
    def cycles(self):
        return [self.start_cycle] + [m.new_cycle for m in self.moves]

    @property
    def bound(self):
        return isolation_bound(self.graph)

    @property
    def completed(self):
        return len(self.final_cycle) >= self.bound

    def summary(self):
        lengths = [len(self.start_cycle)]
        for step in self.splices:
            lengths.append(lengths[-1] + len(step.added))
        return {
            "n": self.graph.n,
            "bound": self.bound,
            "lengths": lengths,
            "start": list(self.start_cycle),
            "final": list(self.final_cycle),
            "moves": [
                {
                    "pattern": step.pattern,
                    "added": list(step.added),
                    "length": length,
                }
                for step, length in zip(self.splices, lengths[1:])
            ],
            "fallbacks": self.fallbacks,
            "completed": self.completed,
        }


def grow_to_bound(g, cycle):
    """Extend an isolating cycle until it reaches min{floor(2/3(n+4)), n}.

    The guarantee covers starts with 6 <= |E(C)| below that bound; shorter
    isolating starts are grown the same way, outside the guarantee.

    The start cycle gets the full ``check_isolating`` once, and so does the
    final cycle, after a check that the walk of its successor map passes
    every vertex of its vertex set; in between, the fast tier is handed the
    growth state of the module docstring (successor map, vertex set, budget,
    apex scan position), checks each move in O(Δ) and applies it in place,
    while an exhaustive fallback gets the plain cycle, checks it in full and
    checks the cycle it finds.

    A fallback, an exhaustive splice, is made only where the fast tier tried
    every window; an error the fast tier raises, such as a
    ContractViolation from the cycle analysis, propagates with its own type.

    Raises NotIsolating unless the start cycle is isolating, and
    ExtensionNotFound (with diagnostics) if some step finds no move; for a
    cycle in the guaranteed range of a 3-connected plane graph that would
    disprove the guarantee, so the alarm carries the full context.
    """
    bound = isolation_bound(g)
    start = check_isolating(g, cycle)
    state = _Growing(start, extension_budget(g))
    splices = []
    while len(state.on) < bound:
        # through the module attribute, once per step, so a wrapper sees
        # every step
        step = find_extension_fast(g, state)
        if step is None:
            cur = state.cycle()
            logger.info(
                "fast tier found nothing at length %d, falling back", len(cur)
            )
            move = find_extension_exhaustive(g, cur)
            if move is None:
                raise ExtensionNotFound(
                    f"no extension for a cycle of length {len(cur)} (bound {bound})",
                    diagnostics={
                        "cycle": list(cur),
                        "length": len(cur),
                        "bound": bound,
                        "n": g.n,
                        "budget": state.budget,
                    },
                )
            step = Splice(move.pattern, move.added, None, cur, move.new_cycle)
            state = _Growing(move.new_cycle, state.budget)
        splices.append(step)
    final = check_isolating(g, state.cycle())
    return GrowthTrace(graph=g, start_cycle=start, splices=splices, final_cycle=final)
