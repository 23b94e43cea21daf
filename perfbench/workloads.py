"""The three benchmark workloads: inputs, the timed call, and output checks.

Every workload builds its instances and start cycles from a seed, then runs
one closed-loop call per start.  Seed 0 gives the fixed workloads of the
roadmap; any other seed changes the inputs as described per workload.
``batches`` is how many strided batches a pass is split into, and
``trace_batches`` how many of them a traced run replays.

A workload is bound to one copy of the package: ``isocycle`` from ``src``
(the code under test) or ``isocycle_frozen`` (the control, see ``run.py``).
The package is reached through module attributes looked up at call time,
so a tracer that replaces those attributes sees every call.

``control`` says how the control is paced against the code under test: one
control ``step`` after every ``control_every`` fast extension steps of a
growth, or one control ``start`` after every ``control_every`` starts.
``control_setup`` builds the control's inputs.  ``control_unit_s`` and
``control_setup_s`` are the control's mean unit time and set-up time, and
``control_p50_s`` and ``control_p99_s`` the percentiles of its unit times
where a unit is a start, as measured on the host the benchmark was written
on (a 2-vCPU Intel Xeon VM, Python 3.11).  They convert the control's
measured times into a host speed.

The checks here use only the graph's adjacency data, never the package's
own predicates, so a defect in ``is_isolating`` or ``check_cycle`` cannot
hide a wrong answer.
"""

import json
import random

CORPUS_CAP = 50


class StartFailed:
    """Stands in for the result of a start whose call raised."""

    def __init__(self, exc):
        self.reason = f"{type(exc).__name__}: {exc}"


def _rotated(cycle, offset):
    return tuple(cycle[offset:]) + tuple(cycle[:offset])


def _bound(g):
    return min((2 * (g.n + 4)) // 3, g.n)


def _budget(g):
    return 3 + sum(1 for v in g.vertices if len(g.adj[v]) == 5)


def _cycle_problem(g, cyc):
    """Why ``cyc`` is not an isolating cycle of g, or None."""
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        return "not a simple cycle"
    if any(v not in g.adj for v in cyc):
        return "unknown vertex"
    if any(cyc[i - 1] not in g.adj[cyc[i]] for i in range(len(cyc))):
        return "consecutive vertices are not adjacent"
    on = set(cyc)
    if not all(u in on or v in on for u, v in g.edges):
        return "not isolating"
    return None


def _move_problem(g, old, move):
    """Why ``move`` is not a valid extension of ``old``, or None."""
    problem = _cycle_problem(g, move.new_cycle)
    if problem:
        return f"new cycle: {problem}"
    old_set, new_set = set(old), set(move.new_cycle)
    if not old_set < new_set:
        return "new cycle is not a strict vertex superset"
    if set(move.added) != new_set - old_set:
        return "added vertices do not match the cycles"
    if len(move.added) > _budget(g):
        return f"adds {len(move.added)} vertices, budget is {_budget(g)}"
    return None


class Workload:
    def __init__(self, pkg):
        self.pkg = pkg

    def control_setup(self):
        return self.setup(0)


class Growth(Workload):
    """``grow_to_bound`` from each start; shared by tight14 and dwheel."""

    control = "step"

    def run(self, start):
        g, cycle = start
        return self.pkg.extension.grow_to_bound(g, cycle)

    def check(self, start, trace):
        g, cycle = start
        cycles = trace.cycles
        if tuple(cycles[0]) != tuple(cycle):
            return "trace does not begin at the start cycle"
        for i, cyc in enumerate(cycles):
            problem = _cycle_problem(g, cyc)
            if problem:
                return f"cycle {i}: {problem}"
        if len(trace.moves) != len(cycles) - 1:
            return "move count does not match the cycle chain"
        for i, move in enumerate(trace.moves):
            if tuple(move.new_cycle) != tuple(cycles[i + 1]):
                return f"move {i} does not produce cycle {i + 1}"
            problem = _move_problem(g, cycles[i], move)
            if problem:
                return f"move {i}: {problem}"
        if len(cycles[-1]) != _bound(g) or not trace.completed:
            return f"ends at length {len(cycles[-1])}, bound is {_bound(g)}"
        return None

    def digest_item(self, trace):
        return json.dumps(trace.summary(), sort_keys=True, separators=(",", ":"))

    def moves(self, trace):
        return list(trace.moves)

    def fallbacks(self, trace):
        return trace.fallbacks


class Tight14(Growth):
    """Every isolating cycle of the filled octahedron (n=14, bound 12).

    Other seeds permute the starts and rotate each by a seeded offset.
    """

    name = "tight14"
    batches = 20
    trace_batches = 2
    control_every = 2
    control_unit_s = 1.0e-3
    control_setup_s = 1.5

    def setup(self, seed):
        gen = self.pkg.generators
        g = gen.gen_insertion_family(gen.octahedron())
        cycles = self.pkg.oracles.oracle_isolating_cycles(g)
        if seed:
            rng = random.Random(seed)
            rng.shuffle(cycles)
            cycles = [_rotated(c, rng.randrange(len(c))) for c in cycles]
        return [(g, c) for c in cycles]


class DoubleWheel(Growth):
    """The base Hamiltonian cycle of a filled double wheel (k=66, n=200).

    Other seeds rotate the start by a seeded offset.
    """

    batches = 1
    trace_batches = 1
    control_every = 1
    control_unit_s = 28e-3
    control_setup_s = 0.35

    def __init__(self, pkg, name="dwheel", rims=(66,)):
        super().__init__(pkg)
        self.name = name
        self.rims = rims

    def setup(self, seed):
        gen = self.pkg.generators
        rng = random.Random(seed)
        starts = []
        for k in self.rims:
            g = gen.gen_insertion_family(gen.double_wheel(k))
            cycle = gen.base_hamiltonian_cycle(k)
            if seed:
                cycle = _rotated(cycle, rng.randrange(len(cycle)))
            starts.append((g, cycle))
        if seed:
            rng.shuffle(starts)
        return starts


class Corpus(Workload):
    """One exhaustive and one fast step from short cycles of the sweep corpus.

    The corpus is the 206 essentially 4-connected instances (14 <= n <= 24)
    of the test suite's sweep, with at most 50 isolating cycles below the
    bound per instance.  Other seeds shift every instance seed by
    ``1000 * seed``, which gives different instances of the same sizes.
    The control runs on every eighth seed-0 instance.
    """

    name = "corpus"
    batches = 20
    trace_batches = 2
    control = "start"
    control_every = 2
    control_unit_s = 1.4e-3
    control_setup_s = 1.1
    control_p50_s = 1.28e-3
    control_p99_s = 2.55e-3

    def instances(self, seed):
        generators = self.pkg.generators
        shift = 1000 * seed
        bases = [generators.double_wheel(k) for k in (6, 7, 8, 9, 10)]
        bases += [
            generators.gen_random_triangulation(
                nb, seed=s + shift, require_four_connected=True
            )
            for nb in (8, 9, 10)
            for s in (0, 1)
        ]
        out = []
        for bi, base in enumerate(bases):
            n_faces = len(base.faces)
            for fill in range(1, n_faces + 1):
                if not 14 <= base.n + fill <= 24:
                    continue
                seeds = (0,) if fill == n_faces else (0, 1)
                for s in seeds:
                    out.append(
                        generators.gen_insertion_family(
                            base, seed=s + 13 * bi + shift, fill_count=fill
                        )
                    )
        return out

    def setup(self, seed, every=1):
        starts = []
        for g in self.instances(seed)[::every]:
            cycles = self.pkg.oracles.oracle_isolating_cycles(
                g, min_length=6, max_length=_bound(g) - 1, max_count=CORPUS_CAP
            )
            starts.extend((g, c) for c in cycles)
        return starts

    def control_setup(self):
        return self.setup(0, every=8)

    def run(self, start):
        g, cycle = start
        extension = self.pkg.extension
        return (
            extension.find_extension_exhaustive(g, cycle),
            extension.find_extension_fast(g, cycle),
        )

    def check(self, start, result):
        g, cycle = start
        exhaustive, fast = result
        if exhaustive is None:
            return "exhaustive tier found no extension"
        for tier, move in (("exhaustive", exhaustive), ("fast", fast)):
            if move is None:
                continue
            problem = _move_problem(g, cycle, move)
            if problem:
                return f"{tier} move: {problem}"
        return None

    def digest_item(self, result):
        return json.dumps(
            [None if m is None else [list(m.new_cycle), m.pattern] for m in result],
            separators=(",", ":"),
        )

    def moves(self, result):
        return [m for m in result if m is not None]

    def fallbacks(self, result):
        return 0


NAMES = ("tight14", "dwheel", "corpus")


def bind(pkg):
    """The workloads by name, calling the package ``pkg``."""
    return {w.name: w for w in (Tight14(pkg), DoubleWheel(pkg), Corpus(pkg))}
