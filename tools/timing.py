"""CPU time of the engine's loads, in one tree or paired across two trees.

Usage (from the repository root):

    python3 tools/timing.py [--src src] [--rows NAME ...] [--base REV]

The rows (tight14 and corpus are the benchmark's own seed-0 instances,
from ``perfbench/workloads.py``):

- ``n14_enumeration``: ``oracle_isolating_cycles`` on the n=14 tight
  instance (all 6580 isolating cycles);
- ``corpus_enumeration``: the corpus set-up's capped enumeration (at most
  50 isolating cycles below the bound on each of the 206 instances), on
  instances built beforehand;
- ``corpus_setup``: the whole corpus set-up, instances built inside the
  timed call (the benchmark's corpus ``setup_s``, in process);
- ``corpus_pass``: one exhaustive and one fast step from each of the 10300
  corpus starts;
- ``tight14_cold_s0``, ``tight14_cold_s1``: one ``grow_to_bound`` from
  each start of the tight14 set-up at seed 0 or 1 (shuffled and rotated at
  seed 1), on a fresh graph, so its reroute memo starts empty;
- ``growth_992``, ``growth_3002``, ``growth_9992``: ``grow_to_bound`` from
  the base cycle of ``gen_insertion_family(double_wheel(k))`` (n = 3k + 2);
  extra ``trace_mb``, the memory the returned trace holds;
- ``grow_cli_992``, ``grow_cli_3002``, ``grow_cli_9992``: ``isocycle
  grow`` in process (``cli.main``) on the same instance and start, from a
  graph file to a report file in a temporary directory; extra ``out_B/n``,
  the report's bytes per vertex;
- ``double_wheel_1000``, ``double_wheel_3000``, ``double_wheel_10000``,
  ``double_wheel_30000``: one validated ``double_wheel(k)`` build;
- ``insertion_family_8996``: ``gen_insertion_family`` on a prebuilt
  ``double_wheel(2998)``, one build and the two connectivity checks;
- ``stacked_800``, ``stacked_10000``: ``gen_random_triangulation(n,
  seed=0)``, face splits on the rotation editor and one build; extra
  ``peak_mb``, the peak of traced memory;
- ``editor_flips_1000``: 10^4 legal diagonal flips on the rotation editor
  of a stacked triangulation on 1000 vertices, each tried on an edge drawn
  at random from the current edges (seed 0), illegal draws retried; the
  editor is frozen, which validates it, after the clock stops.

One rule times every row: a warm-up call, which also fills the lazy tables
of inputs built once, then ``REPS`` calls, each on inputs the row's set-up
makes before the timer starts, timed in CPU time after a ``gc.collect()``.
The table gives the median, min and max in seconds, then the row's extra
column, measured once after the timed calls (memory under ``tracemalloc``,
in MB of 10^6 bytes).  A row whose set-up raises ``AttributeError`` prints
``n/a``, as ``editor_flips_1000`` does on a tree without the rotation
editor.  ``--rows`` times only the rows named.

``--base REV`` times the named rows paired: it extracts ``git archive REV
src`` into a temporary directory (no git state changes, no network), then
runs each row as ``tools/timing.py --src TREE --rows ROW`` in fresh
processes, ``PAIRS`` pairs of the base tree and ``--src``, alternating which
goes first.  Per row it prints both trees' median of the per-process
medians, the median change/base ratio with its quartiles, and in how many
pairs the change was faster.
"""

import argparse
import atexit
import functools
import gc
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from collections import namedtuple
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent
REPS = 3
PAIRS = 10
GROWTH_RIMS = (330, 1000, 3330)
BUILD_RIMS = (1000, 3000, 10000, 30000)
FAMILY_RIM = 2998
STACKED = (800, 10**4)
FLIPS = 10**4
FLIP_N = 1000

# setup() makes the arguments of one timed call(*args); extra(*args), if
# given, runs once on the last call's arguments and returns the extra column
Row = namedtuple("Row", "name setup call extra", defaults=(None,))


def _ic():
    """The isocycle package first on sys.path (``--src``)."""
    import isocycle.cli

    return isocycle


def _workloads():
    """A fresh binding of the benchmark's workloads to isocycle."""
    import workloads

    return workloads.bind(_ic())


@functools.cache
def _n14():
    return _workloads()["tight14"].setup(0)[0][0]


@functools.cache
def _corpus():
    """(the corpus workload, its starts), its 206 instances built once."""
    corpus = _workloads()["corpus"]
    instances = corpus.instances(0)
    corpus.instances = lambda seed: instances
    return corpus, corpus.setup(0)


def _cold(seed):
    tight14 = _workloads()["tight14"]
    return tight14, tight14.setup(seed)


def _pass(workload, starts):
    for start in starts:
        workload.run(start)


@functools.cache
def _dwheel(k):
    """(graph, base cycle) of the filled double wheel on rim k."""
    gen = _ic().generators
    return gen.gen_insertion_family(gen.double_wheel(k)), gen.base_hamiltonian_cycle(k)


def _grow(g, start):
    return _ic().grow_to_bound(g, start)


@functools.cache
def _tmp():
    """A scratch directory, removed at exit."""
    path = tempfile.mkdtemp()
    atexit.register(shutil.rmtree, path)
    return path


@functools.cache
def _grow_argv(k):
    """(argv of `isocycle grow` on _dwheel(k), n), its graph saved in _tmp()."""
    g, start = _dwheel(k)
    graph, out = os.path.join(_tmp(), f"graph_{k}.json"), os.path.join(_tmp(), f"grow_{k}.json")
    _ic().save_graph(g, graph)
    return ["grow", "--graph", graph, "--cycle", ",".join(start), "--out", out], g.n


def _grow_cli(argv, n):
    if _ic().cli.main(argv) != 0:
        raise SystemExit(f"isocycle grow failed at n={n}")


def _double_wheel(k):
    return _ic().generators.double_wheel(k)


def _stacked(n):
    return _ic().generators.gen_random_triangulation(n, seed=0)


@functools.cache
def _prebuilt(build, n):
    """build(n), made once."""
    return build(n)


def _editor():
    g = _prebuilt(_stacked, FLIP_N)
    return _ic().generators._RotationEditor(g), list(g.edges), random.Random(0)


def _flips(editor, edges, rng):
    done = 0
    while done < FLIPS:
        i = rng.randrange(len(edges))
        flipped = editor.flip(*edges[i])
        if flipped is not None:
            edges[i] = flipped
            done += 1


def _freeze(editor, edges, rng):
    editor.freeze()  # validates the flipped rotation system; no column


def _traced_mb(fn, *args):
    """(held, peak) MB of traced memory over fn(*args), its result held."""
    gc.collect()
    tracemalloc.start()
    result = fn(*args)
    gc.collect()
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del result
    return held / 1e6, peak / 1e6


def _trace_mb(g, start):
    return f"trace_mb {_traced_mb(_grow, g, start)[0]:.2f}"


def _out_per_vertex(argv, n):
    return f"out_B/n {os.path.getsize(argv[-1]) / n:.0f}"


def _peak_mb(n):
    return f"peak_mb {_traced_mb(_stacked, n)[1]:.1f}"


ROWS = (
    Row("n14_enumeration", lambda: (_n14(),), lambda g: _ic().oracles.oracle_isolating_cycles(g)),
    Row("corpus_enumeration", lambda: _corpus()[:1], lambda corpus: corpus.setup(0)),
    Row("corpus_setup", lambda: (_workloads()["corpus"],), lambda corpus: corpus.setup(0)),
    Row("corpus_pass", _corpus, _pass),
    Row("tight14_cold_s0", lambda: _cold(0), _pass),
    Row("tight14_cold_s1", lambda: _cold(1), _pass),
    *(Row(f"growth_{3 * k + 2}", lambda k=k: _dwheel(k), _grow, _trace_mb) for k in GROWTH_RIMS),
    *(
        Row(f"grow_cli_{3 * k + 2}", lambda k=k: _grow_argv(k), _grow_cli, _out_per_vertex)
        for k in GROWTH_RIMS
    ),
    *(Row(f"double_wheel_{k}", lambda k=k: (k,), _double_wheel) for k in BUILD_RIMS),
    Row(
        f"insertion_family_{3 * FAMILY_RIM + 2}",
        lambda: (_prebuilt(_double_wheel, FAMILY_RIM),),
        lambda base: _ic().generators.gen_insertion_family(base),
    ),
    *(Row(f"stacked_{n}", lambda n=n: (n,), _stacked, _peak_mb) for n in STACKED),
    Row(f"editor_flips_{FLIP_N}", _editor, _flips, _freeze),
)
BY_NAME = {row.name: row for row in ROWS}


def _line(row):
    """The table line of one row, timed by the rule in the docstring."""
    try:
        args = row.setup()
    except AttributeError:
        return f"{row.name:<22} {'n/a':>9}"
    row.call(*args)
    times = []
    for _ in range(REPS):
        args = row.setup()
        gc.collect()
        t0 = process_time()
        row.call(*args)
        times.append(process_time() - t0)
    extra = row.extra(*args) if row.extra else None
    line = f"{row.name:<22} {statistics.median(times):>9.5f} {min(times):>9.5f} {max(times):>9.5f}"
    return f"{line} {extra}" if extra else line


def extract(rev, dest):
    """Write the ``src`` tree of git revision rev under the directory dest."""
    git = ["git", "-C", str(ROOT), "archive", rev, "src"]
    archive = subprocess.run(git, stdout=subprocess.PIPE)
    if archive.returncode != 0:
        raise SystemExit(f"timing.py: git archive {rev} src failed")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def _median_in(tree, name):
    """The median seconds one fresh process prints for the row, or None (n/a)."""
    argv = [sys.executable, __file__, "--src", tree, "--rows", name]
    out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True).stdout
    field = out.splitlines()[-1].split()[1]
    return None if field == "n/a" else float(field)


def _paired(names, src, rev):
    with tempfile.TemporaryDirectory() as tmp:
        extract(rev, tmp)
        trees = (os.path.join(tmp, "src"), os.path.abspath(src))
        print(f"{'row':<22} {'base_s':>9} {'change_s':>9} {'ratio':>6} {'q1':>6} {'q3':>6} wins")
        for name in names:
            medians = ([], [])  # base, change
            for i in range(PAIRS):
                for side in (i % 2, 1 - i % 2):
                    medians[side].append(_median_in(trees[side], name))
            base, change = medians
            if None in base + change:
                print(f"{name:<22} {'n/a':>9}", flush=True)
                continue
            ratios = [c / b for b, c in zip(base, change)]
            q1, ratio, q3 = statistics.quantiles(ratios, n=4)
            wins = sum(c < b for b, c in zip(base, change))
            print(
                f"{name:<22} {statistics.median(base):>9.5f} {statistics.median(change):>9.5f}"
                f" {ratio:>6.3f} {q1:>6.3f} {q3:>6.3f} {wins}/{PAIRS}",
                flush=True,
            )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default="src", help="directory holding the isocycle package")
    ap.add_argument("--rows", nargs="+", choices=BY_NAME, metavar="NAME", help="rows to time")
    ap.add_argument("--base", metavar="REV", help="time the rows paired against this revision")
    args = ap.parse_args(argv)
    if args.base:
        if not args.rows:
            ap.error("--base needs --rows")
        _paired(args.rows, args.src, args.base)
        return
    sys.path[:0] = [args.src, str(ROOT / "perfbench")]
    print(f"{'row':<22} {'median_s':>9} {'min_s':>9} {'max_s':>9}")
    for name in args.rows or BY_NAME:
        print(_line(BY_NAME[name]), flush=True)


if __name__ == "__main__":
    main()
