"""CPU time of building plane graphs and editing triangulations at growing n.

Usage (from the repository root):

    python3 tools/build_scaling.py [--src src]

The loads:

- ``double_wheel``: ``double_wheel(k)`` for k = 1000, 3000, 10000, 30000,
  one validated build each;
- ``insertion_family``: ``gen_insertion_family`` on a prebuilt
  ``double_wheel(2998)`` (n = 8996), one build and the two connectivity
  checks;
- ``stacked``: ``gen_random_triangulation(n, seed=0)`` at n = 800 and
  10^4, face splits on the rotation editor, each into a face drawn from a
  plain list of the current faces, and one build;
- ``editor_flips``: 10^4 legal diagonal flips on the rotation editor of a
  stacked triangulation on 1000 vertices.  Each flip is tried on an edge
  drawn at random from the current edges (seed 0), and illegal draws are
  retried; the editor is frozen, which validates it, after the clock stops.

Each load is timed ``REPS`` times (CPU time, after a ``gc.collect()``); the
script prints the median and the range.  The two stacked loads run once
more, untimed, under ``tracemalloc``, and print the peak of traced memory in
MB (10^6 bytes).  A checkout without the rotation editor prints ``n/a`` for
``editor_flips``, and one that rebuilds the graph after every edit takes
minutes on the n = 10^4 stacked load.  Checkouts whose stacked generator
maps a seed to a different triangulation time different graphs in the
stacked and ``editor_flips`` loads, of the same size.
"""

import argparse
import gc
import random
import statistics
import sys
import tracemalloc
from time import process_time

REPS = 3
RIMS = (1000, 3000, 10000, 30000)
FAMILY_RIM = 2998
STACKED = (800, 10**4)
FLIPS = 10**4
FLIP_N = 1000


def _timed(fn):
    times = []
    for _ in range(REPS):
        gc.collect()
        t0 = process_time()
        fn()
        times.append(process_time() - t0)
    return times


def _peak_mb(fn):
    gc.collect()
    tracemalloc.start()
    fn()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 1e6


def _flips(generators, g):
    """Time FLIPS legal flips on an editor of g; return the seconds."""
    editor = generators._RotationEditor(g)
    edges = list(g.edges)
    rng = random.Random(0)
    done = 0
    t0 = process_time()
    while done < FLIPS:
        i = rng.randrange(len(edges))
        flipped = editor.flip(*edges[i])
        if flipped is not None:
            edges[i] = flipped
            done += 1
    t = process_time() - t0
    editor.freeze()
    return t


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default="src", help="directory holding the isocycle package")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    from isocycle import generators

    loads = [
        (f"double_wheel {k}", lambda k=k: generators.double_wheel(k)) for k in RIMS
    ]
    base = generators.double_wheel(FAMILY_RIM)
    loads.append(
        (f"insertion_family {3 * FAMILY_RIM + 2}", lambda: generators.gen_insertion_family(base))
    )
    loads += [
        (f"stacked {n}", lambda n=n: generators.gen_random_triangulation(n, seed=0))
        for n in STACKED
    ]

    print(f"{'load':<24} {'median_s':>9} {'min_s':>7} {'max_s':>7} {'peak_mb':>8}")
    for name, fn in loads:
        times = _timed(fn)
        peak = f"{_peak_mb(fn):>8.1f}" if name.startswith("stacked") else ""
        print(
            f"{name:<24} {statistics.median(times):>9.3f} {min(times):>7.3f} "
            f"{max(times):>7.3f} {peak}".rstrip(),
            flush=True,
        )
    name = f"editor_flips {FLIP_N}"
    if not hasattr(generators, "_RotationEditor"):
        print(f"{name:<24} {'n/a':>9}")
        return
    g = generators.gen_random_triangulation(FLIP_N, seed=0)
    times = []
    for _ in range(REPS):
        gc.collect()
        times.append(_flips(generators, g))
    print(f"{name:<24} {statistics.median(times):>9.3f} {min(times):>7.3f} {max(times):>7.3f}")


if __name__ == "__main__":
    main()
