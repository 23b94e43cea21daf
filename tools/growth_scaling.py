"""Double-wheel growth time, trace memory and `isocycle grow` cost at growing n.

Usage (from the repository root):

    python3 tools/growth_scaling.py [--src src]

For each size, the script builds ``gen_insertion_family(double_wheel(k))``
(n = 3k + 2), grows its base cycle once to fill the graph's lazy tables,
then times ``grow_to_bound`` from the base cycle ``REPS`` times (CPU time,
after a ``gc.collect()``, median).  It then grows once more under
``tracemalloc`` and reports the memory the held trace adds.  The
``slope`` column is the log-log slope of the growth time from the smallest
size.

The last two columns are the command line's cost on the same instance:
the graph is saved to a temporary directory, and ``isocycle grow`` runs
in process (``cli.main``) from the base cycle with ``--out`` into that
directory, ``CLI_REPS`` times.  ``grow_s`` is the median wall time of a
run (loading the graph, growing and writing the report), and ``out_B/n``
the report's size in bytes per vertex.
"""

import argparse
import gc
import math
import os
import statistics
import sys
import tempfile
import tracemalloc
from time import perf_counter, process_time

RIMS = (330, 1000, 3330)  # n = 992, 3002, 9992
REPS = 5
CLI_REPS = 3


def grow_cli(isocycle, g, start, tmp):
    """(median wall seconds, output bytes) of ``isocycle grow`` on g from
    start, run in process with its graph and report in the directory tmp."""
    graph, out = os.path.join(tmp, "graph.json"), os.path.join(tmp, "grow.json")
    isocycle.save_graph(g, graph)
    argv = ["grow", "--graph", graph, "--cycle", ",".join(start), "--out", out]
    times = []
    for _ in range(CLI_REPS):
        gc.collect()
        t0 = perf_counter()
        if isocycle.cli.main(argv) != 0:
            raise SystemExit(f"isocycle grow failed at n={g.n}")
        times.append(perf_counter() - t0)
    return statistics.median(times), os.path.getsize(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default="src", help="directory holding the isocycle package")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    import isocycle.cli
    from isocycle import grow_to_bound
    from isocycle.generators import base_hamiltonian_cycle, double_wheel, gen_insertion_family

    print(
        f"{'n':>6} {'growth_ms':>10} {'trace_mb':>9} {'slope':>6} {'grow_s':>7} {'out_B/n':>8}"
    )
    first = None
    for k in RIMS:
        g = gen_insertion_family(double_wheel(k))
        start = base_hamiltonian_cycle(k)
        grow_to_bound(g, start)
        times = []
        for _ in range(REPS):
            gc.collect()
            t0 = process_time()
            grow_to_bound(g, start)
            times.append(process_time() - t0)
        t = statistics.median(times)
        gc.collect()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        trace = grow_to_bound(g, start)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        del trace
        first = first or (g.n, t)
        slope = math.log(t / first[1]) / math.log(g.n / first[0]) if g.n != first[0] else 0.0
        with tempfile.TemporaryDirectory() as tmp:
            cli_s, size = grow_cli(isocycle, g, start, tmp)
        print(
            f"{g.n:>6} {t * 1e3:>10.1f} {held / 1e6:>9.2f} {slope:>6.2f}"
            f" {cli_s:>7.3f} {size / g.n:>8.0f}",
            flush=True,
        )


if __name__ == "__main__":
    main()
