"""Double-wheel growth time and trace memory at growing n.

Usage (from the repository root):

    python3 tools/growth_scaling.py [--src src]

For each size, the script builds ``gen_insertion_family(double_wheel(k))``
(n = 3k + 2), grows its base cycle once to fill the graph's lazy tables,
then times ``grow_to_bound`` from the base cycle ``REPS`` times (CPU time,
after a ``gc.collect()``, median).  It then grows once more under
``tracemalloc`` and reports the memory the held trace adds.  The last
column is the log-log slope of the growth time from the smallest size.
"""

import argparse
import gc
import math
import statistics
import sys
import tracemalloc
from time import process_time

RIMS = (330, 1000, 3330)  # n = 992, 3002, 9992
REPS = 5


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default="src", help="directory holding the isocycle package")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    from isocycle import grow_to_bound
    from isocycle.generators import base_hamiltonian_cycle, double_wheel, gen_insertion_family

    print(f"{'n':>6} {'growth_ms':>10} {'trace_mb':>9} {'slope':>6}")
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
        print(f"{g.n:>6} {t * 1e3:>10.1f} {held / 1e6:>9.2f} {slope:>6.2f}", flush=True)


if __name__ == "__main__":
    main()
