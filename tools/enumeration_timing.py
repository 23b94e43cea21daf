"""CPU time of the Hamiltonian search's big users and of cold growth passes.

Usage (from the repository root):

    python3 tools/enumeration_timing.py [--src src]

The instances come from the benchmark's own workload definitions
(``perfbench/workloads.py``, seed 0):

- ``n14_enumeration``: ``oracle_isolating_cycles`` on the n=14 tight
  instance (all 6580 isolating cycles);
- ``corpus_enumeration``: the corpus set-up's capped enumeration (at most
  50 isolating cycles below the bound on each of the 206 instances), with
  the instances built beforehand;
- ``corpus_setup``: the whole corpus set-up, which builds the 206
  instances inside the timed call and then enumerates their starts; it is
  the in-process counterpart of the benchmark's corpus ``setup_s``;
- ``corpus_pass``: one exhaustive and one fast step from each of the 10300
  corpus starts;
- ``tight14_cold_s0`` and ``tight14_cold_s1``: one ``grow_to_bound`` from
  each start of the tight14 set-up at seed 0 or 1 (all 6580 isolating
  cycles of the n=14 instance; shuffled and rotated at seed 1).  Each call,
  the warm-up too, grows on its own graph from a fresh set-up made before
  its timer starts, so the graph's reroute memo starts empty.

Each is run once as a warm-up, which also fills the lazy tables of the
graphs built beforehand, then timed ``REPS`` times (CPU time, after a
``gc.collect()``); the script prints the median and the range.
"""

import argparse
import gc
import statistics
import sys
from pathlib import Path
from time import process_time

REPS = 5


def _timed(fn, fresh=tuple):
    """CPU times of ``REPS`` calls fn(*fresh()) after one warm-up call; each
    call's arguments are made before its timer starts."""
    fn(*fresh())
    times = []
    for _ in range(REPS):
        args = fresh()
        gc.collect()
        t0 = process_time()
        fn(*args)
        times.append(process_time() - t0)
    return times


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default="src", help="directory holding the isocycle package")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import isocycle
    import workloads

    oracles = isocycle.oracles
    bound = workloads.bind(isocycle)
    tight14 = bound["tight14"]
    tight = tight14.setup(0)[0][0]
    corpus = bound["corpus"]
    starts = corpus.setup(0)
    fresh = workloads.bind(isocycle)["corpus"]
    # the set-up's own enumeration, on instances built once
    instances = corpus.instances(0)
    corpus.instances = lambda seed: instances

    def corpus_enumeration():
        corpus.setup(0)

    def corpus_pass():
        for start in starts:
            corpus.run(start)

    def cold_pass(tight_starts):
        for start in tight_starts:
            tight14.run(start)

    print(f"{'load':<20} {'median_s':>9} {'min_s':>7} {'max_s':>7}")
    for name, fn, *setup in (
        ("n14_enumeration", lambda: oracles.oracle_isolating_cycles(tight)),
        ("corpus_enumeration", corpus_enumeration),
        ("corpus_setup", lambda: fresh.setup(0)),
        ("corpus_pass", corpus_pass),
        ("tight14_cold_s0", cold_pass, lambda: (tight14.setup(0),)),
        ("tight14_cold_s1", cold_pass, lambda: (tight14.setup(1),)),
    ):
        times = _timed(fn, *setup)
        print(
            f"{name:<20} {statistics.median(times):>9.3f} {min(times):>7.3f} {max(times):>7.3f}",
            flush=True,
        )


if __name__ == "__main__":
    main()
