"""Work counts of cold benchmark passes, the same bytes on any host.

Usage (from the repository root):

    python3 tools/work_counts.py [--src src]

For each load it builds the benchmark's starts (``perfbench/workloads.py``)
by a fresh set-up, so every graph's reroute memo starts empty, and runs
each start once: the tight14 loads at seeds 0 and 1 grow every isolating
cycle of the n=14 tight instance (shuffled and rotated at seed 1), and the
corpus load at seed 0 makes one exhaustive and one fast step from each
short cycle of the 206-instance corpus.  During the pass, never during the
set-up, it counts the calls of these functions, and how many of them
returned None or raised:

- ``extension._reroute``, the reroute search, called once per memo miss;
- ``analyze_cycle``, as the extension engine calls it;
- the ledger, ``apply_discharging`` as the engine imports it from
  ``discharging``: the whole ledger and its audit, run lazily on reroute
  steps (122 and 413 calls in the tight14 passes at seeds 0 and 1);
- ``extension._window``, one reroute window and its extras;
- ``find_hamiltonian_path``, as the engine calls it;
- ``hamiltonian_cycles``, as the exhaustive tier calls it, once per vertex
  set it tries (a generator, so it never returns None);
- ``oracles._flood``, the connectivity test inside the Hamiltonian kernel.

Each is wrapped at the module attribute the caller looks it up in, so the
package is not edited.  The counts depend only on the code and the inputs,
so two runs print the same bytes on any host.  ``tests/test_work_counts.py``
pins the seed-0 rows of both workloads.
"""

import argparse
import sys
from pathlib import Path

LOADS = (("tight14", 0), ("tight14", 1), ("corpus", 0))


class Counts:
    def __init__(self):
        self.calls = self.none = self.raised = 0


def _wrapped(fn, counts):
    def wrapper(*args, **kwargs):
        counts.calls += 1
        try:
            out = fn(*args, **kwargs)
        except Exception:
            counts.raised += 1
            raise
        if out is None:
            counts.none += 1
        return out

    return wrapper


def _watched(isocycle):
    """(label, module, attribute) of every counted function."""
    extension, oracles = isocycle.extension, isocycle.oracles
    ledger = sorted(
        name
        for name, obj in vars(extension).items()
        if callable(obj) and getattr(obj, "__module__", None) == isocycle.discharging.__name__
    )
    return (
        [
            ("extension._reroute", extension, "_reroute"),
            ("analyze_cycle", extension, "analyze_cycle"),
        ]
        + [(f"ledger {name}", extension, name) for name in ledger]
        + [
            ("extension._window", extension, "_window"),
            ("find_hamiltonian_path", extension, "find_hamiltonian_path"),
            ("hamiltonian_cycles", extension, "hamiltonian_cycles"),
            ("oracles._flood", oracles, "_flood"),
        ]
    )


def count_rows(isocycle, workloads, load, seed):
    """(label, calls, none, raised) of every counted function over one cold
    pass of the workload ``load`` at ``seed``."""
    workload = workloads.bind(isocycle)[load]
    starts = workload.setup(seed)
    watched = _watched(isocycle)
    counts = [Counts() for _ in watched]
    originals = [getattr(mod, attr) for _, mod, attr in watched]
    for (_, mod, attr), fn, n in zip(watched, originals, counts):
        setattr(mod, attr, _wrapped(fn, n))
    try:
        for start in starts:
            workload.run(start)
    finally:
        for (_, mod, attr), fn in zip(watched, originals):
            setattr(mod, attr, fn)
    return [(label, n.calls, n.none, n.raised) for (label, _, _), n in zip(watched, counts)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default="src", help="directory holding the isocycle package")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import isocycle
    import workloads

    print(f"{'load':<10} {'function':<34} {'calls':>8} {'none':>8} {'raised':>6}")
    for load, seed in LOADS:
        name = f"{load}/{seed}"
        for label, calls, none, raised in count_rows(isocycle, workloads, load, seed):
            print(f"{name:<10} {label:<34} {calls:>8} {none:>8} {raised:>6}")


if __name__ == "__main__":
    main()
