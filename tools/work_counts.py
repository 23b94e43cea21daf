"""Work counts of cold tight14 passes, the same bytes on any host.

Usage (from the repository root):

    python3 tools/work_counts.py [--src src]

For seeds 0 and 1, the script builds the benchmark's tight14 starts
(``perfbench/workloads.py``: every isolating cycle of the n=14 tight
instance, shuffled and rotated at seed 1) on a fresh graph, so the reroute
memo starts empty, and grows each start once.  During the pass it counts
the calls of these functions, and how many of them returned None or
raised:

- ``extension._reroute``, the reroute search, called once per memo miss;
- ``analyze_cycle``, as the extension engine calls it;
- the ledger query, the function the engine imports from ``discharging``;
- ``extension._window``, one reroute window and its extras;
- ``find_hamiltonian_path``, as the engine calls it;
- ``oracles._flood``, the connectivity test inside the Hamiltonian kernel.

Each is wrapped at the module attribute the caller looks it up in, so the
package is not edited.  The counts depend only on the code and the inputs,
so two runs print the same bytes on any host.  ``tests/test_work_counts.py``
pins the seed-0 rows.
"""

import argparse
import sys
from pathlib import Path

SEEDS = (0, 1)


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
            ("oracles._flood", oracles, "_flood"),
        ]
    )


def count_rows(isocycle, workloads, seed):
    """(label, calls, none, raised) of every counted function over one cold
    tight14 pass at ``seed``."""
    tight = workloads.bind(isocycle)["tight14"]
    starts = tight.setup(seed)
    watched = _watched(isocycle)
    counts = [Counts() for _ in watched]
    originals = [getattr(mod, attr) for _, mod, attr in watched]
    for (_, mod, attr), fn, n in zip(watched, originals, counts):
        setattr(mod, attr, _wrapped(fn, n))
    try:
        for start in starts:
            tight.run(start)
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
    for seed in SEEDS:
        load = f"tight14/{seed}"
        for label, calls, none, raised in count_rows(isocycle, workloads, seed):
            print(f"{load:<10} {label:<34} {calls:>8} {none:>8} {raised:>6}")


if __name__ == "__main__":
    main()
