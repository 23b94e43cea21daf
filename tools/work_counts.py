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
- ``cycle_analysis.analyze_cycle``;
- ``discharging.apply_discharging``, the whole ledger and its audit, run
  lazily on reroute steps (122 and 413 calls in the tight14 passes at
  seeds 0 and 1);
- ``extension._window``, one reroute window and its extras;
- ``oracles.find_hamiltonian_path``;
- ``oracles.hamiltonian_cycles``, which the exhaustive tier calls once per
  vertex set it tries (a generator, so it never returns None);
- ``oracles._flood``, the connectivity test inside the Hamiltonian kernel.

Each row is labelled by the function's home module.  The function is
wrapped under every name an isocycle module binds it to, whatever the
caller imported it as, and the bindings come back after the pass, so the
package is not edited.  The counts depend only on the code and the inputs,
so two runs print the same bytes on any host.  ``tests/test_work_counts.py``
pins the seed-0 rows of both workloads.
"""

import argparse
import sys
from pathlib import Path

LOADS = (("tight14", 0), ("tight14", 1), ("corpus", 0))
# (home module, function name) of every counted function, in row order
WATCHED = (
    ("extension", "_reroute"),
    ("cycle_analysis", "analyze_cycle"),
    ("discharging", "apply_discharging"),
    ("extension", "_window"),
    ("oracles", "find_hamiltonian_path"),
    ("oracles", "hamiltonian_cycles"),
    ("oracles", "_flood"),
)


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


def _bindings(isocycle, fn):
    """(module, attribute) of every isocycle module binding that is fn."""
    package = isocycle.__name__
    return [
        (mod, attr)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
        for attr, obj in list(vars(mod).items())
        if obj is fn
    ]


def count_rows(isocycle, workloads, load, seed):
    """(label, calls, none, raised) of every counted function over one cold
    pass of the workload ``load`` at ``seed``."""
    workload = workloads.bind(isocycle)[load]
    starts = workload.setup(seed)
    rows, patched = [], []
    for home, name in WATCHED:
        fn, counts = getattr(getattr(isocycle, home), name), Counts()
        wrapper = _wrapped(fn, counts)
        for mod, attr in _bindings(isocycle, fn):
            setattr(mod, attr, wrapper)
            patched.append((mod, attr, fn))
        rows.append((f"{home}.{name}", counts))
    try:
        for start in starts:
            workload.run(start)
    finally:
        for mod, attr, fn in patched:
            setattr(mod, attr, fn)
    return [(label, n.calls, n.none, n.raised) for label, n in rows]


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
