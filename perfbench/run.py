"""Benchmark of the isocycle growth engine.

Usage (from the repository root):

    python3 perfbench/run.py --workload tight14 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each
    python3 perfbench/run.py --selftest              # full seed-0 passes against the pins

The host this was written on changes speed by up to 1.8x, within seconds
and from hour to hour, and no clock inside the VM shows it.  So every run
also runs a control: ``isocycle_frozen``, a copy of the package as it was
when the benchmark was defined, on fixed seed-0 inputs of the same
workload, in lockstep with the code under test.  One control unit (a fast
extension step of a growth, or a whole corpus start) runs after every one
or two fast steps or starts of the code under test, so both see the same
host.  The control's measured unit time over its unit time when the
benchmark was defined is the host speed, and every reported time is
divided by it.  A change to ``src`` changes the code under test and leaves
the control alone, so it moves the metrics; the host's speed moves both
and cancels.

A run builds its inputs from the seed three times, each between two
set-ups of the control; runs one untimed warm-up batch; then times whole batches
of starts in a closed loop, single-threaded, until ``--seconds`` of batch
time (control included) are measured.  Between two batches it checks and
hashes the outputs of the last one.  A workload's starts are split into
strided batches, so every batch is a sample of the whole pass.  Times are
the CPU time of the single thread: the package does no I/O, so that is its
wall time less the moments the host took the CPU away.  With ``--trace 1``
the run also replays the first batches with a span around every public
function of the package and reports the per-layer metrics instead of the
end-to-end ones.  The last line of standard output is one JSON object.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"

SETUP_REPS = 3
SHOW_FAILURES = 5
WINDOW = 32  # control units that give the host speed around one start


def _import_packages():
    """Import isocycle from this checkout's ``src`` and the control from here."""
    if not (SRC / "isocycle" / "__init__.py").is_file():
        sys.exit(f"no isocycle sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import isocycle
    import isocycle_frozen

    for pkg, where in ((isocycle, SRC), (isocycle_frozen, HERE)):
        if Path(pkg.__file__).resolve().parent != where / pkg.__name__:
            sys.exit(f"imported {pkg.__name__} from {pkg.__file__}, not from {where}")


def _sha(parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\n")
    return h.hexdigest()


def _loadavg():
    return " ".join(f"{x:.2f}" for x in os.getloadavg())


def _cpu(fn):
    """``fn()`` and the CPU time it took, after a ``gc.collect()``."""
    gc.collect()
    t0 = process_time()
    out = fn()
    return out, process_time() - t0


def _p99_rank(n):
    return -(-n * 99 // 100)  # nearest rank, 1-based


def _p99(ordered):
    return ordered[_p99_rank(len(ordered)) - 1]


def _strided(n, batches):
    return [i for j in range(min(batches, n)) for i in range(j, n, batches)]


class Control:
    """The frozen package on the control's inputs, one timed unit at a time.

    A unit is one fast extension step along growths from the control's
    starts (``step``), or one whole start (``start``).  ``tick`` is called
    after every step or start of the code under test and runs one unit
    every ``control_every`` ticks.  ``times`` holds the CPU time of every
    unit run so far.
    """

    def __init__(self, wl, starts):
        self.wl = wl
        self.starts = [starts[i] for i in _strided(len(starts), wl.batches)]
        self.per_start = wl.control == "start"
        self.times = []
        self.total = 0.0
        self._ticks = 0
        self._next = 0
        self._growth = None  # (graph, current cycle) of a growth in progress

    def _take(self):
        start = self.starts[self._next % len(self.starts)]
        self._next += 1
        return start

    def _step(self):
        ext = self.wl.pkg.extension
        g, cur = self._growth or self._take()
        while len(cur) >= ext.isolation_bound(g):  # a start already at the bound
            g, cur = self._take()
        move = ext.find_extension_fast(g, cur) or ext.find_extension_exhaustive(g, cur)
        cur = move.new_cycle
        self._growth = None if len(cur) >= ext.isolation_bound(g) else (g, cur)

    def tick(self):
        self._ticks += 1
        if self._ticks % self.wl.control_every == 0:
            self.unit()

    def unit(self):
        t0 = process_time()
        if self.per_start:
            self.wl.run(self._take())
        else:
            self._step()
        dt = process_time() - t0
        self.times.append(dt)
        self.total += dt

    def speeds(self, spans, unit_s):
        """Host speed around each (first, end) range of units: the mean unit
        time of at least ``WINDOW`` units around it over ``unit_s``."""
        n = len(self.times)
        prefix = [0.0]
        for t in self.times:
            prefix.append(prefix[-1] + t)
        out = []
        for a, b in spans:
            if b - a < WINDOW:
                a = max(0, min((a + b - WINDOW) // 2, n - WINDOW))
                b = min(n, a + WINDOW)
            out.append((prefix[b] - prefix[a]) / (b - a) / unit_s)
        return out


@contextmanager
def paced(wl, control):
    """Tick the control after every fast extension step of the code under
    test, inside its growths (``step`` workloads only)."""
    if control.per_start:
        yield
        return
    ext = wl.pkg.extension
    fast = ext.find_extension_fast

    def fast_then_control(*args, **kwargs):
        move = fast(*args, **kwargs)
        control.tick()
        return move

    ext.find_extension_fast = fast_then_control
    try:
        yield
    finally:
        ext.find_extension_fast = fast


class Runner:
    """Runs batches of one workload and keeps their outputs for checking."""

    def __init__(self, wl, starts):
        self.wl = wl
        self.starts = starts
        n = len(starts)
        self.batches = [list(range(j, n, wl.batches)) for j in range(min(wl.batches, n))]
        self.failures = []   # (start index, reason)
        self.attempted = 0
        self.problems = []   # run-level faults: digests, tracer balance
        self.start_hash = {}  # start index -> hash of its output

    def run_batch(self, j, spans=None, control=None):
        """Run batch j.  Append to ``spans`` each start's CPU time less the
        control's, and the range of control units that ran with it."""
        from workloads import StartFailed

        out = []
        for i in self.batches[j]:
            first = len(control.times) if control else 0
            c0 = control.total if control else 0.0
            t0 = process_time()
            try:
                res = self.wl.run(self.starts[i])
            except Exception as exc:  # a failed start is counted, not fatal
                res = StartFailed(exc)
            dt = process_time() - t0
            if control:
                dt -= control.total - c0
                if control.per_start:
                    control.tick()
            if spans is not None:
                spans.append((dt, first, len(control.times) if control else 0))
            out.append(res)
        return out

    def record(self, j, results):
        """Check one batch's outputs; return the batch digest."""
        from workloads import StartFailed

        hashes = []
        for i, res in zip(self.batches[j], results):
            self.attempted += 1
            if isinstance(res, StartFailed):
                reason, item = res.reason, "error:" + res.reason
            else:
                reason, item = self.wl.check(self.starts[i], res), self.wl.digest_item(res)
            if reason:
                self.failures.append((i, reason))
            h = _sha([item])
            hashes.append(h)
            self.start_hash.setdefault(i, h)
        return _sha(hashes)

    def pass_digest(self):
        return _sha(self.start_hash[i] for i in range(len(self.starts)))


def _setup(wl, seed):
    times = []
    for _ in range(SETUP_REPS):
        starts = None  # free the previous inputs before the next set-up
        gc.collect()
        t0 = perf_counter()
        starts = wl.setup(seed)
        times.append(perf_counter() - t0)
    return starts, times


def _layer_metrics(tracer, setup_tracer, wl, results, overhead_s, fail_rate):
    """The per-layer metrics of one traced replay, by name: (value, unit)."""
    s = tracer.stat
    out = {}

    def span(name):
        st = s(name)
        out[f"{name}.calls"] = (st.calls, "count")
        out[f"{name}.self_s"] = (st.self_ns / 1e9, "s")
        return st

    def ratio(a, b):
        return a / b if b else 0.0

    span("plane_graph.build_plane_graph")
    analyses = span("cycle_analysis.analyze_cycle").calls
    span("cycle_analysis.face_sides")
    span("cycle_analysis.check_cycle")
    st = span("tunnels.find_tunnels")
    out["tunnels.find_tunnels.per_analysis"] = (ratio(st.calls, analyses), "ratio")
    span("tunnels.transfer_registry")
    st = span("discharging.apply_discharging")
    out["discharging.apply_discharging.refused"] = (st.raised, "count")
    moves = [m for r in results for m in wl.moves(r)]
    st = span("extension.make_move")
    out["extension.make_move.kept_ratio"] = (ratio(len(moves), st.calls), "ratio")
    st = span("extension.find_extension_fast")
    out["extension.find_extension_fast.declined"] = (st.none, "count")
    span("extension.find_extension_exhaustive")
    span("extension.grow_to_bound")
    fallbacks = sum(wl.fallbacks(r) for r in results)
    out["extension.fallback_rate"] = (ratio(fallbacks, len(moves)), "ratio")
    for pattern in ("apex-insert", "window-reroute", "exhaustive"):
        n = sum(1 for m in moves if m.pattern == pattern)
        out[f"extension.moves.{pattern}"] = (n, "count")
    st = span("oracles.find_hamiltonian_path")
    out["oracles.find_hamiltonian_path.found_ratio"] = (
        ratio(st.calls - st.none, st.calls), "ratio")
    st = span("oracles.hamiltonian_cycles")
    out["oracles.hamiltonian_cycles.found_ratio"] = (ratio(st.yielded, st.calls), "ratio")
    for name in ("oracles.oracle_isolating_cycles", "generators.gen_insertion_family"):
        out[f"{name}.self_s"] = (setup_tracer.stat(name).self_ns / 1e9, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["fail_rate"] = (fail_rate, "ratio")
    return out


def _setup(live, frozen, seed):
    """Set up the control and the code under test in turn, starting and
    ending with the control: ``SETUP_REPS`` set-ups of the code under test,
    each between two of the control.  Return the last inputs of each, and
    per set-up of the code under test its time and the mean time of the two
    control set-ups around it."""
    control_starts, c = _cpu(frozen.control_setup)
    pairs = []
    for _ in range(SETUP_REPS):
        starts = control_starts = None  # free the previous inputs first
        starts, t = _cpu(lambda: live.setup(seed))
        control_starts, c_next = _cpu(frozen.control_setup)
        pairs.append((t, (c + c_next) / 2))
        c = c_next
    return starts, control_starts, pairs


def measure(name, seed, seconds, trace):
    import isocycle
    import isocycle_frozen
    from tracer import Tracer
    from workloads import bind

    wl = bind(isocycle)[name]
    frozen = bind(isocycle_frozen)[name]
    pins = json.loads(PINS.read_text()).get(name, {}) if seed == 0 else {}
    load_start = _loadavg()
    print(f"workload {name} seed {seed} seconds {seconds} trace {trace}")

    if trace:
        with Tracer() as setup_tracer:
            starts = wl.setup(seed)
        control_starts = frozen.control_setup()
        setup_pairs = []
    else:
        starts, control_starts, setup_pairs = _setup(wl, frozen, seed)
    runner = Runner(wl, starts)
    control = Control(frozen, control_starts)
    nb = len(runner.batches)

    # Whole batches until --seconds of batch time are measured.  Each batch
    # is checked and hashed between timings and its outputs dropped, so
    # memory does not grow with the length of the run.
    min_batches = wl.trace_batches if trace else 1
    spans, batch_times = [], []
    first_digest = {}
    with paced(wl, control):
        runner.run_batch(nb - 1, control=control)  # warm-up
        while len(batch_times) < min_batches or sum(batch_times) < seconds:
            j = len(batch_times) % nb
            gc.collect()
            t0 = perf_counter()
            results = runner.run_batch(j, spans, control)
            batch_times.append(perf_counter() - t0)
            d = runner.record(j, results)
            del results
            if j not in first_digest:
                first_digest[j] = d
                pinned = pins.get("batches")
                if pinned and pinned[j] != d:
                    runner.problems.append(
                        f"digest mismatch: {name} seed 0 batch {j}: got {d[:16]}, "
                        f"pinned {pinned[j][:16]}")
            elif d != first_digest[j]:
                runner.problems.append(f"{name} batch {j} repeated with another digest")

    if trace:
        # Each replayed batch also runs untraced just before and just after,
        # without the control, so the overhead compares like with like and
        # a steady drift in the host's speed cancels.
        tracer = Tracer()
        traced = []
        plain_cpu = traced_cpu = 0.0
        for j in range(wl.trace_batches):
            _, before = _cpu(lambda: runner.run_batch(j))
            gc.collect()
            t0 = process_time()
            with tracer:
                results = runner.run_batch(j)
            traced_cpu += process_time() - t0
            _, after = _cpu(lambda: runner.run_batch(j))
            plain_cpu += (before + after) / 2
            traced.extend(results)
            d = runner.record(j, results)
            if d != first_digest[j]:
                runner.problems.append(
                    f"digest mismatch: {name} batch {j} traced {d[:16]}, "
                    f"untraced {first_digest[j][:16]}")
        if tracer.self_time_balance_ns() != 0:
            runner.problems.append(
                f"span self times miss the root by {tracer.self_time_balance_ns()} ns")
        overhead_s = traced_cpu - plain_cpu

    failed = len(runner.failures)
    fail_rate = failed / runner.attempted
    layers = (_layer_metrics(tracer, setup_tracer, wl, traced, overhead_s, fail_rate)
              if trace else {})

    # Host speed: the control's mean unit time over its time when defined,
    # over the whole timed run and around each start.
    lat = [dt for dt, _, _ in spans]
    raw = sorted(lat)
    first_unit = spans[0][1]
    unit_times = control.times[first_unit:]
    speed = statistics.fmean(unit_times) / wl.control_unit_s
    if control.per_start:
        # Control units are starts like the timed ones.  The host slows
        # slow starts by less than fast ones, so each percentile is divided
        # by the control's own percentile rather than by one speed.
        ctl = sorted(unit_times)
        p50 = statistics.median(raw) / statistics.median(ctl) * wl.control_p50_s
        p99 = _p99(raw) / _p99(ctl) * wl.control_p99_s
    else:
        local = sorted(dt / s for dt, s in zip(lat, control.speeds(
            [(a, b) for _, a, b in spans], wl.control_unit_s)))
        p50, p99 = statistics.median(local), _p99(local)
    metrics = {
        "wall_s": (sum(lat) / speed / len(lat) * len(starts), "s"),
        "start_p50_ms": (p50 * 1e3, "ms"),
        "start_p99_ms": (p99 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_values = {
        "wall_s": sum(lat) / len(lat) * len(starts),
        "start_p50_ms": statistics.median(raw) * 1e3,
        "start_p99_ms": _p99(raw) * 1e3,
    }
    if setup_pairs:
        ratios = [a / b for a, b in setup_pairs]
        metrics["setup_s"] = (statistics.median(ratios) * wl.control_setup_s, "s")
        raw_values["setup_s"] = statistics.median(a for a, _ in setup_pairs)
        print("setup_s " + " ".join(f"{a:.3f}/{b:.3f}" for a, b in setup_pairs)
              + " (code under test / control)")

    print(f"env python {platform.python_version()} nproc {os.cpu_count()} "
          f"loadavg start [{load_start}] end [{_loadavg()}] "
          f"timed {sum(batch_times):.2f} s, of which code under test on CPU "
          f"{sum(lat):.2f} s, control {sum(unit_times):.2f} s")
    print(f"starts {len(starts)} per pass in {nb} batches; timed {len(lat)} starts "
          f"in {len(batch_times)} batches against {len(unit_times)} control "
          f"{'starts' if control.per_start else 'steps'}; "
          f"host speed {speed:.3f} (control unit {statistics.fmean(unit_times) * 1e3:.3f} ms, "
          f"{wl.control_unit_s * 1e3:.3f} ms when defined)"
          + (f"; traced {len(traced)} starts, set-up traced" if trace else ""))
    print("batch_s " + " ".join(f"{t:.3f}" for t in batch_times))
    notes = {
        "wall_s": f"per start times {len(starts)}",
        "start_p50_ms": f"{len(lat)} samples",
        "start_p99_ms": f"{len(lat)} samples, {len(lat) - _p99_rank(len(lat))} above",
    }
    print(f"  {'metric':<14} {'value':>12}     {'as timed':>12}")
    for key, (value, unit) in metrics.items():
        shown_raw = f"{raw_values[key]:12.4f}" if key in raw_values else " " * 12
        print(f"  {key:<14} {value:12.4f} {unit:<3} {shown_raw} {notes.get(key, '')}")
    print(f"  {'fail_rate':<14} {fail_rate:12.4f}     {failed}/{runner.attempted} starts")
    for key, (value, unit) in layers.items():
        print(f"  {key:<48} {value:14.6g} {unit}")
    for i, reason in runner.failures[:SHOW_FAILURES]:
        print(f"FAIL {name} start {i}: {reason}")
    for problem in runner.problems:
        print(f"PROBLEM {problem}")

    shown = layers if trace else metrics
    return {
        "correct": not runner.failures and not runner.problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }

# counts the seed-0 passes must reproduce
EXPECTED = {
    "tight14": {"starts": 6580, "moves": 16056, "apex-insert": 14293,
                "window-reroute": 1763, "exhaustive": 0, "fallbacks": 0},
    "dwheel": {"starts": 1, "moves": 68, "apex-insert": 68, "fallbacks": 0},
    "dwheel-392": {"starts": 1, "moves": 132, "apex-insert": 132, "fallbacks": 0},
    "corpus": {"starts": 10300, "moves": 20600, "added_one": 20600},
}


def selftest(pin):
    """Full seed-0 passes: pinned digests, counts, traced replay, span balance."""
    import isocycle
    from tracer import Tracer
    from workloads import DoubleWheel, bind

    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    suites = list(bind(isocycle).values()) + [DoubleWheel(isocycle, "dwheel-392", (130,))]
    ok = True
    new_pins = {}
    for wl in suites:
        t0 = perf_counter()
        starts = wl.setup(0)
        runner = Runner(wl, starts)
        batch_digests, all_results = [], []
        for j in range(len(runner.batches)):
            results = runner.run_batch(j)
            batch_digests.append(runner.record(j, results))
            all_results.extend(results)
        moves = [m for r in all_results for m in wl.moves(r)]
        counts = {
            "starts": len(starts),
            "moves": len(moves),
            "fallbacks": sum(wl.fallbacks(r) for r in all_results),
            "added_one": sum(1 for m in moves if len(m.added) == 1),
        }
        for m in moves:
            counts[m.pattern] = counts.get(m.pattern, 0) + 1
        entry = {"pass": runner.pass_digest(), "batches": batch_digests}
        new_pins[wl.name] = entry

        checks = [(f"{len(runner.failures)} failed starts", not runner.failures)]
        for key, want in EXPECTED[wl.name].items():
            checks.append((f"{key} {counts.get(key, 0)} (want {want})",
                           counts.get(key, 0) == want))
        if not pin:
            pinned = pins.get(wl.name, {})
            checks.append(("pass digest matches the pin", pinned.get("pass") == entry["pass"]))
            checks.append(("batch digests match the pins",
                           pinned.get("batches") == entry["batches"]))
        tracer = Tracer()
        with tracer:
            traced = runner.run_batch(0)
        checks.append(("traced batch 0 digest equals untraced",
                       runner.record(0, traced) == batch_digests[0]))
        checks.append(("span self times add up to the root",
                       tracer.self_time_balance_ns() == 0))
        for label, good in checks:
            print(f"{'PASS' if good else 'FAIL'} {wl.name}: {label}")
            ok = ok and good
        for i, reason in runner.failures[:SHOW_FAILURES]:
            print(f"FAIL {wl.name} start {i}: {reason}")
        print(f"{wl.name}: pass digest {entry['pass'][:16]}, {perf_counter() - t0:.1f}s")
    if pin:
        PINS.write_text(json.dumps(new_pins, indent=1) + "\n")
        print(f"wrote {PINS.name}")
    return ok


def run_all(args):
    """Each workload in its own process, so peak memory stays per workload."""
    from workloads import NAMES

    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"{name} exited with code {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return results


def main():
    from workloads import NAMES

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(NAMES) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run full seed-0 passes and check them against pins.json")
    ap.add_argument("--pin", action="store_true",
                    help="with --selftest: rewrite pins.json from this run")
    args = ap.parse_args()
    if args.selftest:
        return 0 if selftest(args.pin) else 1
    if args.workload == "all":
        result = run_all(args)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _import_packages()
    sys.exit(main())
