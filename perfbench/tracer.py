"""Spans around the public functions of the isocycle layers.

The tracer replaces each public function of the traced modules at every
place a caller looks it up: the module that defines it and every other
isocycle module that imported it by name (``extension.find_tunnels`` and
``discharging.find_tunnels`` both become the ``tunnels.find_tunnels``
span).  Package code is never edited; the original bindings come back when
the ``with`` block ends.

Spans are aggregated per name as they close: call count, self time (the
span's duration minus the time covered by its child spans), how many calls
raised, how many returned None, and, for generator functions, how many
calls yielded at least once.  A generator is timed over its iteration: each
resumption is one segment of the same span, so the consumer's work between
two items is not charged to it.  Times are integer nanoseconds, so self
times of all spans plus the root's own self time equal the root span
exactly.
"""

import importlib
import inspect
import sys
from time import perf_counter_ns

PACKAGE = "isocycle"
LAYERS = (
    "plane_graph",
    "cycle_analysis",
    "tunnels",
    "discharging",
    "extension",
    "oracles",
    "generators",
)


class SpanStats:
    __slots__ = ("calls", "self_ns", "raised", "none", "yielded")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.raised = 0
        self.none = 0
        self.yielded = 0


def public_functions():
    """(span name, function) for every traced function."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
            ):
                out.append((f"{layer}.{name}", obj))
    return out


class Tracer:
    """Context manager that records spans while it is active."""

    def __init__(self):
        self.stats = {}
        self.root_ns = 0
        self.root_self_ns = 0
        self._stack = []
        self._patched = []

    def stat(self, name):
        return self.stats.get(name) or SpanStats()

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack

        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                stats.calls += 1
                gen = fn(*args, **kwargs)
                got_any = False
                try:
                    while True:
                        frame = [0]
                        stack.append(frame)
                        t0 = perf_counter_ns()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            dur = perf_counter_ns() - t0
                            stack.pop()
                            stats.self_ns += dur - frame[0]
                            stack[-1][0] += dur
                        if not got_any:
                            got_any = True
                            stats.yielded += 1
                        yield item
                finally:
                    gen.close()

            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.raised += 1
                raise
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                stats.calls += 1
                stats.self_ns += dur - frame[0]
                stack[-1][0] += dur
            if result is None:
                stats.none += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in public_functions()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, obj))
        self._stack.append([0])
        self._t0 = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        dur = perf_counter_ns() - self._t0
        root = self._stack.pop()
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()
        self.root_ns += dur
        self.root_self_ns += dur - root[0]
        return False

    def self_time_balance_ns(self):
        """Root duration minus the sum of all self times; 0 when consistent."""
        total = sum(s.self_ns for s in self.stats.values())
        return self.root_ns - (total + self.root_self_ns)
