"""Golden growth traces: refactors must leave every step byte-identical.

Each growth test grows a fixed set of start cycles and hashes the JSON form
of every ``GrowthTrace.summary()``.  The digests were recorded from the
engine before it was restructured; a changed digest means some move,
tie-break or fallback count changed.  The pattern counts are pinned
alongside so that a failure says roughly where the traces diverged.  The
audit tests do the same for the cycle analysis and the discharging ledger,
on the oracle's canonical cycles and on every rotation and direction of a
sample of them.
"""

import hashlib
import json
import random
from collections import Counter

import isocycle as ic
from conftest import short_isolating_cycles, tight14_slice
from isocycle.errors import IsocycleError
from isocycle.generators import base_hamiltonian_cycle, double_wheel

PINNED_TIGHT14_PATTERNS = {"apex-insert": 1403, "window-reroute": 204}
PINNED_TIGHT14 = "1eeef73bbc9a03b9a5c1254fa6c02d55ba0111d73d4c0e8b01f19e96eb7fb277"
PINNED_CORPUS_SAMPLE_PATTERNS = {"apex-insert": 456}
PINNED_CORPUS_SAMPLE = "f36cc11e462e1b2a68b67d2429648146bc5c2502e6171c4c44afcb17dcdf7fe0"
PINNED_DWHEEL_200 = "16a6b84b8baf8b2cde257bda85d2f3a4bae682a3b5e2bd664410fe9a6239bafc"
PINNED_DWHEEL_392 = "c6f8cd7c9c329e599d9699d817b7975194a54b47ef7feb8bc7fb25786d40f6c7"
PINNED_DWHEEL_998 = "bc50554d00fd635addaf407399e462005a73e1c675d7fa5456b3690d18ece167"
PINNED_AUDIT = "a609450fd93b9714793334164ca04981c9a2557e7748fa0c07a57812971387c2"
PINNED_AUDIT_ROTATIONS = "133d7f440abe9b0f3787e98d3894e363c78c537dc73b733faeee4627ea38a6a7"


def trace_digest(g, starts):
    h = hashlib.sha256()
    patterns = Counter()
    for cycle in starts:
        trace = ic.grow_to_bound(g, cycle)
        h.update(json.dumps(trace.summary(), sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
        patterns.update(step.pattern for step in trace.splices)
    return h.hexdigest(), patterns


def test_tight14_every_tenth_start():
    g = ic.gen_insertion_family(ic.octahedron())
    starts = ic.oracle_isolating_cycles(g)[::10]
    assert len(starts) == 658
    digest, patterns = trace_digest(g, starts)
    assert patterns == PINNED_TIGHT14_PATTERNS
    assert digest == PINNED_TIGHT14


def test_tight14_reroute_memo_keeps_every_trace():
    # the fast tier memoises its reroute searches on the graph; growing the
    # golden slice on one shared graph, in a seeded shuffled order, must give
    # each start the trace it gets on a graph of its own
    g, starts = tight14_slice()
    order = list(range(len(starts)))
    random.Random(1).shuffle(order)
    shared = {i: ic.grow_to_bound(g, starts[i]).summary() for i in order}
    assert len(g._reroutes) == 156
    for i, start in enumerate(starts):
        fresh = ic.gen_insertion_family(ic.octahedron())
        assert ic.grow_to_bound(fresh, start).summary() == shared[i]


def test_double_wheel_200_from_base_cycle():
    g = ic.gen_insertion_family(double_wheel(66))
    assert g.n == 200
    digest, patterns = trace_digest(g, [base_hamiltonian_cycle(66)])
    assert patterns == {"apex-insert": 68}
    assert digest == PINNED_DWHEEL_200


def test_double_wheel_392_from_base_cycle():
    g = ic.gen_insertion_family(double_wheel(130))
    assert g.n == 392
    digest, patterns = trace_digest(g, [base_hamiltonian_cycle(130)])
    assert patterns == {"apex-insert": 132}
    assert digest == PINNED_DWHEEL_392


def test_double_wheel_998_from_base_cycle():
    g = ic.gen_insertion_family(double_wheel(332))
    assert g.n == 998
    digest, patterns = trace_digest(g, [base_hamiltonian_cycle(332)])
    assert patterns == {"apex-insert": 334}
    assert digest == PINNED_DWHEEL_998


def test_corpus_sample_short_cycles(sweep_sample):
    # up to four short isolating cycles on each of the 23 sampled instances
    h = hashlib.sha256()
    patterns = {}
    for g in sweep_sample:
        digest, counts = trace_digest(g, short_isolating_cycles(g, cap=4))
        h.update(digest.encode())
        for pattern, k in counts.items():
            patterns[pattern] = patterns.get(pattern, 0) + k
    assert patterns == PINNED_CORPUS_SAMPLE_PATTERNS
    assert h.hexdigest() == PINNED_CORPUS_SAMPLE


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str).encode()


def audit_digest(cases):
    """The digest of each case's analysis report, ledger summary and every
    (face, edge)'s conditions, or the name of the error where the analysis
    or the audit refuses the cycle; with the ledger, chord-arch and C7-pull
    counts."""
    h = hashlib.sha256()
    ledgers = chord_arches = c7_pulls = 0
    for g, cycle in cases:
        try:
            analysis = ic.analyze_cycle(g, cycle)
            h.update(_dumps(analysis.summary()))
            chord_arches += sum(a.kind == "chord" for a in analysis.all_arches())
            ledger = ic.apply_discharging(analysis)
        except IsocycleError as exc:
            h.update(type(exc).__name__.encode() + b"\n")
            continue
        h.update(_dumps(ledger.summary()))
        h.update(_dumps(sorted(ledger.conditions_at.items())))
        h.update(b"\n")
        ledgers += 1
        c7_pulls += sum(p.condition == "C7" for p in ledger.pulls)
    return h.hexdigest(), (ledgers, chord_arches, c7_pulls)


def test_audit_every_tenth_tight14_and_corpus_sample(sweep_sample):
    g14 = ic.gen_insertion_family(ic.octahedron())
    cases = [(g14, c) for c in ic.oracle_isolating_cycles(g14)[::10]]
    for g in sweep_sample:
        cases += [(g, c) for c in short_isolating_cycles(g, cap=4)]
    assert len(cases) == 750
    digest, counts = audit_digest(cases)
    assert counts == (43, 3077, 96)
    assert digest == PINNED_AUDIT


def test_audit_every_rotation_and_direction(sweep_sample):
    # the oracle lists each cycle once, in its canonical form, but a reroute
    # step analyses its cycle wherever growth left the head and whichever
    # way it runs; every rotation of both directions of a sample must keep
    # its report
    g14 = ic.gen_insertion_family(ic.octahedron())
    sample = [(g14, c) for c in ic.oracle_isolating_cycles(g14)[::100]]
    corpus = [(g, c) for g in sweep_sample for c in short_isolating_cycles(g, cap=4)]
    sample += corpus[::40]
    assert len(sample) == 69
    cases = [
        (g, run[i:] + run[:i])
        for g, cycle in sample
        for run in (cycle, cycle[::-1])
        for i in range(len(run))
    ]
    assert len(cases) == 1318
    digest, counts = audit_digest(cases)
    assert counts == (92, 6184, 176)
    assert digest == PINNED_AUDIT_ROTATIONS
