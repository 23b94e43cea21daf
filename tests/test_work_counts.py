"""Pinned work counts of the cold seed-0 tight14 and corpus passes
(``tools/work_counts.py``).

A change that alters the engine's work re-pins these rows and records
old -> new.
"""

import importlib.util
from pathlib import Path

import isocycle

ROOT = Path(__file__).resolve().parent.parent

# (label, calls, returned None, raised)
SEED0_ROWS = [
    ("extension._reroute", 364, 0, 0),
    ("cycle_analysis.analyze_cycle", 364, 0, 0),
    ("discharging.apply_discharging", 122, 0, 0),
    ("extension._window", 805, 0, 0),
    ("oracles.find_hamiltonian_path", 1539, 1156, 0),
    ("oracles.hamiltonian_cycles", 0, 0, 0),
    ("oracles._flood", 9581, 0, 0),
]
# the corpus's fast steps are all apex inserts, and each exhaustive step
# finds a cycle on the first vertex set it tries
CORPUS_SEED0_ROWS = [
    ("extension._reroute", 0, 0, 0),
    ("cycle_analysis.analyze_cycle", 0, 0, 0),
    ("discharging.apply_discharging", 0, 0, 0),
    ("extension._window", 0, 0, 0),
    ("oracles.find_hamiltonian_path", 0, 0, 0),
    ("oracles.hamiltonian_cycles", 10300, 0, 0),
    ("oracles._flood", 55391, 0, 0),
]


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cold_tight14_pass_counts_at_seed_0():
    tool = _load(ROOT / "tools" / "work_counts.py")
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    assert tool.count_rows(isocycle, workloads, "tight14", 0) == SEED0_ROWS


def test_cold_corpus_pass_counts_at_seed_0():
    tool = _load(ROOT / "tools" / "work_counts.py")
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    assert tool.count_rows(isocycle, workloads, "corpus", 0) == CORPUS_SEED0_ROWS
