"""Isolating-cycle machinery for 3-connected plane graphs.

A cycle C in a plane graph is isolating when the vertices outside C form an
independent set.  This package builds combinatorial embeddings from rotation
systems, analyzes the face structure around an isolating cycle (sides, pruned
graph, minor/major and thin/thick faces, arches, extension trees), runs the
tunnel and transfer-pair machinery, audits the discharging argument, and
extends short isolating cycles step by step up to the guaranteed length bound
with brute-force oracles as ground truth.

The package root exports the entry points listed in ``__all__``: building
and loading graphs, analysis, audit, extension and growth, the oracles and
generators the command line uses, and every exception.  Every other name
is imported from its submodule, e.g. ``isocycle.tunnels.on_track``.
"""

__version__ = "0.1.0"

from .errors import (
    BaseNotFourConnected,
    ContractViolation,
    CycleTooShort,
    DegenerateSide,
    ExtensionNotFound,
    InconsistentRotation,
    InvalidMove,
    IsocycleError,
    MinorOneFacePresent,
    NonPlanarEmbedding,
    NotCycle,
    NotIsolating,
    NotSimple,
    ParseError,
    SizeTooSmall,
    TooLarge,
    UnknownName,
)
from .plane_graph import (
    PlaneGraph,
    build_plane_graph,
    check_cycle,
    graph_from_faces,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
    is_isolating,
    is_three_connected,
    load_graph,
    save_graph,
)
from .cycle_analysis import CycleAnalysis, analyze_cycle, check_tree_lemma
from .discharging import WeightLedger, apply_discharging
from .extension import (
    GrowthTrace,
    Move,
    find_extension_exhaustive,
    find_extension_fast,
    grow_to_bound,
    isolation_bound,
)
from .oracles import oracle_circumference, oracle_isolating_cycles
from .generators import (
    gen_insertion_family,
    gen_random_triangulation,
    named_graph,
    octahedron,
)

__all__ = [
    "BaseNotFourConnected",
    "ContractViolation",
    "CycleAnalysis",
    "CycleTooShort",
    "DegenerateSide",
    "ExtensionNotFound",
    "GrowthTrace",
    "InconsistentRotation",
    "InvalidMove",
    "IsocycleError",
    "MinorOneFacePresent",
    "Move",
    "NonPlanarEmbedding",
    "NotCycle",
    "NotIsolating",
    "NotSimple",
    "ParseError",
    "PlaneGraph",
    "SizeTooSmall",
    "TooLarge",
    "UnknownName",
    "WeightLedger",
    "analyze_cycle",
    "apply_discharging",
    "build_plane_graph",
    "check_cycle",
    "check_tree_lemma",
    "find_extension_exhaustive",
    "find_extension_fast",
    "gen_insertion_family",
    "gen_random_triangulation",
    "graph_from_faces",
    "graph_from_json_dict",
    "graph_to_dot",
    "graph_to_json_dict",
    "grow_to_bound",
    "is_isolating",
    "is_three_connected",
    "isolation_bound",
    "load_graph",
    "named_graph",
    "octahedron",
    "oracle_circumference",
    "oracle_isolating_cycles",
    "save_graph",
]
