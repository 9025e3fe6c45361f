"""limpack: k-limited packings and tuple domination in graphs.

Exact branch-and-bound solvers, a constructive algorithm guaranteeing a
2-limited set of at least a third of the vertices on graphs of maximum
degree 3, randomized sample-and-repair and resampling constructors,
closed-form bound sheets, certificate verifiers, and generators for the
relevant graph families (cycles, H6, Petersen, random regular, and
projective orthogonality graphs over finite fields).
"""

from .bounds import BoundSheet, bound_sheet
from .cubic import (
    ConfigurationA,
    ReductionStep,
    ReductionTrace,
    brooks_three_coloring,
    construct_two_limited,
)
from .errors import (
    GraphInputError,
    InfeasibleError,
    InternalError,
    LimpackError,
    PreconditionError,
    ResourceLimitError,
)
from .generators import (
    GaloisField,
    gen_cycle,
    gen_named,
    gen_projective,
    gen_random_regular,
    projective_points,
)
from .graph import (
    DegreeStats,
    Graph,
    TypedMultigraph,
    connected_components,
    degree_stats,
    disjoint_union,
    parse_graph,
    parse_packing,
    serialize_graph,
    serialize_packing,
)
from .greedy import greedy_packing
from .randomized import (
    LLLParameters,
    RandomRunReport,
    auto_sample_rate,
    lll_parameters,
    lll_resample,
    sample_and_repair,
)
from .solver import (
    SolveResult,
    enumerate_oracle,
    max_k_limited,
    max_typed_two_limited,
    min_tuple_dominating,
)
from .verify import (
    CEdgeViolation,
    Packing,
    VerificationReport,
    VertexViolation,
    dual_complement,
    verify_k_limited,
    verify_tuple_dominating,
    verify_typed_two_limited,
)

__version__ = "0.1.0"

__all__ = [
    "BoundSheet",
    "bound_sheet",
    "ConfigurationA",
    "ReductionStep",
    "ReductionTrace",
    "brooks_three_coloring",
    "construct_two_limited",
    "GraphInputError",
    "InfeasibleError",
    "InternalError",
    "LimpackError",
    "PreconditionError",
    "ResourceLimitError",
    "GaloisField",
    "gen_cycle",
    "gen_named",
    "gen_projective",
    "gen_random_regular",
    "projective_points",
    "DegreeStats",
    "Graph",
    "TypedMultigraph",
    "connected_components",
    "degree_stats",
    "disjoint_union",
    "parse_graph",
    "parse_packing",
    "serialize_graph",
    "serialize_packing",
    "greedy_packing",
    "LLLParameters",
    "RandomRunReport",
    "auto_sample_rate",
    "lll_parameters",
    "lll_resample",
    "sample_and_repair",
    "SolveResult",
    "enumerate_oracle",
    "max_k_limited",
    "max_typed_two_limited",
    "min_tuple_dominating",
    "dual_complement",
    "verify_k_limited",
    "verify_tuple_dominating",
    "verify_typed_two_limited",
    "Packing",
    "VerificationReport",
    "VertexViolation",
    "CEdgeViolation",
]
