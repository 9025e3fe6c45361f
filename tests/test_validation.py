"""Every argument check raises its documented type with its exact message.

One row per raise site: a name, the call, the exception type and the
message.  The k and l checks, the vertex checks, the vertex limit and
the resampler parameter checks are each written once in the package, so
these rows pin what every caller reports.
"""

import pytest

from limpack import (
    GaloisField,
    Graph,
    GraphInputError,
    InfeasibleError,
    PreconditionError,
    ResourceLimitError,
    TypedMultigraph,
    auto_sample_rate,
    bound_sheet,
    disjoint_union,
    dual_complement,
    enumerate_oracle,
    gen_cycle,
    gen_named,
    gen_projective,
    gen_random_regular,
    greedy_packing,
    lll_parameters,
    lll_resample,
    max_k_limited,
    max_typed_two_limited,
    min_tuple_dominating,
    parse_graph,
    parse_packing,
    projective_points,
    sample_and_repair,
    verify_k_limited,
    verify_tuple_dominating,
    verify_typed_two_limited,
)

C5 = gen_cycle(5)
EMPTY = Graph.from_edges(0, [])
STAR = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])

CASES = [
    # k and l must be positive
    ("bound_sheet-k", lambda: bound_sheet(10, 3, 3, 0), GraphInputError, "k must be positive, got 0"),
    ("greedy-k", lambda: greedy_packing(C5, 0), GraphInputError, "k must be positive, got 0"),
    ("lll_parameters-k", lambda: lll_parameters(3, 0), GraphInputError, "k must be positive, got 0"),
    ("auto_rate-k", lambda: auto_sample_rate(3, -1), GraphInputError, "k must be positive, got -1"),
    ("sample_repair-k", lambda: sample_and_repair(C5, 0), GraphInputError, "k must be positive, got 0"),
    ("lll_resample-k", lambda: lll_resample(C5, 0), GraphInputError, "k must be positive, got 0"),
    ("max_k_limited-k", lambda: max_k_limited(C5, 0), GraphInputError, "k must be positive, got 0"),
    ("min_tuple-l", lambda: min_tuple_dominating(C5, 0), GraphInputError, "l must be positive, got 0"),
    ("verify_k-k", lambda: verify_k_limited(C5, [], -2), GraphInputError, "k must be positive, got -2"),
    ("verify_tuple-l", lambda: verify_tuple_dominating(C5, [], 0), GraphInputError, "l must be positive, got 0"),
    # k and l must be ints, not floats or bools
    ("greedy-float-k", lambda: greedy_packing(C5, 1.5), GraphInputError, "k must be an int, got 1.5"),
    ("max_k_limited-float-k", lambda: max_k_limited(C5, 1.5), GraphInputError,
     "k must be an int, got 1.5"),
    ("min_tuple-float-l", lambda: min_tuple_dominating(C5, 1.5), GraphInputError,
     "l must be an int, got 1.5"),
    ("sample_repair-float-k", lambda: sample_and_repair(C5, 1.5), GraphInputError,
     "k must be an int, got 1.5"),
    ("lll_resample-bool-k", lambda: lll_resample(C5, True), GraphInputError,
     "k must be an int, got True"),
    ("verify_k-float-k", lambda: verify_k_limited(C5, [], 2.0), GraphInputError,
     "k must be an int, got 2.0"),
    ("verify_tuple-bool-l", lambda: verify_tuple_dominating(C5, [], True), GraphInputError,
     "l must be an int, got True"),
    ("bound_sheet-str-k", lambda: bound_sheet(10, 3, 3, "2"), GraphInputError,
     "k must be an int, got '2'"),
    ("auto_rate-float-k", lambda: auto_sample_rate(3, 1.0), GraphInputError,
     "k must be an int, got 1.0"),
    ("lll_parameters-float-k", lambda: lll_parameters(3, 2.5), GraphInputError,
     "k must be an int, got 2.5"),
    # vertex counts, degrees and field orders must be ints too
    ("from_edges-bool-n", lambda: Graph.from_edges(True, []), GraphInputError,
     "n must be an int, got True"),
    ("from_edges-float-n", lambda: Graph.from_edges(3.0, []), GraphInputError,
     "n must be an int, got 3.0"),
    ("typed-float-n", lambda: TypedMultigraph.from_edges(2.5, []), GraphInputError,
     "n must be an int, got 2.5"),
    ("cycle-float-n", lambda: gen_cycle(5.0), GraphInputError, "n must be an int, got 5.0"),
    ("regular-float-n", lambda: gen_random_regular(10.0, 3, 1), GraphInputError,
     "n must be an int, got 10.0"),
    ("regular-float-r", lambda: gen_random_regular(10, 3.0, 1), GraphInputError,
     "r must be an int, got 3.0"),
    ("regular-bool-r", lambda: gen_random_regular(4, True, 0), GraphInputError,
     "r must be an int, got True"),
    ("projective-float-q", lambda: gen_projective(3.0, 1), GraphInputError,
     "q must be an int, got 3.0"),
    ("projective-float-k", lambda: gen_projective(3, 1.5), GraphInputError,
     "k must be an int, got 1.5"),
    ("projective-bool-k", lambda: gen_projective(2, True), GraphInputError,
     "k must be an int, got True"),
    ("points-bool-q", lambda: projective_points(True, 1), GraphInputError,
     "q must be an int, got True"),
    ("oracle-float-k", lambda: enumerate_oracle(C5, 1.5), GraphInputError,
     "k must be an int, got 1.5"),
    ("oracle-bool-k", lambda: enumerate_oracle(C5, True), GraphInputError,
     "k must be an int, got True"),
    ("oracle-float-l", lambda: enumerate_oracle(C5, l=2.5), GraphInputError,
     "l must be an int, got 2.5"),
    ("dual-float-k", lambda: dual_complement(C5, [], 1.5), GraphInputError,
     "k must be an int, got 1.5"),
    ("dual-bool-k", lambda: dual_complement(C5, [], True), GraphInputError,
     "k must be an int, got True"),
    ("lll_resample-bool-rounds", lambda: lll_resample(C5, 1, max_rounds=True), GraphInputError,
     "max_rounds must be an int, got True"),
    ("bound_sheet-bool-n", lambda: bound_sheet(True, 3, 3, 2), GraphInputError,
     "n must be an int, got True"),
    ("bound_sheet-float-n", lambda: bound_sheet(10.5, 3, 3, 2), GraphInputError,
     "n must be an int, got 10.5"),
    ("bound_sheet-float-max-degree", lambda: bound_sheet(10, 3.5, 3, 2), GraphInputError,
     "max_degree must be an int, got 3.5"),
    ("bound_sheet-float-min-degree", lambda: bound_sheet(10, 3, 2.5, 2), GraphInputError,
     "min_degree must be an int, got 2.5"),
    ("lll_parameters-float-degree", lambda: lll_parameters(10.5, 2), GraphInputError,
     "max_degree must be an int, got 10.5"),
    ("auto_rate-float-degree", lambda: auto_sample_rate(10.5, 2), GraphInputError,
     "max_degree must be an int, got 10.5"),
    ("auto_rate-bool-degree", lambda: auto_sample_rate(True, 1), GraphInputError,
     "max_degree must be an int, got True"),
    # seeds must be ints: None would draw from OS entropy
    ("sample_repair-none-seed", lambda: sample_and_repair(C5, 1, seed=None), GraphInputError,
     "seed must be an int, got None"),
    ("sample_repair-float-seed", lambda: sample_and_repair(C5, 1, seed=1.5), GraphInputError,
     "seed must be an int, got 1.5"),
    ("lll_resample-none-seed", lambda: lll_resample(C5, 1, seed=None), GraphInputError,
     "seed must be an int, got None"),
    ("regular-none-seed", lambda: gen_random_regular(10, 3, None), GraphInputError,
     "seed must be an int, got None"),
    ("regular-float-seed", lambda: gen_random_regular(10, 3, 1.5), GraphInputError,
     "seed must be an int, got 1.5"),
    # rates and average degrees must be numbers, not bools or strings
    ("sample_repair-bool-p", lambda: sample_and_repair(C5, 1, p=True), GraphInputError,
     "p must be a number, got True"),
    ("sample_repair-str-p", lambda: sample_and_repair(C5, 1, p="0.5"), GraphInputError,
     "p must be a number, got '0.5'"),
    ("lll_resample-bool-p", lambda: lll_resample(C5, 1, p=True), GraphInputError,
     "p must be a number, got True"),
    ("lll_resample-str-p", lambda: lll_resample(C5, 1, p="0.5"), GraphInputError,
     "p must be a number, got '0.5'"),
    ("bound_sheet-str-avg", lambda: bound_sheet(10, 3, 3, 2, avg_degree="3"), GraphInputError,
     "avg_degree must be a number, got '3'"),
    ("bound_sheet-bool-avg", lambda: bound_sheet(10, 3, 3, 2, avg_degree=True), GraphInputError,
     "avg_degree must be a number, got True"),
    # an average degree lies between the minimum and the maximum degree
    ("bound_sheet-negative-avg", lambda: bound_sheet(10, 3, 3, 2, avg_degree=-1), GraphInputError,
     "avg_degree must lie in [3, 3], got -1"),
    ("bound_sheet-negative-float-avg", lambda: bound_sheet(10, 3, 3, 2, avg_degree=-5.0),
     GraphInputError, "avg_degree must lie in [3, 3], got -5.0"),
    ("bound_sheet-huge-avg", lambda: bound_sheet(10, 3, 3, 2, avg_degree=10**400),
     GraphInputError,
     "avg_degree must lie in [3, 3], got over 2^1328"),
    ("bound_sheet-nan-avg", lambda: bound_sheet(10, 3, 3, 2, avg_degree=float("nan")),
     GraphInputError, "avg_degree must lie in [3, 3], got nan"),
    ("bound_sheet-inf-avg", lambda: bound_sheet(10, 3, 3, 2, avg_degree=float("inf")),
     GraphInputError, "avg_degree must lie in [3, 3], got inf"),
    ("bound_sheet-avg-above-max", lambda: bound_sheet(10, 3, 2, 2, avg_degree=4),
     GraphInputError, "avg_degree must lie in [2, 3], got 4"),
    # every number the bound sheet turns into a float must fit one
    ("bound_sheet-nk", lambda: bound_sheet(10**300, 3, 3, 10**9), GraphInputError,
     "n*k and max_degree must be at most 1.7976931348623157e+308"),
    ("bound_sheet-degree", lambda: bound_sheet(1, 10**309, 3, 1), GraphInputError,
     "n*k and max_degree must be at most 1.7976931348623157e+308"),
    # the other resampler parameters
    ("lll_resample-rounds", lambda: lll_resample(C5, 1, max_rounds=0), GraphInputError,
     "max_rounds must be positive, got 0"),
    ("lll_resample-p0", lambda: lll_resample(C5, 1, p=0.0),
     GraphInputError, "p must lie in [5e-324, 1], got 0.0"),
    ("lll_resample-p>1", lambda: lll_resample(C5, 1, p=1.5),
     GraphInputError, "p must lie in [5e-324, 1], got 1.5"),
    ("lll_parameters-degree", lambda: lll_parameters(1, 1), GraphInputError,
     "max_degree must be at least 2, got 1"),
    # products and degrees beyond the float range
    ("lll_parameters-huge-degree", lambda: lll_parameters(10**309, 1), GraphInputError,
     "k*max_degree must be at most 1.7976931348623157e+308"),
    ("lll_parameters-huge-product", lambda: lll_parameters(10**200, 10**200), GraphInputError,
     "k*max_degree must be at most 1.7976931348623157e+308"),
    ("auto_rate-huge-degree", lambda: auto_sample_rate(10**309, 2), GraphInputError,
     "max_degree must lie in [0, 1.7976931348623157e+308], got over 2^1026"),
    ("sample_repair-p", lambda: sample_and_repair(C5, 1, p=1.5), GraphInputError,
     "p must lie in [0, 1], got 1.5"),
    # rates and degrees are range-checked before any float is formed or any
    # early return is taken
    ("sample_repair-huge-p", lambda: sample_and_repair(C5, 2, p=10**400), GraphInputError,
     "p must lie in [0, 1], got over 2^1328"),
    ("sample_repair-huge-negative-p", lambda: sample_and_repair(C5, 2, p=-10**400),
     GraphInputError, "p must lie in [0, 1], got under -2^1328"),
    ("auto_rate-negative-degree", lambda: auto_sample_rate(-1, 2), GraphInputError,
     "max_degree must lie in [0, 1.7976931348623157e+308], got -1"),
    ("auto_rate-huge-negative-degree", lambda: auto_sample_rate(-10**400, 2), GraphInputError,
     "max_degree must lie in [0, 1.7976931348623157e+308], got under -2^1328"),
    # an int too long to write out goes by its bit length
    ("bound_sheet-huge-min-degree", lambda: bound_sheet(10, 3, 10**400, 2), GraphInputError,
     "need max_degree >= min_degree >= 0, got 3, over 2^1328"),
    ("bound_sheet-huge-negative-n", lambda: bound_sheet(-10**400, 3, 3, 2), GraphInputError,
     "n must be nonnegative, got under -2^1328"),
    # members of a vertex set
    ("verify-range", lambda: verify_k_limited(C5, [5], 1), GraphInputError,
     "vertex 5 out of range for graph with 5 vertices"),
    ("verify-negative", lambda: verify_tuple_dominating(C5, [-1], 1), GraphInputError,
     "vertex -1 out of range for graph with 5 vertices"),
    ("verify-type", lambda: verify_typed_two_limited(TypedMultigraph.from_graph(C5), [1.5]),
     GraphInputError, "vertex 1.5 is not an int"),
    ("dual-type", lambda: dual_complement(C5, [True], 1), GraphInputError,
     "vertex True is not an int"),
    ("from_edges-range", lambda: Graph.from_edges(2, [(0, 2)]), GraphInputError,
     "vertex 2 out of range for graph with 2 vertices"),
    ("from_edges-type", lambda: Graph.from_edges(2, [("0", 1)]), GraphInputError,
     "vertex '0' is not an int"),
    ("from_edges-limit", lambda: Graph.from_edges(10**7 + 1, []), ResourceLimitError,
     "graph has 10000001 vertices (limit 10000000)"),
    # the graph file format and the packing file format
    ("parse-header-tokens", lambda: parse_graph("3\n"), GraphInputError,
     "line 1: expected header 'n m'"),
    ("parse-header-int", lambda: parse_graph("# c\n3 x\n"), GraphInputError,
     "line 2: expected header 'n m'"),
    ("parse-header-negative", lambda: parse_graph("-1 0\n"), GraphInputError,
     "line 1: header values must be nonnegative"),
    ("parse-extra-edge", lambda: parse_graph("3 1\n0 1\n1 2\n"), GraphInputError,
     "line 3: more than 1 edge lines"),
    ("parse-tokens", lambda: parse_graph("3 1\n0 1 c d\n"), GraphInputError,
     "line 2: expected 'u v' or 'u v c|d'"),
    ("parse-endpoint-int", lambda: parse_graph("3 1\n0 x\n"), GraphInputError,
     "line 2: endpoints must be integers"),
    ("parse-range", lambda: parse_graph("3 1\n0 3\n"), GraphInputError,
     "line 2: vertex index out of range (n=3)"),
    ("parse-loop", lambda: parse_graph("3 1\n1 1\n"), GraphInputError,
     "line 2: self-loop at vertex 1"),
    ("parse-type", lambda: parse_graph("3 1\n0 1 x\n"), GraphInputError,
     "line 2: edge type must be 'c' or 'd'"),
    ("parse-no-header", lambda: parse_graph("# only a comment\n\n"), GraphInputError,
     "line 1: missing header 'n m'"),
    ("parse-edge-count", lambda: parse_graph("3 2\n0 1\n"), GraphInputError,
     "expected 2 edge lines, found 1"),
    ("parse-limit", lambda: parse_graph("10000001 0\n"), ResourceLimitError,
     "graph has 10000001 vertices (limit 10000000)"),
    ("packing-int", lambda: parse_packing("0 1\n2 x # c\n"), GraphInputError,
     "line 2: packing entries must be integers, got 'x'"),
    # typed multigraph construction
    ("typed-n", lambda: TypedMultigraph.from_edges(-1, []), GraphInputError,
     "vertex count must be nonnegative, got -1"),
    ("typed-limit", lambda: TypedMultigraph.from_edges(10**7 + 1, []), ResourceLimitError,
     "graph has 10000001 vertices (limit 10000000)"),
    ("typed-loop", lambda: TypedMultigraph.from_edges(3, [(1, 1, "c")]), GraphInputError,
     "self-loop at vertex 1"),
    ("typed-type", lambda: TypedMultigraph.from_edges(3, [(0, 1, "x")]), GraphInputError,
     "unknown edge type 'x' (expected 'c' or 'd')"),
    # duality
    ("dual-empty", lambda: dual_complement(EMPTY, [], 1), PreconditionError,
     "dual_complement needs a nonempty regular graph"),
    # fields and generators
    ("inv0-prime", lambda: GaloisField(5).inv(0), GraphInputError, "zero has no multiplicative inverse"),
    ("inv0-power", lambda: GaloisField(9).inv(0), GraphInputError, "zero has no multiplicative inverse"),
    ("field-1", lambda: GaloisField(1), GraphInputError,
     "unsupported field order 1: q must be prime or one of [4, 8, 9]"),
    ("field-0", lambda: GaloisField(0), GraphInputError,
     "unsupported field order 0: q must be prime or one of [4, 8, 9]"),
    ("projective-k", lambda: projective_points(2, 0), GraphInputError, "k must be positive, got 0"),
    ("regular-n", lambda: gen_random_regular(-1, 3, 0), GraphInputError,
     "n must be nonnegative, got -1"),
    # the vertex limit, before any edge, point or copy is listed
    ("cycle-limit", lambda: gen_cycle(10**7 + 1), ResourceLimitError,
     "graph has 10000001 vertices (limit 10000000)"),
    ("regular-limit", lambda: gen_random_regular(10**7 + 2, 3, 0), ResourceLimitError,
     "graph has 10000002 vertices (limit 10000000)"),
    ("projective-limit", lambda: gen_projective(101, 3), ResourceLimitError,
     "graph has 105101005 vertices (limit 10000000)"),
    ("projective-huge", lambda: gen_projective(2, 20000), ResourceLimitError,
     "graph has over 2^20001 vertices (limit 10000000)"),
    ("projective-big-q", lambda: gen_projective(10**18 + 3, 1), ResourceLimitError,
     "graph has over 2^119 vertices (limit 10000000)"),
    # past 2^16 bits the count goes by (k+1)*(bits of q - 1), with no q^(k+2) formed
    ("projective-beyond-bits", lambda: gen_projective(3, 10**10), ResourceLimitError,
     "graph has over 2^10000000001 vertices (limit 10000000)"),
    ("union-limit", lambda: disjoint_union(*[C5] * 2_000_001), ResourceLimitError,
     "graph has 10000005 vertices (limit 10000000)"),
    # the edge limit, checked after the vertex limit and before any point or edge:
    # n·r/2 for random regular graphs, n·H/2 for projective ones
    ("regular-edge-limit", lambda: gen_random_regular(10**7, 9_999_999, 0), ResourceLimitError,
     "graph has up to 49999995000000 edges (limit 20000000)"),
    ("regular-edge-limit-just-over", lambda: gen_random_regular(40_001, 1000, 0),
     ResourceLimitError, "graph has up to 20000500 edges (limit 20000000)"),
    ("regular-vertex-limit-first", lambda: gen_random_regular(10**7 + 2, 10**7 + 1, 0),
     ResourceLimitError, "graph has 10000002 vertices (limit 10000000)"),
    ("projective-edge-limit", lambda: gen_projective(2999, 1), ResourceLimitError,
     "graph has up to 13495501500 edges (limit 20000000)"),
    ("projective-edge-limit-k2", lambda: gen_projective(211, 2), ResourceLimitError,
     "graph has up to 211109878356 edges (limit 20000000)"),
    # the exact solvers' vertex limit; domination checks it before feasibility
    ("min_tuple-infeasible", lambda: min_tuple_dominating(STAR, 3), InfeasibleError,
     "no 3-tuple dominating set exists: some vertex has only 2 vertices in its closed"
     " neighborhood"),
    ("min_tuple-limit-first", lambda: min_tuple_dominating(Graph.from_edges(65, []), 2),
     ResourceLimitError, "graph has 65 vertices (limit 64); use the randomized constructors"
     " (sample_and_repair, lll_resample) for large instances"),
    ("typed_two-limit", lambda: max_typed_two_limited(TypedMultigraph.from_edges(65, [])),
     ResourceLimitError, "graph has 65 vertices (limit 64); use the randomized constructors"
     " (sample_and_repair, lll_resample) for large instances"),
    # the oracle
    ("oracle-no-l", lambda: enumerate_oracle(C5), GraphInputError,
     "enumerate_oracle needs exactly one of k and l"),
    ("oracle-k-and-l", lambda: enumerate_oracle(C5, 1, l=1), GraphInputError,
     "enumerate_oracle needs exactly one of k and l"),
    ("oracle-infeasible", lambda: enumerate_oracle(C5, l=4), InfeasibleError,
     "no 4-tuple dominating set exists"),
    ("gen_named-family", lambda: gen_named("x"), GraphInputError,
     "unknown graph family 'x' (h6, petersen, k4)"),
]


@pytest.mark.parametrize("call,cls,message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_argument_errors(call, cls, message):
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls
    assert str(info.value) == message


HUGE = 10**400

# every int argument whose range check writes the value, given a huge one
HUGE_CALLS = [
    lambda: bound_sheet(-HUGE, 3, 3, 2),
    lambda: bound_sheet(10, 3, HUGE, 2),
    lambda: bound_sheet(10, -HUGE, -HUGE, 2),
    lambda: bound_sheet(10, 3, 3, -HUGE),
    lambda: bound_sheet(10, 3, 3, 2, avg_degree=HUGE),
    lambda: bound_sheet(10, 3, 3, 2, avg_degree=-HUGE),
    lambda: auto_sample_rate(-HUGE, 2),
    lambda: auto_sample_rate(3, -HUGE),
    lambda: lll_parameters(-HUGE, 1),
    lambda: sample_and_repair(C5, 2, p=HUGE),
    lambda: sample_and_repair(C5, 2, p=-HUGE),
    lambda: lll_resample(C5, 2, p=HUGE),
    lambda: lll_resample(C5, 2, max_rounds=-HUGE),
    lambda: greedy_packing(C5, -HUGE),
    lambda: verify_k_limited(C5, [HUGE], 1),
    lambda: dual_complement(C5, [], HUGE),
    lambda: Graph.from_edges(-HUGE, []),
    lambda: Graph.from_edges(5, [(0, HUGE)]),
    lambda: TypedMultigraph.from_edges(-HUGE, []),
    lambda: Graph.from_edges(HUGE, []),
    lambda: gen_cycle(-HUGE),
    lambda: gen_random_regular(-HUGE, -HUGE, 0),
    lambda: gen_random_regular(HUGE + 1, 1, 0),
    lambda: gen_random_regular(3, HUGE, 0),
    lambda: projective_points(2, -HUGE),
]


@pytest.mark.parametrize("call", HUGE_CALLS)
def test_huge_int_messages_stay_short(call):
    with pytest.raises((GraphInputError, ResourceLimitError)) as info:
        call()
    assert len(str(info.value)) <= 200, str(info.value)


LONG = "x" * 500

# every string a caller passes that a message quotes, given a long one
LONG_STRING_CALLS = [
    ("gen_named-family", lambda: gen_named(LONG)),
    ("typed-edge-type", lambda: TypedMultigraph.from_edges(3, [(0, 1, LONG)])),
    ("parse_packing-token", lambda: parse_packing(LONG)),
]


@pytest.mark.parametrize(
    "call", [c[1] for c in LONG_STRING_CALLS], ids=[c[0] for c in LONG_STRING_CALLS]
)
def test_long_string_messages_stay_short(call):
    with pytest.raises(GraphInputError) as info:
        call()
    assert len(str(info.value)) <= 200, str(info.value)
