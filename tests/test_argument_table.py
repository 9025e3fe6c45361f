"""One table over every numeric parameter of the public API.

A row names a public entry and one of its numeric parameters (one
annotated ``int`` or ``float``, optional or not), a call that puts a
value in that parameter's place beside valid other arguments, and the
values of BAD that are legal there.  Every value of BAD is tried in every
row: a legal one must return, and any other must raise a ``LimpackError``
subclass whose message is at most 200 characters; any other exception
fails the test.  Each call runs under a wall-clock budget, so a call that
never returns fails instead of stalling the suite.

The rows are checked against the signatures: a numeric parameter of
``limpack.__all__`` (or of the graph methods below) without a row fails,
and so does a row whose parameter no longer exists.
"""

import inspect
import signal
from dataclasses import is_dataclass

import pytest

import limpack
from limpack import (
    GaloisField,
    Graph,
    LimpackError,
    TypedMultigraph,
    auto_sample_rate,
    bound_sheet,
    dual_complement,
    enumerate_oracle,
    gen_cycle,
    gen_projective,
    gen_random_regular,
    greedy_packing,
    lll_parameters,
    lll_resample,
    max_k_limited,
    min_tuple_dominating,
    projective_points,
    sample_and_repair,
    verify_k_limited,
    verify_tuple_dominating,
)

BUDGET_S = 3.0

BAD = {
    "True": True,
    "1.5": 1.5,
    "'3'": "3",
    "None": None,
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "-1": -1,
    "0": 0,
    "10**400": 10**400,
    "-10**400": -(10**400),
    # a refused value is written short: these once made 500-character messages
    "'3'*500": "3" * 500,
    "[0]*500": [0] * 500,
}
ANY_INT = "-1 0 10**400 -10**400"

NUMERIC = {"int", "float", "Optional[int]", "Optional[float]"}
METHODS = (
    Graph.from_edges,
    Graph.neighbors,
    Graph.degree,
    Graph.has_edge,
    TypedMultigraph.from_edges,
    TypedMultigraph.degree,
)

C5 = gen_cycle(5)
TM = TypedMultigraph.from_graph(C5)

# (entry, parameter, call with the value in that parameter's place, legal values)
ROWS = [
    ("bound_sheet", "n", lambda x: bound_sheet(x, 3, 3, 2), "0"),
    ("bound_sheet", "max_degree", lambda x: bound_sheet(10, x, 0, 2), "0"),
    ("bound_sheet", "min_degree", lambda x: bound_sheet(10, 3, x, 2), "0"),
    ("bound_sheet", "k", lambda x: bound_sheet(10, 3, 3, x), ""),
    ("bound_sheet", "avg_degree", lambda x: bound_sheet(10, 3, 0, 2, avg_degree=x), "None 0 1.5"),
    ("GaloisField", "q", GaloisField, ""),
    ("gen_cycle", "n", gen_cycle, ""),
    ("gen_projective", "q", lambda x: gen_projective(x, 1), ""),
    ("gen_projective", "k", lambda x: gen_projective(2, x), ""),
    # a huge k once wrote its vertex count's bit bound in full
    ("projective_points", "k", lambda x: projective_points(2, x), ""),
    # a huge negative q once wrote the field order in full
    ("projective_points", "q", lambda x: projective_points(x, 1), ""),
    ("gen_random_regular", "n", lambda x: gen_random_regular(x, 0, 1), "0"),
    ("gen_random_regular", "r", lambda x: gen_random_regular(6, x, 1), "0"),
    ("gen_random_regular", "seed", lambda x: gen_random_regular(6, 3, x), ANY_INT),
    ("Graph.from_edges", "n", lambda x: Graph.from_edges(x, []), "0"),
    ("Graph.neighbors", "v", C5.neighbors, "0"),
    ("Graph.degree", "v", C5.degree, "0"),
    ("Graph.has_edge", "u", lambda x: C5.has_edge(x, 1), "0"),
    ("Graph.has_edge", "v", lambda x: C5.has_edge(0, x), "0"),
    ("TypedMultigraph.from_edges", "n", lambda x: TypedMultigraph.from_edges(x, []), "0"),
    ("TypedMultigraph.degree", "v", TM.degree, "0"),
    ("greedy_packing", "k", lambda x: greedy_packing(C5, x), "10**400"),
    ("auto_sample_rate", "max_degree", lambda x: auto_sample_rate(x, 2), "0"),
    ("auto_sample_rate", "k", lambda x: auto_sample_rate(3, x), "10**400"),
    ("lll_parameters", "max_degree", lambda x: lll_parameters(x, 2), ""),
    ("lll_parameters", "k", lambda x: lll_parameters(10, x), ""),
    ("lll_resample", "k", lambda x: lll_resample(C5, x), "10**400"),
    ("lll_resample", "p", lambda x: lll_resample(C5, 1, p=x), "None"),
    ("lll_resample", "seed", lambda x: lll_resample(C5, 1, seed=x), ANY_INT),
    ("lll_resample", "max_rounds", lambda x: lll_resample(C5, 1, max_rounds=x), "10**400"),
    ("sample_and_repair", "k", lambda x: sample_and_repair(C5, x), "10**400"),
    ("sample_and_repair", "p", lambda x: sample_and_repair(C5, 1, p=x), "None 0"),
    ("sample_and_repair", "seed", lambda x: sample_and_repair(C5, 1, seed=x), ANY_INT),
    ("enumerate_oracle", "k", lambda x: enumerate_oracle(C5, x), "10**400"),
    # a huge l once wrote itself in full in the infeasibility message
    ("enumerate_oracle", "l", lambda x: enumerate_oracle(C5, l=x), ""),
    ("max_k_limited", "k", lambda x: max_k_limited(C5, x), "10**400"),
    ("min_tuple_dominating", "l", lambda x: min_tuple_dominating(C5, x), ""),
    ("dual_complement", "k", lambda x: dual_complement(C5, [0], x), ""),
    ("verify_k_limited", "k", lambda x: verify_k_limited(C5, [0], x), "10**400"),
    ("verify_tuple_dominating", "l", lambda x: verify_tuple_dominating(C5, [0], x), "10**400"),
]


def _entries() -> dict:
    """The public callables that take arguments to check: records and
    exceptions are left out."""
    entries = {}
    for name in limpack.__all__:
        obj = getattr(limpack, name)
        if isinstance(obj, type) and (is_dataclass(obj) or issubclass(obj, (tuple, BaseException))):
            continue
        entries[name] = obj
    entries.update((method.__qualname__, method) for method in METHODS)
    return entries


def test_every_numeric_parameter_has_a_row():
    params = {
        (name, p.name)
        for name, fn in _entries().items()
        for p in inspect.signature(fn).parameters.values()
        if p.annotation in NUMERIC
    }
    assert {row[:2] for row in ROWS} == params


class _Hang(BaseException):
    """The call took longer than BUDGET_S."""


def _alarm(signum, frame):
    raise _Hang


def _within_budget(call, value):
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        return call(value)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize(
    "call,legal,shown",
    [(row[2], row[3].split(), shown) for row in ROWS for shown in BAD],
    ids=[f"{row[0]}-{row[1]}-{shown}" for row in ROWS for shown in BAD],
)
def test_bad_value_is_refused_or_legal(call, legal, shown):
    try:
        _within_budget(call, BAD[shown])
    except _Hang:
        pytest.fail(f"no answer within {BUDGET_S} s")
    except LimpackError as exc:
        assert shown not in legal, f"a legal value was refused: {exc}"
        assert len(str(exc)) <= 200, str(exc)
    else:
        assert shown in legal, "an illegal value was accepted"
