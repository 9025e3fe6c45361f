"""Metamorphic checks for exact optima at sizes the oracle cannot reach.

Each check relates solves to one another or to closed forms, so it needs
no second solver:
- a seeded vertex relabelling changes both branch orders of the search
  but not the optimum;
- the optimum adds up over a disjoint union;
- the packing optimum lies between the bound sheet's lower bounds and
  its double-counting upper bound.
"""

import random

import pytest
from corpus import random_typed_multigraph

from limpack import (
    Graph,
    bound_sheet,
    degree_stats,
    disjoint_union,
    gen_named,
    gen_random_regular,
    max_k_limited,
    min_tuple_dominating,
    verify_k_limited,
    verify_tuple_dominating,
)

TOL = 1e-9


def _plain(seed: int, n: int) -> Graph:
    """The c- and d-edges of a corpus multigraph; non-regular unless 3 | seed."""
    tm = random_typed_multigraph(seed, n)
    return Graph.from_edges(tm.n, [(u, v) for u, v, _ in tm.edges()])


def _optima(g: Graph) -> dict:
    """Packing optima for k = 1..3 and domination optima for every feasible l."""
    out = {("k", k): max_k_limited(g, k).optimum for k in (1, 2, 3)}
    for l in range(1, degree_stats(g).min_degree + 2):
        out["l", l] = min_tuple_dominating(g, l).optimum
    return out


def _relabelled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


GRAPHS = [("cubic", n, s) for n, s in ((20, 0), (24, 1), (28, 2), (32, 3), (36, 4))] + [
    ("plain", n, s) for n, s in ((20, 1), (26, 2), (32, 4), (36, 5), (40, 7))
]


def _graph(kind: str, n: int, seed: int) -> Graph:
    return gen_random_regular(n, 3, seed=seed) if kind == "cubic" else _plain(seed, n)


@pytest.mark.parametrize("kind, n, seed", GRAPHS)
def test_relabelling_keeps_the_optimum(kind, n, seed):
    g = _graph(kind, n, seed)
    h = _relabelled(g, seed)
    assert sorted(map(len, h.adj)) == sorted(map(len, g.adj))
    assert _optima(h) == _optima(g)
    for k in (1, 2, 3):
        assert verify_k_limited(h, max_k_limited(h, k).witness, k).valid


@pytest.mark.parametrize(
    "parts",
    [
        (gen_named("petersen"), gen_named("petersen")),
        (gen_random_regular(20, 3, seed=0), gen_random_regular(24, 3, seed=0)),
        (_plain(1, 20), gen_random_regular(20, 3, seed=1)),
    ],
    ids=["petersen-x2", "cubic-20+24", "plain-20+cubic-20"],
)
def test_optimum_adds_over_disjoint_unions(parts):
    union = disjoint_union(*parts)
    whole = _optima(union)
    for key, value in whole.items():
        assert value == sum(_optima(part)[key] for part in parts), key
    l = degree_stats(union).min_degree + 1
    assert verify_tuple_dominating(union, min_tuple_dominating(union, l).witness, l).valid


@pytest.mark.parametrize("kind, n, seed", GRAPHS)
def test_optimum_within_the_bound_sheet(kind, n, seed):
    g = _graph(kind, n, seed)
    stats = degree_stats(g)
    avg = 2 * stats.edge_count / g.n
    for k in (1, 2, 3):
        sheet = bound_sheet(g.n, stats.max_degree, stats.min_degree, k, avg_degree=avg)
        optimum = max_k_limited(g, k).optimum
        assert sheet.lower_bounds()
        for low in sheet.lower_bounds():
            assert float(low) <= optimum + TOL, (k, low)
        assert optimum <= sheet.packing_upper
