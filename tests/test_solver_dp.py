"""Exact optima against an independent dynamic program (``dp_checker``).

The exact solvers and ``enumerate_oracle`` are compared with a checker
that shares no code with them, on random cubic graphs of 20 to 28
vertices (above the oracle's reach) and on the corpus's non-regular
and typed graphs.  Packing is k-limited packing with cap k on each
closed neighbourhood; domination is n minus the largest set with at
most |N[v]| - l members in each N[v]; a typed multigraph adds each
c-edge as a cap-1 constraint.
"""

import pytest
from corpus import random_typed_multigraph
from dp_checker import max_feasible

from limpack import (
    Graph,
    TypedMultigraph,
    degree_stats,
    enumerate_oracle,
    gen_random_regular,
    max_k_limited,
    max_typed_two_limited,
    min_tuple_dominating,
)


def _packing(g: Graph, k: int) -> int:
    return max_feasible(g.n, [([v, *a], k) for v, a in enumerate(g.adj)])


def _domination(g: Graph, l: int) -> int:
    return g.n - max_feasible(g.n, [([v, *a], len(a) + 1 - l) for v, a in enumerate(g.adj)])


def _typed(tm: TypedMultigraph) -> int:
    edges = [([u, v], 1) for u, a in enumerate(tm.c_adj) for v in a if u < v]
    return max_feasible(tm.n, edges + [([v, *a], 2) for v, a in enumerate(tm.d_adj)])


def _plain(seed: int, n: int) -> Graph:
    """The c- and d-edges of a corpus multigraph; non-regular unless 3 | seed."""
    tm = random_typed_multigraph(seed, n)
    return Graph.from_edges(tm.n, [(u, v) for u, v, _ in tm.edges()])


def _same_optima(g: Graph, ls) -> None:
    for k in (1, 2, 3):
        assert max_k_limited(g, k).optimum == _packing(g, k), ("k", k)
    for l in ls:
        assert min_tuple_dominating(g, l).optimum == _domination(g, l), ("l", l)


@pytest.mark.parametrize("n, seed", [(n, s) for n in (20, 24, 28) for s in range(3)])
def test_random_cubic_matches_dp(n, seed):
    _same_optima(gen_random_regular(n, 3, seed=seed), (2, 3))


@pytest.mark.parametrize("seed", [s for s in range(12) if s % 3])
def test_non_regular_matches_dp(seed):
    g = _plain(seed, 20 + seed % 9)
    _same_optima(g, range(2, min(3, degree_stats(g).min_degree + 1) + 1))


@pytest.mark.parametrize("seed", range(12))
def test_typed_matches_dp(seed):
    tm = random_typed_multigraph(seed, 20 + seed % 9)
    assert max_typed_two_limited(tm).optimum == _typed(tm)


@pytest.mark.parametrize("seed", range(6))
def test_dp_matches_oracle(seed):
    g = _plain(seed, 9 + seed)
    for k in (1, 2, 3):
        assert _packing(g, k) == enumerate_oracle(g, k), ("k", k)
    for l in range(1, degree_stats(g).min_degree + 2):
        assert _domination(g, l) == enumerate_oracle(g, l=l), ("l", l)


@pytest.mark.parametrize("seed", range(2))
def test_dp_matches_oracle_on_cubic_16(seed):
    g = gen_random_regular(16, 3, seed=seed)
    for k in (1, 2, 3):
        assert _packing(g, k) == enumerate_oracle(g, k), ("k", k)
    for l in (2, 3):
        assert _domination(g, l) == enumerate_oracle(g, l=l), ("l", l)
