"""Differential test: the incremental bound against the per-node rescan.

``limpack.solver`` keeps the terms of its bound up to date as it
branches; the frozen ``reference_solver_excess`` recomputes them from
scratch at every node, for packing and for domination as the complement
packing, with the same front end: one fixed-order search, or two
searches on an instance whose vertices all lie in the same number of
constraints.  The two must walk the same search trees, so on every
instance the whole ``SolveResult`` must be equal, ``nodes_explored``
included.  ``test_solver_reference.py`` checks the optima and witnesses
of the same non-regular and typed instances against the seed's engine.
"""

import pytest
import reference_solver_excess as ref
from corpus import plain_graph, random_typed_multigraph

import limpack
from limpack import (
    Graph,
    degree_stats,
    disjoint_union,
    gen_cycle,
    gen_named,
    gen_random_regular,
)


def _check(solve: str, *args) -> None:
    """limpack's `solve` walks the tree of the frozen reference."""
    assert getattr(limpack, solve)(*args) == getattr(ref, solve)(*args), (solve, args[1:])


def _same_tree(g: Graph, ks, ls) -> None:
    for k in ks:
        _check("max_k_limited", g, k)
    for l in ls:
        _check("min_tuple_dominating", g, l)


@pytest.mark.parametrize(
    "n, seed", [(n, s) for n in (8, 12, 16, 20, 24, 28) for s in range(3)]
)
def test_random_cubic_same_tree(n, seed):
    _same_tree(gen_random_regular(n, 3, seed=seed), (1, 2, 3), (1, 2, 3, 4))


@pytest.mark.parametrize("seed", [s for s in range(36) if s % 3])
def test_non_regular_same_tree(seed):
    g = plain_graph(seed, 10 + seed % 9)
    _same_tree(g, (1, 2, 3), range(1, degree_stats(g).min_degree + 2))


@pytest.mark.parametrize("seed", range(60))
def test_typed_same_tree(seed):
    tm = random_typed_multigraph(seed, 8 + seed % 13)
    _check("max_typed_two_limited", tm)


def test_small_and_disconnected_same_tree():
    petersen = gen_named("petersen")
    cases = [
        Graph.from_edges(0, []),
        Graph.from_edges(1, []),
        Graph.from_edges(3, [(0, 1)]),
        gen_named("k4"),
        disjoint_union(gen_cycle(5), petersen),
        disjoint_union(petersen, petersen),
    ]
    for g in cases:
        feasible = degree_stats(g).min_degree + 1 if g.n else 1
        _same_tree(g, (1, 2, 3), range(1, feasible + 1))


@pytest.mark.parametrize("seed", [1, 3])
def test_random_cubic_n32_same_tree(seed):
    _same_tree(gen_random_regular(32, 3, seed=seed), (1, 2, 3), (1, 2, 3, 4))


@pytest.mark.parametrize("n, seed", [(n, s) for n in (32, 36) for s in range(3)])
def test_deeper_random_cubic_same_tree(n, seed):
    """Searches of thousands of nodes, deeper than the trees above."""
    _same_tree(gen_random_regular(n, 3, seed=seed), (2,), (2,))
