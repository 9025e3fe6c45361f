"""Differential test: domination as the complement packing.

D is l-tuple dominating exactly when Y = V minus D has at most |N[v]| - l
members in each closed neighbourhood N[v].  ``min_tuple_dominating`` finds
the largest such Y with the packing engine, trying "exclude v from Y" (put
v in D) first.  ``reference_solver_rescan`` keeps the frozen minimizing
engine it replaced, which tries "put v in D" first.  Both return the first
optimal D in the same branching order, so optimum and witness must match
for every feasible l, l = min degree + 1 included (where some caps are 0).
Node counts are not compared: the two trees are pruned by different
bounds, and either may be the smaller on a given graph.
"""

import pytest
import reference_solver_rescan as ref
from corpus import random_typed_multigraph

from limpack import (
    Graph,
    degree_stats,
    disjoint_union,
    gen_cycle,
    gen_named,
    gen_random_regular,
    min_tuple_dominating,
)


def _same_dominating_sets(g: Graph) -> None:
    top = degree_stats(g).min_degree + 1 if g.n else 1
    for l in range(1, top + 1):
        new = min_tuple_dominating(g, l)
        old = ref.min_tuple_dominating(g, l)
        assert (new.optimum, new.witness) == (old.optimum, old.witness), ("l", l)


@pytest.mark.parametrize("n, seed", [(n, s) for n in range(8, 33, 2) for s in range(3)])
def test_random_cubic_complement(n, seed):
    _same_dominating_sets(gen_random_regular(n, 3, seed=seed))


@pytest.mark.parametrize("seed", [s for s in range(36) if s % 3])
def test_non_regular_complement(seed):
    tm = random_typed_multigraph(seed, 10 + seed % 9)
    _same_dominating_sets(Graph.from_edges(tm.n, [(u, v) for u, v, _ in tm.edges()]))


def test_small_and_disconnected_complement():
    petersen = gen_named("petersen")
    for g in (
        Graph.from_edges(0, []),
        Graph.from_edges(1, []),
        Graph.from_edges(3, [(0, 1)]),
        gen_named("k4"),
        disjoint_union(gen_cycle(5), petersen),
        disjoint_union(petersen, petersen),
    ):
        _same_dominating_sets(g)
