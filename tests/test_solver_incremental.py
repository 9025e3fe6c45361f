"""Tree test: every node of the exact solver's searches, checked by replay.

``solver_replay.replay`` runs each solve and checks every node of its
searches from scratch: the three terms of the bound, leaf and prune
exactly as documented, the stepped-over vertices, both children in
branch order, the one- or two-search front end, the node total, the
optimum and the witness.  The instances are random cubic graphs up to
n = 48, non-regular and typed graphs from the corpus, and small and
disconnected graphs; packing and domination (as the complement packing)
alike.  ``test_solver_reference.py`` checks the optima and witnesses of
the same non-regular and typed instances against the seed's engine.
"""

import pytest
from corpus import plain_graph, random_typed_multigraph
from solver_replay import replay

from limpack import (
    Graph,
    degree_stats,
    disjoint_union,
    gen_cycle,
    gen_named,
    gen_random_regular,
    max_k_limited,
    max_typed_two_limited,
    min_tuple_dominating,
)


def _same_tree(g: Graph, ks, ls) -> None:
    for k in ks:
        replay(max_k_limited, g, k)
    for l in ls:
        replay(min_tuple_dominating, g, l)


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
    replay(max_typed_two_limited, tm)


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


@pytest.mark.parametrize(
    "n, seed, solve, limit",
    [(40, 1, max_k_limited, 2), (40, 0, min_tuple_dominating, 2), (48, 1, max_k_limited, 2)],
    ids=["n40-s1-k2", "n40-s0-l2", "n48-s1-k2"],
)
def test_larger_random_cubic_same_tree(n, seed, solve, limit):
    """Above the reach of the DP checker: 6 000 to 14 000 nodes each."""
    replay(solve, gen_random_regular(n, 3, seed=seed), limit)
