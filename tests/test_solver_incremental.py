"""Differential test: the incremental bound against the per-node rescan.

``limpack.solver`` keeps the terms of its bound up to date as it
branches; the frozen references recompute them from scratch at every
node, for packing and for domination as the complement packing.  An
instance whose vertices all lie in the same number of constraints may be
solved in two searches, so it is compared with
``reference_solver_two_phase``; any other instance is one fixed-order
search, compared with ``reference_solver_excess``.  The two must walk
the same search trees, so the whole ``SolveResult`` must be equal,
``nodes_explored`` included.  On the second kind, the optimum and the
witness must also equal those of ``reference_solver_effective``, whose
bound adds the term cap_sum // fewest.
"""

import pytest
import reference_solver_effective
import reference_solver_excess
import reference_solver_two_phase
from corpus import random_typed_multigraph

import limpack
from limpack import (
    Graph,
    degree_stats,
    disjoint_union,
    gen_cycle,
    gen_named,
    gen_random_regular,
)


def _reference(degrees):
    """The frozen solver for an instance with these vertex degrees."""
    if len(set(degrees)) == 1:
        return reference_solver_two_phase
    return reference_solver_excess


def _check(ref, solve: str, *args) -> None:
    """limpack's `solve` walks the tree of `ref`; against the excess
    reference it also finds the two-term bound's optimum and witness."""
    got = getattr(limpack, solve)(*args)
    assert got == getattr(ref, solve)(*args), (solve, args[1:])
    if ref is reference_solver_excess:
        two_terms = getattr(reference_solver_effective, solve)(*args)
        assert (got.optimum, got.witness) == (two_terms.optimum, two_terms.witness)


def _same_tree(g: Graph, ks, ls) -> None:
    ref = _reference(map(len, g.adj))
    for k in ks:
        _check(ref, "max_k_limited", g, k)
    for l in ls:
        _check(ref, "min_tuple_dominating", g, l)


def _plain(seed: int, n: int) -> Graph:
    """The c- and d-edges of a corpus multigraph; non-regular unless 3 | seed."""
    tm = random_typed_multigraph(seed, n)
    return Graph.from_edges(tm.n, [(u, v) for u, v, _ in tm.edges()])


@pytest.mark.parametrize(
    "n, seed", [(n, s) for n in (8, 12, 16, 20, 24, 28) for s in range(3)]
)
def test_random_cubic_same_tree(n, seed):
    _same_tree(gen_random_regular(n, 3, seed=seed), (1, 2, 3), (1, 2, 3, 4))


@pytest.mark.parametrize("seed", [s for s in range(36) if s % 3])
def test_non_regular_same_tree(seed):
    g = _plain(seed, 10 + seed % 9)
    _same_tree(g, (1, 2, 3), range(1, degree_stats(g).min_degree + 2))


@pytest.mark.parametrize("seed", range(60))
def test_typed_same_tree(seed):
    tm = random_typed_multigraph(seed, 8 + seed % 13)
    _check(_reference(map(tm.degree, range(tm.n))), "max_typed_two_limited", tm)


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
