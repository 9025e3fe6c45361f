"""Differential test: the solver against the frozen seed solver.

The residual double-counting bounds prune only subtrees that cannot
strictly improve on the incumbent, so every optimum and witness must match
``reference_solver`` exactly, and the search may only visit fewer nodes.
"""

import pytest
import reference_solver as ref
from corpus import random_typed_multigraph

from limpack import (
    Graph,
    degree_stats,
    gen_random_regular,
    max_k_limited,
    max_typed_two_limited,
    min_tuple_dominating,
)


def _same_search(new, old) -> None:
    assert (new.optimum, new.witness) == (old.optimum, old.witness)
    assert new.nodes_explored <= old.nodes_explored


def _plain(seed: int, n: int) -> Graph:
    """The c- and d-edges of a corpus multigraph; non-regular unless 3 | seed."""
    tm = random_typed_multigraph(seed, n)
    return Graph.from_edges(tm.n, [(u, v) for u, v, _ in tm.edges()])


@pytest.mark.parametrize("n, seed", [(n, s) for n in (8, 12, 16, 20, 24) for s in range(3)])
def test_random_cubic_matches_reference(n, seed):
    g = gen_random_regular(n, 3, seed=seed)
    for k in (1, 2, 3):
        _same_search(max_k_limited(g, k), ref.max_k_limited(g, k))
    for l in (1, 2, 3, 4):
        _same_search(min_tuple_dominating(g, l), ref.min_tuple_dominating(g, l))


@pytest.mark.parametrize("seed", [s for s in range(36) if s % 3])
def test_non_regular_matches_reference(seed):
    g = _plain(seed, 10 + seed % 9)
    for k in (1, 2, 3):
        _same_search(max_k_limited(g, k), ref.max_k_limited(g, k))
    for l in range(1, degree_stats(g).min_degree + 2):
        _same_search(min_tuple_dominating(g, l), ref.min_tuple_dominating(g, l))


@pytest.mark.parametrize("seed", range(40))
def test_typed_matches_reference(seed):
    tm = random_typed_multigraph(seed, 8 + seed % 13)
    _same_search(max_typed_two_limited(tm), ref.max_typed_two_limited(tm))


def test_bounds_prune_on_cubic():
    """The new bounds are not vacuous: on a cubic graph they cut nodes."""
    g = gen_random_regular(24, 3, seed=0)
    assert max_k_limited(g, 2).nodes_explored < ref.max_k_limited(g, 2).nodes_explored
    assert (
        min_tuple_dominating(g, 2).nodes_explored
        < ref.min_tuple_dominating(g, 2).nodes_explored
    )
