"""Regression tests for the strength of the exact solver's bound.

The effective-cap bound counts min(cap, live members) per constraint and
the excess that live vertices left out must cover.  Before it, one
vertex in few constraints weakened the bound for the whole instance, and
some random cubic graphs of 40 vertices took millions of nodes.
"""

import pytest
import reference_solver_rescan as ref
from corpus import random_typed_multigraph

from limpack import gen_random_regular, max_k_limited, max_typed_two_limited, min_tuple_dominating


@pytest.mark.parametrize("seed", [1, 2, 4, 5])
def test_low_degree_vertex_keeps_the_bound_tight(seed):
    """These typed graphs have a vertex in only one or two constraints.
    With the fewest-constraints divisor alone, the search there explored
    only 0-2% fewer nodes than the seed solver."""
    tm = random_typed_multigraph(seed, 16)
    new = max_typed_two_limited(tm)
    old = ref.max_typed_two_limited(tm)
    assert (new.optimum, new.witness) == (old.optimum, old.witness)
    assert new.nodes_explored < old.nodes_explored


def test_hard_cubic_instance():
    """Random cubic n = 40, seed 2: values recorded from the two-engine solver."""
    g = gen_random_regular(40, 3, seed=2)
    packing = max_k_limited(g, 2)
    assert packing.optimum == 19
    assert packing.witness == (
        1, 2, 3, 7, 8, 9, 10, 12, 15, 16, 17, 19, 22, 27, 28, 29, 32, 36, 37,
    )
    dominating = min_tuple_dominating(g, 2)
    assert dominating.optimum == 21
    assert dominating.witness == (
        0, 1, 4, 6, 9, 10, 11, 13, 14, 16, 18, 20, 23, 25, 26, 30, 33, 34, 35, 38, 39,
    )
