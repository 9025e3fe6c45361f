"""Differential test: the two-phase front end against one fixed-order search.

On a regular instance the solver takes the optimum from a search in BFS
order and then looks for the first leaf of that size in the fixed order.
That leaf is the set one plain fixed-order search keeps, so the optimum
and the witness must equal those of ``_maximize`` run once in the fixed
order (index order on a regular graph) with no target.
"""

import pytest

from limpack import gen_random_regular, max_k_limited, min_tuple_dominating
from limpack.solver import _maximize


def _fixed_order(g, cap, exclude_first=False):
    """One search of ``_maximize`` in index order with no target; the
    constraint holding v are the closed neighbourhoods N[w] with w in N[v]."""
    closed = [sorted([v, *a]) for v, a in enumerate(g.adj)]
    order = list(range(g.n))
    return _maximize(closed, closed, list(map(len, closed)), [cap] * g.n, order, exclude_first)


@pytest.mark.parametrize("n, seed", [(n, s) for n in range(20, 41, 2) for s in range(5)])
def test_two_phase_matches_one_fixed_order_search(n, seed):
    g = gen_random_regular(n, 3, seed=seed)
    for k in (1, 2, 3):
        plain = _fixed_order(g, k)
        got = max_k_limited(g, k)
        assert (got.optimum, got.witness) == (plain.optimum, plain.witness), ("k", k)
    for l in (1, 2, 3, 4):
        kept = _fixed_order(g, 4 - l, exclude_first=True)
        dominating = tuple(sorted(set(range(n)).difference(kept.witness)))
        got = min_tuple_dominating(g, l)
        assert (got.optimum, got.witness) == (n - kept.optimum, dominating), ("l", l)
