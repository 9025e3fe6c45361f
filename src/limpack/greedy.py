"""Greedy k-limited packing construction.

Repeatedly adds the lowest-index vertex whose addition keeps the set
k-limited; since feasibility only shrinks, a single ascending pass
realizes that rule.  The pass keeps caps[u] = k - |N[u] ∩ X| and a
blocked flag on every vertex with some u in N[v] at cap 0 (N[u] is
flagged when caps[u] reaches 0), so v is addable exactly when it is not
blocked and each rejected vertex costs O(1).  For k = 1 the result has
at least n/(max_degree^2 + 1) vertices.
"""

from __future__ import annotations

from .errors import _check_arg
from .graph import Graph


def greedy_packing(g: Graph, k: int) -> frozenset[int]:
    """The greedy k-limited packing: the lowest addable vertex first."""
    _check_arg("k", k, 1)
    adj = g.adj
    caps = [k] * g.n
    blocked = bytearray(g.n)
    chosen = []
    for v in range(g.n):
        if not blocked[v]:
            chosen.append(v)
            for u in (v, *adj[v]):
                caps[u] -= 1
                if not caps[u]:
                    blocked[u] = 1
                    for w in adj[u]:
                        blocked[w] = 1
    return frozenset(chosen)
