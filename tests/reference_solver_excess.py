"""Frozen copy of the exact solver whose excess bound rescans every node.

One engine, ``_maximize``, serves packing and domination.  At each node it
walks every undecided vertex and recomputes the bound from scratch: the
live (undecided, selectable) vertices, the total of their constraint
counts, and the sum over the constraints of min(cap, live members).  It
prunes on the excess term alone, addable + (cap_sum - live_size) // most,
where `most` is the constraint count of the first undecided vertex in
the order; a node reached by stepping over an unselectable vertex is
not bounded again.  Domination is the complement packing: the largest Y
with at most |N[v]| - l members in each N[v], searched with "exclude
from Y" first, and D = V minus Y.  The solver in ``limpack.solver``
keeps the same terms up to date incrementally and must explore exactly
the same tree on an instance whose vertices lie in different numbers of
constraints, so ``test_solver_incremental.py`` requires results equal to
these there, node counts included.  Do not change this module when the
solver changes.
"""

from __future__ import annotations

from limpack import Graph, TypedMultigraph
from limpack.solver import SolveResult


def max_k_limited(g: Graph, k: int) -> SolveResult:
    return _max_limited(TypedMultigraph.from_graph(g), k)


def max_typed_two_limited(tm: TypedMultigraph) -> SolveResult:
    return _max_limited(tm, 2)


def min_tuple_dominating(g: Graph, l: int) -> SolveResult:
    closed = [[v, *nbrs] for v, nbrs in enumerate(g.adj)]
    caps = [len(members) - l for members in closed]
    order = sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))
    kept = _maximize(g.n, closed, caps, order, exclude_first=True)
    dominating = tuple(v for v in range(g.n) if v not in kept.witness)
    return SolveResult(g.n - kept.optimum, dominating, kept.nodes_explored)


def _max_limited(tm: TypedMultigraph, cap: int) -> SolveResult:
    constraints = [[u, v] for u in range(tm.n) for v in tm.c_adj[u] if u < v]
    caps = [1] * len(constraints) + [cap] * tm.n
    constraints += [[v, *nbrs] for v, nbrs in enumerate(tm.d_adj)]
    order = sorted(range(tm.n), key=lambda v: (-tm.degree(v), v))
    return _maximize(tm.n, constraints, caps, order)


def _maximize(
    n: int,
    constraints: list[list[int]],
    caps: list[int],
    order: list[int],
    exclude_first: bool = False,
) -> SolveResult:
    cons_of: list[list[int]] = [[] for _ in range(n)]
    for idx, members in enumerate(constraints):
        for v in members:
            cons_of[v].append(idx)

    best_size = -1
    best_set: list[int] = []
    chosen: list[int] = []
    nodes = 0

    def selectable(v: int) -> bool:
        return all(caps[c] > 0 for c in cons_of[v])

    def rec(pos: int, stepped: bool = False) -> None:
        nonlocal best_size, best_set, nodes
        nodes += 1
        live = [0] * len(constraints)
        addable = 0
        live_size = 0
        for u in order[pos:]:
            if selectable(u):
                addable += 1
                live_size += len(cons_of[u])
                for c in cons_of[u]:
                    live[c] += 1
        if not addable:
            if len(chosen) > best_size:
                best_size = len(chosen)
                best_set = sorted(chosen)
            return
        cap_sum = sum(min(cap, count) for cap, count in zip(caps, live))
        most = len(cons_of[order[pos]])
        bound = addable + (cap_sum - live_size) // most
        if not stepped and len(chosen) + bound <= best_size:
            return
        v = order[pos]
        if not selectable(v):
            rec(pos + 1, stepped=True)
            return
        for include in (False, True) if exclude_first else (True, False):
            if include:
                chosen.append(v)
                for c in cons_of[v]:
                    caps[c] -= 1
                rec(pos + 1)
                for c in cons_of[v]:
                    caps[c] += 1
                chosen.pop()
            else:
                rec(pos + 1)

    rec(0)
    return SolveResult(best_size, tuple(best_set), nodes)
