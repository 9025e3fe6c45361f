"""Frozen copy of the exact solver whose excess bound rescans every node.

``limpack.solver`` keeps its bound terms up to date as it branches; this
module recomputes them from scratch at every node.  The two must walk
the same search trees, so ``test_solver_incremental.py`` requires equal
results, ``nodes_explored`` included.  Do not change this module when
the solver changes.

One engine, ``_maximize``, serves packing and domination.  At each node
it walks every undecided vertex and recomputes the live (undecided,
selectable) vertices, the total of their constraint counts, and the sum
over the constraints of min(cap, live members).  It prunes on the excess
term alone, addable + (cap_sum - live_size) // most, where `most` is the
constraint count of the first undecided vertex in the order; a node
reached by stepping over an unselectable vertex is not bounded again.
Given a floor, the incumbent starts there and the search stops at the
first leaf above it.  Domination is the complement packing: the largest
Y with at most |N[v]| - l members in each N[v], searched with "exclude
from Y" first, and D = V minus Y.

The fixed order puts most constraints first, ties by index.  If every
vertex lies in the same number s of constraints and the BFS order (each
component from its lowest unvisited vertex, c- then d-neighbours)
differs, a solve takes two searches and counts the nodes of both: the
optimum from an include-first search in BFS order, then the witness from
the fixed-order search with the floor optimum - 1.  Any other instance
takes the one fixed-order search.  On such a uniform instance live_size
is addable·s, so the excess term is cap_sum // s whatever the divisor,
and a stepped-over node has its parent's terms: the trees equal those of
the two-term bound min(that term, cap_sum // fewest) checked at every
node, which the solver used before its bound became the excess term.
"""

from __future__ import annotations

from typing import Optional

from limpack import Graph, TypedMultigraph
from limpack.solver import SolveResult


def max_k_limited(g: Graph, k: int) -> SolveResult:
    return _solve(TypedMultigraph.from_graph(g), [k] * g.n)


def max_typed_two_limited(tm: TypedMultigraph) -> SolveResult:
    return _solve(tm, [2] * tm.n)


def min_tuple_dominating(g: Graph, l: int) -> SolveResult:
    caps = [len(nbrs) + 1 - l for nbrs in g.adj]
    kept = _solve(TypedMultigraph.from_graph(g), caps, exclude_first=True)
    dominating = tuple(v for v in range(g.n) if v not in kept.witness)
    return SolveResult(g.n - kept.optimum, dominating, kept.nodes_explored)


def _solve(tm: TypedMultigraph, caps: list[int], exclude_first: bool = False) -> SolveResult:
    constraints = [[u, v] for u in range(tm.n) for v in tm.c_adj[u] if u < v]
    caps = [1] * len(constraints) + caps
    constraints += [[v, *nbrs] for v, nbrs in enumerate(tm.d_adj)]
    degrees = [tm.degree(v) for v in range(tm.n)]  # a vertex lies in 1 + degree constraints
    fixed = sorted(range(tm.n), key=lambda v: (-degrees[v], v))
    bfs: list[int] = []
    for root in range(tm.n):
        if root not in bfs:
            bfs.append(root)
            for v in bfs:  # also visits the vertices appended below
                for u in (*tm.c_adj[v], *tm.d_adj[v]):
                    if u not in bfs:
                        bfs.append(u)
    if len(set(degrees)) == 1 and bfs != fixed:
        first = _maximize(tm.n, constraints, caps, bfs)
        last = _maximize(tm.n, constraints, caps, fixed, exclude_first, first.optimum - 1)
        assert last.optimum == first.optimum
        return SolveResult(last.optimum, last.witness, first.nodes_explored + last.nodes_explored)
    return _maximize(tm.n, constraints, caps, fixed, exclude_first)


class _Stop(Exception):
    pass


def _maximize(
    n: int,
    constraints: list[list[int]],
    caps: list[int],
    order: list[int],
    exclude_first: bool = False,
    floor: Optional[int] = None,
) -> SolveResult:
    caps = list(caps)  # a stop skips the undo steps
    cons_of: list[list[int]] = [[] for _ in range(n)]
    for idx, members in enumerate(constraints):
        for v in members:
            cons_of[v].append(idx)

    best_size = -1 if floor is None else floor
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
                if floor is not None:
                    raise _Stop
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

    try:
        rec(0)
    except _Stop:
        pass
    return SolveResult(best_size, tuple(best_set), nodes)
