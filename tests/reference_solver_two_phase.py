"""Frozen copy of the two-phase exact solver, with a bound that rescans every node.

The rescan engine is the one in ``reference_solver_effective``, plus a
floor and an early stop.  An instance whose vertices all lie in the same
number of constraints, and whose BFS order differs from the fixed order
(most constraints first, ties by index), is solved in two searches:
- the optimum, from an include-first search over the BFS order: each
  component from its lowest unvisited vertex, c-neighbours before
  d-neighbours, each list in adjacency order;
- the witness, from the fixed-order search with its usual branch
  direction, whose incumbent starts at optimum - 1 and which stops at
  the first leaf of size optimum.
The node count is the sum of both.  Any other instance is solved by the
one fixed-order search.  ``test_solver_incremental.py`` requires results
equal to these on such instances, node counts included.  Do not change
this module when the solver changes.
"""

from __future__ import annotations

from collections import deque
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
    counts = [sum(v in members for members in constraints) for v in range(tm.n)]
    fixed = sorted(range(tm.n), key=lambda v: (-counts[v], v))
    bfs = _bfs_order(tm)
    if len(set(counts)) == 1 and bfs != fixed:
        first = _maximize(tm.n, constraints, caps, bfs)
        second = _maximize(tm.n, constraints, caps, fixed, exclude_first, first.optimum - 1)
        assert second.optimum == first.optimum
        return SolveResult(
            second.optimum, second.witness, first.nodes_explored + second.nodes_explored
        )
    return _maximize(tm.n, constraints, caps, fixed, exclude_first)


def _bfs_order(tm: TypedMultigraph) -> list[int]:
    order: list[int] = []
    seen = [False] * tm.n
    for root in range(tm.n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in [*tm.c_adj[v], *tm.d_adj[v]]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return order


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
    """Without a floor, the incumbent starts at -1 and every leaf that
    beats it is kept.  With one, the incumbent starts at the floor and
    the search stops at the first leaf that beats it."""
    caps = list(caps)  # a stop skips the undo steps
    cons_of: list[list[int]] = [[] for _ in range(n)]
    for idx, members in enumerate(constraints):
        for v in members:
            cons_of[v].append(idx)
    most = max((len(cs) for cs in cons_of), default=1)

    best_size = -1 if floor is None else floor
    best_set: list[int] = []
    chosen: list[int] = []
    nodes = 0

    def selectable(v: int) -> bool:
        return all(caps[c] > 0 for c in cons_of[v])

    def rec(pos: int) -> None:
        nonlocal best_size, best_set, nodes
        nodes += 1
        live = [0] * len(constraints)
        addable = 0
        live_size = 0
        fewest = len(constraints)
        for u in order[pos:]:
            if selectable(u):
                addable += 1
                live_size += len(cons_of[u])
                fewest = min(fewest, len(cons_of[u]))
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
        bound = min(addable + (cap_sum - live_size) // most, cap_sum // fewest)
        if len(chosen) + bound <= best_size:
            return
        v = order[pos]
        if not selectable(v):
            rec(pos + 1)
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
