"""Frozen copy of the seed's exact branch-and-bound solver.

The differential test in ``test_solver_reference.py`` compares the current
solver against these functions: same optimum and witness on seeded
inputs, and never more nodes explored.  The only pruning here is the
count of still-selectable vertices (packing) and the largest coverage
deficit (domination).  Do not change this module when the solver changes.
"""

from __future__ import annotations

from limpack import Graph, TypedMultigraph
from limpack.solver import SolveResult


def max_k_limited(g: Graph, k: int) -> SolveResult:
    constraints = [([v] + list(g.adj[v]), k) for v in range(g.n)]
    return _maximize(g.n, constraints, _branch_order(g))


def max_typed_two_limited(tm: TypedMultigraph) -> SolveResult:
    constraints: list[tuple[list[int], int]] = []
    for u in range(tm.n):
        for v in tm.c_adj[u]:
            if u < v:
                constraints.append(([u, v], 1))
    for v in range(tm.n):
        constraints.append(([v] + list(tm.d_adj[v]), 2))
    order = sorted(range(tm.n), key=lambda v: (-tm.degree(v), v))
    return _maximize(tm.n, constraints, order)


def min_tuple_dominating(g: Graph, l: int) -> SolveResult:
    constraints = [([v] + list(g.adj[v]), l) for v in range(g.n)]
    return _minimize(g.n, constraints, _branch_order(g), l)


def _branch_order(g: Graph) -> list[int]:
    return sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))


def _maximize(
    n: int, constraints: list[tuple[list[int], int]], order: list[int]
) -> SolveResult:
    caps = [limit for _, limit in constraints]
    cons_of: list[list[int]] = [[] for _ in range(n)]
    for idx, (members, _) in enumerate(constraints):
        for v in members:
            cons_of[v].append(idx)

    best_size = -1
    best_set: list[int] = []
    chosen: list[int] = []
    nodes = 0

    def selectable(v: int) -> bool:
        return all(caps[c] >= 1 for c in cons_of[v])

    def rec(pos: int) -> None:
        nonlocal best_size, best_set, nodes
        nodes += 1
        if pos == n:
            if len(chosen) > best_size:
                best_size = len(chosen)
                best_set = sorted(chosen)
            return
        remaining = sum(1 for i in range(pos, n) if selectable(order[i]))
        if len(chosen) + remaining <= best_size:
            return
        v = order[pos]
        if selectable(v):
            chosen.append(v)
            for c in cons_of[v]:
                caps[c] -= 1
            rec(pos + 1)
            for c in cons_of[v]:
                caps[c] += 1
            chosen.pop()
        rec(pos + 1)

    rec(0)
    return SolveResult(best_size, tuple(best_set), nodes)


def _minimize(
    n: int, constraints: list[tuple[list[int], int]], order: list[int], l: int
) -> SolveResult:
    covered = [0] * len(constraints)
    undecided = [len(members) for members, _ in constraints]
    cons_of: list[list[int]] = [[] for _ in range(n)]
    for idx, (members, _) in enumerate(constraints):
        for v in members:
            cons_of[v].append(idx)

    # the full vertex set is feasible (l <= min_degree + 1 was checked)
    best_size = n
    best_set = list(range(n))
    chosen: list[int] = []
    nodes = 0

    def rec(pos: int) -> None:
        nonlocal best_size, best_set, nodes
        nodes += 1
        max_deficit = 0
        for idx in range(len(constraints)):
            deficit = l - covered[idx]
            if deficit > max_deficit:
                max_deficit = deficit
        if len(chosen) + max_deficit >= best_size:
            return
        if pos == n:
            if max_deficit == 0 and len(chosen) < best_size:
                best_size = len(chosen)
                best_set = sorted(chosen)
            return
        v = order[pos]
        for c in cons_of[v]:
            undecided[c] -= 1
        chosen.append(v)
        for c in cons_of[v]:
            covered[c] += 1
        rec(pos + 1)
        chosen.pop()
        for c in cons_of[v]:
            covered[c] -= 1
        # exclude v: feasible only if every constraint retains enough potential
        if all(covered[c] + undecided[c] >= l for c in cons_of[v]):
            rec(pos + 1)
        for c in cons_of[v]:
            undecided[c] += 1

    rec(0)
    return SolveResult(best_size, tuple(best_set), nodes)
