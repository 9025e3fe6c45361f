"""Frozen copy of the exact solver whose residual bound rescans every node.

Both engines here recompute the residual double-counting bound from
scratch at each node: ``_maximize`` walks every undecided vertex and its
constraints, ``_minimize`` walks every constraint's coverage.  The solver
in ``limpack.solver`` keeps the same bound up to date incrementally and
must explore exactly the same tree, so ``test_solver_incremental.py``
requires results equal to these, node counts included.  Do not change
this module when the solver changes.
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
    order = sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))
    return _minimize(g.n, closed, order, l)


def _max_limited(tm: TypedMultigraph, cap: int) -> SolveResult:
    constraints = [[u, v] for u in range(tm.n) for v in tm.c_adj[u] if u < v]
    caps = [1] * len(constraints) + [cap] * tm.n
    constraints += [[v, *nbrs] for v, nbrs in enumerate(tm.d_adj)]
    order = sorted(range(tm.n), key=lambda v: (-tm.degree(v), v))
    return _maximize(tm.n, constraints, caps, order)


def _membership(n: int, constraints: list[list[int]]) -> list[list[int]]:
    cons_of: list[list[int]] = [[] for _ in range(n)]
    for idx, members in enumerate(constraints):
        for v in members:
            cons_of[v].append(idx)
    return cons_of


def _maximize(
    n: int, constraints: list[list[int]], caps: list[int], order: list[int]
) -> SolveResult:
    cons_of = _membership(n, constraints)
    cons_from_last = [cons_of[v] for v in reversed(order)]
    live_at = [0] * len(constraints)

    best_size = -1
    best_set: list[int] = []
    chosen: list[int] = []
    nodes = 0

    def rec(pos: int) -> None:
        nonlocal best_size, best_set, nodes
        nodes += 1
        if pos == n:
            if len(chosen) > best_size:
                best_size = len(chosen)
                best_set = sorted(chosen)
            return
        addable = 0
        cap_sum = 0
        fewest = len(caps)
        for cs in cons_from_last[: n - pos]:
            selectable = 0 not in [caps[c] for c in cs]
            if selectable:
                addable += 1
                if len(cs) < fewest:
                    fewest = len(cs)
                for c in cs:
                    if live_at[c] != nodes:
                        live_at[c] = nodes
                        cap_sum += caps[c]
        if len(chosen) + min(addable, cap_sum // fewest) <= best_size:
            return
        v = order[pos]
        if selectable:
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


def _minimize(n: int, constraints: list[list[int]], order: list[int], l: int) -> SolveResult:
    covered = [0] * len(constraints)
    undecided = [len(members) for members in constraints]
    cons_of = _membership(n, constraints)
    most = max((len(cs) for cs in cons_of), default=1)

    best_size = n
    best_set = list(range(n))
    chosen: list[int] = []
    nodes = 0

    def rec(pos: int) -> None:
        nonlocal best_size, best_set, nodes
        nodes += 1
        max_deficit = 0
        deficit_sum = 0
        for cov in covered:
            deficit = l - cov
            if deficit > 0:
                deficit_sum += deficit
                if deficit > max_deficit:
                    max_deficit = deficit
        if len(chosen) + max(max_deficit, -(-deficit_sum // most)) >= best_size:
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
        if all(covered[c] + undecided[c] >= l for c in cons_of[v]):
            rec(pos + 1)
        for c in cons_of[v]:
            undecided[c] += 1

    rec(0)
    return SolveResult(best_size, tuple(best_set), nodes)
