"""Exact solvers for packing and domination numbers, plus a brute-force oracle.

One branch-and-bound engine, ``_maximize``, called from one front end,
``_solve``, serves every exact solve of at most ``VERTEX_LIMIT``
vertices (it recurses at most once per vertex).  It finds the largest
vertex set with at most 1 member on each c-edge and at most caps[v]
members in each closed d-neighborhood N[v].  A k-limited packing has
no c-edges and cap k everywhere (a typed multigraph, cap 2).
Domination is the same search on the complement: D is l-tuple
dominating exactly when Y = V - D has at most |N[v]| - l members in
every N[v], so the smallest D is V minus the largest such Y.

The witness comes from a fixed vertex order, most constraints first
(descending degree, ties by index): it is the first optimal set in
branching order, the one a search that keeps only strict improvements
ends with.  A packing tries "include" first.  Domination tries "exclude
from Y" first, which is "include in D" first, so its witness is the
lexicographically first smallest D in that order.

When every vertex lies in the same number of constraints, that order is
index order and ignores the graph.  If the BFS order (each component
from its lowest unvisited vertex, c- then d-neighbours) differs from it,
the solve takes two searches, and ``nodes_explored`` counts both:
- the optimum, from an include-first search in BFS order;
- the witness, from the fixed-order search with its own branch
  direction, whose incumbent starts at optimum - 1 and which stops at
  the first leaf of size optimum.
That leaf is the same witness: each of its ancestors has a bound of at
least optimum, so the raised incumbent prunes none of them, and no
earlier leaf reaches optimum.  Every other instance takes the one
fixed-order search.

At each node, call the undecided vertices that can still be selected
"live".  Every constraint c can take at most min(cap_c, live_c) more
members; cap_sum sums that over the constraints, live_size sums the
constraint counts of the live vertices, and `fewest` and `most` are the
smallest count of a live vertex and the largest of any vertex.  At most
`addable` (the live vertices) more fit, and never more than:
- cap_sum // fewest: each addition spends one unit of cap_sum in each of
  its constraints (the paper's double-counting bound k·n/(δ+1), see
  ``bounds.packing_upper``, on the residual instance);
- addable + (cap_sum - live_size) // most: the live vertices left out
  must cover the excess live_size - cap_sum, at most `most` each.
A node is pruned only when its subtree cannot strictly improve on the
incumbent, so the witness rule above is unaffected by the bound.  A node
with no live vertex is a leaf.

The engine never rescans the instance at a node.  ``_solve`` builds the
constraint lists once per solve and hands them to each search.  The
state kept in place: the residual caps; per vertex, the number of its
constraints whose cap is 0 (it is selectable when that is 0, so a cap of
0 at the root leaves its members unselectable from the start); per
constraint, its live members; the number of live vertices with each
constraint count.  The search updates these as it branches and undoes
them as it backtracks.  addable, live_size and cap_sum are arguments of
each node instead, so each branch works on its own copies and has
nothing of them to undo.  A bound costs O(1) plus a short histogram
scan.  Deciding a vertex takes it out of the live counts; including it
also lowers the caps of its constraints, and a cap that reaches 0 makes
all members of that constraint unselectable (the live ones leave the
counts).  A branch thus costs O(Δ²) updates, plus O(Δ) for each vertex
that becomes unselectable, and moves cap_sum by at most 1 per
constraint.  Deciding an unselectable vertex changes no state, so a node
steps over a run of them in one loop and counts one node for each.

``enumerate_oracle`` scans all 2^n subsets with no pruning and is the
independent yardstick the rest of the package is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import GraphInputError, InfeasibleError, ResourceLimitError, _check_arg, _show
from .graph import Graph, TypedMultigraph, bfs_levels, serialize_packing

VERTEX_LIMIT = 64
ORACLE_VERTEX_LIMIT = 20


@dataclass(frozen=True)
class SolveResult:
    optimum: int
    witness: tuple[int, ...]
    nodes_explored: int

    def to_text(self) -> str:
        return (
            f"optimum: {self.optimum}\n"
            f"witness: {serialize_packing(self.witness)}"
            f"nodes: {self.nodes_explored}\n"
        )


def max_k_limited(g: Graph, k: int) -> SolveResult:
    """Largest k-limited packing of g, with a verifying witness."""
    _check_arg("k", k, 1)
    return _solve((), g.adj, [k] * g.n)


def max_typed_two_limited(tm: TypedMultigraph) -> SolveResult:
    """Largest 2-limited set of a typed multigraph.

    Same engine as max_k_limited: each c-edge is an at-most-1 constraint
    and each closed d-neighborhood an at-most-2 constraint.
    """
    return _solve(tm.c_adj, tm.d_adj, [2] * tm.n)


def min_tuple_dominating(g: Graph, l: int) -> SolveResult:
    """Smallest l-tuple dominating set of g.

    Feasible only when l <= min_degree + 1; solved as the complement
    packing (caps |N[v]| - l), so it also works on non-regular graphs.
    """
    _check_arg("l", l, 1)
    _check_size(g.n)
    caps = [len(a) + 1 - l for a in g.adj]
    if min(caps, default=0) < 0:
        raise InfeasibleError(
            f"no {_show(l)}-tuple dominating set exists: some vertex has only"
            f" {min(caps) + l} vertices in its closed neighborhood"
        )
    kept = _solve((), g.adj, caps, exclude_first=True)
    dominating = sorted(set(range(g.n)).difference(kept.witness))
    return SolveResult(g.n - kept.optimum, tuple(dominating), kept.nodes_explored)


def enumerate_oracle(g: Graph, k: Optional[int] = None, l: Optional[int] = None) -> int:
    """Exhaustive scan over all subsets; no pruning; test use only (n <= 20).

    The limit names the problem, as in the solvers: given k, the largest
    k-limited packing; given l, the smallest l-tuple dominating set.
    Exactly one of the two must be given."""
    if (k is None) == (l is None):
        raise GraphInputError("enumerate_oracle needs exactly one of k and l")
    name, limit = ("k", k) if l is None else ("l", l)
    _check_arg(name, limit, 1)
    if g.n > ORACLE_VERTEX_LIMIT:
        raise ResourceLimitError(
            f"enumerate_oracle is limited to {ORACLE_VERTEX_LIMIT} vertices, got {g.n}"
        )
    masks = [(1 << v) | sum(1 << u for u in g.adj[v]) for v in range(g.n)]
    if l is None:
        best = 0
        for s in range(1 << g.n):
            if all((s & m).bit_count() <= k for m in masks):
                size = s.bit_count()
                if size > best:
                    best = size
        return best
    best = None
    for s in range(1 << g.n):
        if all((s & m).bit_count() >= l for m in masks):
            size = s.bit_count()
            if best is None or size < best:
                best = size
    if best is None:
        raise InfeasibleError(f"no {_show(l)}-tuple dominating set exists")
    return best


def _check_size(n: int) -> None:
    if n > VERTEX_LIMIT:
        raise ResourceLimitError(
            f"graph has {n} vertices (limit {VERTEX_LIMIT}); use the randomized"
            " constructors (sample_and_repair, lll_resample) for large instances"
        )


class _Found(Exception):
    """A search reached its target size."""


def _solve(
    c_adj: Sequence[Sequence[int]],
    d_adj: Sequence[Sequence[int]],
    caps: list[int],
    exclude_first: bool = False,
) -> SolveResult:
    """`_maximize` in the fixed order, most constraints first, ties by
    index; on a regular instance whose BFS order differs, the optimum
    comes from an include-first search in BFS order, and the fixed-order
    search then only looks for the first leaf of that size."""
    n = len(d_adj)
    _check_size(n)
    constraints = [[u, v] for u, nbrs in enumerate(c_adj) for v in nbrs if u < v]
    caps = [1] * len(constraints) + caps
    constraints += [[v, *nbrs] for v, nbrs in enumerate(d_adj)]
    cons_of: list[list[int]] = [[] for _ in range(n)]
    for c, members in enumerate(constraints):
        for v in members:
            cons_of[v].append(c)
    size = [len(cs) for cs in cons_of]
    instance = (constraints, cons_of, size, caps)
    order = sorted(range(n), key=lambda v: (-size[v], v))
    if min(size, default=0) == max(size, default=0):
        neighbors = (lambda v: c_adj[v] + d_adj[v]) if c_adj else d_adj.__getitem__
        seen: dict[int, int] = {}
        for root in range(n):
            if root not in seen:
                seen.update(bfs_levels(neighbors, root))
        if list(seen) != order:
            # A search that runs to the end leaves caps as it found them.
            first = _maximize(*instance, list(seen))
            last = _maximize(*instance, order, exclude_first, first.optimum)
            nodes = first.nodes_explored + last.nodes_explored
            return SolveResult(last.optimum, last.witness, nodes)
    return _maximize(*instance, order, exclude_first)


def _maximize(
    constraints: list[list[int]],
    cons_of: list[list[int]],
    size: list[int],
    caps: list[int],
    order: list[int],
    exclude_first: bool = False,
    target: Optional[int] = None,
) -> SolveResult:
    """Branch and bound for the largest X with at most caps[c] >= 0 of
    the members of each constraint c, deciding the vertices in `order`; with
    `exclude_first`, each vertex is first left out, then taken.  Given
    the optimum as `target`, the incumbent starts one below it and the
    search stops at the first leaf that reaches it."""
    n = len(cons_of)
    smallest = min(size, default=1)
    most = max(size, default=1)
    rank = [0] * n
    for pos, v in enumerate(order):
        rank[v] = pos
    # zero[v]: v's constraints whose cap is 0; v is selectable when it is 0.
    # An undecided selectable vertex is "live"; live[c] counts c's live
    # members and by_size[s] the live vertices in s constraints.
    zero = [0] * n
    for c, cap in enumerate(caps):
        if not cap:
            for u in constraints[c]:
                zero[u] += 1
    live = [0] * len(constraints)
    by_size = [0] * (most + 1)
    for v in range(n):
        if not zero[v]:
            by_size[size[v]] += 1
            for c in cons_of[v]:
                live[c] += 1

    best_size = -1 if target is None else target - 1
    best_set: list[int] = []
    chosen: list[int] = []
    nodes = 0

    def rec(pos: int, addable: int, live_size: int, cap_sum: int) -> None:
        nonlocal best_size, best_set, nodes
        nodes += 1
        if not addable:
            if len(chosen) > best_size:
                best_size = len(chosen)
                best_set = sorted(chosen)
                if best_size == target:
                    raise _Found
            return
        # The bound's second term first: it needs no histogram scan.
        room = best_size - len(chosen)
        if addable + (cap_sum - live_size) // most <= room:
            return
        fewest = smallest
        while not by_size[fewest]:
            fewest += 1
        if cap_sum // fewest <= room:
            return
        v = order[pos]
        while zero[v]:
            pos += 1
            v = order[pos]
            nodes += 1
        # v leaves the live counts in both branches.
        addable -= 1
        live_size -= size[v]
        by_size[size[v]] -= 1
        for c in cons_of[v]:
            if live[c] <= caps[c]:
                cap_sum -= 1
            live[c] -= 1
        if exclude_first:
            rec(pos + 1, addable, live_size, cap_sum)
        chosen.append(v)
        add, lsize, csum = addable, live_size, cap_sum
        for c in cons_of[v]:
            if caps[c] <= live[c]:
                csum -= 1
            caps[c] -= 1
            if not caps[c]:
                for u in constraints[c]:
                    zero[u] += 1
                    if zero[u] == 1 and rank[u] > pos:
                        add -= 1
                        lsize -= size[u]
                        by_size[size[u]] -= 1
                        for d in cons_of[u]:
                            if live[d] <= caps[d]:
                                csum -= 1
                            live[d] -= 1
        rec(pos + 1, add, lsize, csum)
        for c in cons_of[v]:
            if not caps[c]:
                for u in constraints[c]:
                    zero[u] -= 1
                    if not zero[u] and rank[u] > pos:
                        by_size[size[u]] += 1
                        for d in cons_of[u]:
                            live[d] += 1
            caps[c] += 1
        chosen.pop()
        if not exclude_first:
            rec(pos + 1, addable, live_size, cap_sum)
        by_size[size[v]] += 1
        for c in cons_of[v]:
            live[c] += 1

    live_size = sum(s * count for s, count in enumerate(by_size))
    try:
        rec(0, sum(by_size), live_size, sum(map(min, caps, live)))
    except _Found:
        pass
    return SolveResult(best_size, tuple(best_set), nodes)
