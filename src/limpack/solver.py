"""Exact solvers for packing and domination numbers, plus a brute-force oracle.

Both optimizers are branch-and-bound searches over a fixed vertex order
(descending degree, ties by index), exploring "include" before "exclude"
and keeping only strict improvements, which makes the returned witness
the lexicographically first optimal set in the branching order.

Both prune with the paper's double-counting bound (k·n/(δ+1), see
``bounds.packing_upper``) applied to the residual instance at each node.
Packing: at most (sum of the residual caps of the constraints that still
contain an undecided selectable vertex) // (fewest constraints any such
vertex lies in) more vertices fit, and never more than the selectable
vertices left.  Domination: at least ceil(sum of deficits / most
constraints any vertex lies in) more vertices are needed, and never fewer
than the largest deficit.  A node is pruned only when its subtree cannot
strictly improve on the incumbent, so the witness rule above is
unaffected by the bounds.

Neither engine rescans the instance at a node.  Each keeps the terms of
its bound up to date as it branches and undoes every update when it
backtracks.  A bound then costs O(1) plus a short histogram scan, and a
branch touches only the constraints of its vertex and, when packing, the
members of a constraint whose cap reaches 0: O(Δ²) updates, plus O(Δ)
for each vertex that becomes unselectable.

Packing state: the residual caps; per vertex, the number of its
constraints whose cap is 0 (it is selectable when that is 0); per
constraint, the number of its undecided selectable ("live") members; the
number of live vertices with each constraint count (`fewest` is the
smallest count in use); their total; and the cap sum of the constraints
with a live member.  Deciding a vertex takes it out of the live counts.
Including it also lowers the caps of its constraints.  A cap that reaches
0 makes all members of that constraint unselectable, and the live ones
leave the counts.

Domination state: per constraint, the members it still needs and its
room (chosen plus undecided members, minus l); a histogram of the
positive deficits; and their sum.  Including a vertex moves each of its
constraints one histogram bucket down and leaves room unchanged.
Excluding it lowers room, and is feasible only when none of its
constraints has room 0.

``enumerate_oracle`` scans all 2^n subsets with no pruning and is the
independent yardstick the rest of the package is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import GraphInputError, InfeasibleError, ResourceLimitError, _check_positive
from .graph import Graph, TypedMultigraph, degree_stats, serialize_packing

DEFAULT_VERTEX_LIMIT = 64
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


def max_k_limited(g: Graph, k: int, vertex_limit: int = DEFAULT_VERTEX_LIMIT) -> SolveResult:
    """Largest k-limited packing of g, with a verifying witness."""
    _check_positive("k", k)
    return _max_limited(TypedMultigraph.from_graph(g), k, vertex_limit)


def max_typed_two_limited(
    tm: TypedMultigraph, vertex_limit: int = DEFAULT_VERTEX_LIMIT
) -> SolveResult:
    """Largest 2-limited set of a typed multigraph.

    Same engine as max_k_limited: each c-edge is an at-most-1 constraint
    and each closed d-neighborhood an at-most-2 constraint.
    """
    return _max_limited(tm, 2, vertex_limit)


def min_tuple_dominating(g: Graph, l: int, vertex_limit: int = DEFAULT_VERTEX_LIMIT) -> SolveResult:
    """Smallest l-tuple dominating set of g.

    Feasible only when l <= min_degree + 1; solved directly (not through
    duality), so it also works on non-regular graphs.
    """
    _check_positive("l", l)
    _check_size(g.n, vertex_limit)
    if g.n > 0:
        stats = degree_stats(g)
        if l > stats.min_degree + 1:
            raise InfeasibleError(
                f"no {l}-tuple dominating set exists: some vertex has only"
                f" {stats.min_degree + 1} vertices in its closed neighborhood"
            )
    closed = [[v, *nbrs] for v, nbrs in enumerate(g.adj)]
    order = sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))
    return _minimize(g.n, closed, order, l)


def enumerate_oracle(
    g: Graph,
    k: Optional[int] = None,
    mode: str = "packing",
    l: Optional[int] = None,
) -> int:
    """Exhaustive scan over all subsets; no pruning; test use only (n <= 20)."""
    if g.n > ORACLE_VERTEX_LIMIT:
        raise ResourceLimitError(
            f"enumerate_oracle is limited to {ORACLE_VERTEX_LIMIT} vertices, got {g.n}"
        )
    masks = [(1 << v) | sum(1 << u for u in g.adj[v]) for v in range(g.n)]
    if mode == "packing":
        if k is None or k < 1:
            raise GraphInputError("packing mode needs a positive k")
        best = 0
        for s in range(1 << g.n):
            if all((s & m).bit_count() <= k for m in masks):
                size = s.bit_count()
                if size > best:
                    best = size
        return best
    if mode == "domination":
        if l is None or l < 1:
            raise GraphInputError("domination mode needs a positive l")
        best = None
        for s in range(1 << g.n):
            if all((s & m).bit_count() >= l for m in masks):
                size = s.bit_count()
                if best is None or size < best:
                    best = size
        if best is None:
            raise InfeasibleError(f"no {l}-tuple dominating set exists")
        return best
    raise GraphInputError(f"unknown oracle mode {mode!r} (packing or domination)")


def _check_size(n: int, vertex_limit: int) -> None:
    if n > vertex_limit:
        raise ResourceLimitError(
            f"graph has {n} vertices (limit {vertex_limit}); use the randomized"
            " constructors (sample_and_repair, lll_resample) for large instances"
        )


def _max_limited(tm: TypedMultigraph, cap: int, vertex_limit: int) -> SolveResult:
    """Largest X with at most 1 member on each c-edge and at most `cap` in
    each closed d-neighborhood, branching on vertices by descending degree."""
    _check_size(tm.n, vertex_limit)
    constraints = [[u, v] for u in range(tm.n) for v in tm.c_adj[u] if u < v]
    caps = [1] * len(constraints) + [cap] * tm.n
    constraints += [[v, *nbrs] for v, nbrs in enumerate(tm.d_adj)]
    order = sorted(range(tm.n), key=lambda v: (-tm.degree(v), v))
    return _maximize(tm.n, constraints, caps, order)


def _membership(n: int, constraints: list[list[int]]) -> list[list[int]]:
    """For every vertex, the indices of the constraints it belongs to."""
    cons_of: list[list[int]] = [[] for _ in range(n)]
    for idx, members in enumerate(constraints):
        for v in members:
            cons_of[v].append(idx)
    return cons_of


def _maximize(
    n: int, constraints: list[list[int]], caps: list[int], order: list[int]
) -> SolveResult:
    """Branch and bound for the largest set within every constraint's cap.

    Every cap must be positive and every vertex must lie in at least one
    constraint, so `fewest` below is never 0.
    """
    cons_of = _membership(n, constraints)
    size = [len(cs) for cs in cons_of]
    smallest = min(size, default=1)
    rank = [0] * n
    for pos, v in enumerate(order):
        rank[v] = pos
    # zero[v]: v's constraints whose cap is 0; v is selectable when it is 0.
    # An undecided selectable vertex is "live"; live[c] counts c's live
    # members, by_size[s] the live vertices in s constraints, and cap_sum
    # sums the caps of the constraints with a live member.  Every cap starts
    # positive, so at the root every vertex is live.
    zero = [0] * n
    live = [len(members) for members in constraints]
    by_size = [0] * (max(size, default=0) + 1)
    for count in size:
        by_size[count] += 1
    addable = n
    cap_sum = sum(caps)

    best_size = -1
    best_set: list[int] = []
    chosen: list[int] = []
    nodes = 0

    def drop(u: int) -> None:
        nonlocal addable, cap_sum
        addable -= 1
        by_size[size[u]] -= 1
        for c in cons_of[u]:
            live[c] -= 1
            if not live[c]:
                cap_sum -= caps[c]

    def restore(u: int) -> None:
        nonlocal addable, cap_sum
        addable += 1
        by_size[size[u]] += 1
        for c in cons_of[u]:
            if not live[c]:
                cap_sum += caps[c]
            live[c] += 1

    def rec(pos: int) -> None:
        nonlocal best_size, best_set, nodes, cap_sum
        nodes += 1
        if pos == n:
            if len(chosen) > best_size:
                best_size = len(chosen)
                best_set = sorted(chosen)
            return
        # Residual double counting: adding a live vertex spends one unit of
        # each of its constraints (at least `fewest` of them, all counted in
        # cap_sum), so at most cap_sum // fewest more vertices fit.
        bound = 0
        if addable:
            fewest = smallest
            while not by_size[fewest]:
                fewest += 1
            bound = min(addable, cap_sum // fewest)
        if len(chosen) + bound <= best_size:
            return
        v = order[pos]
        if zero[v]:
            rec(pos + 1)
            return
        drop(v)
        chosen.append(v)
        for c in cons_of[v]:
            if live[c]:
                cap_sum -= 1
            caps[c] -= 1
            if not caps[c]:
                for u in constraints[c]:
                    zero[u] += 1
                    if zero[u] == 1 and rank[u] > pos:
                        drop(u)
        rec(pos + 1)
        for c in cons_of[v]:
            if not caps[c]:
                for u in constraints[c]:
                    zero[u] -= 1
                    if not zero[u] and rank[u] > pos:
                        restore(u)
            caps[c] += 1
            if live[c]:
                cap_sum += 1
        chosen.pop()
        rec(pos + 1)
        restore(v)

    rec(0)
    return SolveResult(best_size, tuple(best_set), nodes)


def _minimize(n: int, constraints: list[list[int]], order: list[int], l: int) -> SolveResult:
    """Branch and bound for the smallest set with at least l members in
    every constraint."""
    cons_of = _membership(n, constraints)
    most = max((len(cs) for cs in cons_of), default=1)
    # need[c] = l - (chosen members of c); short[d] counts the constraints
    # with deficit d = need > 0 (short[0] collects the rest) and deficit_sum
    # sums those deficits.  room[c] = chosen + undecided members - l.
    need = [l] * len(constraints)
    short = [0] * (l + 1)
    short[l] = len(constraints)
    deficit_sum = l * len(constraints)
    room = [len(members) - l for members in constraints]

    # the full vertex set is feasible (l <= min_degree + 1 was checked)
    best_size = n
    best_set = list(range(n))
    chosen: list[int] = []
    nodes = 0

    def rec(pos: int) -> None:
        nonlocal best_size, best_set, nodes, deficit_sum
        nodes += 1
        # Residual double counting: an addition lowers the total deficit by
        # at most `most`, the largest number of constraints a vertex lies in.
        if len(chosen) - (-deficit_sum // most) >= best_size:
            return
        max_deficit = l
        while max_deficit and not short[max_deficit]:
            max_deficit -= 1
        if len(chosen) + max_deficit >= best_size:
            return
        if pos == n:
            if max_deficit == 0 and len(chosen) < best_size:
                best_size = len(chosen)
                best_set = sorted(chosen)
            return
        v = order[pos]
        cs = cons_of[v]
        # include v: room is unchanged, one more member counts toward need
        chosen.append(v)
        for c in cs:
            d = need[c]
            need[c] = d - 1
            if d > 0:
                short[d] -= 1
                short[d - 1] += 1
                deficit_sum -= 1
        rec(pos + 1)
        for c in cs:
            d = need[c] + 1
            need[c] = d
            if d > 0:
                short[d] += 1
                short[d - 1] -= 1
                deficit_sum += 1
        chosen.pop()
        # exclude v: feasible only if no constraint of v has room 0
        for c in cs:
            if not room[c]:
                return
        for c in cs:
            room[c] -= 1
        rec(pos + 1)
        for c in cs:
            room[c] += 1

    rec(0)
    return SolveResult(best_size, tuple(best_set), nodes)
