"""Replay the exact solver's searches and check every node.

``replay(solve, *args)`` runs a public exact solve under
``sys.setprofile`` (``python -m trace`` owns ``settrace``; an earlier
profile function is restored) and sees each ``_maximize`` call and each
node, a call of its nested ``rec``.  From the chosen set and the decided
prefix alone, each node must:
- carry the terms addable, live_size and cap_sum as recomputed;
- be a leaf exactly when no live (undecided, selectable) vertex is left;
  a leaf updates the checker's own incumbent, and a search with a
  target stops at the first leaf that reaches it;
- else be pruned exactly when
  addable + (cap_sum - live_size) // size[order[pos]] <= best - |chosen|;
- else step over exactly the unselectable vertices before the first live
  one, v, a node each, and have two children just past v, in the
  problem's branch order.
The front end must build the instance from the graph and search the
fixed order (-size, v), after an include-first search in BFS order
whose optimum is its target exactly when every vertex lies in the same
number of constraints and the BFS order differs.  The node total must be
``nodes_explored``, and the optimum and witness (its complement, for
domination) the checker's incumbent.  So a change to the bound edits one
expression here.

    PYTHONPATH=src python tests/solver_replay.py

replays the n = 40 and 48 cells of ``limpack.scale.GRID`` and prints
each one's nodes and time; pytest does not collect this file.
"""

from __future__ import annotations

import sys
import time

import limpack
from limpack import solver

MAXIMIZE = solver._maximize.__code__
REC = next(c for c in MAXIMIZE.co_consts if getattr(c, "co_name", None) == "rec")


class _Search:
    """The check of one `_maximize` call, given its nodes in call order."""

    def __init__(self, instance, order, exclude_first, target):
        self.constraints, self.cons_of, self.size, self.caps = instance
        self.order, self.exclude_first, self.target = order, exclude_first, target
        self.best = -1 if target is None else target - 1
        self.best_set: list[int] = []
        self.nodes = self.calls = 0
        self.expected = [(None, 0, ())]  # (parent, pos, chosen) of the nodes due, next last

    def node(self, parent, pos, addable, live_size, cap_sum, chosen):
        assert self.expected and self.expected.pop() == (parent, pos, chosen), (parent, pos, chosen)
        index, order, constraints = self.calls, self.order, self.constraints
        self.calls += 1
        self.nodes += 1
        room = list(self.caps)
        for v in chosen:
            for c in self.cons_of[v]:
                room[c] -= 1
        live = [q for q in range(pos, len(order)) if all(room[c] for c in self.cons_of[order[q]])]
        alive = {order[q] for q in live}
        capped = sum(min(cap, len(alive.intersection(m))) for cap, m in zip(room, constraints))
        terms = len(live), sum(self.size[u] for u in alive), capped
        assert (addable, live_size, cap_sum) == terms, (pos, chosen, terms)
        if not live:
            if len(chosen) > self.best:
                self.best, self.best_set = len(chosen), sorted(chosen)
                if self.best == self.target:
                    self.expected.clear()
            return
        if addable + (cap_sum - live_size) // self.size[order[pos]] <= self.best - len(chosen):
            return
        q = live[0]
        self.nodes += q - pos
        taken, left_out = (index, q + 1, chosen + (order[q],)), (index, q + 1, chosen)
        self.expected += [taken, left_out] if self.exclude_first else [left_out, taken]


def replay(solve, *args) -> solver.SolveResult:
    """`solve(*args)`, a public exact solve, with every node of its searches checked."""
    g = args[0]
    dominating = solve is limpack.min_tuple_dominating
    if solve is limpack.max_typed_two_limited:
        c_adj, d_adj, caps = g.c_adj, g.d_adj, [2] * g.n
    else:
        c_adj, d_adj = [()] * g.n, g.adj
        caps = [len(a) + 1 - args[1] for a in g.adj] if dominating else [args[1]] * g.n
    constraints = [[u, v] for u, a in enumerate(c_adj) for v in a if u < v]
    caps = [1] * len(constraints) + caps
    constraints += [[v, *a] for v, a in enumerate(d_adj)]
    cons_of = [[c for c, members in enumerate(constraints) if v in members] for v in range(g.n)]
    size = [len(cs) for cs in cons_of]
    instance = (constraints, cons_of, size, caps)
    searches: list[_Search] = []
    ids: dict[int, int] = {}  # id of a live rec frame: its node's index in the search

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is REC:
            f, search = frame.f_locals, searches[-1]
            ids[id(frame)] = search.calls
            terms = f["pos"], f["addable"], f["live_size"], f["cap_sum"]
            search.node(ids.get(id(frame.f_back)), *terms, tuple(f["chosen"]))
        elif event == "call" and frame.f_code is MAXIMIZE:
            f = frame.f_locals
            assert (f["constraints"], f["cons_of"], f["size"], f["caps"]) == instance
            ids.clear()
            searches.append(_Search(instance, f["order"], f["exclude_first"], f["target"]))

    earlier = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = solve(*args)
    finally:
        sys.setprofile(earlier)
    fixed = sorted(range(g.n), key=lambda v: (-size[v], v))
    bfs: list[int] = []
    for root in range(g.n):
        if root not in bfs:
            bfs.append(root)
            for v in bfs:  # also visits the vertices appended below
                bfs += [u for u in dict.fromkeys((*c_adj[v], *d_adj[v])) if u not in bfs]
    plan = [(fixed, dominating, None)]
    if len(set(size)) == 1 and bfs != fixed:
        plan = [(bfs, False, None), (fixed, dominating, searches[0].best)]
    assert [(s.order, s.exclude_first, s.target) for s in searches] == plan
    assert not any(s.expected for s in searches) and searches[-1].best == searches[0].best
    best, nodes = searches[-1].best_set, sum(s.nodes for s in searches)
    if dominating:
        best = [v for v in range(g.n) if v not in best]
    assert result == solver.SolveResult(len(best), tuple(best), nodes), result
    return result


if __name__ == "__main__":
    from limpack.scale import GRID

    for n, seed, name, limit in GRID:
        if n in (40, 48):
            solve = limpack.max_k_limited if name == "k" else limpack.min_tuple_dominating
            start = time.perf_counter()
            found = replay(solve, limpack.gen_random_regular(n, 3, seed), limit)
            print(f"n={n} seed={seed} {name}={limit}: {found.nodes_explored} nodes,",
                  f"{time.perf_counter() - start:.1f} s", flush=True)
