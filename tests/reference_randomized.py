"""Frozen copies of the seed's pairing generator and randomized constructors,
and of the capacity-scan greedy packing.

The differential test in ``test_randomized_reference.py`` compares the
current ``gen_random_regular``, ``sample_and_repair``, ``lll_resample``
and ``greedy_packing`` against these functions on seeded inputs: same
edge lists, same vertex sets, same counters.  They rescan every live
stub per pairing and every closed neighbourhood per resampling round, so
they are quadratic in n; keep the inputs small.  Do not change this
module when the library changes.
"""

from __future__ import annotations

import random
from typing import Optional

from limpack import Graph, LLLParameters, ResourceLimitError, degree_stats
from limpack.randomized import auto_sample_rate, default_lll_parameters


def gen_random_regular(n: int, r: int, seed: int, max_attempts: int = 1000) -> Graph:
    rng = random.Random(seed)
    for _ in range(max_attempts):
        edges = _pairing_attempt(n, r, rng)
        if edges is not None:
            return Graph.from_edges(n, edges)
    raise ResourceLimitError(
        f"no simple {r}-regular graph found on {n} vertices in {max_attempts} attempts"
    )


def _pairing_attempt(n: int, r: int, rng: random.Random) -> list[tuple[int, int]] | None:
    stubs = [v for v in range(n) for _ in range(r)]
    taken: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    while stubs:
        u = stubs[0]
        candidates = [
            i
            for i in range(1, len(stubs))
            if stubs[i] != u and (min(u, stubs[i]), max(u, stubs[i])) not in taken
        ]
        if not candidates:
            return None
        i = candidates[rng.randrange(len(candidates))]
        v = stubs[i]
        taken.add((min(u, v), max(u, v)))
        edges.append((u, v))
        del stubs[i]
        del stubs[0]
    return edges


def sample_and_repair(g: Graph, k: int, p="auto", seed: int = 0) -> tuple[frozenset, int]:
    """(X, repairs) of the seed's sample-and-repair run."""
    rate = auto_sample_rate(degree_stats(g).max_degree, k) if p == "auto" else float(p)
    rng = random.Random(seed)
    chosen = {v for v in range(g.n) if rng.random() < rate}
    repairs = 0
    dirty = True
    while dirty:
        dirty = False
        for v in range(g.n):
            members = sorted(u for u in ({v} | set(g.adj[v])) if u in chosen)
            excess = len(members) - k
            if excess > 0:
                for u in members[-excess:]:
                    chosen.discard(u)
                repairs += excess
                dirty = True
    return frozenset(chosen), repairs


def lll_resample(
    g: Graph,
    k: int,
    params: Optional[LLLParameters] = None,
    seed: int = 0,
    max_rounds: int = 100_000,
) -> tuple[frozenset, int, bool, Optional[bool]]:
    """(X, rounds, success, size_target_met) of the seed's resampling run."""
    if params is None:
        params = default_lll_parameters(g, k)
    rng = random.Random(seed)
    chosen = {v for v in range(g.n) if rng.random() < params.p}
    rounds = 0
    while rounds < max_rounds:
        violated = _lowest_violated(g, chosen, k)
        if violated is None:
            size_ok = len(chosen) >= (1.0 - params.epsilon2) * g.n * params.p
            return frozenset(chosen), rounds, True, size_ok
        rounds += 1
        for u in sorted({violated} | set(g.adj[violated])):
            if rng.random() < params.p:
                chosen.add(u)
            else:
                chosen.discard(u)
    return frozenset(chosen), rounds, False, None


def _lowest_violated(g: Graph, chosen: set[int], k: int) -> Optional[int]:
    for v in range(g.n):
        count = (v in chosen) + sum(1 for u in g.adj[v] if u in chosen)
        if count >= k + 1:
            return v
    return None


def greedy_packing(g: Graph, k: int) -> frozenset[int]:
    """The greedy packing that checks the caps of all of N[v] for every v."""
    caps = [k] * g.n
    chosen: set[int] = set()
    for v in range(g.n):
        if caps[v] >= 1 and all(caps[u] >= 1 for u in g.adj[v]):
            chosen.add(v)
            caps[v] -= 1
            for u in g.adj[v]:
                caps[u] -= 1
    return frozenset(chosen)
