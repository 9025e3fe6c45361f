"""Randomized k-limited packing constructors.

``sample_and_repair`` picks each vertex independently with probability p
and then deletes excess vertices from overfull closed neighborhoods; its
auto rate p = (C(D,k)*(D+1))^(-1/k) maximizes the guaranteed expected
size p - C(D+1,k+1)*p^(k+1) per vertex, which works out to exactly the
random lower bound of the bound sheet.  The repair is driven by
count[v] = |N[v] ∩ X|: only vertices that start above k are visited, in
ascending order, and each deletion lowers the counts around the deleted
vertex, so the pass costs O(|X|·D) plus the visited neighborhoods
instead of a sorted scan of every closed neighborhood.

``lll_resample`` is a resampling loop in the Moser-Tardos style: while
some closed neighborhood holds k+1 or more chosen vertices, the whole
neighborhood of the lowest such vertex is resampled.  The loop keeps
count[v] = |N[v] ∩ X| for every v and a lazy min-heap that holds every
vertex with count[v] > k (stale entries, whose count has since dropped,
are discarded when they reach the top), so the top entry is the lowest
violated vertex.  A resample updates the counts over the closed
neighborhood of each vertex that changed membership, O(D^2) per round
instead of a scan of all n neighborhoods.

The resampler is this package's algorithmic realization of an existence
argument via the local lemma, not a construction taken from anywhere
else; the parameter epsilon1 = sqrt(5/log log D) only drops below 1 at
astronomically large D, so desk-scale runs always carry ``clamped=True``
and are judged on validity, determinism, and size statistics rather than
the asymptotic constant.

All runs are deterministic for a fixed seed: one independent generator
per run, no global state.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Optional, Union

from .errors import GraphInputError, _check_positive
from .graph import Graph, closed_counts, degree_stats
from .verify import Packing


@dataclass(frozen=True)
class LLLParameters:
    """Resampler parameters; `clamped` marks any value forced into range.

    epsilon1 is sqrt(5 / log log D) when that lies in (0, 1) and the
    clamp value otherwise; epsilon2 is 3/sqrt(k*D) treated the same way;
    p is (1 - epsilon1)(k+1)/(D+1) forced into (0, 1].
    """

    epsilon1: float
    epsilon2: float
    p: float
    clamped: bool


@dataclass(frozen=True)
class RandomRunReport:
    """Outcome of one randomized construction run.

    `rounds` counts resampling rounds (0 for sample_and_repair);
    `repairs` counts vertices deleted by repair (0 for the resampler).
    On resampler failure `success` is False and `packing` holds the last,
    possibly invalid, vertex set for diagnosis only.  `size_target_met`
    records |X| >= (1 - epsilon2) * n * p for resampler successes.
    """

    packing: Packing
    rounds: int
    repairs: int
    seed: int
    success: bool = True
    size_target_met: Optional[bool] = None
    params: Optional[LLLParameters] = None


def lll_parameters(max_degree: int, k: int, clamp: float = 0.5) -> LLLParameters:
    """Evaluate the resampler parameters with natural logarithms.

    Values that fall outside their ranges (epsilon1 and epsilon2 outside
    (0,1), p above 1) are clamped and flagged; log log D is undefined for
    D <= e, which also clamps epsilon1.
    """
    if max_degree < 2:
        raise GraphInputError(f"max_degree must be at least 2, got {max_degree}")
    _check_positive("k", k)
    if not (0.0 < clamp < 1.0):
        raise GraphInputError(f"clamp must lie in (0, 1), got {clamp}")
    loglog = math.log(math.log(max_degree))
    raws = (
        math.sqrt(5.0 / loglog) if loglog > 0 else math.inf,  # undefined for D <= e
        3.0 / math.sqrt(k * max_degree),
    )
    epsilon1, epsilon2 = (clamp if raw >= 1.0 else raw for raw in raws)
    p = (1.0 - epsilon1) * (k + 1) / (max_degree + 1)
    return LLLParameters(epsilon1, epsilon2, min(p, 1.0), max(raws) >= 1.0 or p > 1.0)


def auto_sample_rate(max_degree: int, k: int) -> float:
    """Sampling rate for sample_and_repair: (C(D,k)*(D+1))^(-1/k).

    This maximizes p - C(D+1,k+1)*p^(k+1), the guaranteed per-vertex
    expected yield of sampling followed by repair; for k > D the packing
    is all of V and the rate is 1.
    """
    _check_positive("k", k)
    if k > max_degree:
        return 1.0
    base = math.comb(max_degree, k) * (max_degree + 1)
    return base ** (-1.0 / k)


def sample_and_repair(
    g: Graph, k: int, p: Union[float, str] = "auto", seed: int = 0
) -> RandomRunReport:
    """Independent sampling at rate p, then deterministic repair.

    For v = 0..n-1 in turn, the members of N[v] beyond the first k (by
    index) are deleted.  Deletions never raise a count, so after the one
    pass every closed neighborhood holds at most k members and the result
    always verifies; identical inputs and seed give identical reports.
    For the same reason a vertex whose count starts at k or below never
    needs repair: the pass visits only the others, keeping each count
    current as members are deleted.
    """
    _check_positive("k", k)
    if p == "auto":
        rate = auto_sample_rate(degree_stats(g).max_degree, k)
    else:
        rate = float(p)
        if not (0.0 <= rate <= 1.0):
            raise GraphInputError(f"p must lie in [0, 1], got {rate}")
    rng = random.Random(seed)
    chosen = {v for v in range(g.n) if rng.random() < rate}
    count = closed_counts(g.adj, chosen)
    repairs = 0
    for v in [v for v, c in enumerate(count) if c > k]:
        excess = count[v] - k
        if excess > 0:
            doomed = sorted(u for u in (v, *g.adj[v]) if u in chosen)[-excess:]
            chosen.difference_update(doomed)
            repairs += excess
            for u in doomed:
                count[u] -= 1
                for w in g.adj[u]:
                    count[w] -= 1
    return RandomRunReport(
        packing=Packing(k, frozenset(chosen)),
        rounds=0,
        repairs=repairs,
        seed=seed,
    )


def resample_step(
    g: Graph, chosen: set[int], v: int, p: float, rng: random.Random
) -> list[int]:
    """Resample membership of every vertex of N[v] independently at rate p.

    Draws one ``rng.random()`` per vertex of N[v] in increasing order and
    returns the vertices whose membership changed, in that order.
    """
    flipped = []
    for u in sorted({v} | set(g.adj[v])):
        inside = rng.random() < p
        if inside != (u in chosen):
            (chosen.add if inside else chosen.discard)(u)
            flipped.append(u)
    return flipped


def default_lll_parameters(g: Graph, k: int) -> LLLParameters:
    """The parameters lll_resample uses when none are given.

    With k at or above the maximum degree every set is k-limited, so p = 1.
    """
    max_degree = degree_stats(g).max_degree
    if k > max_degree:
        return LLLParameters(0.0, 0.0, 1.0, False)
    return lll_parameters(max(2, max_degree), k)


def lll_resample(
    g: Graph,
    k: int,
    params: Optional[LLLParameters] = None,
    seed: int = 0,
    max_rounds: int = 100_000,
) -> RandomRunReport:
    """Resampling constructor: fix violated neighborhoods until none remain.

    Each round resamples the closed neighborhood of the lowest-index
    vertex v with |N[v] ∩ X| >= k+1.  Exhausting max_rounds returns a
    failure report carrying the last X; it is never presented as a valid
    packing.  Success reports record whether |X| >= (1-epsilon2)*n*p.
    """
    _check_positive("k", k)
    if max_rounds < 1:
        raise GraphInputError(f"max_rounds must be at least 1, got {max_rounds}")
    if params is None:
        params = default_lll_parameters(g, k)
    if not (0.0 < params.p <= 1.0):
        raise GraphInputError(f"p must lie in (0, 1], got {params.p}")
    rng = random.Random(seed)
    chosen = {v for v in range(g.n) if rng.random() < params.p}
    count = closed_counts(g.adj, chosen)
    violated = [v for v in range(g.n) if count[v] > k]  # sorted, hence a heap
    rounds = 0
    while rounds < max_rounds:
        while violated and count[violated[0]] <= k:
            heapq.heappop(violated)
        if not violated:
            size_ok = len(chosen) >= (1.0 - params.epsilon2) * g.n * params.p
            return RandomRunReport(
                packing=Packing(k, frozenset(chosen)),
                rounds=rounds,
                repairs=0,
                seed=seed,
                success=True,
                size_target_met=size_ok,
                params=params,
            )
        rounds += 1
        for u in resample_step(g, chosen, violated[0], params.p, rng):
            delta = 1 if u in chosen else -1
            for w in (u, *g.adj[u]):
                count[w] += delta
                if delta > 0 and count[w] == k + 1:
                    heapq.heappush(violated, w)
    return RandomRunReport(
        packing=Packing(k, frozenset(chosen)),
        rounds=rounds,
        repairs=0,
        seed=seed,
        success=False,
        size_target_met=None,
        params=params,
    )
