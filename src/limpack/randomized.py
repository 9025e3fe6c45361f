"""Randomized k-limited packing constructors.

Both constructors choose each vertex independently with probability p
and then apply local fixes until no closed neighborhood holds more than
k chosen vertices.  They share one loop, ``_fix_overfull``: it keeps
count[v] = |N[v] ∩ X| for every v and a lazy min-heap that holds every
overfull vertex, count[v] > k (stale entries, whose count has since
dropped, are discarded when they reach the top).  It hands the lowest
overfull vertex to the constructor's fix and updates the counts over the
closed neighborhood of each vertex the fix flipped, O(D^2) per fix
instead of a scan of all n neighborhoods.

``sample_and_repair`` fixes v by deleting the members of N[v] above the
lowest k.  Deletions never raise a count, so only vertices that start
overfull are fixed, each once and in ascending order, and the result
always verifies.  Its auto rate p = (C(D,k)*(D+1))^(-1/k) maximizes the
guaranteed expected size p - C(D+1,k+1)*p^(k+1) per vertex, which works
out to exactly the random lower bound of the bound sheet.  In both
constructors p=None means the method's own rate and a number (an int or
a float, not a bool or a string) overrides it.

``lll_resample`` fixes v in the Moser-Tardos style, by resampling the
whole of N[v], for at most ``max_rounds`` rounds.  The resampler is this
package's algorithmic realization of an existence argument via the local
lemma, not a construction taken from anywhere else; the parameter
epsilon1 = sqrt(5/log log D) only drops below 1 at astronomically large
D, so desk-scale runs clamp it to the constant 0.5, carry
``clamped=True`` and are judged on validity, determinism, and size
statistics rather than the asymptotic constant.

All runs are deterministic for a fixed seed, which must be an int (None
would draw from OS entropy): one independent generator per run, no
global state.
"""

from __future__ import annotations

import heapq
import math
import random
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .bounds import _sampling_base
from .errors import GraphInputError, _check_arg
from .graph import Graph, closed_counts, degree_stats
from .verify import Packing

MAX_ROUNDS = 100_000


@dataclass(frozen=True)
class LLLParameters:
    """Resampler parameters; `clamped` marks any value forced into range.

    epsilon1 is sqrt(5 / log log D) when that lies in (0, 1) and the
    constant 0.5 otherwise; epsilon2 is 3/sqrt(k*D) treated the same way;
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
    `success` is False exactly when some closed neighborhood is still
    overfull; `packing` then holds that invalid vertex set for diagnosis
    only.  `size_target_met` records |X| >= (1 - epsilon2) * n * p for
    resampler successes.
    """

    packing: Packing
    rounds: int
    repairs: int
    seed: int
    success: bool = True
    size_target_met: Optional[bool] = None
    params: Optional[LLLParameters] = None


def lll_parameters(max_degree: int, k: int) -> LLLParameters:
    """Evaluate the resampler parameters with natural logarithms.

    Values that fall outside their ranges are clamped and flagged:
    epsilon1 and epsilon2 outside (0,1) become the constant 0.5, p above
    1 becomes 1; log log D is undefined for D <= e, which also clamps
    epsilon1.
    """
    _check_arg("max_degree", max_degree, 2)
    _check_arg("k", k, 1)
    if k * max_degree > sys.float_info.max:
        raise GraphInputError(f"k*max_degree must be at most {sys.float_info.max!r}")
    loglog = math.log(math.log(max_degree))
    raws = (
        math.sqrt(5.0 / loglog) if loglog > 0 else math.inf,  # undefined for D <= e
        3.0 / math.sqrt(k * max_degree),
    )
    epsilon1, epsilon2 = (0.5 if raw >= 1.0 else raw for raw in raws)
    p = (1.0 - epsilon1) * (k + 1) / (max_degree + 1)
    return LLLParameters(epsilon1, epsilon2, min(p, 1.0), max(raws) >= 1.0 or p > 1.0)


def auto_sample_rate(max_degree: int, k: int) -> float:
    """Sampling rate for sample_and_repair: (C(D,k)*(D+1))^(-1/k).

    This maximizes p - C(D+1,k+1)*p^(k+1), the guaranteed per-vertex
    expected yield of sampling followed by repair; for k > D the packing
    is all of V and the rate is 1.
    """
    _check_arg("max_degree", max_degree, 0, sys.float_info.max)
    _check_arg("k", k, 1)
    if k > max_degree:
        return 1.0
    return _sampling_base(max_degree, k)[1]


def sample_and_repair(
    g: Graph, k: int, p: Optional[float] = None, seed: int = 0
) -> RandomRunReport:
    """Independent sampling at rate p, then deterministic repair.

    p=None samples at auto_sample_rate(D, k), never clamped; a given p
    must lie in [0, 1].  While some closed neighborhood holds more than k
    members, the lowest such vertex v loses the members of N[v] above the
    lowest k (by index).  Deletions never raise a count, so the repair
    always ends with a verifying set; identical inputs and seed give
    identical reports.
    """
    _check_arg("k", k, 1)
    _check_arg("seed", seed)
    if p is not None:
        _check_arg("p", p, 0, 1, number=True)
    rate = auto_sample_rate(degree_stats(g).max_degree, k) if p is None else float(p)
    rng = random.Random(seed)
    chosen = {v for v in range(g.n) if rng.random() < rate}

    def repair(v: int) -> list[int]:
        doomed = sorted(u for u in (v, *g.adj[v]) if u in chosen)[k:]
        chosen.difference_update(doomed)
        return doomed

    _, repairs, _ = _fix_overfull(g, k, chosen, repair, math.inf)
    return RandomRunReport(
        packing=Packing(k, frozenset(chosen)),
        rounds=0,
        repairs=repairs,
        seed=seed,
    )


def _resample_step(
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
    """The parameters lll_resample starts from; a given p replaces theirs.

    With k at or above the maximum degree every set is k-limited, so p = 1.
    """
    max_degree = degree_stats(g).max_degree
    if k > max_degree:
        return LLLParameters(0.0, 0.0, 1.0, False)
    return lll_parameters(max(2, max_degree), k)


def lll_resample(
    g: Graph,
    k: int,
    p: Optional[float] = None,
    seed: int = 0,
    max_rounds: int = MAX_ROUNDS,
) -> RandomRunReport:
    """Resampling constructor: fix violated neighborhoods until none remain.

    Each round resamples the closed neighborhood of the lowest-index
    vertex v with |N[v] ∩ X| >= k+1.  A run that still has such a vertex
    after max_rounds rounds returns a failure report carrying the last X;
    it is never presented as a valid packing.  The run uses
    default_lll_parameters(g, k) (epsilons out of range clamped to the
    constant 0.5), with p replaced when one is given (it must lie in
    (0, 1]); the report carries them.  Success reports record whether
    |X| >= (1-epsilon2)*n*p.
    """
    _check_arg("k", k, 1)
    _check_arg("max_rounds", max_rounds, 1)
    _check_arg("seed", seed)
    params = default_lll_parameters(g, k)
    if p is not None:
        # (0, 1] as an inclusive range: the least positive float is the least p
        _check_arg("p", p, math.ulp(0.0), 1, number=True)
        params = replace(params, p=p)
    rng = random.Random(seed)
    chosen = {v for v in range(g.n) if rng.random() < params.p}
    rounds, _, success = _fix_overfull(
        g, k, chosen, lambda v: _resample_step(g, chosen, v, params.p, rng), max_rounds
    )
    size_ok = len(chosen) >= (1.0 - params.epsilon2) * g.n * params.p if success else None
    return RandomRunReport(
        packing=Packing(k, frozenset(chosen)),
        rounds=rounds,
        repairs=0,
        seed=seed,
        success=success,
        size_target_met=size_ok,
        params=params,
    )


def _fix_overfull(
    g: Graph, k: int, chosen: set[int], fix: Callable[[int], list[int]], max_rounds: float
) -> tuple[int, int, bool]:
    """Apply `fix` to the lowest vertex v with |N[v] ∩ chosen| > k, at most
    `max_rounds` times; `fix(v)` updates `chosen` and returns the vertices
    it flipped.  Returns (fixes, flips, whether no vertex is overfull)."""
    count = closed_counts(g.adj, chosen)
    overfull = [v for v, c in enumerate(count) if c > k]  # sorted, hence a heap
    steps = flips = 0
    while True:
        while overfull and count[overfull[0]] <= k:
            heapq.heappop(overfull)
        if not overfull or steps >= max_rounds:
            return steps, flips, not overfull
        steps += 1
        flipped = fix(overfull[0])
        flips += len(flipped)
        for u in flipped:
            delta = 1 if u in chosen else -1
            for w in (u, *g.adj[u]):
                count[w] += delta
                if delta > 0 and count[w] == k + 1:
                    heapq.heappush(overfull, w)
