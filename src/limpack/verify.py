"""Certificate verification for packings and dominating sets, plus duality.

A vertex set X is a k-limited packing when every closed neighborhood
contains at most k members of X; a set D is an l-tuple dominating set
when every closed neighborhood contains at least l members of D.  On a
typed multigraph the 2-limited condition splits in two: no c-edge has
both endpoints in X, and every closed d-neighborhood holds at most 2
members of X.

Packings count |N[v] ∩ X| directly, and so does domination when D is
at most half of V.  A larger D counts its smaller complement,
|N[v] ∩ D| = deg(v) + 1 - |N[v] \\ D|, the duality the solver uses too.
Limits k and l are ints of at least 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse
from typing import Iterable, Union

from .errors import GraphInputError, PreconditionError, _check_arg, _show
from .graph import Graph, TypedMultigraph, _check_endpoint, closed_counts

Violation = Union["VertexViolation", "CEdgeViolation"]


@dataclass(frozen=True)
class Packing:
    """A candidate k-limited packing: the parameter and the vertex set."""

    k: int
    vertices: frozenset[int]


@dataclass(frozen=True)
class VertexViolation:
    """Vertex whose neighborhood count violates its limit.

    For packing checks count > limit; for domination checks count < limit.
    """

    vertex: int
    count: int
    limit: int


@dataclass(frozen=True)
class CEdgeViolation:
    """c-edge with both endpoints selected (count 2 against limit 1)."""

    u: int
    v: int


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    violations: tuple[Violation, ...]

    def to_text(self) -> str:
        lines = [f"valid: {'true' if self.valid else 'false'}"]
        for viol in self.violations:
            if isinstance(viol, CEdgeViolation):
                lines.append(f"violation: cedge {viol.u} {viol.v}")
            else:
                lines.append(
                    f"violation: vertex {viol.vertex} count {viol.count} limit {viol.limit}"
                )
        return "\n".join(lines) + "\n"


def _check_subset(vertices: Iterable[int], n: int) -> frozenset[int]:
    """The members as a set of vertices, each an int (not a bool) in range.

    The check runs on the set, where 1.0 or True beside an equal int 1
    that comes first has already merged into it; the first offender
    found raises."""
    xs = frozenset(vertices)
    for v in xs:
        if type(v) is not int or not 0 <= v < n:
            _check_endpoint(v, n)  # raises the message for this member
    return xs


def verify_k_limited(g: Graph, vertices: Iterable[int], k: int) -> VerificationReport:
    """Check |N[v] ∩ X| <= k for every vertex, listing all offenders."""
    _check_arg("k", k, 1)
    return _verify_limited(g.n, (), g.adj, vertices, k)


def verify_typed_two_limited(tm: TypedMultigraph, vertices: Iterable[int]) -> VerificationReport:
    """Check the typed 2-limited conditions; c-edge and d-neighborhood
    violations are reported separately (c-edges first)."""
    return _verify_limited(tm.n, tm.c_adj, tm.d_adj, vertices, 2)


def verify_tuple_dominating(g: Graph, vertices: Iterable[int], l: int) -> VerificationReport:
    """Check |N[v] ∩ D| >= l for every vertex.

    Whichever of D and V \\ D is smaller is counted, O(min(|D|, n - |D|)·Δ)
    plus O(n); the complement gives |N[v] ∩ D| = deg(v) + 1 - |N[v] \\ D|."""
    _check_arg("l", l, 1)
    ds = _check_subset(vertices, g.n)
    if 2 * len(ds) <= g.n:
        counts = closed_counts(g.adj, ds)
    else:
        outside = closed_counts(g.adj, filterfalse(ds.__contains__, range(g.n)))
        counts = [len(a) + 1 - c for a, c in zip(g.adj, outside)]
    violations: tuple[VertexViolation, ...] = ()
    if min(counts, default=l) < l:
        violations = tuple(VertexViolation(v, c, l) for v, c in enumerate(counts) if c < l)
    return VerificationReport(not violations, violations)


def _verify_limited(
    n: int,
    c_adj: tuple[tuple[int, ...], ...],
    d_adj: tuple[tuple[int, ...], ...],
    vertices: Iterable[int],
    cap: int,
) -> VerificationReport:
    """List the c-edges inside X in ascending order, then every vertex whose
    closed d-neighborhood holds more than `cap` members of X.  A plain
    graph passes its adjacency as `d_adj` and no `c_adj` at all."""
    xs = _check_subset(vertices, n)
    violations: list[Violation] = []
    if c_adj:
        violations += [
            CEdgeViolation(u, v) for u in sorted(xs) for v in c_adj[u] if u < v and v in xs
        ]
    counts = closed_counts(d_adj, xs)
    if max(counts, default=0) > cap:
        violations += [VertexViolation(v, c, cap) for v, c in enumerate(counts) if c > cap]
    return VerificationReport(not violations, tuple(violations))


def dual_complement(g: Graph, vertices: Iterable[int], k: int) -> frozenset[int]:
    """Complement map between packings and dominating sets on regular graphs.

    On an r-regular graph, X is a valid k-limited packing exactly when
    V \\ X is a valid (r+1-k)-tuple dominating set.  Requires 1 <= k <= r+1.
    """
    _check_arg("k", k)
    xs = _check_subset(vertices, g.n)
    if g.n == 0:
        raise PreconditionError("dual_complement needs a nonempty regular graph")
    degs = set(map(len, g.adj))
    if len(degs) != 1:
        raise PreconditionError(f"graph is not regular (degrees {sorted(degs)})")
    r = degs.pop()
    if not (1 <= k <= r + 1):
        raise GraphInputError(f"k must be in [1, {r + 1}] for a {r}-regular graph, got {_show(k)}")
    return frozenset(range(g.n)) - xs
