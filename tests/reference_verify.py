"""Frozen copy of the three seed verifiers, one loop per check.

The differential test in ``test_verify_reference.py`` compares the
current verifiers, which count closed neighbourhoods through
``graph.closed_counts``, against these loops: whole reports, their text,
and the errors for bad input must match.  Do not change this module when
the verifiers change.
"""

from __future__ import annotations

from typing import Iterable

from limpack import Graph, GraphInputError, TypedMultigraph
from limpack.verify import CEdgeViolation, VerificationReport, VertexViolation


def _check_subset(vertices: Iterable[int], n: int) -> frozenset[int]:
    xs = frozenset(vertices)
    for v in xs:
        if not (0 <= v < n):
            raise GraphInputError(f"vertex {v} out of range for graph with {n} vertices")
    return xs


def verify_k_limited(g: Graph, vertices: Iterable[int], k: int) -> VerificationReport:
    if k < 1:
        raise GraphInputError(f"k must be positive, got {k}")
    xs = _check_subset(vertices, g.n)
    violations = []
    for v in range(g.n):
        count = (v in xs) + sum(1 for u in g.adj[v] if u in xs)
        if count > k:
            violations.append(VertexViolation(v, count, k))
    return VerificationReport(not violations, tuple(violations))


def verify_typed_two_limited(tm: TypedMultigraph, vertices: Iterable[int]) -> VerificationReport:
    xs = _check_subset(vertices, tm.n)
    violations: list = []
    for u in range(tm.n):
        for v in tm.c_adj[u]:
            if u < v and u in xs and v in xs:
                violations.append(CEdgeViolation(u, v))
    for v in range(tm.n):
        count = (v in xs) + sum(1 for u in tm.d_adj[v] if u in xs)
        if count > 2:
            violations.append(VertexViolation(v, count, 2))
    return VerificationReport(not violations, tuple(violations))


def verify_tuple_dominating(g: Graph, vertices: Iterable[int], l: int) -> VerificationReport:
    if l < 1:
        raise GraphInputError(f"l must be positive, got {l}")
    ds = _check_subset(vertices, g.n)
    violations = []
    for v in range(g.n):
        count = (v in ds) + sum(1 for u in g.adj[v] if u in ds)
        if count < l:
            violations.append(VertexViolation(v, count, l))
    return VerificationReport(not violations, tuple(violations))
