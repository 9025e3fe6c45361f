"""Frozen copy of the two-pass edge-list reader and of both builders.

The reader first lists every edge line as a (u, v, type or None) triple
(``read_edge_lines``), then scans that list again to build the graph
(``build_graph``); ``typed_from_edges`` copies its triples and filters
them once per edge type, and ``graph_from_edges`` checks each endpoint
through ``_check_endpoint`` in turn.  Every adjacency goes through one
set per vertex.  ``test_parse_reference.py`` compares the current
one-pass reader and builders against this module: the same graph, or the
same exception type and message.  Do not change this module when the
reader changes.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from limpack import Graph, GraphInputError, ResourceLimitError, TypedMultigraph

MAX_VERTICES = 10**7


def parse_graph(text: str) -> Union[Graph, TypedMultigraph]:
    return build_graph(*read_edge_lines(text))


def read_edge_lines(text: str) -> tuple[int, list[tuple[int, int, Optional[str]]]]:
    header: Optional[tuple[int, int]] = None
    raw_edges: list[tuple[int, int, Optional[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise GraphInputError(f"line {lineno}: expected header 'n m'")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphInputError(f"line {lineno}: expected header 'n m'") from None
            if n < 0 or m < 0:
                raise GraphInputError(f"line {lineno}: header values must be nonnegative")
            header = (n, m)
            continue
        n, m = header
        if len(raw_edges) >= m:
            raise GraphInputError(f"line {lineno}: more than {m} edge lines")
        if len(parts) not in (2, 3):
            raise GraphInputError(f"line {lineno}: expected 'u v' or 'u v c|d'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphInputError(f"line {lineno}: endpoints must be integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"line {lineno}: vertex index out of range (n={n})")
        if u == v:
            raise GraphInputError(f"line {lineno}: self-loop at vertex {u}")
        t: Optional[str] = None
        if len(parts) == 3:
            if parts[2] not in ("c", "d"):
                raise GraphInputError(f"line {lineno}: edge type must be 'c' or 'd'")
            t = parts[2]
        raw_edges.append((u, v, t))
    if header is None:
        raise GraphInputError("line 1: missing header 'n m'")
    n, m = header
    if len(raw_edges) != m:
        raise GraphInputError(f"expected {m} edge lines, found {len(raw_edges)}")
    return n, raw_edges


def build_graph(
    n: int, raw_edges: list[tuple[int, int, Optional[str]]]
) -> Union[Graph, TypedMultigraph]:
    if not any(t for _, _, t in raw_edges):
        return Graph(n, _adjacency(n, [(u, v) for u, v, _ in raw_edges]))
    c_adj, d_adj = (
        _adjacency(n, [(u, v) for u, v, s in raw_edges if (s or "d") == t]) for t in "cd"
    )
    return TypedMultigraph(n, c_adj, d_adj)


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """The body of ``Graph.from_edges``."""
    if type(n) is not int:
        raise GraphInputError(f"n must be an int, got {n!r}")
    if n < 0:
        raise GraphInputError(f"vertex count must be nonnegative, got {n}")
    edges = list(edges)
    for u, v in edges:
        _check_endpoint(u, n)
        _check_endpoint(v, n)
        if u == v:
            raise GraphInputError(f"self-loop at vertex {u}")
    return Graph(n, _adjacency(n, edges))


def typed_from_edges(n: int, edges: Iterable[tuple[int, int, str]]) -> TypedMultigraph:
    """The body of ``TypedMultigraph.from_edges``."""
    if n < 0:
        raise GraphInputError(f"vertex count must be nonnegative, got {n}")
    edges = list(edges)
    for u, v, t in edges:
        _check_endpoint(u, n)
        _check_endpoint(v, n)
        if u == v:
            raise GraphInputError(f"self-loop at vertex {u}")
        if t not in ("c", "d"):
            raise GraphInputError(f"unknown edge type {t!r} (expected 'c' or 'd')")
    c_adj, d_adj = (_adjacency(n, [(u, v) for u, v, s in edges if s == t]) for t in "cd")
    return TypedMultigraph(n, c_adj, d_adj)


def parse_packing(text: str) -> list[int]:
    out: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for tok in line.split():
            try:
                out.append(int(tok))
            except ValueError:
                raise GraphInputError(
                    f"line {lineno}: packing entries must be integers, got {tok!r}"
                ) from None
    return out


def _adjacency(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    _check_vertex_count(n)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return tuple(tuple(sorted(s)) for s in nbrs)


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        count = n if n.bit_length() <= 64 else f"over 2^{n.bit_length() - 1}"
        raise ResourceLimitError(f"graph has {count} vertices (limit {MAX_VERTICES})")


def _check_endpoint(v: int, n: int) -> None:
    if type(v) is not int:
        raise GraphInputError(f"vertex {v!r} is not an int")
    if not (0 <= v < n):
        raise GraphInputError(f"vertex {v} out of range for graph with {n} vertices")
