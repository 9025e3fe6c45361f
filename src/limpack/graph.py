"""Immutable graph and typed-multigraph structures plus text I/O.

Vertices are dense 0-based indices.  ``Graph`` is a simple undirected
graph; ``TypedMultigraph`` carries two edge types, ``c`` (colour) and
``d`` (domination), and a pair of vertices may be joined by one edge of
each type at once.  Both structures are frozen after construction, so
they are safe to share across threads.

File format (UTF-8 text): a header ``n m``, then exactly m edge lines
``u v``, ``u v c`` or ``u v d``; blank lines and lines whose first token
starts with ``#`` are skipped.  A file with no type tokens parses to a
``Graph``; any typed line makes it a ``TypedMultigraph`` whose untyped
lines default to type d.  No graph has more than ``MAX_VERTICES``
vertices.

``read_edge_lines`` returns one flat list of endpoint ints per type
token.  Text in exactly ``serialize_graph``'s plain form (the header, then
``u v\\n`` lines of ASCII digits joined by one space) is read in chunks
of whole lines, about 64 KiB each: string checks recognise the form in
each chunk before it is split into ints, and the ints are then checked in
bulk (edge count, vertex range, self-loops).  Any other text,
and any plain text that fails a check, goes through the line walk, which
checks each line once and words every error.  An adjacency read or given
as edges is built by ``_adjacency`` from such checked pairs, after the
vertex count is checked, into per-vertex lists sorted in place (the random
regular, cycle and projective generators build their own).  No set per
vertex or tuple per edge is held on the way.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from itertools import chain
from operator import eq
from typing import Callable, Container, Iterable, Iterator, NamedTuple, Optional, Union

from .errors import GraphInputError, ResourceLimitError, _check_arg, _show

# The most vertices of any graph limpack builds, checked before the adjacency
# is allocated: building costs about 70 bytes per vertex even with no edges.
MAX_VERTICES = 10**7

# `_read_plain` deletes the ASCII digits to see a text's form, and reads
# it in chunks of about _CHUNK characters.
_NO_DIGITS = str.maketrans("", "", "0123456789")
_CHUNK = 1 << 16


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus sorted adjacency tuples."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list, deduplicating repeated edges.

        Raises GraphInputError for a non-int or negative n, bad endpoints, or
        self-loops, and ResourceLimitError for n over MAX_VERTICES.
        """
        _check_arg("n", n)
        if n < 0:  # worded as the frozen copy in tests/reference_parse.py words it
            raise GraphInputError(f"vertex count must be nonnegative, got {_show(n)}")
        edges = list(edges)
        for u, v in edges:
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n and u != v):
                _check_edge(u, v, n)
        return Graph(n, _adjacency(n, edges))

    def neighbors(self, v: int) -> tuple[int, ...]:
        _check_endpoint(v, self.n)
        return self.adj[v]

    def degree(self, v: int) -> int:
        _check_endpoint(v, self.n)
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        _check_endpoint(u, self.n)
        _check_endpoint(v, self.n)
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]


@dataclass(frozen=True)
class TypedMultigraph:
    """Multigraph with c- and d-typed edges, at most one edge per type per pair.

    Duplicate edges of the same type are dropped on construction.  Both
    edge types count toward a vertex's degree, so a pair joined by a
    c-edge and a d-edge contributes 2 to each endpoint's degree.
    """

    n: int
    c_adj: tuple[tuple[int, ...], ...]
    d_adj: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int, str]]) -> "TypedMultigraph":
        _check_arg("n", n)
        if n < 0:
            raise GraphInputError(f"vertex count must be nonnegative, got {_show(n)}")
        ends: dict[str, list[int]] = {"c": [], "d": []}
        for u, v, t in edges:
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n and u != v
                    and t in ("c", "d")):
                _check_edge(u, v, n)
                raise GraphInputError(f"unknown edge type {reprlib.repr(t)} (expected 'c' or 'd')")
            ends[t] += u, v
        c_adj, d_adj = (_adjacency(n, _pairs(ends[t])) for t in "cd")
        return TypedMultigraph(n, c_adj, d_adj)

    @staticmethod
    def from_graph(g: Graph) -> "TypedMultigraph":
        """Promote a plain graph: every edge becomes a d-edge."""
        return TypedMultigraph(g.n, ((),) * g.n, g.adj)

    def degree(self, v: int) -> int:
        _check_endpoint(v, self.n)
        return len(self.c_adj[v]) + len(self.d_adj[v])

    def edges(self) -> list[tuple[int, int, str]]:
        """All edges as (u, v, type) with u < v, sorted; c before d per pair."""
        out = [(u, v, "c") for u in range(self.n) for v in self.c_adj[u] if u < v]
        out += [(u, v, "d") for u in range(self.n) for v in self.d_adj[u] if u < v]
        out.sort()
        return out


class DegreeStats(NamedTuple):
    max_degree: int
    min_degree: int
    vertex_count: int
    edge_count: int


def closed_counts(adj: tuple[tuple[int, ...], ...], xs: Iterable[int]) -> list[int]:
    """|N[v] ∩ X| for every vertex v, where N[v] is v plus its neighbors in
    `adj`; each member of X must be a vertex.  O(|X|·Δ)."""
    count = [0] * len(adj)
    for x in xs:
        count[x] += 1
        for u in adj[x]:
            count[u] += 1
    return count


def degree_stats(g: Graph) -> DegreeStats:
    """(max degree, min degree, n, m); an empty graph reports 0, 0, 0, 0."""
    if g.n == 0:
        return DegreeStats(0, 0, 0, 0)
    degs = list(map(len, g.adj))
    return DegreeStats(max(degs), min(degs), g.n, sum(degs) // 2)


def disjoint_union(*graphs: Graph) -> Graph:
    """Place the graphs side by side, in one pass; each graph's vertices
    are shifted by the vertex count of the graphs before it (the first
    graph's neighbor tuples are shared, not copied)."""
    _check_vertex_count(sum(g.n for g in graphs))
    adj: list[tuple[int, ...]] = []
    for g in graphs:
        shift = len(adj)
        adj += [tuple(u + shift for u in nbrs) for nbrs in g.adj] if shift else g.adj
    return Graph(len(adj), tuple(adj))


def bfs_levels(
    neighbors: Callable[[int], Iterable[int]], root: int, within: Optional[Container[int]] = None
) -> dict[int, int]:
    """BFS level of every vertex reached from `root`, passing only through
    vertices in `within` when it is given; the dict lists them in BFS
    order.  `neighbors(v)` lists v's neighbors."""
    level = {root: 0}
    order = [root]
    for x in order:
        next_level = level[x] + 1
        for y in neighbors(x):
            if y not in level and (within is None or y in within):
                level[y] = next_level
                order.append(y)
    return level


def components_within(
    neighbors: Callable[[int], Iterable[int]], within: Iterable[int]
) -> list[list[int]]:
    """Components of the subgraph induced on `within`, as sorted vertex
    lists ordered by smallest member; `neighbors(v)` lists v's neighbors."""
    left = set(within)
    comps = []
    for start in sorted(left):
        if start in left:
            comps.append(sorted(bfs_levels(neighbors, start, left)))
            left.difference_update(comps[-1])
    return comps


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest member."""
    return components_within(g.adj.__getitem__, range(g.n))


def parse_graph(text: str) -> Union[Graph, TypedMultigraph]:
    """Parse the edge-list format; see the module docstring.

    Returns a Graph when no line carries a type token, otherwise a
    TypedMultigraph (untyped lines default to d).  Errors report the
    offending 1-based line number.
    """
    n, ends = read_edge_lines(text)
    # popped, so that each endpoint list is freed once _adjacency has read it
    if not (ends["c"] or ends["d"]):
        return Graph(n, _adjacency(n, _pairs(ends.pop(None))))
    c_adj = _adjacency(n, _pairs(ends.pop("c")))
    return TypedMultigraph(n, c_adj, _adjacency(n, _pairs(chain(ends.pop("d"), ends.pop(None)))))


def read_edge_lines(text: str) -> tuple[int, dict[Optional[str], list[int]]]:
    """The header's vertex count and the endpoints of the edge lines, two
    ints per line appended to one flat list per type token (None for an
    untyped line), each line checked as `parse_graph` does; no adjacency
    is built, so a caller can check the vertex count first."""
    plain = _read_plain(text)
    if plain is not None:
        return plain
    header: Optional[tuple[int, int]] = None
    ends: dict[Optional[str], list[int]] = {None: [], "c": [], "d": []}
    count = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
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
        if count >= m:
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
        t = parts[2] if len(parts) == 3 else None
        if t not in (None, "c", "d"):
            raise GraphInputError(f"line {lineno}: edge type must be 'c' or 'd'")
        ends[t] += u, v
        count += 1
    if header is None:
        raise GraphInputError("line 1: missing header 'n m'")
    n, m = header
    if count != m:
        raise GraphInputError(f"expected {m} edge lines, found {count}")
    return n, ends


def _read_plain(text: str) -> Optional[tuple[int, dict[Optional[str], list[int]]]]:
    """What `read_edge_lines` returns for text in `serialize_graph`'s plain
    form, checked in bulk: the header, then one ``u v`` line per edge, each
    line two runs of ASCII digits joined by one space and ended by ``\\n``.
    None for any other text or any failed check, so that the line walk
    alone words every error."""
    if not (text[:1].isdigit() and text[-1:] == "\n" and " \n" not in text and "\n " not in text):
        return None
    ends: list[int] = []
    start = 0
    try:
        # chunks of whole lines: each is checked before it is split, and
        # few strings are held at a time
        while start < len(text):
            stop = text.find("\n", start + _CHUNK) + 1 or len(text)
            chunk = text[start:stop]
            if chunk.translate(_NO_DIGITS) != " \n" * chunk.count("\n"):
                return None
            ends += map(int, chunk.split())
            start = stop
    except ValueError:  # a number over int's digit limit
        return None
    n, m = ends[:2]
    del ends[:2]
    it = iter(ends)  # map(eq, it, it) compares each line's two endpoints
    if len(ends) != 2 * m or max(ends, default=-1) >= n or any(map(eq, it, it)):
        return None
    return n, {None: ends, "c": [], "d": []}


def _pairs(ends: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Consecutive endpoints u0, v0, u1, v1, ... paired up as (u0, v0), ...;
    zip reuses one result tuple when the caller unpacks it at once."""
    it = iter(ends)
    return zip(it, it)


def _adjacency(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbour tuples of checked vertex pairs (endpoints in range,
    no self-loops), repeated pairs dropped; n is checked before allocating.

    Each vertex's list becomes its tuple in turn, so the lists and the
    tuples are never all alive at once.  Made so, a tuple may take the
    block a freed list's items left, and the tuples then lie in memory in
    the order the edges came.  The returned copies are made while all of
    those are alive, so they lie in vertex order: passes over a random
    10-regular graph ran about 8% faster on them."""
    _check_vertex_count(n)
    nbrs: list = [[] for _ in range(n)]
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    del pairs  # frees an endpoint list that no caller holds
    for v, a in enumerate(nbrs):
        if len(set(a)) < len(a):  # a pair was listed more than once
            a = list(set(a))
        a.sort()
        nbrs[v] = tuple(a)
    return tuple([tuple([*t]) for t in nbrs])


def serialize_graph(g: Union[Graph, TypedMultigraph]) -> str:
    """Inverse of parse_graph, stable under round-trips up to edge order,
    except that an edgeless TypedMultigraph writes no type token, so it
    reads back as a plain Graph."""
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    if isinstance(g, TypedMultigraph):
        lines += [f"{u} {v} {t}" for u, v, t in edges]
    else:
        lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def parse_packing(text: str) -> list[int]:
    """Whitespace-separated vertex indices; ``#`` starts a comment."""
    out: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        for tok in raw.split("#", 1)[0].split():
            try:
                out.append(int(tok))
            except ValueError:
                raise GraphInputError(
                    f"line {lineno}: packing entries must be integers, got {reprlib.repr(tok)}"
                ) from None
    return out


def serialize_packing(vertices: Iterable[int]) -> str:
    return " ".join(str(v) for v in sorted(vertices)) + "\n"


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise ResourceLimitError(f"graph has {_show(n)} vertices (limit {MAX_VERTICES})")


def _check_edge(u: int, v: int, n: int) -> None:
    """The checks of one edge, in the order their errors take precedence."""
    _check_endpoint(u, n)
    _check_endpoint(v, n)
    if u == v:
        raise GraphInputError(f"self-loop at vertex {u}")


def _check_endpoint(v: int, n: int) -> None:
    if type(v) is not int:
        raise GraphInputError(f"vertex {reprlib.repr(v)} is not an int")
    if not (0 <= v < n):
        raise GraphInputError(f"vertex {_show(v)} out of range for graph with {n} vertices")
