"""Constructive 2-limited sets of size >= n/3 on typed multigraphs of max degree 3.

The construction follows an induction on the vertex count, run as one
loop over a worklist of components on a single state that each step
reduces in place.  Each step applies one rule to the lowest pending
component, removes the vertices the rule names, adds its c-edges, and
pushes the pieces left of the component so that the lowest is reduced
next; the steps come out in the order the induction visits them.

Tiny components are base cases; an all-c component is 3-colored (Brooks)
and the largest color class taken.  A six-vertex pattern (an
almost-complete c-K4 with a pendant path, called configuration A here)
is eliminated first because its absence guarantees that the later rules
can add c-edges without ever completing a K4 of c-edges, except in a
handful of explicitly handled special subcases.  The remaining rules peel
off a vertex of one or two distinct neighbors, or a d-edge lying in two,
one, or zero triangles, each time removing at least two vertices while
contributing at least a third of them to the output, so the whole run is
polynomial.

Plain graphs of max degree 3 can be promoted with all edges typed d
(TypedMultigraph.from_graph) and fed through construct_two_limited to
obtain a plain 2-limited packing of size >= n/3.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .errors import InternalError, PreconditionError
from .graph import (
    Graph,
    TypedMultigraph,
    components_within,
    connected_components,
    degree_stats,
)
from .verify import verify_typed_two_limited


@dataclass(frozen=True)
class ReductionStep:
    rule: str
    removed: tuple[int, ...]
    added_c_edges: tuple[tuple[int, int], ...]
    contributed: tuple[int, ...]


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...]

    def to_text(self) -> str:
        lines = []
        for s in self.steps:
            removed = ",".join(str(v) for v in s.removed)
            added = ";".join(f"{u}-{v}" for u, v in s.added_c_edges)
            contributed = ",".join(str(v) for v in s.contributed)
            lines.append(
                f"rule={s.rule} removed={removed} added={added} contributed={contributed}"
            )
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class ConfigurationA:
    """Six-vertex pattern: c-edges ca, cd, cb, ad, ab (bd missing), plus
    edges du, bu, uv of either type, all six vertices distinct."""

    a: int
    b: int
    c: int
    d: int
    u: int
    v: int


class _State:
    """Adjacency of a typed multigraph, original indices kept, reduced in place."""

    __slots__ = ("cadj", "dadj")

    def __init__(self, tm: TypedMultigraph):
        self.cadj = [set(nbrs) for nbrs in tm.c_adj]
        self.dadj = [set(nbrs) for nbrs in tm.d_adj]

    def neighbors(self, v: int) -> set[int]:
        return self.cadj[v] | self.dadj[v]

    def degree(self, v: int) -> int:
        return len(self.cadj[v]) + len(self.dadj[v])

    def remove(self, vertices: Iterable[int]) -> None:
        """Delete every edge incident to `vertices`, leaving them isolated."""
        for v in vertices:
            for x in self.cadj[v]:
                self.cadj[x].discard(v)
            for x in self.dadj[v]:
                self.dadj[x].discard(v)
            self.cadj[v].clear()
            self.dadj[v].clear()

    def add_c_edge(self, u: int, v: int) -> None:
        self.cadj[u].add(v)
        self.cadj[v].add(u)


# What one reduction does to its component: the rule name, the vertices
# it removes, the c-edges it adds between survivors, and the vertices it
# contributes to the output.
_Step = tuple[str, set[int], list[tuple[int, int]], set[int]]


def construct_two_limited(tm: TypedMultigraph) -> tuple[frozenset[int], ReductionTrace]:
    """2-limited set X with 3|X| >= n for a typed multigraph of max degree 3.

    Preconditions: every vertex degree (both edge types counted) at most
    3, and no connected component is a K4 made entirely of c-edges.  The
    returned set always verifies; the trace records every reduction.
    """
    for v in range(tm.n):
        if tm.degree(v) > 3:
            raise PreconditionError(f"vertex {v} has degree {tm.degree(v)} > 3")
    st = _State(tm)
    bad = _find_all_c_k4(st)
    if bad is not None:
        raise PreconditionError(
            f"component {sorted(bad)} is a K4 consisting entirely of c-edges"
        )
    steps: list[ReductionStep] = []
    chosen: set[int] = set()
    # pieces are pushed in reverse so the lowest is reduced next: the
    # induction's depth-first order
    stack = components_within(st.neighbors, range(tm.n))[::-1]
    while stack:
        comp = stack.pop()
        rule, removed, added, pick = _reduce_component(st, comp)
        steps.append(
            ReductionStep(
                rule,
                tuple(sorted(removed)),
                tuple(sorted(tuple(sorted(e)) for e in added)),
                tuple(sorted(pick)),
            )
        )
        chosen |= pick
        st.remove(removed)
        for x, y in added:
            st.add_c_edge(x, y)
        rest = [v for v in comp if v not in removed]
        stack += components_within(st.neighbors, rest)[::-1]
    report = verify_typed_two_limited(tm, chosen)
    if not report.valid or 3 * len(chosen) < tm.n:
        raise InternalError(
            "internal error: construction produced an invalid or undersized set"
        )
    return frozenset(chosen), ReductionTrace(tuple(steps))


def find_configuration_a(tm: TypedMultigraph) -> Optional[ConfigurationA]:
    """First occurrence of configuration A in lexicographic search order."""
    return _find_config_a(_State(tm), range(tm.n))


def _reduce_component(st: _State, comp: list[int]) -> _Step:
    """The reduction the induction applies to connected component `comp`."""
    n = len(comp)

    # base cases: any single vertex for n <= 3; for n = 4 any pair not
    # joined by a c-edge (such a pair exists, all-c K4s are excluded)
    if n <= 3:
        return "base-case", set(comp), [], {comp[0]}
    if n == 4:
        for u, v in combinations(comp, 2):
            if v not in st.cadj[u]:
                return "base-case", set(comp), [], {u, v}
        raise InternalError("internal error: all-c K4 component reached the base case")

    # all edges c: 3-color and take the largest color class
    if all(not st.dadj[v] for v in comp):
        return _brooks_class(st, comp)

    cfg = _find_config_a(st, comp)
    if cfg is not None:
        removed = {cfg.a, cfg.b, cfg.c, cfg.d, cfg.u, cfg.v}
        return "configuration-A", removed, [], {cfg.b, cfg.d}

    step = _reduce_degree_one(st, comp)
    if step is None:
        step = _reduce_degree_two(st, comp)
    if step is None:
        _assert_simple_cubic(st, comp)
        step = _reduce_d_edge(st, comp)
    return step


def _brooks_class(st: _State, comp: list[int]) -> _Step:
    index = {v: i for i, v in enumerate(comp)}
    sub = Graph.from_edges(
        len(comp),
        [(index[u], index[v]) for u in comp for v in st.cadj[u] if u < v],
    )
    coloring = brooks_three_coloring(sub)
    classes: dict[int, list[int]] = {0: [], 1: [], 2: []}
    for v in comp:
        classes[coloring[index[v]]].append(v)
    best = max((0, 1, 2), key=lambda c: (len(classes[c]), -c))
    return "brooks", set(comp), [], set(classes[best])


def _reduce_degree_one(st: _State, comp: list[int]) -> Optional[_Step]:
    """Vertex u adjacent to a single other vertex v: remove {u, v}, add the
    c-edge between v's other two neighbors only when the proof needs it."""
    for u in comp:
        nb = st.neighbors(u)
        if len(nb) != 1:
            continue
        v = next(iter(nb))
        survivors = sorted(st.neighbors(v) - {u})
        added: list[tuple[int, int]] = []
        if len(survivors) == 2:
            a, b = survivors
            if (
                u in st.dadj[v]
                and a in st.dadj[v]
                and b in st.dadj[v]
                and b not in st.cadj[a]
            ):
                added = [(a, b)]
        removed = {u, v}
        if added and _c_k4_completions(st, added, removed):
            raise InternalError("internal error: degree-1 c-edge completed a K4")
        return "degree-1", removed, added, {u}
    return None


def _needed_pair(
    st: _State, z: int, anchor: int, removed: set[int]
) -> Optional[tuple[int, int]]:
    """The c-edge the proof adds for parent z when removing `removed`.

    Needed exactly when z keeps two surviving neighbors p1, p2, the edges
    z-anchor, z-p1, z-p2 are all d-edges, and p1p2 is not already a c-edge.
    """
    survivors = sorted(st.neighbors(z) - removed)
    if len(survivors) != 2:
        return None
    p1, p2 = survivors
    if (
        anchor in st.dadj[z]
        and p1 in st.dadj[z]
        and p2 in st.dadj[z]
        and p2 not in st.cadj[p1]
    ):
        return (p1, p2)
    return None


def _reduce_degree_two(st: _State, comp: list[int]) -> Optional[_Step]:
    """Vertex u adjacent to exactly two others v, w: remove the three, add
    c-edges between each removed neighbor's surviving pair as needed.

    When the two added edges would together complete a c-K4 the component
    has exactly 7 vertices and pair(v) plus w is already 2-limited."""
    for u in comp:
        nb = sorted(st.neighbors(u))
        if len(nb) != 2:
            continue
        v, w = nb
        removed = {u, v, w}
        pair_v = _needed_pair(st, v, u, removed)
        pair_w = _needed_pair(st, w, u, removed)
        added = []
        if pair_v:
            added.append(pair_v)
        if pair_w and pair_w != pair_v:
            added.append(pair_w)
        k4s = _c_k4_completions(st, added, removed)
        if k4s:
            k4, inside = k4s[0]
            if len(inside) < 2 or pair_v is None or pair_w is None:
                raise InternalError("internal error: single degree-2 c-edge completed a K4")
            if len(comp) != 7:
                raise InternalError("internal error: degree-2 double K4 outside 7 vertices")
            return "degree-2-c-k4", set(comp), [], {pair_v[0], pair_v[1], w}
        return "degree-2", removed, added, {u}
    return None


def _assert_simple_cubic(st: _State, comp: list[int]) -> None:
    for v in comp:
        nb = st.neighbors(v)
        if len(nb) != 3 or st.degree(v) != 3:
            raise InternalError(
                "internal error: expected a simple 3-regular component after"
                f" the degree reductions, vertex {v} breaks it"
            )


def _reduce_d_edge(st: _State, comp: list[int]) -> _Step:
    """Eliminate a d-edge uv, preferring one in two triangles, then one
    triangle, then none; the graph here is simple, 3-regular, and has a
    d-edge (an all-c component would have been 3-colored instead)."""
    d_edges = sorted((u, v) for u in comp for v in st.dadj[u] if u < v)
    if not d_edges:
        raise InternalError("internal error: no d-edge left for the cubic rules")

    one_triangle: Optional[tuple[int, int, int]] = None
    for u, v in d_edges:
        common = sorted(st.neighbors(u) & st.neighbors(v))
        if len(common) == 2:
            return _two_triangles(st, u, v, common)
        if len(common) == 1 and one_triangle is None:
            one_triangle = (u, v, common[0])
    if one_triangle is not None:
        return _one_triangle(st, *one_triangle)
    u, v = d_edges[0]
    return _no_triangle(st, u, v, comp)


def _two_triangles(st: _State, u: int, v: int, common: list[int]) -> _Step:
    b, c = common
    removed = {u, v, b, c}
    removed |= st.neighbors(b) - {u, v}
    removed |= st.neighbors(c) - {u, v}
    return "d-edge-two-triangles", removed, [], {u, v}


def _one_triangle(st: _State, u: int, v: int, w: int) -> _Step:
    (a,) = st.neighbors(u) - {v, w}
    (b,) = st.neighbors(v) - {u, w}
    removed = {u, v, w, a, b} | (st.neighbors(w) - {u, v})
    pair_a = _needed_pair(st, a, u, removed)
    pair_b = _needed_pair(st, b, v, removed)
    added = []
    if pair_a:
        added.append(pair_a)
    if pair_b and pair_b != pair_a:
        added.append(pair_b)
    k4s = _c_k4_completions(st, added, removed)
    if k4s:
        k4, inside = k4s[0]
        if len(inside) < 2 or pair_a is None or pair_b is None:
            raise InternalError("internal error: single one-triangle c-edge completed a K4")
        # both pairs live inside the K4; remove it together with
        # {a, b, u, v, w} and take pair(a) plus b
        removed_special = set(k4) | {a, b, u, v, w}
        pick = {pair_a[0], pair_a[1], b}
        return "d-edge-one-triangle-c-k4", removed_special, [], pick
    return "d-edge-one-triangle", removed, added, {u, v}


def _no_triangle(st: _State, u: int, v: int, comp: list[int]) -> _Step:
    a, b = sorted(st.neighbors(u) - {v})
    c, d = sorted(st.neighbors(v) - {u})
    parents = [a, b, c, d]
    if len({a, b, c, d}) != 4:
        raise InternalError("internal error: triangle-free d-edge with shared neighbors")
    removed = {u, v, a, b, c, d}
    need: dict[int, Optional[tuple[int, int]]] = {
        z: _needed_pair(st, z, u if z in (a, b) else v, removed) for z in parents
    }
    added = []
    for z in parents:
        if need[z] and need[z] not in added:
            added.append(need[z])
    k4s = _c_k4_completions(st, added, removed)
    if not k4s:
        return "d-edge-no-triangle", removed, added, {u, v}

    k4s.sort(key=lambda item: (len(item[1]), sorted(item[0])))
    k4, inside = k4s[0]
    involved = [z for z in parents if need[z] in inside]
    if len(inside) < 2 or len(involved) != len(inside):
        raise InternalError("internal error: malformed c-K4 completion in the"
                           " triangle-free rule")
    if len(inside) == 2:
        x, y = involved
        removed_special = set(k4) | {x, y, u, v}
        pick = {need[x][0], need[x][1], y}
        return "d-edge-no-triangle-c-k4-pair", removed_special, [], pick
    if len(inside) == 3:
        x, y = involved[0], involved[1]
        leftover = next(z for z in parents if z not in involved)
        removed_special = set(k4) | removed
        pick = {need[x][0], need[x][1], y, v}
        extra: list[tuple[int, int]] = []
        pair_left = need[leftover]
        if pair_left and not (set(pair_left) & removed_special):
            extra.append(pair_left)
        if extra and _c_k4_completions(st, extra, removed_special):
            raise InternalError("internal error: leftover c-edge completed a K4")
        return "d-edge-no-triangle-c-k4-triple", removed_special, extra, pick
    # all four added edges in one K4: the component is exactly these 10
    # vertices and the four middle vertices form the 2-limited set
    if len(comp) != 10:
        raise InternalError("internal error: quadruple K4 completion outside 10 vertices")
    return "d-edge-no-triangle-c-k4-quad", set(k4) | removed, [], {a, b, c, d}


def _find_config_a(st: _State, verts: Iterable[int]) -> Optional[ConfigurationA]:
    """First configuration A whose vertex c lies in `verts` (ascending)."""
    for c in verts:
        for a in sorted(st.cadj[c]):
            commons = sorted(st.cadj[c] & st.cadj[a])
            for d in commons:
                for b in commons:
                    if b == d or b in st.cadj[d]:
                        continue
                    for u in sorted((st.neighbors(d) & st.neighbors(b)) - {a, c}):
                        for v in sorted(st.neighbors(u) - {a, b, c, d}):
                            return ConfigurationA(a=a, b=b, c=c, d=d, u=u, v=v)
    return None


def _c_k4_completions(
    st: _State, added: list[tuple[int, int]], removed: set[int]
) -> list[tuple[frozenset[int], list[tuple[int, int]]]]:
    """K4s of c-edges that the planned additions would create.

    Hypothetical adjacency = current c-edges plus `added`, restricted to
    vertices outside `removed`.  Every returned K4 contains at least one
    added edge; the added edges inside it are listed alongside.
    """
    if not added:
        return []
    added_set = {frozenset(e) for e in added}

    def c_star(x: int, y: int) -> bool:
        return y in st.cadj[x] or frozenset((x, y)) in added_set

    def c_star_nbrs(x: int) -> set[int]:
        out = set(st.cadj[x])
        for e in added_set:
            if x in e:
                out |= e - {x}
        return out - removed

    found: dict[frozenset[int], list[tuple[int, int]]] = {}
    for x, y in added:
        for z, t in combinations(sorted(c_star_nbrs(x) & c_star_nbrs(y)), 2):
            if c_star(z, t):
                k4 = frozenset((x, y, z, t))
                if k4 not in found:
                    inside = [
                        e for e in added if e[0] in k4 and e[1] in k4
                    ]
                    found[k4] = inside
    return sorted(found.items(), key=lambda item: sorted(item[0]))


def _find_all_c_k4(st: _State) -> Optional[set[int]]:
    """Any component that is a K4 made entirely of c-edges (degree <= 3
    makes four mutually c-adjacent vertices automatically a component)."""
    for v in range(len(st.cadj)):
        if len(st.cadj[v]) == 3 and not st.dadj[v]:
            x, y, z = sorted(st.cadj[v])
            if y in st.cadj[x] and z in st.cadj[x] and z in st.cadj[y]:
                return {v, x, y, z}
    return None


def brooks_three_coloring(g: Graph) -> tuple[int, ...]:
    """Proper coloring with colors {0, 1, 2} for a graph of max degree 3.

    Components that are K4 are rejected.  Components with a vertex of
    degree < 3 are greedily colored in reverse BFS order from such a
    vertex; 3-regular components are split at a cut vertex when one
    exists, and otherwise colored by identifying a vertex v with two
    non-adjacent neighbors a, b whose joint removal keeps the component
    connected (a, b share a color, v is colored last).  The result is
    checked; an improper coloring raises InternalError.
    """
    stats = degree_stats(g)
    if stats.max_degree > 3:
        raise PreconditionError(f"max degree {stats.max_degree} > 3")
    colors: list[int] = [-1] * g.n
    for comp in connected_components(g):
        _color_component(g, comp, colors)
        for v in comp:
            if colors[v] not in (0, 1, 2) or any(
                colors[u] == colors[v] for u in g.adj[v]
            ):
                raise InternalError(f"internal error: Brooks coloring of {comp} is not proper")
    return tuple(colors)


def _color_component(g: Graph, comp: list[int], colors: list[int]) -> None:
    if len(comp) == 1:
        colors[comp[0]] = 0
        return
    comp_set = set(comp)
    if len(comp) == 4 and all(len(g.adj[v]) == 3 for v in comp):
        raise PreconditionError(f"component {comp} is K4")
    low = [v for v in comp if len(g.adj[v]) < 3]
    if low:
        _reverse_bfs_color(g, comp_set, low[0], {}, colors)
        return
    for v in comp:
        pieces = components_within(g.neighbors, comp_set - {v})
        if len(pieces) > 1:
            _split_at_cut_vertex(g, pieces, v, colors)
            return
    for v in comp:
        nbrs = sorted(g.adj[v])
        for a, b in combinations(nbrs, 2):
            if (
                not g.has_edge(a, b)
                and len(components_within(g.neighbors, comp_set - {a, b})) <= 1
            ):
                _reverse_bfs_color(g, comp_set - {a, b}, v, {a: 0, b: 0}, colors)
                colors[a] = 0
                colors[b] = 0
                return
    raise InternalError("internal error: no Brooks decomposition found")


def _split_at_cut_vertex(
    g: Graph, pieces: list[list[int]], cut: int, colors: list[int]
) -> None:
    for piece in pieces:
        # color the piece plus the cut vertex; the cut vertex has degree
        # <= 2 inside, so it can go last, then rename its color to 0
        sub = set(piece) | {cut}
        _reverse_bfs_color(g, sub, cut, {}, colors)
        cut_color = colors[cut]
        if cut_color != 0:
            for v in sub:
                if colors[v] == 0:
                    colors[v] = cut_color
                elif colors[v] == cut_color:
                    colors[v] = 0
    colors[cut] = 0


def _reverse_bfs_color(
    g: Graph,
    vertex_set: set[int],
    root: int,
    pre: dict[int, int],
    colors: list[int],
) -> None:
    """Greedy coloring in reverse BFS order (root last) within vertex_set.

    Precolored vertices (outside vertex_set) count as colored neighbors.
    Every non-root vertex still has its BFS parent uncolored when its
    turn comes, so 3 colors always suffice when deg(root) < 3 inside."""
    order = [root]
    seen = {root}
    i = 0
    while i < len(order):
        w = order[i]
        i += 1
        for x in sorted(g.adj[w]):
            if x in vertex_set and x not in seen:
                seen.add(x)
                order.append(x)
    local: dict[int, int] = dict(pre)
    for w in reversed(order):
        used = {local[x] for x in g.adj[w] if x in local}
        for color in (0, 1, 2):
            if color not in used:
                local[w] = color
                break
        else:
            local[w] = 3  # cannot happen (see above); the properness check raises
    for w in order:
        colors[w] = local[w]
