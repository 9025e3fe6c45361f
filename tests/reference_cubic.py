"""Frozen copy of the recursive cubic n/3 construction, kept as a test reference.

Each reduction copies the state (`without`) and recurses through `_solve`,
so the recursion depth grows with the vertex count; the differential test
runs it only on inputs small enough for the default recursion limit.  The
public result types and the Brooks colouring come from limpack, so the
outputs compare equal to limpack's own.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from limpack.cubic import (
    ConfigurationA,
    ReductionStep,
    ReductionTrace,
    brooks_three_coloring,
)
from limpack.errors import InternalError, PreconditionError
from limpack.graph import Graph, TypedMultigraph
from limpack.verify import verify_typed_two_limited


class _State:
    """Mutable working copy of a typed multigraph, original indices kept."""

    __slots__ = ("verts", "cadj", "dadj")

    def __init__(self, verts: set[int], cadj: dict[int, set[int]], dadj: dict[int, set[int]]):
        self.verts = verts
        self.cadj = cadj
        self.dadj = dadj

    @staticmethod
    def from_typed(tm: TypedMultigraph) -> "_State":
        return _State(
            set(range(tm.n)),
            {v: set(tm.c_adj[v]) for v in range(tm.n)},
            {v: set(tm.d_adj[v]) for v in range(tm.n)},
        )

    def neighbors(self, v: int) -> set[int]:
        return self.cadj[v] | self.dadj[v]

    def degree(self, v: int) -> int:
        return len(self.cadj[v]) + len(self.dadj[v])

    def induced(self, keep: set[int]) -> "_State":
        return _State(
            set(keep),
            {v: self.cadj[v] & keep for v in keep},
            {v: self.dadj[v] & keep for v in keep},
        )

    def without(self, removed: set[int]) -> "_State":
        return self.induced(self.verts - removed)

    def add_c_edge(self, u: int, v: int) -> None:
        self.cadj[u].add(v)
        self.cadj[v].add(u)

    def components(self) -> list[list[int]]:
        seen: set[int] = set()
        comps = []
        for start in sorted(self.verts):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                w = stack.pop()
                for x in self.neighbors(w):
                    if x not in comp:
                        comp.add(x)
                        stack.append(x)
            seen |= comp
            comps.append(sorted(comp))
        return comps


def construct_two_limited(tm: TypedMultigraph) -> tuple[frozenset[int], ReductionTrace]:
    for v in range(tm.n):
        if tm.degree(v) > 3:
            raise PreconditionError(f"vertex {v} has degree {tm.degree(v)} > 3")
    st = _State.from_typed(tm)
    bad = _find_all_c_k4(st)
    if bad is not None:
        raise PreconditionError(
            f"component {sorted(bad)} is a K4 consisting entirely of c-edges"
        )
    steps: list[ReductionStep] = []
    chosen = _solve(st, steps)
    report = verify_typed_two_limited(tm, chosen)
    if not report.valid or 3 * len(chosen) < tm.n:
        raise InternalError(
            "internal error: construction produced an invalid or undersized set"
        )
    return frozenset(chosen), ReductionTrace(tuple(steps))


def find_configuration_a(tm: TypedMultigraph) -> Optional[ConfigurationA]:
    return _find_config_a(_State.from_typed(tm))


def _solve(st: _State, steps: list[ReductionStep]) -> set[int]:
    chosen: set[int] = set()
    comps = st.components()
    if len(comps) == 1:
        return _solve_component(st, comps[0], steps)
    for comp in comps:
        chosen |= _solve_component(st.induced(set(comp)), comp, steps)
    return chosen


def _record(
    steps: list[ReductionStep],
    rule: str,
    removed,
    added,
    contributed,
) -> None:
    steps.append(
        ReductionStep(
            rule,
            tuple(sorted(removed)),
            tuple(sorted(tuple(sorted(e)) for e in added)),
            tuple(sorted(contributed)),
        )
    )


def _solve_component(st: _State, comp: list[int], steps: list[ReductionStep]) -> set[int]:
    n = len(comp)

    # base cases: any single vertex for n <= 3; for n = 4 any pair not
    # joined by a c-edge (such a pair exists, all-c K4s are excluded)
    if n <= 3:
        pick = {comp[0]}
        _record(steps, "base-case", comp, (), pick)
        return pick
    if n == 4:
        for u, v in combinations(comp, 2):
            if v not in st.cadj[u]:
                _record(steps, "base-case", comp, (), (u, v))
                return {u, v}
        raise InternalError("internal error: all-c K4 component reached the base case")

    # all edges c: 3-color and take the largest color class
    if all(not st.dadj[v] for v in comp):
        return _brooks_class(st, comp, steps)

    cfg = _find_config_a(st)
    if cfg is not None:
        removed = {cfg.a, cfg.b, cfg.c, cfg.d, cfg.u, cfg.v}
        _record(steps, "configuration-A", removed, (), (cfg.b, cfg.d))
        rest = _solve(st.without(removed), steps)
        return rest | {cfg.b, cfg.d}

    step = _reduce_degree_one(st, comp, steps)
    if step is None:
        step = _reduce_degree_two(st, comp, steps)
    if step is None:
        _assert_simple_cubic(st, comp)
        step = _reduce_d_edge(st, comp, steps)
    return step


def _brooks_class(st: _State, comp: list[int], steps: list[ReductionStep]) -> set[int]:
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
    pick = set(classes[best])
    _record(steps, "brooks", comp, (), pick)
    return pick


def _reduce_degree_one(
    st: _State, comp: list[int], steps: list[ReductionStep]
) -> Optional[set[int]]:
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
        _record(steps, "degree-1", removed, added, (u,))
        nxt = st.without(removed)
        for x, y in added:
            nxt.add_c_edge(x, y)
        return _solve(nxt, steps) | {u}
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


def _reduce_degree_two(
    st: _State, comp: list[int], steps: list[ReductionStep]
) -> Optional[set[int]]:
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
            pick = {pair_v[0], pair_v[1], w}
            _record(steps, "degree-2-c-k4", comp, (), pick)
            return pick
        _record(steps, "degree-2", removed, added, (u,))
        nxt = st.without(removed)
        for x, y in added:
            nxt.add_c_edge(x, y)
        return _solve(nxt, steps) | {u}
    return None


def _assert_simple_cubic(st: _State, comp: list[int]) -> None:
    for v in comp:
        nb = st.neighbors(v)
        if len(nb) != 3 or st.degree(v) != 3:
            raise InternalError(
                "internal error: expected a simple 3-regular component after"
                f" the degree reductions, vertex {v} breaks it"
            )


def _reduce_d_edge(st: _State, comp: list[int], steps: list[ReductionStep]) -> set[int]:
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
            return _two_triangles(st, u, v, common, steps)
        if len(common) == 1 and one_triangle is None:
            one_triangle = (u, v, common[0])
    if one_triangle is not None:
        return _one_triangle(st, *one_triangle, steps)
    u, v = d_edges[0]
    return _no_triangle(st, u, v, steps)


def _two_triangles(
    st: _State, u: int, v: int, common: list[int], steps: list[ReductionStep]
) -> set[int]:
    b, c = common
    removed = {u, v, b, c}
    removed |= st.neighbors(b) - {u, v}
    removed |= st.neighbors(c) - {u, v}
    _record(steps, "d-edge-two-triangles", removed, (), (u, v))
    return _solve(st.without(removed), steps) | {u, v}


def _one_triangle(
    st: _State, u: int, v: int, w: int, steps: list[ReductionStep]
) -> set[int]:
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
        _record(steps, "d-edge-one-triangle-c-k4", removed_special, (), pick)
        return _solve(st.without(removed_special), steps) | pick
    _record(steps, "d-edge-one-triangle", removed, added, (u, v))
    nxt = st.without(removed)
    for x, y in added:
        nxt.add_c_edge(x, y)
    return _solve(nxt, steps) | {u, v}


def _no_triangle(st: _State, u: int, v: int, steps: list[ReductionStep]) -> set[int]:
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
        _record(steps, "d-edge-no-triangle", removed, added, (u, v))
        nxt = st.without(removed)
        for x, y in added:
            nxt.add_c_edge(x, y)
        return _solve(nxt, steps) | {u, v}

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
        _record(steps, "d-edge-no-triangle-c-k4-pair", removed_special, (), pick)
        return _solve(st.without(removed_special), steps) | pick
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
        _record(steps, "d-edge-no-triangle-c-k4-triple", removed_special, extra, pick)
        nxt = st.without(removed_special)
        for x2, y2 in extra:
            nxt.add_c_edge(x2, y2)
        return _solve(nxt, steps) | pick
    # all four added edges in one K4: the component is exactly these 10
    # vertices and the four middle vertices form the 2-limited set
    if len(st.verts) != 10:
        raise InternalError("internal error: quadruple K4 completion outside 10 vertices")
    pick = {a, b, c, d}
    _record(steps, "d-edge-no-triangle-c-k4-quad", set(k4) | removed, (), pick)
    return pick


def _find_config_a(st: _State) -> Optional[ConfigurationA]:
    for c in sorted(st.verts):
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
    for v in sorted(st.verts):
        if len(st.cadj[v]) == 3 and not st.dadj[v]:
            x, y, z = sorted(st.cadj[v])
            if y in st.cadj[x] and z in st.cadj[x] and z in st.cadj[y]:
                return {v, x, y, z}
    return None
