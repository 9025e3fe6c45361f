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

construct_two_limited promotes a plain graph of max degree 3 itself,
with all edges typed d (TypedMultigraph.from_graph), so it yields a
plain 2-limited packing of size >= n/3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations
from typing import Iterable, Optional

from .errors import InternalError, PreconditionError
from .graph import (
    Graph,
    TypedMultigraph,
    bfs_levels,
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


class _Piece:
    """One pending component: its vertex count and lazy min-heaps of what
    the rules ask about it.  An entry is checked against the current state
    when it reaches the top and dropped if stale; every vertex a step
    touches is pushed again, so each heap holds a valid entry for every
    vertex or d-edge of the component that currently qualifies."""

    __slots__ = ("size", "root", "members", "low", "cand", "dedges")

    def __init__(self) -> None:
        self.size = 0
        self.root = -1  # level 0 of `_State.level` (see `_State._split`)
        self.members: list[int] = []
        # (_low_key(v), v) for every vertex that is not simple degree 3
        self.low: list[tuple[int, int]] = []
        # every possible vertex c of configuration A (c-degree 3)
        self.cand: list[int] = []
        # (2 - triangles, u, v) for every d-edge u < v, keyed when pushed
        self.dedges: list[tuple[int, int, int]] = []


class _State:
    """Adjacency of a typed multigraph, original indices kept, reduced in
    place, and the pending component (`_Piece`) each vertex belongs to."""

    __slots__ = ("cadj", "dadj", "nadj", "owner", "level")

    def __init__(self, tm: TypedMultigraph):
        self.cadj = [set(nbrs) for nbrs in tm.c_adj]
        self.dadj = [set(nbrs) for nbrs in tm.d_adj]
        # distinct neighbors, either type; an edge only goes with an endpoint
        self.nadj = [c | d for c, d in zip(self.cadj, self.dadj)]
        self.owner: list[Optional[_Piece]] = [None] * tm.n
        self.level = [0] * tm.n

    def remove(self, vertices: Iterable[int]) -> None:
        """Delete every edge incident to `vertices`, leaving them isolated."""
        for v in vertices:
            for x in self.nadj[v]:
                self.cadj[x].discard(v)
                self.dadj[x].discard(v)
                self.nadj[x].discard(v)
            self.cadj[v].clear()
            self.dadj[v].clear()
            self.nadj[v].clear()
            self.owner[v] = None

    def add_c_edge(self, u: int, v: int) -> None:
        self.cadj[u].add(v)
        self.cadj[v].add(u)
        self.nadj[u].add(v)
        self.nadj[v].add(u)

    def note(self, v: int) -> None:
        """Push v's degree entry and its d-edges' triangle entries again."""
        piece = self.owner[v]
        key = self._low_key(v)
        if key:
            heappush(piece.low, (key, v))
        nv = self.nadj[v]
        for w in self.dadj[v]:
            if not nv.isdisjoint(self.nadj[w]):
                heappush(piece.dedges, (2 - len(nv & self.nadj[w]), min(v, w), max(v, w)))

    def _low_key(self, v: int) -> int:
        """1 or 2 for a vertex with that many distinct neighbors, 3 for any
        other vertex that is not simple degree 3, 0 for a simple one."""
        nd = len(self.nadj[v])
        if nd == 3 == len(self.cadj[v]) + len(self.dadj[v]):
            return 0
        return nd if nd in (1, 2) else 3

    def members(self, piece: _Piece) -> list[int]:
        return sorted(v for v in piece.members if self.owner[v] is piece)

    def lowest(self, piece: _Piece) -> int:
        heap, owner = piece.members, self.owner
        while heap and owner[heap[0]] is not piece:
            heappop(heap)
        return heap[0]

    def lowest_low(self, piece: _Piece) -> Optional[tuple[int, int]]:
        """(key, v) for the lowest vertex of degree 1, else of degree 2, else
        the lowest vertex that is not simple degree 3 (see `_low_key`)."""
        heap, owner = piece.low, self.owner
        while heap:
            key, v = heap[0]
            if owner[v] is piece and self._low_key(v) == key:
                return heap[0]
            heappop(heap)
        return None

    def d_edge(self, piece: _Piece) -> Optional[tuple[int, int]]:
        """Lowest d-edge of `piece` in two triangles, else in one, else the
        lowest of all.  `note` pushes a d-edge whenever its triangle count
        changes, so a key-2 entry tops the heap only when every count is 0."""
        heap, owner, nadj = piece.dedges, self.owner, self.nadj
        while heap:
            key, u, v = heap[0]
            if owner[u] is piece and v in self.dadj[u]:
                nu, nv = nadj[u], nadj[v]
                if key == (2 if nu.isdisjoint(nv) else 2 - len(nu & nv)):
                    return u, v
            heappop(heap)
        return None

    def config_a(self, piece: _Piece) -> Optional[ConfigurationA]:
        """What `_find_config_a(self, members)` returns, from the lowest
        candidate c that still has an occurrence.

        Between two queries the edges among surviving vertices change only
        by added c-edges (removing vertices deletes no edge between
        survivors), so an occurrence that did not exist before uses an
        added c-edge among its eight edges ca, cd, cb, ad, ab, du, bu, uv,
        and its c is an endpoint x of that edge, a c-neighbor of x (added
        ad, ab, du or bu), or a c-neighbor of a neighbor of x (added uv,
        x = u, via d).  `apply` pushes those c values, so a candidate
        dropped for having no occurrence never needs to come back unless
        it is pushed again."""
        heap = piece.cand
        while heap:
            c = heap[0]
            if self.owner[c] is piece:
                cfg = _find_config_a(self, (c,))
                if cfg is not None:
                    return cfg
            heappop(heap)
        return None

    def apply(
        self, piece: _Piece, removed: set[int], added: list[tuple[int, int]]
    ) -> list[_Piece]:
        """Remove `removed`, add the c-edges `added`, and return what is
        left of `piece` as pieces ordered by smallest member."""
        # the added c-edges join vertices next to removed ones
        touched = {x for v in removed for x in self.nadj[v]} - removed
        ends = {x for e in added for x in e}
        self.remove(removed)
        for x, y in added:
            self.add_c_edge(x, y)
        piece.size -= len(removed)
        if not piece.size:
            return []
        pieces = self._split(piece, sorted(touched))
        for v in touched:
            self.note(v)
        # each end, its neighbors and their c-neighbors, each pushed once
        near = set(ends).union(*(self.nadj[x] for x in ends))
        for c in near.union(*(self.cadj[y] for y in near)):
            if len(self.cadj[c]) == 3:
                heappush(self.owner[c].cand, c)
        return pieces if len(pieces) == 1 else sorted(pieces, key=self.lowest)

    def new_piece(self, levels: dict[int, int]) -> _Piece:
        """A pending component with the BFS `levels` of all its vertices
        from its largest member, the root, listed first.

        One pass sets each vertex's owner and level and lists its heap
        entries: the keys `note` pushes, plus a key-2 entry for every
        d-edge, which `note` never pushes; then each heap is built once."""
        piece = _Piece()
        owner, level, cadj, dadj, nadj = self.owner, self.level, self.cadj, self.dadj, self.nadj
        low, cand, dedges = piece.low, piece.cand, piece.dedges
        for v, d in levels.items():
            owner[v] = piece
            level[v] = d
            nv, nc = nadj[v], len(cadj[v])
            nd = len(nv)
            if nc == 3:
                cand.append(v)
            if nd != 3 or nc + len(dadj[v]) != 3:
                low.append((nd if nd in (1, 2) else 3, v))
            for w in dadj[v]:
                if v < w:
                    dedges.append((2, v, w))
                    if not nv.isdisjoint(nadj[w]):
                        dedges.append((2 - len(nv & nadj[w]), v, w))
        piece.members = members = list(levels)
        piece.size, piece.root = len(members), members[0]
        for heap in (members, low, cand, dedges):
            heapify(heap)
        return piece

    def _relevel(self, piece: _Piece, root: int) -> None:
        """Root `piece` at `root` with BFS levels."""
        piece.root = root
        level = self.level
        for v, d in bfs_levels(self.nadj.__getitem__, root).items():
            level[v] = d

    def _repair(self, piece: _Piece, check: list[tuple[int, int]], steps: int) -> bool:
        """Up to `steps` steps of the level repair, each on the lowest
        vertex to check: it stays if a neighbor lies lower, else it rises
        above its lowest neighbor and its higher neighbors are checked in
        turn.  True once nothing is left to check."""
        level = self.level
        for _ in range(steps):
            if not check:
                return True
            lv, v = heappop(check)
            if lv != level[v] or self.owner[v] is not piece or v == piece.root:
                continue
            nbrs = self.nadj[v]
            if not nbrs:  # cut off from the root: stays pending for the searches
                heappush(check, (lv, v))
                continue
            low = min(map(level.__getitem__, nbrs))
            if low >= lv:
                for w in nbrs:
                    if level[w] > lv:
                        heappush(check, (level[w], w))
                level[v] = low + 1
        return not check

    def _split(self, piece: _Piece, starts: list[int]) -> list[_Piece]:
        """Pieces of `piece` after a step, after Even and Shiloach's on-line
        edge deletion.  Every vertex but the root keeps a lower neighbor,
        so it reaches the root; a repair of these levels from the starts,
        the vertices next to the removed ones, proves in the common case
        that nothing split.  In lockstep with it, one search per start
        runs; searches that meet merge, and once at most one is open, each
        closed search is a whole piece, levelled by one BFS from its largest
        member and built in one pass by `new_piece`, while the open one (or
        the largest, if all closed) stays `piece`.  Either
        way the cost is about that of the cheaper of the two; the searches
        start only after a few repair steps, which usually suffice, and a
        repair longer than the piece gives way to levelling afresh."""
        levelled = self.owner[piece.root] is piece
        check = [(self.level[s], s) for s in starts]
        heapify(check)
        if levelled and self._repair(piece, check, 8 * len(starts)):
            return [piece]
        tag = {s: i for i, s in enumerate(starts)}
        found = [[s] for s in starts]
        queue = [deque((s,)) for s in starts]
        root = list(range(len(starts)))
        live = root[:]
        while len(live) > 1:
            if levelled and self._repair(piece, check, len(live)):
                return [piece]
            for g in live:
                if root[g] != g or not queue[g]:
                    continue
                for y in self.nadj[queue[g].popleft()]:
                    h = tag.get(y)
                    if h is None:
                        tag[y] = g
                        found[g].append(y)
                        queue[g].append(y)
                        continue
                    while root[h] != h:
                        h = root[h]
                    if h != g:
                        root[h] = g
                        found[g] += found[h]
                        queue[g] += queue[h]
            live = [g for g in live if root[g] == g and queue[g]]
        closed = [found[g] for g in range(len(starts)) if root[g] == g and not queue[g]]
        kept = found[live[0]] if live else max(closed, key=len)
        pieces = [piece]
        for vertices in closed:
            if vertices is not kept:
                pieces.append(self.new_piece(bfs_levels(self.nadj.__getitem__, max(vertices))))
                piece.size -= pieces[-1].size
        if not (self.owner[piece.root] is piece and self._repair(piece, check, piece.size)):
            # drop the removed vertices the lazy heap still holds
            members = piece.members = [v for v in piece.members if self.owner[v] is piece]
            heapify(members)
            self._relevel(piece, max(members))
        return pieces


# What one reduction does to its component: the rule name, the vertices
# it removes, the c-edges it adds between survivors, and the vertices it
# contributes to the output.
_Step = tuple[str, set[int], list[tuple[int, int]], set[int]]


def construct_two_limited(tm: Graph | TypedMultigraph) -> tuple[frozenset[int], ReductionTrace]:
    """2-limited set X with 3|X| >= n for a typed multigraph of max degree 3.

    A plain Graph is promoted first, every edge typed d.  Preconditions:
    every vertex degree (both edge types counted) at most 3, and no
    connected component is a K4 made entirely of c-edges.  The returned
    set always verifies; the trace records every reduction.

    Set-up finds each component by one BFS from its largest member, which
    also gives the levels `_split` repairs; a connected input takes one
    BFS, from vertex n - 1.  Sets and traces depend only on which
    vertices make up each piece, so the levels change only the cost.
    """
    if isinstance(tm, Graph):
        tm = TypedMultigraph.from_graph(tm)
    for v, (c, d) in enumerate(zip(tm.c_adj, tm.d_adj)):
        if len(c) + len(d) > 3:
            raise PreconditionError(f"vertex {v} has degree {len(c) + len(d)} > 3")
    st = _State(tm)
    bad = _find_all_c_k4(st)
    if bad is not None:
        raise PreconditionError(
            f"component {sorted(bad)} is a K4 consisting entirely of c-edges"
        )
    steps: list[ReductionStep] = []
    chosen: set[int] = set()
    # the largest vertex not yet in a piece is the largest of its
    # component; pieces are pushed in reverse so the lowest is reduced
    # next: the induction's depth-first order
    stack = [
        st.new_piece(bfs_levels(st.nadj.__getitem__, v))
        for v in reversed(range(tm.n))
        if st.owner[v] is None
    ]
    stack.sort(key=st.lowest, reverse=True)
    while stack:
        piece = stack.pop()
        rule, removed, added, pick = _reduce_component(st, piece)
        steps.append(
            ReductionStep(
                rule,
                tuple(sorted(removed)),
                tuple(sorted(tuple(sorted(e)) for e in added)),
                tuple(sorted(pick)),
            )
        )
        chosen |= pick
        stack += st.apply(piece, removed, added)[::-1]
    report = verify_typed_two_limited(tm, chosen)
    if not report.valid or 3 * len(chosen) < tm.n:
        raise InternalError(
            "internal error: construction produced an invalid or undersized set"
        )
    return frozenset(chosen), ReductionTrace(tuple(steps))


def _reduce_component(st: _State, piece: _Piece) -> _Step:
    """The reduction the induction applies to connected component `piece`."""
    n = piece.size

    # base cases: any single vertex for n <= 3; for n = 4 any pair not
    # joined by a c-edge (such a pair exists, all-c K4s are excluded)
    if n <= 4:
        comp = st.members(piece)
        if n <= 3:
            return "base-case", set(comp), [], {comp[0]}
        for u, v in combinations(comp, 2):
            if v not in st.cadj[u]:
                return "base-case", set(comp), [], {u, v}
        raise InternalError("internal error: all-c K4 component reached the base case")

    # all edges c: 3-color and take the largest color class
    if st.d_edge(piece) is None:
        return _brooks_class(st, st.members(piece))

    cfg = st.config_a(piece)
    if cfg is not None:
        removed = {cfg.a, cfg.b, cfg.c, cfg.d, cfg.u, cfg.v}
        return "configuration-A", removed, [], {cfg.b, cfg.d}

    low = st.lowest_low(piece)
    if low is None:
        return _reduce_d_edge(st, piece)
    key, u = low
    if key == 1:
        return _reduce_degree_one(st, u)
    if key == 2:
        return _reduce_degree_two(st, u, piece)
    raise InternalError(
        "internal error: expected a simple 3-regular component after"
        f" the degree reductions, vertex {u} breaks it"
    )


def _brooks_class(st: _State, comp: list[int]) -> _Step:
    index = {v: i for i, v in enumerate(comp)}
    sub = Graph(len(comp), tuple([tuple(sorted([index[u] for u in st.cadj[v]])) for v in comp]))
    coloring = brooks_three_coloring(sub)
    best = max((0, 1, 2), key=lambda c: (coloring.count(c), -c))
    return "brooks", set(comp), [], {v for v, c in zip(comp, coloring) if c == best}


def _reduce_degree_one(st: _State, u: int) -> _Step:
    """Vertex u adjacent to a single other vertex v: remove {u, v}, add the
    c-edge between v's other two neighbors only when the proof needs it."""
    (v,) = st.nadj[u]
    removed = {u, v}
    _, added, k4s = _plan(st, [(v, u)], removed)
    if k4s:
        raise InternalError("internal error: degree-1 c-edge completed a K4")
    return "degree-1", removed, added, {u}


def _plan(
    st: _State, parents: list[tuple[int, int]], removed: set[int]
) -> tuple[list[Optional[tuple[int, int]]], list[tuple[int, int]], list]:
    """The c-edges a rule adds when removing `removed`: the needed pair of
    each (parent, anchor), the distinct pairs in order, and the c-K4s
    those would complete (`_c_k4_completions`)."""
    need = [_needed_pair(st, z, anchor, removed) for z, anchor in parents]
    added: list[tuple[int, int]] = []
    for pair in need:
        if pair and pair not in added:
            added.append(pair)
    return need, added, _c_k4_completions(st, added, removed)


def _needed_pair(
    st: _State, z: int, anchor: int, removed: set[int]
) -> Optional[tuple[int, int]]:
    """The c-edge the proof adds for parent z when removing `removed`.

    Needed exactly when z keeps two surviving neighbors p1, p2, the edges
    z-anchor, z-p1, z-p2 are all d-edges, and p1p2 is not already a c-edge.
    """
    survivors = sorted(st.nadj[z] - removed)
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


def _reduce_degree_two(st: _State, u: int, piece: _Piece) -> _Step:
    """Vertex u adjacent to exactly two others v, w: remove the three, add
    c-edges between each removed neighbor's surviving pair as needed.

    When the two added edges would together complete a c-K4 the component
    has exactly 7 vertices and pair(v) plus w is already 2-limited."""
    v, w = sorted(st.nadj[u])
    removed = {u, v, w}
    (pair_v, _), added, k4s = _plan(st, [(v, u), (w, u)], removed)
    if k4s:
        if len(k4s[0][1]) < 2:
            raise InternalError("internal error: single degree-2 c-edge completed a K4")
        if piece.size != 7:
            raise InternalError("internal error: degree-2 double K4 outside 7 vertices")
        return "degree-2-c-k4", set(st.members(piece)), [], {pair_v[0], pair_v[1], w}
    return "degree-2", removed, added, {u}


def _reduce_d_edge(st: _State, piece: _Piece) -> _Step:
    """Eliminate the lowest d-edge uv in two triangles, else in one, else
    the lowest d-edge; the graph here is simple, 3-regular, and has a
    d-edge (an all-c component would have been 3-colored instead)."""
    u, v = st.d_edge(piece)
    common = sorted(st.nadj[u] & st.nadj[v])
    if len(common) == 2:
        return _two_triangles(st, u, v, common)
    if common:
        return _one_triangle(st, u, v, common[0])
    return _no_triangle(st, u, v, piece.size)


def _two_triangles(st: _State, u: int, v: int, common: list[int]) -> _Step:
    b, c = common
    removed = {u, v, b, c}
    removed |= st.nadj[b] - {u, v}
    removed |= st.nadj[c] - {u, v}
    return "d-edge-two-triangles", removed, [], {u, v}


def _one_triangle(st: _State, u: int, v: int, w: int) -> _Step:
    (a,) = st.nadj[u] - {v, w}
    (b,) = st.nadj[v] - {u, w}
    removed = {u, v, w, a, b} | (st.nadj[w] - {u, v})
    (pair_a, _), added, k4s = _plan(st, [(a, u), (b, v)], removed)
    if k4s:
        k4, inside = k4s[0]
        if len(inside) < 2:
            raise InternalError("internal error: single one-triangle c-edge completed a K4")
        # both pairs live inside the K4; remove it together with
        # {a, b, u, v, w} and take pair(a) plus b
        removed_special = set(k4) | {a, b, u, v, w}
        pick = {pair_a[0], pair_a[1], b}
        return "d-edge-one-triangle-c-k4", removed_special, [], pick
    return "d-edge-one-triangle", removed, added, {u, v}


def _no_triangle(st: _State, u: int, v: int, size: int) -> _Step:
    a, b = sorted(st.nadj[u] - {v})
    c, d = sorted(st.nadj[v] - {u})
    if len({a, b, c, d}) != 4:
        raise InternalError("internal error: triangle-free d-edge with shared neighbors")
    removed = {u, v, a, b, c, d}
    anchor = {a: u, b: u, c: v, d: v}
    pairs, added, k4s = _plan(st, list(anchor.items()), removed)
    if not k4s:
        return "d-edge-no-triangle", removed, added, {u, v}

    k4s.sort(key=lambda item: (len(item[1]), sorted(item[0])))
    k4, inside = k4s[0]
    need = dict(zip(anchor, pairs))
    involved = [z for z in need if need[z] in inside]
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
        leftover = next(z for z in need if z not in involved)
        removed_special = set(k4) | removed
        pick = {need[x][0], need[x][1], y, v}
        # the leftover parent's pair stays needed unless the K4 holds an end
        _, extra, k4s = _plan(st, [(leftover, anchor[leftover])], removed_special)
        if k4s:
            raise InternalError("internal error: leftover c-edge completed a K4")
        return "d-edge-no-triangle-c-k4-triple", removed_special, extra, pick
    # all four added edges in one K4: the component is exactly these 10
    # vertices and the four middle vertices form the 2-limited set
    if size != 10:
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
                    for u in sorted((st.nadj[d] & st.nadj[b]) - {a, c}):
                        for v in sorted(st.nadj[u] - {a, b, c, d}):
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

    def c_star_nbrs(x: int) -> set[int]:
        out = set(st.cadj[x])
        for e in added:
            if x in e:
                out |= set(e) - {x}
        return out - removed

    found: dict[frozenset[int], list[tuple[int, int]]] = {}
    for x, y in added:
        for z, t in combinations(sorted(c_star_nbrs(x) & c_star_nbrs(y)), 2):
            if t in c_star_nbrs(z):
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
            if colors[v] not in (0, 1, 2) or any(colors[u] == colors[v] for u in g.adj[v]):
                raise InternalError(f"internal error: Brooks coloring of {comp} is not proper")
    return tuple(colors)


def _color_component(g: Graph, comp: list[int], colors: list[int]) -> None:
    comp_set = set(comp)
    nbrs = g.adj.__getitem__
    if len(comp) == 4 and all(len(g.adj[v]) == 3 for v in comp):
        raise PreconditionError(f"component {comp} is K4")
    low = [v for v in comp if len(g.adj[v]) < 3]
    if low:
        _reverse_bfs_color(g, comp_set, low[0], {}, colors)
        return
    cut = _lowest_cut_vertex(g, comp[0])
    if cut is not None:
        _split_at_cut_vertex(g, components_within(nbrs, comp_set - {cut}), cut, colors)
        return
    for v in comp:
        for a, b in combinations(g.adj[v], 2):
            if b not in g.adj[a] and len(components_within(nbrs, comp_set - {a, b})) <= 1:
                _reverse_bfs_color(g, comp_set - {a, b}, v, {a: 0, b: 0}, colors)
                return
    raise InternalError("internal error: no Brooks decomposition found")


def _lowest_cut_vertex(g: Graph, root: int) -> Optional[int]:
    """Lowest cut vertex of root's component, by one iterative depth-first
    pass with low points (Hopcroft and Tarjan)."""
    disc = {root: 0}
    low = {root: 0}
    cuts = set()
    root_children = 0
    stack = [(root, iter(g.adj[root]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                stack.append((w, iter(g.adj[w])))
                break
            # the tree edge to the parent counts too: it only brings low[v]
            # down to disc[parent], which leaves the cut test below unchanged
            low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if not stack:
                break
            parent = stack[-1][0]
            low[parent] = min(low[parent], low[v])
            if parent == root:
                root_children += 1
            elif low[v] >= disc[parent]:
                cuts.add(parent)
    if root_children > 1:
        cuts.add(root)
    return min(cuts, default=None)


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

    Precolored vertices (outside vertex_set) count as neighbors; all go into `colors`.
    Every non-root vertex still has its BFS parent uncolored when its
    turn comes, so 3 colors always suffice when deg(root) < 3 inside."""
    order = list(bfs_levels(g.adj.__getitem__, root, vertex_set))
    local: dict[int, int] = dict(pre)
    for w in reversed(order):
        local[w] = min({0, 1, 2, 3} - {local[x] for x in g.adj[w] if x in local})
    for w, c in local.items():
        colors[w] = c
