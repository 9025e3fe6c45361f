"""Frozen copy of the Brooks 3-colouring that finds a cut vertex by running
one search of comp - {v} per vertex v, kept as a test reference for
`limpack.brooks_three_coloring`, which finds the same lowest cut vertex in
one depth-first pass."""

from __future__ import annotations

from itertools import combinations

from limpack.errors import InternalError, PreconditionError
from limpack.graph import Graph, components_within, connected_components, degree_stats


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
