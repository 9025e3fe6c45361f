"""Shared test corpus: random typed multigraphs and hand-built graphs that
drive the constructive algorithm through each of its special subcases."""

from __future__ import annotations

import random
from typing import Optional

from limpack import ConfigurationA, Graph, TypedMultigraph, gen_random_regular
from limpack.cubic import _find_config_a, _State


def find_configuration_a(tm: TypedMultigraph) -> Optional[ConfigurationA]:
    """The first configuration A in lexicographic search order, as the
    construction's own search finds it."""
    return _find_config_a(_State(tm), range(tm.n))


def random_typed_multigraph(seed: int, n: int) -> TypedMultigraph:
    """Seeded typed multigraph with max degree <= 3 and no all-c K4 component.

    Every third seed relabels a random cubic graph with random edge types
    (these reach the triangle rules of the reduction); the rest grow from
    random pairs with random types while degree room remains.  Any all-c
    K4 is broken by flipping one c-edge to d (its endpoints have no
    degree room left, so the flip is always legal).
    """
    rng = random.Random(seed)
    c_edges: set[tuple[int, int]] = set()
    d_edges: set[tuple[int, int]] = set()
    if seed % 3 == 0 and n >= 6:
        g = gen_random_regular(n - n % 2, 3, seed=rng.randrange(2**32))
        n = g.n
        for u, v in g.edges():
            (c_edges if rng.random() < 0.4 else d_edges).add((u, v))
    else:
        deg = [0] * n
        target = rng.randint(n // 2, (3 * n) // 2)
        for _ in range(target * 4):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            u, v = min(u, v), max(u, v)
            bucket = c_edges if rng.random() < 0.5 else d_edges
            if (u, v) in bucket or deg[u] >= 3 or deg[v] >= 3:
                continue
            bucket.add((u, v))
            deg[u] += 1
            deg[v] += 1
    _flip_all_c_k4s(c_edges, d_edges)
    edges = [(u, v, "c") for u, v in c_edges] + [(u, v, "d") for u, v in d_edges]
    return TypedMultigraph.from_edges(n, edges)


def _flip_all_c_k4s(c_edges: set[tuple[int, int]], d_edges: set[tuple[int, int]]) -> None:
    while True:
        cadj: dict[int, set[int]] = {}
        for u, v in c_edges:
            cadj.setdefault(u, set()).add(v)
            cadj.setdefault(v, set()).add(u)
        flipped = False
        for v in sorted(cadj):
            if len(cadj[v]) == 3:
                x, y, z = sorted(cadj[v])
                if y in cadj[x] and z in cadj[x] and z in cadj[y]:
                    edge = (min(v, x), max(v, x))
                    c_edges.discard(edge)
                    d_edges.add(edge)
                    flipped = True
                    break
        if not flipped:
            return


def all_d(g: Graph) -> TypedMultigraph:
    return TypedMultigraph.from_graph(g)


def typed(n: int, c_pairs, d_pairs) -> TypedMultigraph:
    edges = [(u, v, "c") for u, v in c_pairs] + [(u, v, "d") for u, v in d_pairs]
    return TypedMultigraph.from_edges(n, edges)


def configuration_a_graph() -> TypedMultigraph:
    """Exactly the six-vertex pattern: a=0, b=1, c=2, d=3, u=4, v=5."""
    return typed(
        6,
        c_pairs=[(2, 0), (2, 3), (2, 1), (0, 3), (0, 1)],
        d_pairs=[(3, 4), (1, 4), (4, 5)],
    )


def degree_one_addition_graph() -> TypedMultigraph:
    """Pendant 0 on 1; removing {0, 1} makes the c-edge 2-3 necessary."""
    return typed(6, c_pairs=[], d_pairs=[(0, 1), (1, 2), (1, 3), (2, 4), (3, 5)])


def degree_two_special_graph() -> TypedMultigraph:
    """The 7-vertex subcase: u=0 sees v=1, w=2; the two needed c-edges 3-4
    and 5-6 would complete a c-K4 on {3, 4, 5, 6}."""
    return typed(
        7,
        c_pairs=[(3, 5), (3, 6), (4, 5), (4, 6)],
        d_pairs=[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)],
    )


def two_triangles_graph() -> TypedMultigraph:
    """Two diamonds joined by spokes; the d-edge 0-1 lies in two triangles."""
    pairs = [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
        (2, 4), (3, 5),
        (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
    ]
    return typed(8, c_pairs=[], d_pairs=pairs)


def two_triangles_degenerate_graph() -> TypedMultigraph:
    """d-edge 0-1 in two triangles whose outer neighbors coincide (both 2
    and 3 continue to the single vertex 4), so only five vertices leave."""
    pairs = [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4),
        (4, 9),
        (5, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 9), (8, 9),
    ]
    return typed(10, c_pairs=[], d_pairs=pairs)


def one_triangle_special_graph() -> TypedMultigraph:
    """16 vertices: d-edge 0-1 in the single triangle {0,1,2}; the needed
    c-edges 6-7 and 8-9 complete a c-K4, leaving the survivor 5 attached
    to an 8-vertex triangle-free 3-regular gadget."""
    d_pairs = [
        (0, 1), (0, 2), (1, 2),
        (0, 3), (1, 4), (2, 5),
        (3, 6), (3, 7), (4, 8), (4, 9),
        (5, 10), (5, 13),
        (10, 11), (11, 12), (12, 13), (13, 14), (14, 15), (15, 10),
        (12, 15), (11, 14),
    ]
    c_pairs = [(6, 8), (6, 9), (7, 8), (7, 9)]
    return typed(16, c_pairs=c_pairs, d_pairs=d_pairs)


def no_triangle_pair_graph() -> TypedMultigraph:
    """16 vertices, triangle-free 3-regular: eliminating the d-edge 0-1
    needs c-edges 6-7 (for 2) and 8-9 (for 3) which complete a c-K4."""
    d_pairs = [
        (0, 1), (0, 2), (0, 3), (1, 4), (1, 5),
        (2, 6), (2, 7), (3, 8), (3, 9),
        (4, 13), (5, 11), (5, 14),
        (10, 11), (11, 12), (12, 13), (13, 14), (14, 15), (15, 10),
        (12, 15),
    ]
    c_pairs = [(6, 8), (6, 9), (7, 8), (7, 9), (4, 10)]
    return typed(16, c_pairs=c_pairs, d_pairs=d_pairs)


def no_triangle_triple_graph() -> TypedMultigraph:
    """18 vertices: three of the four c-edges needed by the d-edge 0-1
    (6-7, 8-9, 6-8) complete a c-K4 on {6,7,8,9}; the fourth (10-11) is
    re-added during the remedy."""
    d_pairs = [
        (0, 1), (0, 2), (0, 3), (1, 4), (1, 5),
        (2, 6), (2, 7), (3, 8), (3, 9),
        (4, 6), (4, 8), (5, 10), (5, 11),
        (10, 12), (10, 15), (11, 13), (11, 16),
        (12, 13), (13, 14), (14, 15), (15, 16), (16, 17), (17, 12),
        (14, 17),
    ]
    c_pairs = [(6, 9), (7, 9), (7, 8)]
    return typed(18, c_pairs=c_pairs, d_pairs=d_pairs)


def no_triangle_quad_graph() -> TypedMultigraph:
    """The 10-vertex subcase: all four needed c-edges form a c-K4 on
    {6,7,8,9} and the middle vertices {2,3,4,5} are the answer."""
    d_pairs = [
        (0, 1), (0, 2), (0, 3), (1, 4), (1, 5),
        (2, 6), (2, 7), (3, 8), (3, 9),
        (4, 6), (4, 8), (5, 7), (5, 9),
    ]
    c_pairs = [(6, 9), (7, 8)]
    return typed(10, c_pairs=c_pairs, d_pairs=d_pairs)
