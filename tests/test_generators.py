from itertools import combinations, product

import pytest

from limpack import (
    GaloisField,
    Graph,
    GraphInputError,
    ResourceLimitError,
    closed_neighborhood,
    connected_components,
    degree_stats,
    gen_cycle,
    gen_named,
    gen_projective,
    gen_random_regular,
    pairwise_distance,
    projective_points,
)


def two_coloring_parts(g: Graph):
    """Bipartition via BFS 2-coloring, or None if an odd cycle exists."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in g.adj[v]:
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    return [i for i in range(g.n) if color[i] == 0], [
        i for i in range(g.n) if color[i] == 1
    ]


def test_cycle_basics():
    k3 = gen_cycle(3)
    assert k3.n == 3 and all(k3.has_edge(u, v) for u, v in [(0, 1), (1, 2), (0, 2)])
    c6 = gen_cycle(6)
    assert degree_stats(c6) == (2, 2, 6, 6)
    assert len(connected_components(c6)) == 1
    with pytest.raises(GraphInputError):
        gen_cycle(2)


def test_h6_is_k33(h6):
    assert degree_stats(h6) == (3, 3, 6, 9)
    parts = two_coloring_parts(h6)
    assert parts is not None
    a, b = parts
    assert sorted(map(len, (a, b))) == [3, 3]
    # complete bipartite: every cross pair adjacent
    assert all(h6.has_edge(u, v) for u in a for v in b)


def test_petersen_structure(petersen):
    assert degree_stats(petersen) == (3, 3, 10, 15)
    # girth 5: no triangles or 4-cycles
    for u in range(10):
        for v in petersen.adj[u]:
            assert not set(petersen.adj[u]) & set(petersen.adj[v])
    for u, v in combinations(range(10), 2):
        if not petersen.has_edge(u, v):
            assert len(set(petersen.adj[u]) & set(petersen.adj[v])) <= 1
    assert max(
        pairwise_distance(petersen, u, v) for u, v in combinations(range(10), 2)
    ) == 2


def test_k4_complete(k4):
    assert all(k4.has_edge(u, v) for u, v in combinations(range(4), 2))


def test_unknown_family():
    with pytest.raises(GraphInputError):
        gen_named("frucht")


def test_random_regular_contract():
    g = gen_random_regular(10, 3, seed=1)
    assert degree_stats(g) == (3, 3, 10, 15)
    with pytest.raises(GraphInputError):
        gen_random_regular(5, 3, seed=1)
    cycles = gen_random_regular(12, 2, seed=9)
    assert all(cycles.degree(v) == 2 for v in range(12))
    assert gen_random_regular(10, 3, seed=4) == gen_random_regular(10, 3, seed=4)
    assert gen_random_regular(200, 10, seed=0).m == 1000


def test_random_regular_infeasible_exhausts():
    # r = n-1 forces K_n; impossible to stay simple when also r >= n
    with pytest.raises(GraphInputError):
        gen_random_regular(4, 4, seed=0)
    with pytest.raises(ResourceLimitError):
        gen_random_regular(4, 3, seed=0, max_attempts=0)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 4, 8, 9])
def test_field_arithmetic(q):
    field = GaloisField(q)
    for a in range(q):
        for b in range(q):
            assert 0 <= field.add(a, b) < q
            assert 0 <= field.mul(a, b) < q
            assert field.mul(a, b) == field.mul(b, a)
    for a in range(1, q):
        assert field.mul(a, field.inv(a)) == 1
    zeros = [b for b in range(q) if field.mul(3 % q, b) == 0]
    if 3 % q != 0:
        assert zeros == [0]


def test_field_distributivity_spot():
    for q in (4, 8, 9):
        field = GaloisField(q)
        for a in range(q):
            for b in range(q):
                for c in (1, q - 1):
                    assert field.mul(a, field.add(b, c)) == field.add(
                        field.mul(a, b), field.mul(a, c)
                    )


def test_unsupported_field():
    with pytest.raises(GraphInputError, match="unsupported"):
        GaloisField(6)
    with pytest.raises(GraphInputError):
        gen_projective(12, 1)


@pytest.mark.parametrize(
    "q,k,expected_n", [(2, 1, 7), (3, 1, 13), (2, 2, 15), (4, 1, 21), (5, 1, 31)]
)
def test_projective_vertex_count(q, k, expected_n):
    assert (q ** (k + 2) - 1) // (q - 1) == expected_n
    g = gen_projective(q, k)
    assert g.n == expected_n


def test_projective_points_normalized():
    pts = projective_points(3, 1)
    assert len(pts) == 13
    for p in pts:
        first = next(c for c in p.coords if c != 0)
        assert first == 1
    assert pts == sorted(pts, key=lambda p: p.coords)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_projective_points_are_the_normalized_vectors(q, k):
    """Exactly the vectors whose first nonzero coordinate is 1, in
    lexicographic order."""
    expected = [
        vec for vec in product(range(q), repeat=k + 2) if next((c for c in vec if c), 0) == 1
    ]
    assert [p.coords for p in projective_points(q, k)] == expected


@pytest.mark.parametrize("q,k", [(2, 1), (3, 1), (2, 2)])
def test_projective_degrees(q, k):
    g = gen_projective(q, k)
    h = (q ** (k + 1) - 1) // (q - 1)
    field = GaloisField(q)
    pts = projective_points(q, k)
    for v in range(g.n):
        expected = h - 1 if field.dot(pts[v].coords, pts[v].coords) == 0 else h
        assert g.degree(v) == expected


@pytest.mark.parametrize("q,k", [(2, 1), (3, 1), (2, 2)])
def test_hyperplane_cover(q, k):
    """Every k+1 vertices have a common adjacent-or-equal vertex."""
    g = gen_projective(q, k)
    for group in combinations(range(g.n), k + 1):
        covered = set.intersection(*(closed_neighborhood(g, v) for v in group))
        assert covered, group


def test_projective_deterministic():
    assert gen_projective(3, 1) == gen_projective(3, 1)
