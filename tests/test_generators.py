import hashlib
import os
import resource
import subprocess
import sys
from itertools import combinations, product

import pytest

import limpack
from limpack import (
    GaloisField,
    Graph,
    GraphInputError,
    ResourceLimitError,
    connected_components,
    degree_stats,
    gen_cycle,
    gen_named,
    gen_projective,
    gen_random_regular,
    projective_points,
    serialize_graph,
)
from limpack.graph import MAX_VERTICES, bfs_levels


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


def test_cycle_matches_the_edge_list_build():
    """gen_cycle makes its neighbour tuples itself; they equal from_edges over its edges."""
    for n in range(3, 41):
        assert gen_cycle(n) == Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


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
        bfs_levels(petersen.neighbors, u).get(v) for u, v in combinations(range(10), 2)
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
    assert degree_stats(gen_random_regular(200, 10, seed=0)).edge_count == 1000


def test_random_regular_infeasible_exhausts(monkeypatch):
    # r = n-1 forces K_n; impossible to stay simple when also r >= n
    with pytest.raises(GraphInputError):
        gen_random_regular(4, 4, seed=0)
    # seed 0's first pairing attempt on 8 vertices reaches a dead end
    monkeypatch.setattr(limpack.generators, "MAX_ATTEMPTS", 1)
    with pytest.raises(ResourceLimitError, match="in 1 attempts"):
        gen_random_regular(8, 3, 0)


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


def test_field_order_over_the_vertex_limit_is_refused_at_once():
    """GaloisField(10**14 + 31) once ran trial division for over a second and
    returned; an order over MAX_VERTICES is now refused before any division."""
    with pytest.raises(ResourceLimitError, match=r"^field order 100000000000031 over the limit"):
        GaloisField(10**14 + 31)
    with pytest.raises(ResourceLimitError, match=r"^field order over 2\^1328 over the limit"):
        GaloisField(10**400)
    with pytest.raises(ResourceLimitError):
        GaloisField(MAX_VERTICES + 1)
    with pytest.raises(GraphInputError, match="unsupported field order 10000000:"):
        GaloisField(MAX_VERTICES)
    assert GaloisField(9_999_991).inv(2) == 4_999_996  # the largest prime within the limit


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
        first = next(c for c in p if c != 0)
        assert first == 1
    assert pts == sorted(pts)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_projective_points_are_the_normalized_vectors(q, k):
    """Exactly the vectors whose first nonzero coordinate is 1, in
    lexicographic order."""
    expected = [
        vec for vec in product(range(q), repeat=k + 2) if next((c for c in vec if c), 0) == 1
    ]
    assert projective_points(q, k) == expected


@pytest.mark.parametrize("q,k", [(2, 1), (3, 1), (2, 2)])
def test_projective_degrees(q, k):
    g = gen_projective(q, k)
    h = (q ** (k + 1) - 1) // (q - 1)
    field = GaloisField(q)
    pts = projective_points(q, k)
    for v in range(g.n):
        expected = h - 1 if field.dot(pts[v], pts[v]) == 0 else h
        assert g.degree(v) == expected


@pytest.mark.parametrize("q,k", [(2, 1), (3, 1), (2, 2)])
def test_hyperplane_cover(q, k):
    """Every k+1 vertices have a common adjacent-or-equal vertex."""
    g = gen_projective(q, k)
    for group in combinations(range(g.n), k + 1):
        covered = set.intersection(*({v, *g.adj[v]} for v in group))
        assert covered, group


def test_projective_deterministic():
    assert gen_projective(3, 1) == gen_projective(3, 1)


# SHA-256 of serialize_graph(gen_projective(q, k)), recorded from the
# pairwise-dot generator so that a faster one must match it byte for byte.
PROJECTIVE_SHA256 = [
    (2, 1, "0a45103aea88da5ef574eed756e042961af3298f465a55c443869c83923159cf"),
    (3, 1, "8c44ea6d338dfb7c4223914e11a7c057be4db3c9cea07453bade297308f059eb"),
    (4, 1, "272ca2eb217cbb34aea370580cf969958d635ee463b6b69de3dd8c5fd03c582e"),
    (5, 1, "50e4da4660bb740e8f1c1eb629fffed4de34553a07f035d1e301b6bc156fb754"),
    (7, 1, "b12e444a0ae1623e677771467170c38524e7795e958d607d37b19de426b41fd6"),
    (8, 1, "dbee104fd04ea943c794d63660d3534e88c656d96dbc59c37076614ffe2d17a3"),
    (9, 1, "5c9e2320e1c131e64dc2f25c49bd656489e00e793104dca800f4ab0b118d78e0"),
    (11, 1, "1096ef6a26646b68f6517ff0f9775c3cecd0a10e3bdc698a29dd55c42dcb1c07"),
    (13, 1, "c8f58491b334fdddec2b79ea107b1a24a098b2d421e6c5c7ee7c4f0db8badcc6"),
    (17, 1, "aeeba0c3262c6e51f2f2e34ffa1d19fa53b0ea86a733761be95be78d5d4c01de"),
    (19, 1, "a8033d38230f24362a100db3809a1f6dea93dcd43cca15408c1f5e543d571e11"),
    (23, 1, "6e20faba0b9ef3f1152df92af59b1a1558a42c7ecd3bb8686e9e32405eedbffc"),
    (2, 2, "3d765a659b436854897a6e46ffecdbc83b69211a269aaa17c2dcd786fc1cc9d5"),
    (3, 2, "97a550de7d31d030050b2718f8c85dbe9fd7798db84154219466c5608dc8fbc9"),
    (4, 2, "00af3ab72a81c451529f5aa0b5f9864b448d3cf5c9eb198318197c2b2f269509"),
    (5, 2, "a6edb79abbe7084b433ad4723f3ee75ef7500c5ad36816240e43a27d3e4a0452"),
    (7, 2, "9881a0242642cecfeee9562c7e3affbc09d744122f88389fb98694c911637e6a"),
    (8, 2, "2997b0a882aed4a72270492705f61ecada05a4961eb7fd66cb5c2ba0cac61a67"),
    (9, 2, "a73628836502c0782c275f2d3de8825ea1e18fb81fa079f05b40854fb44833b5"),
    (29, 1, "4f912e80d56dcc4bb7fc4e77fdb2f3d6485e6b57971c8ae744d94270b3300441"),
    (31, 1, "849976236774a804ceb245afab1ad33d2210a9c49bee74e989c2d71084322f7c"),
    (37, 1, "54fdfb708c63c5d620cf554550f27a5ce1ffed1e79492d2caf8b672ff97e42e0"),
    (11, 2, "f49d2c698bb4ef443d000ffc5d20715fe686800052398ff0e443031430292fb5"),
    (13, 2, "2cbd8edf6ea5b7d83405dce4d7abb2a4db021fd062ab4db8e55e6ad2205242b0"),
    (2, 3, "377183d55b94d317af60503977db0e835564b7529267a523acc52469dc25da44"),
    (3, 3, "48550ddadf29953532472a4f08da217feeacba1b89acc8adfab5c813ea8743bf"),
    (4, 3, "27d8f914dd8c604491779ce19ca24f9750669a47dd749f2693a67fb454621519"),
    (5, 3, "c2d4311b6ac5aa9f6553b420847b2e4c443933c1621408f737e36ebdd4d2f273"),
    (2, 4, "325ba2f4e0994a31cfd5d17d48be7cfb223170a1844b9e377102c3d69af8e09c"),
    (3, 4, "4a0d8a2fa44d64d88748000b5d13c3db4c14a3dc0d6957749b65900eccdbf4f3"),
    (2, 5, "9e9222f7a4735a6c8e3c9bb7115e55c9d2cdba7d481c4ec3af62ef4e209dd00e"),
    (2, 6, "74b1952a2f2ab11f1d28139e7f8e38abbcf8c6de2828e72e98ecf6ec5cf1895e"),
]


@pytest.mark.parametrize("q,k,digest", PROJECTIVE_SHA256)
def test_projective_bytes_pinned(q, k, digest):
    text = serialize_graph(gen_projective(q, k))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# recorded from the pair-loop generator, which took 72 s for this graph
PROJECTIVE_101_SHA256 = "32de524c58c7ce5f52012aef50210d43c84d33110e6a6545e3a53f2cf4405b77"


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_projective_q101_cli_within_30s(tmp_path):
    """`gen --family projective --q 101 --k 1` (n = 10 303) writes the
    pinned bytes within 30 s, in a child under a 1 GiB address-space cap."""
    out = tmp_path / "proj.graph"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(limpack.__file__)))
    argv = ["gen", "--family", "projective", "--q", "101", "--k", "1", "--out", str(out)]
    done = subprocess.run(
        [sys.executable, "-m", "limpack.cli", *argv],
        capture_output=True,
        env=env,
        preexec_fn=_cap_memory,
        timeout=30,
    )
    assert done.returncode == 0
    assert done.stderr == b""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PROJECTIVE_101_SHA256
