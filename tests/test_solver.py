import subprocess
import sys

import pytest

from limpack import (
    Graph,
    InfeasibleError,
    ResourceLimitError,
    SolveResult,
    TypedMultigraph,
    bound_sheet,
    degree_stats,
    disjoint_union,
    enumerate_oracle,
    gen_cycle,
    gen_named,
    gen_random_regular,
    max_k_limited,
    max_typed_two_limited,
    min_tuple_dominating,
    verify_k_limited,
    verify_tuple_dominating,
    verify_typed_two_limited,
)


@pytest.mark.parametrize("n", range(3, 15))
def test_cycle_formulas(n):
    c = gen_cycle(n)
    assert max_k_limited(c, 1).optimum == n // 3
    assert max_k_limited(c, 2).optimum == 2 * n // 3


def test_h6_two_limited(h6):
    assert max_k_limited(h6, 2).optimum == 2


def test_petersen_one_limited(petersen):
    assert max_k_limited(petersen, 1).optimum == 1


def test_k_above_max_degree_gives_everything(small_corpus):
    for _, g in small_corpus:
        stats = degree_stats(g)
        result = max_k_limited(g, stats.max_degree + 1)
        assert result.optimum == g.n
        assert result.witness == tuple(range(g.n))


def test_witness_is_valid_and_sized(small_corpus):
    for _, g in small_corpus:
        for k in (1, 2, 3):
            result = max_k_limited(g, k)
            assert len(result.witness) == result.optimum
            assert verify_k_limited(g, result.witness, k).valid
            assert result.nodes_explored > 0


def test_domination_examples(petersen, k4):
    assert min_tuple_dominating(gen_cycle(4), 1).optimum == 2
    assert enumerate_oracle(gen_cycle(4), l=1) == 2
    assert min_tuple_dominating(k4, 4).optimum == 4
    l2 = max_k_limited(petersen, 2).optimum
    assert min_tuple_dominating(petersen, 2).optimum == 10 - l2


def test_domination_witness_valid(small_corpus):
    for _, g in small_corpus:
        if g.n == 0:
            continue
        delta = degree_stats(g).min_degree
        for l in range(1, delta + 2):
            result = min_tuple_dominating(g, l)
            assert verify_tuple_dominating(g, result.witness, l).valid
            assert len(result.witness) == result.optimum


def test_domination_infeasible(petersen):
    with pytest.raises(InfeasibleError):
        min_tuple_dominating(petersen, 5)


def test_oracle_examples():
    assert enumerate_oracle(gen_cycle(5), 1) == 1
    assert enumerate_oracle(Graph.from_edges(1, []), 1) == 1
    assert enumerate_oracle(gen_cycle(4), 2) == 2
    assert enumerate_oracle(Graph.from_edges(0, []), 1) == 0
    # the size limit is inclusive: 20 vertices are solved (21 are refused below)
    k20 = Graph.from_edges(20, [(u, v) for u in range(20) for v in range(u + 1, 20)])
    assert enumerate_oracle(k20, 1) == 1


def test_oracle_rejects_large_graphs():
    big = Graph.from_edges(21, [])
    with pytest.raises(ResourceLimitError):
        enumerate_oracle(big, 1)


def test_oracle_agreement_packing(small_corpus):
    for _, g in small_corpus:
        if g.n > 14:
            continue
        for k in range(1, 5):
            assert max_k_limited(g, k).optimum == enumerate_oracle(g, k), (_, k)


def test_oracle_agreement_domination(small_corpus):
    for _, g in small_corpus:
        if g.n > 14 or g.n == 0:
            continue
        delta = degree_stats(g).min_degree
        for l in range(1, min(delta + 2, 5)):
            assert (
                min_tuple_dominating(g, l).optimum
                == enumerate_oracle(g, l=l)
            )


def test_duality_identity():
    for n, r, seed in [(8, 3, 0), (10, 3, 1), (12, 3, 2), (10, 4, 3)]:
        g = gen_random_regular(n, r, seed=seed)
        for k in range(1, r + 2):
            packing = max_k_limited(g, k).optimum
            dom = min_tuple_dominating(g, r + 1 - k).optimum if r + 1 - k >= 1 else 0
            assert packing + dom == n


def test_additive_over_disjoint_union(h6, petersen):
    for g1, g2 in [(gen_cycle(5), h6), (petersen, gen_cycle(4))]:
        u = disjoint_union(g1, g2)
        for k in (1, 2):
            assert (
                max_k_limited(u, k).optimum
                == max_k_limited(g1, k).optimum + max_k_limited(g2, k).optimum
            )


def test_sandwich_against_bound_sheet(small_corpus):
    for _, g in small_corpus:
        if g.n == 0:
            continue
        stats = degree_stats(g)
        for k in (1, 2, 3):
            optimum = max_k_limited(g, k).optimum
            sheet = bound_sheet(
                g.n, stats.max_degree, stats.min_degree, k,
                avg_degree=2 * stats.edge_count / g.n,
            )
            for low in sheet.lower_bounds():
                assert float(low) <= optimum + 1e-9
            assert optimum <= float(sheet.packing_upper) + 1e-9


def test_monotone_in_k(small_corpus):
    for _, g in small_corpus:
        stats = degree_stats(g)
        prev = 0
        for k in range(1, stats.max_degree + 3):
            cur = max_k_limited(g, k).optimum
            assert cur >= prev
            prev = cur
        assert prev == g.n


def test_vertex_limit():
    big = Graph.from_edges(65, [])
    with pytest.raises(ResourceLimitError, match="randomized"):
        max_k_limited(big, 1)
    assert max_k_limited(Graph.from_edges(64, []), 1).optimum == 64
    with pytest.raises(ResourceLimitError):
        min_tuple_dominating(big, 1)


def test_limit_sized_solves_fit_a_small_recursion_limit():
    # the search recurses once per vertex, so 64 vertices need about 65 frames
    code = (
        "import sys\n"
        "from limpack import Graph, TypedMultigraph, max_k_limited,"
        " max_typed_two_limited, min_tuple_dominating\n"
        "sys.setrecursionlimit(100)\n"
        "g = Graph.from_edges(64, [])\n"
        "print(max_k_limited(g, 1).optimum, min_tuple_dominating(g, 1).optimum,"
        " max_typed_two_limited(TypedMultigraph.from_edges(64, [])).optimum)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "64 64 64\n"


def test_deterministic_witness(petersen):
    a = max_k_limited(petersen, 2)
    b = max_k_limited(petersen, 2)
    assert a == b


def test_empty_graph():
    g = Graph.from_edges(0, [])
    assert max_k_limited(g, 1).optimum == 0
    assert min_tuple_dominating(g, 1).optimum == 0
    assert min_tuple_dominating(g, 5) == SolveResult(0, (), 1)


def test_typed_solver_matches_brute_force():
    import corpus

    def brute(tm: TypedMultigraph) -> int:
        best = 0
        for mask in range(1 << tm.n):
            xs = {v for v in range(tm.n) if mask >> v & 1}
            if len(xs) > best and verify_typed_two_limited(tm, xs).valid:
                best = len(xs)
        return best

    for seed in range(12):
        tm = corpus.random_typed_multigraph(seed, 4 + seed % 8)
        result = max_typed_two_limited(tm)
        assert result.optimum == brute(tm)
        assert verify_typed_two_limited(tm, result.witness).valid


def test_typed_solver_plain_graph_agrees(h6):
    tm = TypedMultigraph.from_graph(h6)
    assert max_typed_two_limited(tm).optimum == max_k_limited(h6, 2).optimum


def test_solve_result_text(petersen):
    text = max_k_limited(petersen, 1).to_text()
    lines = text.splitlines()
    assert lines[0] == "optimum: 1"
    assert lines[1].startswith("witness: ")
    assert lines[2].startswith("nodes: ")
