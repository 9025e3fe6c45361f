import pytest

import corpus
from exhaustive import enumerate_connected_subcubic
from limpack import (
    Graph,
    PreconditionError,
    TypedMultigraph,
    brooks_three_coloring,
    construct_two_limited,
    disjoint_union,
    gen_cycle,
    gen_named,
    gen_random_regular,
    max_k_limited,
    max_typed_two_limited,
    verify_typed_two_limited,
)


def all_d(g: Graph) -> TypedMultigraph:
    return TypedMultigraph.from_graph(g)


def check(tm: TypedMultigraph):
    chosen, trace = construct_two_limited(tm)
    assert verify_typed_two_limited(tm, chosen).valid
    assert 3 * len(chosen) >= tm.n
    return chosen, trace


def test_single_vertex():
    chosen, trace = check(TypedMultigraph.from_edges(1, []))
    assert chosen == {0}
    assert [s.rule for s in trace.steps] == ["base-case"]


def test_h6_all_d(h6):
    chosen, _ = check(all_d(h6))
    assert len(chosen) == 2


def test_k4_all_d(k4):
    chosen, _ = check(all_d(k4))
    assert len(chosen) == 2


def test_petersen_all_d(petersen):
    chosen, _ = check(all_d(petersen))
    assert len(chosen) >= 4


def test_plain_graph_is_promoted_all_d(petersen):
    assert construct_two_limited(petersen) == construct_two_limited(all_d(petersen))


def test_empty_graph():
    chosen, trace = construct_two_limited(TypedMultigraph.from_edges(0, []))
    assert chosen == frozenset() and trace.steps == ()


def test_degree_over_three_rejected():
    tm = TypedMultigraph.from_edges(
        5, [(0, 1, "d"), (0, 2, "d"), (0, 3, "d"), (0, 4, "d")]
    )
    with pytest.raises(PreconditionError, match="degree"):
        construct_two_limited(tm)


def test_all_c_k4_component_rejected(k4):
    edges = [(u, v, "c") for u, v in k4.edges()]
    lonely = TypedMultigraph.from_edges(4, edges)
    with pytest.raises(PreconditionError, match=r"\[0, 1, 2, 3\]"):
        construct_two_limited(lonely)
    # same K4 inside a larger graph still rejected
    bigger = TypedMultigraph.from_edges(6, edges + [(4, 5, "d")])
    with pytest.raises(PreconditionError):
        construct_two_limited(bigger)


def test_parallel_c_and_d_edges_supported():
    tm = TypedMultigraph.from_edges(
        3, [(0, 1, "c"), (0, 1, "d"), (1, 2, "d")]
    )
    check(tm)


def test_configuration_a_detection():
    tm = corpus.configuration_a_graph()
    cfg = corpus.find_configuration_a(tm)
    assert cfg is not None
    # five c-edges with the bd pair missing, in whatever orientation found
    c = {tuple(sorted(p)) for p in [(cfg.c, cfg.a), (cfg.c, cfg.d), (cfg.c, cfg.b), (cfg.a, cfg.d), (cfg.a, cfg.b)]}
    assert all(q in tm.c_adj[p] for p, q in c)
    assert cfg.d not in tm.c_adj[cfg.b]
    assert cfg.u in set(tm.c_adj[cfg.d]) | set(tm.d_adj[cfg.d])
    assert cfg.u in set(tm.c_adj[cfg.b]) | set(tm.d_adj[cfg.b])
    assert cfg.v in set(tm.c_adj[cfg.u]) | set(tm.d_adj[cfg.u])
    assert len({cfg.a, cfg.b, cfg.c, cfg.d, cfg.u, cfg.v}) == 6


def test_configuration_a_absent():
    assert corpus.find_configuration_a(all_d(gen_cycle(6))) is None
    # K4 minus an edge in c-edges but no attached u, v
    tm = TypedMultigraph.from_edges(
        4, [(0, 1, "c"), (0, 2, "c"), (0, 3, "c"), (1, 2, "c"), (1, 3, "c")]
    )
    assert corpus.find_configuration_a(tm) is None


def test_configuration_a_reduction():
    chosen, trace = check(corpus.configuration_a_graph())
    assert trace.steps[0].rule == "configuration-A"
    assert chosen == {1, 3}


def test_degree_one_addition_path():
    chosen, trace = check(corpus.degree_one_addition_graph())
    first = trace.steps[0]
    assert first.rule == "degree-1"
    assert first.added_c_edges == ((2, 3),)


def test_degree_two_seven_vertex_subcase():
    chosen, trace = check(corpus.degree_two_special_graph())
    assert [s.rule for s in trace.steps] == ["degree-2-c-k4"]
    assert chosen == {2, 3, 4}


def test_two_triangles_rule():
    chosen, trace = check(corpus.two_triangles_graph())
    assert trace.steps[0].rule == "d-edge-two-triangles"
    assert trace.steps[0].contributed == (0, 1)


def test_k4_hits_four_vertex_base_case(k4):
    # four vertices are a base case: any pair not joined by a c-edge
    chosen, trace = check(all_d(k4))
    assert trace.steps[0].rule == "base-case"
    assert chosen == {0, 1}


def test_two_triangles_degenerate_shared_neighbor():
    chosen, trace = check(corpus.two_triangles_degenerate_graph())
    first = trace.steps[0]
    assert first.rule == "d-edge-two-triangles"
    assert first.removed == (0, 1, 2, 3, 4)  # a == d collapses the removal
    assert {0, 1} <= chosen


def test_one_triangle_special_subcase():
    chosen, trace = check(corpus.one_triangle_special_graph())
    assert trace.steps[0].rule == "d-edge-one-triangle-c-k4"
    assert {4, 6, 7} <= chosen


def test_no_triangle_pair_subcase():
    chosen, trace = check(corpus.no_triangle_pair_graph())
    assert trace.steps[0].rule == "d-edge-no-triangle-c-k4-pair"
    assert {3, 6, 7} <= chosen


def test_no_triangle_triple_subcase():
    chosen, trace = check(corpus.no_triangle_triple_graph())
    first = trace.steps[0]
    assert first.rule == "d-edge-no-triangle-c-k4-triple"
    assert first.added_c_edges == ((10, 11),)
    assert {1, 3, 6, 7} <= chosen


def test_no_triangle_quad_subcase():
    chosen, trace = check(corpus.no_triangle_quad_graph())
    assert [s.rule for s in trace.steps] == ["d-edge-no-triangle-c-k4-quad"]
    assert chosen == {2, 3, 4, 5}


def test_h6_copies_tight(h6):
    g = h6
    for m in (1, 2, 3):
        tm = all_d(g)
        chosen, _ = check(tm)
        assert len(chosen) == 2 * m  # meets the n/3 bound with equality
        g = disjoint_union(g, h6)


def test_exhaustive_subcubic_all_d():
    catalog = enumerate_connected_subcubic(8)
    for n, graphs in catalog.items():
        for adj in graphs:
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in adj[u] if u < v])
            tm = all_d(g)
            chosen, _ = check(tm)
            assert len(chosen) <= max_k_limited(g, 2).optimum


def test_large_cubic_graph_at_default_recursion_limit():
    # one reduction per recursion level used to overflow the stack here
    check(all_d(gen_random_regular(1200, 3, 1)))


def test_random_typed_multigraphs():
    for seed in range(120):
        n = 4 + (seed * 11) % 45
        tm = corpus.random_typed_multigraph(seed, n)
        chosen, _ = check(tm)
        if tm.n <= 16:
            assert len(chosen) <= max_typed_two_limited(tm).optimum


def test_trace_conservation():
    for seed in (0, 3, 7, 20, 33):
        tm = corpus.random_typed_multigraph(seed, 24)
        chosen, trace = construct_two_limited(tm)
        removed_all: set[int] = set()
        contributed_all: set[int] = set()
        for step in trace.steps:
            assert not removed_all & set(step.removed)
            removed_all |= set(step.removed)
            assert set(step.contributed) <= set(step.removed)
            contributed_all |= set(step.contributed)
            for u, v in step.added_c_edges:
                assert u not in removed_all and v not in removed_all
        assert removed_all == set(range(tm.n))
        assert contributed_all == set(chosen)


def test_per_rule_contributions_match_prescription():
    expected_sizes = {
        "configuration-A": 2,
        "degree-1": 1,
        "degree-2": 1,
        "degree-2-c-k4": 3,
        "d-edge-two-triangles": 2,
        "d-edge-one-triangle": 2,
        "d-edge-one-triangle-c-k4": 3,
        "d-edge-no-triangle": 2,
        "d-edge-no-triangle-c-k4-pair": 3,
        "d-edge-no-triangle-c-k4-triple": 4,
        "d-edge-no-triangle-c-k4-quad": 4,
    }
    graphs = [corpus.random_typed_multigraph(s, 4 + (s * 11) % 45) for s in range(40)]
    graphs += [
        corpus.configuration_a_graph(),
        corpus.degree_two_special_graph(),
        corpus.one_triangle_special_graph(),
        corpus.no_triangle_pair_graph(),
        corpus.no_triangle_triple_graph(),
        corpus.no_triangle_quad_graph(),
    ]
    for tm in graphs:
        _, trace = construct_two_limited(tm)
        for step in trace.steps:
            if step.rule in expected_sizes:
                assert len(step.contributed) == expected_sizes[step.rule], step
            elif step.rule == "base-case":
                assert len(step.contributed) in (1, 2)
            else:
                assert step.rule == "brooks"
                assert 3 * len(step.contributed) >= len(step.removed)


def test_progress_every_reduction_removes_two():
    for seed in range(30):
        tm = corpus.random_typed_multigraph(seed, 30)
        _, trace = construct_two_limited(tm)
        for step in trace.steps:
            if step.rule not in ("base-case", "brooks"):
                assert len(step.removed) >= 2
        assert len(trace.steps) <= tm.n  # coarse: every step removes >= 1


def test_trace_text_format():
    _, trace = construct_two_limited(corpus.degree_one_addition_graph())
    text = trace.to_text()
    assert text.startswith("rule=degree-1 removed=0,1 added=2-3 contributed=0")


def test_all_c_component_uses_brooks():
    g = gen_random_regular(12, 3, seed=5)
    tm = TypedMultigraph.from_edges(12, [(u, v, "c") for u, v in g.edges()])
    chosen, trace = check(tm)
    assert [s.rule for s in trace.steps] == ["brooks"]
    assert len(chosen) >= 4


def test_deterministic_output():
    for seed in (1, 2, 3):
        tm = corpus.random_typed_multigraph(seed, 35)
        a = construct_two_limited(tm)
        b = construct_two_limited(tm)
        assert a == b


# Brooks coloring


def proper(g: Graph, colors) -> bool:
    return all(colors[u] != colors[v] for u, v in g.edges()) and all(
        c in (0, 1, 2) for c in colors
    )


def test_brooks_cycles():
    c5 = gen_cycle(5)
    col5 = brooks_three_coloring(c5)
    assert proper(c5, col5) and len(set(col5)) == 3
    c6 = gen_cycle(6)
    col6 = brooks_three_coloring(c6)
    assert proper(c6, col6) and len(set(col6)) <= 3


def test_brooks_petersen(petersen):
    assert proper(petersen, brooks_three_coloring(petersen))


def test_brooks_k4_rejected(k4):
    with pytest.raises(PreconditionError):
        brooks_three_coloring(k4)
    with pytest.raises(PreconditionError):
        brooks_three_coloring(disjoint_union(gen_cycle(5), k4))


def test_brooks_max_degree_check():
    star5 = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    with pytest.raises(PreconditionError):
        brooks_three_coloring(star5)


def test_brooks_deterministic(petersen):
    assert brooks_three_coloring(petersen) == brooks_three_coloring(petersen)


def test_brooks_exhaustive_subcubic():
    catalog = enumerate_connected_subcubic(8)
    for n, graphs in catalog.items():
        for adj in graphs:
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in adj[u] if u < v])
            if n == 4 and all(len(a) == 3 for a in adj):
                continue  # K4
            assert proper(g, brooks_three_coloring(g)), (n, adj)


def test_brooks_two_connected_cubic():
    tm = corpus.two_triangles_graph()
    g = Graph.from_edges(8, [(u, v) for u, v, _ in tm.edges()])
    assert proper(g, brooks_three_coloring(g))


def test_brooks_cut_vertex_cubic():
    # vertex 0 joins three blocks, each a diamond closed by an apex; 0 is
    # a cut vertex of a 3-regular K4-free graph
    edges = []
    for i in range(3):
        a, b, c, d, e = (1 + 5 * i + j for j in range(5))
        edges += [(a, b), (a, c), (a, d), (b, c), (b, d), (c, e), (d, e), (0, e)]
    g = Graph.from_edges(16, edges)
    assert all(g.degree(v) == 3 for v in range(16))
    assert proper(g, brooks_three_coloring(g))
