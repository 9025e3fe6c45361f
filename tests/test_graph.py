import random
import subprocess
import sys
import tracemalloc

import pytest

from limpack import (
    Graph,
    GraphInputError,
    TypedMultigraph,
    connected_components,
    degree_stats,
    disjoint_union,
    gen_cycle,
    gen_named,
    gen_projective,
    gen_random_regular,
    parse_graph,
    parse_packing,
    serialize_graph,
)
from limpack.cli import main
from limpack.graph import _read_plain, bfs_levels


def _distance(g: Graph, u: int, v: int):
    """BFS edge distance from u to v, or None if unreachable; both must be
    vertices of g."""
    g.neighbors(v)
    return bfs_levels(g.neighbors, u).get(v)


def test_closed_neighborhood_cycle():
    g = gen_cycle(4)
    assert {0, *g.adj[0]} == {3, 0, 1}


def test_closed_neighborhood_isolated():
    assert {0, *Graph.from_edges(1, []).adj[0]} == {0}


def test_closed_neighborhood_petersen(petersen):
    for v in range(10):
        assert len({v, *petersen.adj[v]}) == 4


def test_closed_neighborhood_out_of_range():
    with pytest.raises(GraphInputError):
        gen_cycle(3).neighbors(3)


def test_degree_stats_examples(petersen):
    assert degree_stats(gen_cycle(6)) == (2, 2, 6, 6)
    assert degree_stats(petersen) == (3, 3, 10, 15)
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert degree_stats(star) == (3, 1, 4, 3)
    assert degree_stats(Graph.from_edges(0, [])) == (0, 0, 0, 0)


def test_disjoint_union_counts(h6):
    c3 = gen_cycle(3)
    u = disjoint_union(c3, c3)
    assert (u.n, degree_stats(u).edge_count) == (6, 6)
    assert len(connected_components(u)) == 2
    hh = disjoint_union(h6, h6)
    assert (hh.n, degree_stats(hh).edge_count) == (12, 18)
    k1 = Graph.from_edges(1, [])
    same = disjoint_union(k1, Graph.from_edges(0, []))
    assert (same.n, degree_stats(same).edge_count) == (1, 0)


def test_disjoint_union_additive_and_associative_counts(h6, petersen):
    a, b, c = gen_cycle(5), h6, petersen
    left = disjoint_union(disjoint_union(a, b), c)
    right = disjoint_union(a, disjoint_union(b, c))
    m = [degree_stats(g).edge_count for g in (left, right, a, b, c)]
    assert (left.n, m[0]) == (right.n, m[1]) == (a.n + b.n + c.n, m[2] + m[3] + m[4])
    assert sorted(map(len, connected_components(left))) == sorted(
        map(len, connected_components(right))
    )


def test_disjoint_union_of_many_equals_chained_pairs(h6, petersen):
    """One pass over 1-4 graphs gives what chaining two-graph unions gave."""
    pool = [gen_cycle(5), h6, Graph.from_edges(0, []), petersen, Graph.from_edges(2, [(0, 1)])]
    for count in range(1, 5):
        for start in range(len(pool)):
            graphs = [pool[(start + i) % len(pool)] for i in range(count)]
            chained = graphs[0]
            for g in graphs[1:]:
                chained = disjoint_union(chained, g)
            assert disjoint_union(*graphs) == chained


def test_pairwise_distance():
    c6 = gen_cycle(6)
    assert _distance(c6, 0, 3) == 3
    assert _distance(c6, 2, 2) == 0
    two = disjoint_union(gen_cycle(3), gen_cycle(3))
    assert _distance(two, 0, 4) is None
    with pytest.raises(GraphInputError):
        _distance(c6, 0, 6)


def test_petersen_diameter_two(petersen):
    dists = [
        _distance(petersen, u, v) for u in range(10) for v in range(u + 1, 10)
    ]
    assert all(d is not None and d <= 2 for d in dists)
    assert max(dists) == 2


def test_distance_symmetry_and_triangle_inequality(petersen, h6):
    rng = random.Random(42)
    for g in (petersen, h6, gen_cycle(9)):
        for _ in range(30):
            u, v, w = (rng.randrange(g.n) for _ in range(3))
            duv = _distance(g, u, v)
            assert duv == _distance(g, v, u)
            duw = _distance(g, u, w)
            dwv = _distance(g, w, v)
            if duw is not None and dwv is not None:
                assert duv is not None and duv <= duw + dwv


def test_parse_c3():
    g = parse_graph("3 3\n0 1\n1 2\n2 0\n")
    assert isinstance(g, Graph)
    assert g.n == 3 and degree_stats(g).edge_count == 3


def test_parse_typed_parallel_edges():
    tm = parse_graph("2 2\n0 1 c\n0 1 d\n")
    assert isinstance(tm, TypedMultigraph)
    assert tm.c_adj[0] == (1,) and tm.d_adj[0] == (1,)
    assert tm.degree(0) == 2


def test_parse_untyped_lines_default_to_d():
    tm = parse_graph("3 2\n0 1 c\n1 2\n")
    assert isinstance(tm, TypedMultigraph)
    assert tm.d_adj[1] == (2,)


def test_parse_self_loop_reports_line():
    with pytest.raises(GraphInputError, match="line 2"):
        parse_graph("2 1\n0 0\n")


def test_parse_errors_report_line_numbers():
    with pytest.raises(GraphInputError, match="line 1"):
        parse_graph("not a header\n")
    with pytest.raises(GraphInputError, match="line 3"):
        parse_graph("# comment\n2 1\n0 5\n")
    with pytest.raises(GraphInputError, match="line 4"):
        parse_graph("2 1\n# fine\n0 1\n0 1\n")
    with pytest.raises(GraphInputError, match="expected 2 edge lines"):
        parse_graph("3 2\n0 1\n")


def test_parse_comments_and_blank_lines():
    g = parse_graph("# cycle\n\n3 3\n0 1\n# middle\n1 2\n2 0\n")
    assert isinstance(g, Graph) and degree_stats(g).edge_count == 3


def test_parse_indented_comments_and_crlf():
    g = parse_graph("  # spaces\r\n3 2\r\n\t# tab\r\n0 1\r\n \t\r\n1 2\r\n")
    assert g == Graph.from_edges(3, [(0, 1), (1, 2)])


def test_parse_d_only_types_give_a_typed_multigraph():
    tm = parse_graph("3 2\n0 1 d\n1 2\n")
    assert tm == TypedMultigraph.from_edges(3, [(0, 1, "d"), (1, 2, "d")])


def test_parse_range_error_wins_over_bad_type():
    with pytest.raises(GraphInputError, match=r"^line 2: vertex index out of range \(n=2\)$"):
        parse_graph("2 1\n0 5 x\n")


def test_duplicate_edges_are_dropped():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert degree_stats(g).edge_count == 1
    tm = TypedMultigraph.from_edges(2, [(0, 1, "c"), (1, 0, "c"), (0, 1, "d")])
    assert tm.c_adj[0] == (1,) and tm.d_adj[0] == (1,)


def test_round_trip_plain_and_typed(petersen):
    text = serialize_graph(petersen)
    again = parse_graph(text)
    assert again == petersen
    tm = TypedMultigraph.from_edges(4, [(0, 1, "c"), (0, 1, "d"), (2, 3, "d")])
    assert parse_graph(serialize_graph(tm)) == tm


def test_every_plain_graph_file_is_read_in_bulk(tmp_path):
    """serialize_graph writes a plain graph in the one form the reader
    takes in bulk; this fails when either side's form drifts."""
    graphs = [gen_named(family) for family in ("h6", "petersen", "k4")]
    graphs += [gen_cycle(7), gen_projective(3, 1), gen_random_regular(20000, 3, 1)]
    graphs += [gen_random_regular(300, 10, 2), Graph.from_edges(0, []), Graph.from_edges(5, [])]
    texts = [serialize_graph(g) for g in graphs]
    out = tmp_path / "copies.graph"
    assert main(["gen", "--family", "petersen", "--copies", "3", "--out", str(out)]) == 0
    texts.append(out.read_text())
    assert texts[-3:] == ["0 0\n", "5 0\n", serialize_graph(disjoint_union(*graphs[1:2] * 3))]
    for text in texts:
        assert _read_plain(text) is not None, text[:40]
        assert serialize_graph(parse_graph(text)) == text


def test_round_trip_is_stable(h6):
    text = serialize_graph(h6)
    assert serialize_graph(parse_graph(text)) == text


def test_neighborhood_size_matches_degree(small_corpus):
    for _, g in small_corpus:
        for v in range(g.n):
            assert len({v, *g.adj[v]}) == g.degree(v) + 1


def test_from_edges_validation():
    with pytest.raises(GraphInputError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(GraphInputError):
        Graph.from_edges(2, [(1, 1)])
    with pytest.raises(GraphInputError):
        Graph.from_edges(-1, [])


@pytest.mark.parametrize("bad", [1.5, True, "1"])
def test_from_edges_rejects_endpoints_that_are_not_ints(bad):
    """An endpoint must be an int: True would be stored and serialized as
    a neighbor named 'True', and 1.5 or '1' failed with a bare TypeError."""
    with pytest.raises(GraphInputError, match="not an int"):
        Graph.from_edges(3, [(0, bad)])
    with pytest.raises(GraphInputError, match="not an int"):
        Graph.from_edges(3, [(bad, 0)])
    with pytest.raises(GraphInputError, match="not an int"):
        TypedMultigraph.from_edges(3, [(0, bad, "d")])
    with pytest.raises(GraphInputError, match="not an int"):
        TypedMultigraph.from_edges(3, [(bad, 0, "c")])


def test_typed_promotion(h6):
    tm = TypedMultigraph.from_graph(h6)
    assert tm.n == 6
    assert all(not tm.c_adj[v] for v in range(6))
    assert {0, *tm.d_adj[0]} == {0, 1, 3, 5}


def test_parse_packing():
    assert parse_packing("1 2 3\n# comment\n4  5\n") == [1, 2, 3, 4, 5]
    assert parse_packing("7 # trailing\n") == [7]
    with pytest.raises(GraphInputError, match="line 1"):
        parse_packing("1 x\n")
    text = "9#10\r\n\t1\t2\r\n\r\n  # only a comment\r\n \t\r\n3\xa04"
    assert parse_packing(text) == [9, 1, 2, 3, 4]


def test_serialize_packing_round_trip():
    from limpack import serialize_packing

    text = serialize_packing({4, 0, 2})
    assert text == "0 2 4\n"
    assert parse_packing(text) == [0, 2, 4]


def test_empty_graph_everywhere():
    g = Graph.from_edges(0, [])
    assert serialize_graph(g) == "0 0\n"
    assert parse_graph("0 0\n") == g
    assert connected_components(g) == []


def _peak_over_retained(build) -> float:
    """The traced peak of build() over the memory its result keeps."""
    tracemalloc.start()
    try:
        result = build()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result is not None
    return peak / retained


def _kept_bytes(g: Graph) -> int:
    """The bytes g's adjacency holds: its tuples and each int object in them."""
    seen: set[int] = set()
    total = 0
    for x in (g.adj, *g.adj, *(v for a in g.adj for v in a)):
        if id(x) not in seen:
            seen.add(id(x))
            total += sys.getsizeof(x)
    return total


# The growth of the resident high-water mark of a fresh interpreter while
# it generates the graph.  Linux's VmHWM starts afresh at exec, whereas
# ru_maxrss keeps the high-water mark of the process that started it.
_GENERATOR_PEAK = """
from limpack import gen_random_regular

def high_water():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:"))

before = high_water()
gen_random_regular(16000, 10, 1)
print(high_water() - before)
"""


def test_builders_hold_little_beyond_the_graph():
    """No set per vertex and no tuple per edge while a graph is built: with
    both, the peak was 7.1x (from_edges) and 3.6x (parse) the result.  The
    pairing generator peaked at 2.41x (traced) while it also listed every
    edge and rebuilt the graph from that list.  Tracing its many small
    allocations costs 40 times the generation, so its peak is read from a
    child process instead: read so, it is 1.84x, and 2.97x with that
    defect (Linux, Python 3.11)."""
    g = gen_random_regular(16000, 10, 1)
    edges, text = g.edges(), serialize_graph(g)
    assert _peak_over_retained(lambda: Graph.from_edges(g.n, edges)) <= 2.5
    assert _peak_over_retained(lambda: parse_graph(text)) <= 2.5
    child = subprocess.run(
        [sys.executable, "-c", _GENERATOR_PEAK], capture_output=True, text=True, check=True
    )
    assert int(child.stdout) / _kept_bytes(g) <= 2.0
