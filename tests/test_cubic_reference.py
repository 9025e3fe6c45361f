"""Differential test: the in-place worklist construction against the frozen
recursive seed implementation in ``reference_cubic``.

Both must return the same set, the same trace text, the same
configuration A, and, on rejected inputs, the same error type and message.
The inputs are small enough for the reference's recursion.
"""

import pytest
import reference_cubic as ref

import corpus
from exhaustive import enumerate_connected_subcubic
from limpack import (
    Graph,
    TypedMultigraph,
    construct_two_limited,
    gen_random_regular,
)
from limpack.errors import LimpackError


def _outcome(construct, find, tm: TypedMultigraph):
    try:
        chosen, trace = construct(tm)
        result = (sorted(chosen), trace.to_text())
    except LimpackError as exc:
        result = (type(exc), str(exc))
    return result, find(tm)


def _assert_same(tm: TypedMultigraph) -> None:
    ours = _outcome(construct_two_limited, corpus.find_configuration_a, tm)
    assert ours == _outcome(ref.construct_two_limited, ref.find_configuration_a, tm)


def _catalog():
    for n, graphs in enumerate_connected_subcubic(8).items():
        for adj in graphs:
            edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
            yield TypedMultigraph.from_graph(Graph.from_edges(n, edges))


SPECIAL = [
    corpus.configuration_a_graph,
    corpus.degree_one_addition_graph,
    corpus.degree_two_special_graph,
    corpus.two_triangles_graph,
    corpus.two_triangles_degenerate_graph,
    corpus.one_triangle_special_graph,
    corpus.no_triangle_pair_graph,
    corpus.no_triangle_triple_graph,
    corpus.no_triangle_quad_graph,
]


def test_typed_corpus_matches_reference():
    for seed in range(500):
        _assert_same(corpus.random_typed_multigraph(seed, 4 + (seed * 7) % 60))


def test_random_cubic_matches_reference():
    for n in range(10, 210, 2):
        _assert_same(TypedMultigraph.from_graph(gen_random_regular(n, 3, n)))


def test_catalog_matches_reference():
    for tm in _catalog():
        _assert_same(tm)


@pytest.mark.parametrize("build", SPECIAL, ids=lambda f: f.__name__)
def test_special_subcases_match_reference(build):
    _assert_same(build())


def test_rejected_inputs_match_reference():
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    all_c_k4 = TypedMultigraph.from_edges(6, [(u, v, "c") for u, v in k4] + [(4, 5, "d")])
    star = TypedMultigraph.from_edges(5, [(0, i, "d") for i in range(1, 5)])
    for tm in (all_c_k4, star):
        _assert_same(tm)
