import random

import pytest

from limpack import (
    CEdgeViolation,
    Graph,
    GraphInputError,
    PreconditionError,
    TypedMultigraph,
    dual_complement,
    gen_cycle,
    gen_random_regular,
    max_k_limited,
    verify_k_limited,
    verify_tuple_dominating,
    verify_typed_two_limited,
)


def test_two_limited_c6_example():
    report = verify_k_limited(gen_cycle(6), {0, 1, 3, 4}, 2)
    assert report.valid and report.violations == ()


def test_empty_set_is_valid(small_corpus):
    for _, g in small_corpus:
        assert verify_k_limited(g, set(), 3).valid


def test_k4_triple_overflows(k4):
    report = verify_k_limited(k4, {0, 1, 2}, 2)
    assert not report.valid
    assert [(v.vertex, v.count, v.limit) for v in report.violations] == [
        (0, 3, 2),
        (1, 3, 2),
        (2, 3, 2),
        (3, 3, 2),
    ]


def test_out_of_range_member():
    with pytest.raises(GraphInputError):
        verify_k_limited(gen_cycle(3), {3}, 1)
    with pytest.raises(GraphInputError):
        verify_k_limited(gen_cycle(3), {0}, 0)


@pytest.mark.parametrize("member", [1.5, 1.0, True])
def test_non_int_member_rejected(member):
    for verify in (
        lambda xs: verify_k_limited(gen_cycle(5), xs, 1),
        lambda xs: verify_tuple_dominating(gen_cycle(5), xs, 1),
        lambda xs: verify_typed_two_limited(TypedMultigraph.from_graph(gen_cycle(5)), xs),
        lambda xs: dual_complement(gen_cycle(5), xs, 1),
    ):
        with pytest.raises(GraphInputError, match="not an int"):
            verify([member])
        with pytest.raises(GraphInputError, match="not an int"):
            verify([0, member])


def test_typed_c_edge_rejects_both_endpoints():
    tm = TypedMultigraph.from_edges(2, [(0, 1, "c")])
    report = verify_typed_two_limited(tm, {0, 1})
    assert not report.valid
    assert report.violations == (CEdgeViolation(0, 1),)


def test_typed_d_edge_allows_both_endpoints():
    tm = TypedMultigraph.from_edges(2, [(0, 1, "d")])
    assert verify_typed_two_limited(tm, {0, 1}).valid


def test_typed_all_d_k4_pair_ok(k4):
    tm = TypedMultigraph.from_graph(k4)
    assert verify_typed_two_limited(tm, {0, 1}).valid
    assert not verify_typed_two_limited(tm, {0, 1, 2}).valid


def test_typed_c_edges_do_not_count_for_d_neighborhoods():
    # star of c-edges around 0 plus selected leaves: no d-edge, no c-pair
    tm = TypedMultigraph.from_edges(4, [(0, 1, "c"), (0, 2, "c"), (0, 3, "c")])
    assert verify_typed_two_limited(tm, {1, 2, 3}).valid


def test_tuple_dominating_examples(small_corpus):
    assert verify_tuple_dominating(gen_cycle(4), {0, 2}, 1).valid
    for _, g in small_corpus:
        if g.n:
            delta = min(g.degree(v) for v in range(g.n))
            assert verify_tuple_dominating(g, set(range(g.n)), delta + 1).valid
    single = Graph.from_edges(1, [])
    report = verify_tuple_dominating(single, set(), 1)
    assert not report.valid
    assert report.violations[0].count == 0 and report.violations[0].limit == 1


def test_dual_complement_c4():
    result = dual_complement(gen_cycle(4), {0, 1}, 2)
    assert result == {2, 3}
    assert verify_tuple_dominating(gen_cycle(4), result, 1).valid


def test_dual_complement_k4_empty(k4):
    for k in range(1, 5):
        full = dual_complement(k4, set(), k)
        assert full == {0, 1, 2, 3}
        if 4 - k >= 1:  # k = r+1 dualizes to the trivial 0-tuple condition
            assert verify_tuple_dominating(k4, full, 4 - k).valid
    with pytest.raises(GraphInputError) as info:
        dual_complement(k4, set(), 5)
    assert str(info.value) == "k must be in [1, 4] for a 3-regular graph, got 5"


def test_dual_complement_petersen_witness(petersen):
    witness = max_k_limited(petersen, 2).witness
    dom = dual_complement(petersen, witness, 2)
    assert verify_tuple_dominating(petersen, dom, 2).valid


def test_dual_complement_requires_regular():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(PreconditionError):
        dual_complement(star, set(), 1)
    with pytest.raises(GraphInputError):
        dual_complement(gen_cycle(4), set(), 4)


def test_duality_on_random_subsets():
    rng = random.Random(99)
    for n, r in [(8, 3), (10, 3), (10, 4), (12, 3)]:
        g = gen_random_regular(n, r, seed=n + r)
        for k in range(1, r + 2):
            for _ in range(25):
                xs = {v for v in range(n) if rng.random() < 0.4}
                packing_ok = verify_k_limited(g, xs, k).valid
                dom_ok = verify_tuple_dominating(
                    g, set(range(n)) - xs, r + 1 - k
                ).valid if r + 1 - k >= 1 else None
                if dom_ok is not None:
                    assert packing_ok == dom_ok


def test_monotone_in_k(small_corpus):
    rng = random.Random(5)
    for _, g in small_corpus:
        for _ in range(10):
            xs = {v for v in range(g.n) if rng.random() < 0.5}
            for k in range(1, 5):
                if verify_k_limited(g, xs, k).valid:
                    assert verify_k_limited(g, xs, k + 1).valid


def test_report_serialization():
    tm = TypedMultigraph.from_edges(3, [(0, 1, "c"), (0, 1, "d"), (1, 2, "d"), (0, 2, "d")])
    report = verify_typed_two_limited(tm, {0, 1, 2})
    text = report.to_text()
    assert text.splitlines()[0] == "valid: false"
    assert "violation: cedge 0 1" in text
    assert "violation: vertex 0 count 3 limit 2" in text
    ok = verify_k_limited(gen_cycle(4), {0}, 1).to_text()
    assert ok == "valid: true\n"


def test_violations_sorted_by_vertex(k4):
    report = verify_k_limited(k4, {0, 1, 2, 3}, 2)
    vs = [v.vertex for v in report.violations]
    assert vs == sorted(vs)
