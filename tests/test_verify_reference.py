"""Differential test: the verifiers against frozen copies of the seed loops.

The verifiers now share one closed-neighbourhood count
(``graph.closed_counts``) and one packing check, so every report must
equal ``reference_verify``'s: the same violations in the same order, the
same ``to_text()``, and the same errors for out-of-range vertices and
non-positive k or l.
"""

import random

import pytest
import reference_verify as ref
from corpus import random_typed_multigraph

from limpack import (
    Graph,
    GraphInputError,
    TypedMultigraph,
    degree_stats,
    disjoint_union,
    gen_random_regular,
    verify_k_limited,
    verify_tuple_dominating,
    verify_typed_two_limited,
)

DENSITIES = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)


def _same(new, old) -> None:
    assert new == old
    assert new.to_text() == old.to_text()


def _subsets(n: int, rng: random.Random):
    for p in DENSITIES:
        yield [v for v in range(n) if rng.random() < p]


def _plain_graphs():
    for seed in range(30):
        tm = random_typed_multigraph(seed, 4 + seed % 17)
        yield Graph.from_edges(tm.n, [(u, v) for u, v, _ in tm.edges()])
    for n, r in ((6, 2), (10, 3), (12, 4), (16, 5), (20, 3), (30, 6)):
        for seed in range(3):
            yield gen_random_regular(n, r, seed=seed)
    yield Graph.from_edges(0, [])
    yield Graph.from_edges(5, [])


def test_plain_verifiers_match_reference():
    rng = random.Random(1)
    for g in _plain_graphs():
        top = degree_stats(g).max_degree + 2
        for xs in _subsets(g.n, rng):
            for k in range(1, top + 1):
                _same(verify_k_limited(g, xs, k), ref.verify_k_limited(g, xs, k))
                _same(verify_tuple_dominating(g, xs, k), ref.verify_tuple_dominating(g, xs, k))


def test_tuple_dominating_at_half_matches_reference():
    """|D| on both sides of n/2, where the count switches to the complement."""
    rng = random.Random(2)
    for g in _plain_graphs():
        g = disjoint_union(g, Graph.from_edges(3, []))
        for size in (g.n // 2, g.n // 2 + 1):
            for _ in range(3):
                ds = rng.sample(range(g.n), size)
                for l in range(1, degree_stats(g).max_degree + 3):
                    _same(verify_tuple_dominating(g, ds, l), ref.verify_tuple_dominating(g, ds, l))


def test_tuple_dominating_small_and_large_sets_match_reference():
    """A small D is counted directly and a large one through its
    complement; both reports equal the seed loop's."""
    rng = random.Random(3)
    g = gen_random_regular(400, 10, seed=1)
    for size in (0, 1, 4, 40, 100, 320, 396, 400):
        ds = rng.sample(range(g.n), size)
        for l in (1, 2, 6, 11, 12):
            _same(verify_tuple_dominating(g, ds, l), ref.verify_tuple_dominating(g, ds, l))


@pytest.mark.parametrize("seeds", [range(0, 100), range(100, 200)])
def test_typed_verifier_matches_reference(seeds):
    rng = random.Random(seeds[0])
    for seed in seeds:
        tm = random_typed_multigraph(seed, 2 + seed % 23)
        for xs in _subsets(tm.n, rng):
            _same(verify_typed_two_limited(tm, xs), ref.verify_typed_two_limited(tm, xs))
    tm = TypedMultigraph.from_edges(4, [(0, 1, "c"), (0, 1, "d"), (1, 2, "c"), (2, 3, "c")])
    for xs in ([0, 1], [0, 1, 2, 3], [1, 2], [0, 3]):
        _same(verify_typed_two_limited(tm, xs), ref.verify_typed_two_limited(tm, xs))


def _error(fn, *args) -> str:
    with pytest.raises(GraphInputError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("xs", [[7], [-1], [0, 99], [3, 4, 5, 6], [7, -1, 99, 2]])
def test_out_of_range_errors_match_reference(xs):
    g = gen_random_regular(6, 3, seed=0)
    tm = TypedMultigraph.from_graph(g)
    for new, old, args in (
        (verify_k_limited, ref.verify_k_limited, (g, xs, 2)),
        (verify_tuple_dominating, ref.verify_tuple_dominating, (g, xs, 2)),
        (verify_typed_two_limited, ref.verify_typed_two_limited, (tm, xs)),
    ):
        assert _error(new, *args) == _error(old, *args)


@pytest.mark.parametrize("bad", [0, -3])
def test_nonpositive_parameter_errors_match_reference(bad):
    g = gen_random_regular(6, 3, seed=0)
    for xs in ([0], [99]):
        assert _error(verify_k_limited, g, xs, bad) == _error(ref.verify_k_limited, g, xs, bad)
        assert _error(verify_tuple_dominating, g, xs, bad) == _error(
            ref.verify_tuple_dominating, g, xs, bad
        )
