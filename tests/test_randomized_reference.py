"""Differential test: the pairing generator and the randomized constructors
against frozen copies of the seed implementations.

The Fenwick-tree generator and the count/heap resampler must draw the same
random numbers in the same order as ``reference_randomized``, so every
seeded output matches exactly: edge lists (dead-end restarts included),
vertex sets, rounds, repairs and success flags.  The one exception is a
resampling run whose last permitted round fixes the last overfull
neighbourhood: it succeeds here and fails in the frozen copy.
"""

import random
from dataclasses import replace

import pytest
import reference_randomized as ref
from corpus import random_typed_multigraph

from limpack import (
    Graph,
    degree_stats,
    gen_cycle,
    gen_named,
    gen_random_regular,
    greedy_packing,
    lll_resample,
    sample_and_repair,
    verify_k_limited,
)
from limpack.generators import _pairing_attempt


def _first_success(attempt, n: int, r: int, seed: int):
    """The first complete pairing of the seeded stream and the dead ends before it."""
    rng = random.Random(seed)
    for dead_ends in range(1000):
        edges = attempt(n, r, rng)
        if edges is not None:
            return edges, dead_ends
    raise AssertionError(f"no pairing for n={n}, r={r}, seed={seed}")


@pytest.mark.parametrize(
    "n, r, seeds", [(10, 3, 40), (12, 2, 30), (60, 3, 20), (200, 10, 3), (8, 5, 10)]
)
def test_pairing_matches_reference(n, r, seeds):
    restarts = 0
    for seed in range(seeds):
        nbrs, dead_ends = _first_success(_pairing_attempt, n, r, seed)
        # each vertex matches only higher ones, lowest first: the reference's edge order
        edges = [(u, v) for u, a in enumerate(nbrs) for v in a if u < v]
        assert (edges, dead_ends) == _first_success(ref._pairing_attempt, n, r, seed)
        assert gen_random_regular(n, r, seed) == Graph.from_edges(n, edges)
        restarts += dead_ends
    assert restarts > 0  # every case runs through the dead-end restart path


GRAPHS = [
    pytest.param(g, id=name)
    for name, g in [
        ("c6", gen_cycle(6)),
        ("k4", gen_named("k4")),
        ("petersen", gen_named("petersen")),
        ("star", Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])),
        ("cubic60", ref.gen_random_regular(60, 3, seed=1)),
        ("reg4_100", ref.gen_random_regular(100, 4, seed=2)),
        ("reg10_200", ref.gen_random_regular(200, 10, seed=0)),
        # the benchmark's degree; test_pairing_matches_reference ties the two generators
        ("reg10_1000", gen_random_regular(1000, 10, 0)),
    ]
]


def _lll(g, k, **kwargs):
    report = lll_resample(g, k, **kwargs)
    return report.packing.vertices, report.rounds, report.success, report.size_target_met


def _reference_lll(g, k, seed, max_rounds):
    """The frozen resampler's outcome with default parameters, except that
    a run whose last permitted round left no overfull neighbourhood
    succeeds: the frozen copy reports it as failed without looking."""
    vertices, rounds, success, size_ok = ref.lll_resample(g, k, seed=seed, max_rounds=max_rounds)
    if not success and verify_k_limited(g, vertices, k).valid:
        params = ref.default_lll_parameters(g, k)
        size_ok = len(vertices) >= (1.0 - params.epsilon2) * g.n * params.p
        return vertices, rounds, True, size_ok
    return vertices, rounds, success, size_ok


@pytest.mark.parametrize("g", GRAPHS)
def test_lll_resample_matches_reference(g):
    for k in range(1, degree_stats(g).max_degree + 3):
        for seed in range(3):
            for max_rounds in (3, 100_000):
                got = _lll(g, k, seed=seed, max_rounds=max_rounds)
                assert got == _reference_lll(g, k, seed, max_rounds)


def test_lll_last_round_runs():
    """The runs of the grid above that differ from the frozen copy: each
    fixes its last overfull neighbourhood in round max_rounds = 3."""
    differ = [
        (param.id, k, seed)
        for param in GRAPHS
        for g in param.values
        for k in range(1, degree_stats(g).max_degree + 3)
        for seed in range(3)
        if _reference_lll(g, k, seed, 3) != ref.lll_resample(g, k, seed=seed, max_rounds=3)
    ]
    assert differ == [
        ("cubic60", 2, 2), ("reg4_100", 2, 0), ("reg4_100", 3, 1), ("reg10_200", 4, 0),
        ("reg10_200", 7, 2),
    ]


@pytest.mark.parametrize("g", GRAPHS)
@pytest.mark.parametrize("p", [0.6, 1.0])
def test_lll_resample_explicit_params_match_reference(g, p):
    outcomes = set()
    for k in range(1, degree_stats(g).max_degree + 3):
        params = replace(ref.default_lll_parameters(g, k), p=p)
        for seed in range(2):
            got = _lll(g, k, p=p, seed=seed, max_rounds=200)
            assert got == ref.lll_resample(g, k, params=params, seed=seed, max_rounds=200)
            outcomes.add(got[2])
    if p == 1.0:
        # X = V throughout: exhausted for k up to the maximum degree, done above it
        assert outcomes == {True, False}


@pytest.mark.parametrize("g", GRAPHS)
def test_sample_and_repair_matches_reference(g):
    for k in range(1, degree_stats(g).max_degree + 2):
        for p in (None, 0.5, 1.0):
            for seed in range(3):
                report = sample_and_repair(g, k, p=p, seed=seed)
                got = (report.packing.vertices, report.repairs)
                assert got == ref.sample_and_repair(g, k, p="auto" if p is None else p, seed=seed)


def _corpus_plain_graphs():
    """The typed corpus with edge types dropped (most are not regular, many
    have isolated vertices), a star with isolated vertices, and an
    edgeless graph."""
    for seed in range(30):
        tm = random_typed_multigraph(seed, 4 + seed % 17)
        yield Graph.from_edges(tm.n, [(u, v) for u, v, _ in tm.edges()])
    yield Graph.from_edges(10, [(0, u) for u in range(1, 8)])
    yield Graph.from_edges(5, [])


def test_greedy_packing_matches_reference():
    regular = [
        gen_random_regular(n, r, seed) for n, r in ((60, 3), (100, 4), (200, 10)) for seed in range(2)
    ]
    for g in [*_corpus_plain_graphs(), *regular]:
        for k in range(1, degree_stats(g).max_degree + 3):
            assert greedy_packing(g, k) == ref.greedy_packing(g, k)


def _sample_and_repair_matches(g, ks, seeds):
    for k in ks:
        for p in (None, 0.5, 1.0):
            for seed in seeds:
                report = sample_and_repair(g, k, p=p, seed=seed)
                got = (report.packing.vertices, report.repairs)
                assert got == ref.sample_and_repair(g, k, p="auto" if p is None else p, seed=seed)


def test_sample_and_repair_matches_reference_on_corpus():
    for g in _corpus_plain_graphs():
        _sample_and_repair_matches(g, range(1, degree_stats(g).max_degree + 2), range(3))


def test_sample_and_repair_matches_reference_dense():
    _sample_and_repair_matches(gen_random_regular(4000, 10, seed=5), (1, 2, 5, 9), range(2))


def test_scale_smoke():
    """Sizes the quadratic seed code needed minutes for; no timing asserted."""
    g = gen_random_regular(100_000, 3, seed=1)
    stats = degree_stats(g)
    assert (stats.min_degree, stats.max_degree, stats.edge_count) == (3, 3, 150_000)
    assert verify_k_limited(g, frozenset(range(g.n)), 4).valid
    report = lll_resample(g, 2, seed=1)
    assert report.success
    assert verify_k_limited(g, report.packing.vertices, 2).valid

    h = gen_random_regular(20_000, 10, seed=1)
    report = lll_resample(h, 5, seed=1)
    assert report.success
    assert verify_k_limited(h, report.packing.vertices, 5).valid
