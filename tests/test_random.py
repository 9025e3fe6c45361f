import math
import random
import statistics

import pytest

from limpack import (
    GraphInputError,
    auto_sample_rate,
    degree_stats,
    gen_cycle,
    gen_named,
    gen_random_regular,
    greedy_packing,
    lll_parameters,
    lll_resample,
    sample_and_repair,
    verify_k_limited,
)
from limpack.graph import bfs_levels
from limpack.randomized import _resample_step


def test_lll_parameters_clamped_case():
    params = lll_parameters(10, 5)
    assert params.clamped
    assert params.epsilon1 == 0.5
    assert params.p == pytest.approx(0.5 * 6 / 11, rel=1e-12)
    assert params.p == pytest.approx(0.2727272727, rel=1e-9)


def test_lll_parameters_epsilon2():
    params = lll_parameters(10, 5)
    assert params.epsilon2 == pytest.approx(3 / math.sqrt(50), rel=1e-12)
    assert params.epsilon2 == pytest.approx(0.42426406871, rel=1e-10)


def test_lll_parameters_p_stays_in_range():
    # raw epsilon1 >= 1 everywhere at desk scale, so p = (1-clamp)(k+1)/(D+1)
    params = lll_parameters(3, 4)
    assert params.clamped
    assert params.p == pytest.approx(0.5 * 5 / 4, rel=1e-12)
    assert 0 < params.p <= 1.0
    # forcing p past 1 clamps it to exactly 1
    assert lll_parameters(2, 30).p == 1.0


def test_lll_parameters_small_degree_undefined_loglog():
    params = lll_parameters(2, 1)
    assert params.clamped and params.epsilon1 == 0.5
    with pytest.raises(GraphInputError):
        lll_parameters(1, 1)
    with pytest.raises(GraphInputError):
        lll_parameters(3, 0)


def test_lll_parameters_epsilon2_clamped_when_large():
    params = lll_parameters(3, 1)  # 3/sqrt(3) > 1
    assert params.epsilon2 == 0.5 and params.clamped


def test_auto_rate():
    assert auto_sample_rate(3, 2) == pytest.approx((3 * 4) ** -0.5, rel=1e-12)
    assert auto_sample_rate(3, 4) == 1.0
    assert auto_sample_rate(0, 1) == 1.0


def test_sample_and_repair_p_zero(petersen):
    report = sample_and_repair(petersen, 2, p=0.0, seed=5)
    assert report.packing.vertices == frozenset()
    assert report.repairs == 0


def test_sample_and_repair_p_one_k_large(petersen):
    report = sample_and_repair(petersen, 4, p=1.0, seed=5)
    assert report.packing.vertices == frozenset(range(10))
    assert report.repairs == 0


def test_sample_and_repair_always_valid(small_corpus):
    for _, g in small_corpus:
        for k in (1, 2):
            for seed in range(20):
                report = sample_and_repair(g, k, seed=seed)
                assert verify_k_limited(g, report.packing.vertices, k).valid


def test_sample_and_repair_deterministic(petersen):
    a = sample_and_repair(petersen, 2, seed=123)
    b = sample_and_repair(petersen, 2, seed=123)
    assert a == b
    c = sample_and_repair(petersen, 2, seed=124)
    assert a != c  # overwhelmingly likely for distinct seeds


def test_sample_and_repair_invalid_p(petersen):
    with pytest.raises(GraphInputError):
        sample_and_repair(petersen, 2, p=1.5)


def test_sample_and_repair_mean_meets_sampling_bound():
    """Monte Carlo check that auto p realizes the random lower bound."""
    g = gen_random_regular(60, 3, seed=1234)
    bound = 60 / (3 * math.sqrt(3))
    sizes = [
        len(sample_and_repair(g, 2, seed=seed).packing.vertices) for seed in range(200)
    ]
    mean = statistics.mean(sizes)
    se = statistics.stdev(sizes) / math.sqrt(len(sizes))
    assert mean >= bound - 2 * se


def test_lll_resample_trivial_when_k_exceeds_degree(petersen):
    report = lll_resample(petersen, 4)
    assert report.success and report.rounds == 0
    assert report.packing.vertices == frozenset(range(10))
    assert report.params.p == 1.0


def test_lll_resample_c6():
    g = gen_cycle(6)
    report = lll_resample(g, 2, p=0.5, seed=7)
    assert report.success
    assert verify_k_limited(g, report.packing.vertices, 2).valid


def test_lll_resample_valid_across_corpus(small_corpus):
    for _, g in small_corpus:
        if g.n == 0:
            continue
        for seed in (0, 1, 2):
            report = lll_resample(g, 2, seed=seed, max_rounds=50_000)
            assert report.success
            assert verify_k_limited(g, report.packing.vertices, 2).valid


def test_lll_resample_deterministic(petersen):
    a = lll_resample(petersen, 2, seed=99)
    b = lll_resample(petersen, 2, seed=99)
    assert a == b


def test_lll_resample_failure_carries_last_set():
    # p forced to 1 with k=1 on K4 can never succeed: every neighborhood
    # always holds 4 >= 2 chosen vertices
    g = gen_named("k4")
    report = lll_resample(g, 1, p=1.0, seed=0, max_rounds=50)
    assert not report.success
    assert report.rounds == 50
    assert report.packing.vertices == frozenset(range(4))


def test_lll_resample_checks_its_last_round():
    """A run whose last permitted round fixes the last overfull
    neighbourhood succeeds, exactly as the unlimited run does."""
    g = gen_random_regular(200, 10, 3)
    unlimited = lll_resample(g, 2, seed=5)
    assert unlimited.success and unlimited.rounds == 8
    report = lll_resample(g, 2, seed=5, max_rounds=8)
    assert report.success and report.rounds == 8
    assert report.packing == unlimited.packing
    assert report.size_target_met is True
    short = lll_resample(g, 2, seed=5, max_rounds=7)
    assert not short.success and short.size_target_met is None
    assert not verify_k_limited(g, short.packing.vertices, 2).valid


def test_lll_resample_records_size_event(petersen):
    report = lll_resample(petersen, 3, seed=4)
    assert report.success
    expected = len(report.packing.vertices) >= (1 - report.params.epsilon2) * 10 * report.params.p
    assert report.size_target_met == expected


def test_resample_dependency_radius():
    """Resampling N[v] never touches the count of a vertex at distance >= 3."""
    g = gen_random_regular(30, 3, seed=17)
    rng = random.Random(5)
    chosen = {v for v in range(30) if rng.random() < 0.4}

    def counts():
        return [
            (v in chosen) + sum(1 for u in g.adj[v] if u in chosen) for v in range(30)
        ]

    for v in (0, 7, 19):
        before = counts()
        _resample_step(g, chosen, v, 0.4, random.Random(99))
        after = counts()
        dists = bfs_levels(g.neighbors, v)
        for w in range(30):
            dist = dists.get(w)
            if dist is not None and dist >= 3:
                assert before[w] == after[w]


def test_greedy_packing_examples(petersen, h6):
    assert greedy_packing(gen_cycle(6), 1) == {0, 3}
    for g in (petersen, h6):
        for k in (1, 2, 3):
            chosen = greedy_packing(g, k)
            assert verify_k_limited(g, chosen, k).valid
            # maximal: no vertex can be added
            for v in range(g.n):
                if v not in chosen:
                    assert not verify_k_limited(g, chosen | {v}, k).valid


def test_greedy_meets_ratio_bound(small_corpus):
    for _, g in small_corpus:
        if g.n == 0:
            continue
        stats = degree_stats(g)
        assert len(greedy_packing(g, 1)) >= g.n / (stats.max_degree**2 + 1)
