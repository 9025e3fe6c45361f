"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines as the
criteria complete.  Every tolerance and time budget is pinned here.
"""

import math
import random
import statistics
import time
from contextlib import contextmanager
from functools import lru_cache

import pytest

import corpus
from exhaustive import enumerate_connected_subcubic
from limpack import (
    Graph,
    TypedMultigraph,
    bound_sheet,
    construct_two_limited,
    degree_stats,
    disjoint_union,
    gen_cycle,
    gen_named,
    gen_projective,
    gen_random_regular,
    greedy_packing,
    max_k_limited,
    max_typed_two_limited,
    min_tuple_dominating,
    sample_and_repair,
    lll_resample,
    verify_k_limited,
    verify_typed_two_limited,
)
from limpack.cli import main as cli_main

TOL = 1e-9


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {num} ({name}): FAIL after {elapsed:.1f}s")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_s
    verdict = "PASS" if ok else "FAIL (over budget)"
    print(f"ACCEPTANCE {num} ({name}): {verdict} in {elapsed:.1f}s (budget {budget_s:.0f}s)")
    assert ok, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"


@lru_cache(maxsize=1)
def subcubic_catalog():
    return enumerate_connected_subcubic(10)


def catalog_graphs():
    for n, graphs in subcubic_catalog().items():
        for adj in graphs:
            yield Graph.from_edges(
                n, [(u, v) for u in range(n) for v in adj[u] if u < v]
            )


def test_criterion_01_cycle_formulas():
    with criterion(1, "cycle formulas", 1.0):
        for n in range(3, 15):
            c = gen_cycle(n)
            assert max_k_limited(c, 1).optimum == n // 3
            assert max_k_limited(c, 2).optimum == 2 * n // 3


def test_criterion_02_h6_tightness():
    with criterion(2, "H6 tightness", 5.0):
        h6 = gen_named("h6")
        assert max_k_limited(h6, 2).optimum == 2
        g = h6
        for m in (1, 2, 3):
            assert max_k_limited(g, 2).optimum == 2 * m
            tm = TypedMultigraph.from_graph(g)
            chosen, _ = construct_two_limited(tm)
            assert len(chosen) == 2 * m == g.n // 3
            assert verify_typed_two_limited(tm, chosen).valid
            g = disjoint_union(g, h6)


def test_criterion_03_petersen():
    with criterion(3, "Petersen", 10.0):
        petersen = gen_named("petersen")
        assert max_k_limited(petersen, 1).optimum == 1
        gamma = min_tuple_dominating(petersen, 1).optimum
        assert gamma == 3
        l3 = max_k_limited(petersen, 3).optimum
        assert l3 == 10 - gamma == 7
        assert l3 >= math.ceil(9 * 10 / 14)
        tm = TypedMultigraph.from_graph(petersen)
        chosen, _ = construct_two_limited(tm)
        assert len(chosen) >= 4
        assert verify_typed_two_limited(tm, chosen).valid


def _criterion4_report() -> str:
    lines = []
    for g in catalog_graphs():
        tm = TypedMultigraph.from_graph(g)
        chosen, _ = construct_two_limited(tm)
        valid = verify_typed_two_limited(tm, chosen).valid
        assert valid and 3 * len(chosen) >= g.n
        optimum = max_k_limited(g, 2).optimum
        assert len(chosen) <= optimum
        m = degree_stats(g).edge_count
        lines.append(f"catalog n={g.n} m={m} size={len(chosen)} exact={optimum}")
    for seed in range(500):
        n = 4 + (seed * 7) % 57
        tm = corpus.random_typed_multigraph(seed, n)
        chosen, _ = construct_two_limited(tm)
        valid = verify_typed_two_limited(tm, chosen).valid
        assert valid and 3 * len(chosen) >= tm.n
        note = ""
        if tm.n <= 16:
            optimum = max_typed_two_limited(tm).optimum
            assert len(chosen) <= optimum
            note = f" exact={optimum}"
        lines.append(f"random seed={seed} n={tm.n} size={len(chosen)}{note}")
    return "\n".join(lines) + "\n"


def test_criterion_04_theorem_property_suite():
    with criterion(4, "constructive theorem property suite", 300.0):
        report = _criterion4_report()
        assert report.count("\n") == sum(len(v) for v in subcubic_catalog().values()) + 500


def test_criterion_05_duality():
    with criterion(5, "duality identity", 120.0):
        sizes = [8, 10, 12, 14]
        for seed in range(30):
            n = sizes[seed % 4]
            g = gen_random_regular(n, 3, seed=1000 + seed)
            for k in (1, 2, 3):
                packing = max_k_limited(g, k).optimum
                dom = min_tuple_dominating(g, 4 - k).optimum
                assert packing + dom == n


PROJECTIVE_GRID = {
    1: [2, 3, 4, 5, 7, 8, 9, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47],
    2: [2, 3, 4, 5, 7, 8, 9, 11],
}


def _criterion6_table() -> None:
    """G_{q,k} keeps k / (best sheet lower bound) bounded as Delta grows.

    Any k+1 points of G_{q,k} have a common orthogonal point, so its
    largest k-limited packing is k; every constructed packing verifies
    and has at most k members, and greedy reaches k.
    """
    print("q k n Delta best_lower ratio")
    for k, qs in PROJECTIVE_GRID.items():
        previous = math.inf
        for q in qs:
            g = gen_projective(q, k)
            h = (q ** (k + 1) - 1) // (q - 1)
            stats = degree_stats(g)
            assert {len(nbrs) for nbrs in g.adj} <= {h, h - 1}
            packings = {
                "greedy": greedy_packing(g, k),
                "sample-repair": sample_and_repair(g, k, seed=0).packing.vertices,
                "lll": lll_resample(g, k, seed=0).packing.vertices,
            }
            for method, chosen in packings.items():
                assert verify_k_limited(g, chosen, k).valid, (q, k, method)
                assert len(chosen) <= k, (q, k, method)
            assert len(packings["greedy"]) == k
            sheet = bound_sheet(g.n, stats.max_degree, stats.min_degree, k)
            best = max(float(low) for low in sheet.lower_bounds())
            ratio = k / best
            print(f"{q} {k} {g.n} {stats.max_degree} {best:.4f} {ratio:.4f}")
            assert ratio <= 3
            assert ratio <= previous + TOL, (q, k)
            previous = ratio


def test_criterion_06_projective_extremality():
    with criterion(6, "projective extremality", 60.0):
        from itertools import combinations

        for q, k in [(2, 1), (3, 1), (2, 2)]:
            g = gen_projective(q, k)
            assert g.n == (q ** (k + 2) - 1) // (q - 1)
            assert max_k_limited(g, k).optimum == k
            for group in combinations(range(g.n), k + 1):
                covered = set.intersection(*({v, *g.adj[v]} for v in group))
                assert covered
        _criterion6_table()


def _criterion7_report() -> tuple[str, bool]:
    lines = []
    runs = 0
    graphs = [
        ("c6", gen_cycle(6)),
        ("c9", gen_cycle(9)),
        ("h6", gen_named("h6")),
        ("petersen", gen_named("petersen")),
        ("k4", gen_named("k4")),
        ("cubic20", gen_random_regular(20, 3, seed=2)),
        ("reg4_12", gen_random_regular(12, 4, seed=3)),
        ("star", Graph.from_edges(6, [(0, i) for i in range(1, 6)])),
        ("path7", Graph.from_edges(7, [(i, i + 1) for i in range(6)])),
        ("proj31", gen_projective(3, 1)),
    ]
    for name, g in graphs:
        for k in (1, 2):
            for seed in range(50):
                report = sample_and_repair(g, k, seed=seed)
                ok = verify_k_limited(g, report.packing.vertices, k).valid
                assert ok, (name, k, seed)
                runs += 1
                lines.append(
                    f"{name} k={k} seed={seed} size={len(report.packing.vertices)}"
                    f" repairs={report.repairs}"
                )
    assert runs == 1000
    g60 = gen_random_regular(60, 3, seed=1234)
    sizes = [
        len(sample_and_repair(g60, 2, seed=seed).packing.vertices)
        for seed in range(200)
    ]
    mean = statistics.mean(sizes)
    se = statistics.stdev(sizes) / math.sqrt(len(sizes))
    bound = 60 / (3 * math.sqrt(3))
    lines.append(f"mc mean={mean} se={se}")
    return "\n".join(lines) + "\n", mean >= bound - 2 * se


def test_criterion_07_randomized_validity_and_size():
    with criterion(7, "sample-and-repair validity and size", 120.0):
        _, mean_ok = _criterion7_report()
        assert mean_ok


def _criterion8_report() -> tuple[str, int]:
    lines = []
    successes = 0
    for seed in range(100):
        g = gen_random_regular(200, 10, seed=seed)
        report = lll_resample(g, 5, seed=seed, max_rounds=10_000)
        if report.success:
            successes += 1
            assert verify_k_limited(g, report.packing.vertices, 5).valid
        assert report.params.clamped
        lines.append(
            f"seed={seed} success={report.success} rounds={report.rounds}"
            f" size={len(report.packing.vertices)}"
        )
    return "\n".join(lines) + "\n", successes


def test_criterion_08_lll_resampler():
    with criterion(8, "resampling constructor", 180.0):
        _, successes = _criterion8_report()
        assert successes >= 95


def test_criterion_09_bound_sheet_consistency():
    with criterion(9, "bound sheet consistency", 120.0):
        rng = random.Random(31337)
        checked = 0
        while checked < 100:
            n = rng.randint(1, 14)
            style = rng.random()
            if style < 0.3 and n >= 4:
                r = rng.choice([2, 3])
                if n * r % 2:
                    n += 1
                g = gen_random_regular(n, r, seed=rng.randrange(10**6))
            else:
                p = rng.uniform(0.1, 0.6)
                edges = [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < p
                ]
                g = Graph.from_edges(n, edges)
            stats = degree_stats(g)
            avg = 2 * stats.edge_count / g.n if g.n else 0.0
            for k in range(1, stats.max_degree + 2):
                sheet = bound_sheet(
                    g.n, stats.max_degree, stats.min_degree, k, avg_degree=avg
                )
                optimum = max_k_limited(g, k).optimum
                for low in sheet.lower_bounds():
                    assert float(low) <= optimum + TOL
                assert optimum <= float(sheet.packing_upper) + TOL
                if k > stats.max_degree:
                    assert sheet.exact_value == g.n == optimum
            checked += 1


def test_criterion_10_determinism(tmp_path, capsys):
    with criterion(10, "byte-identical reports", 900.0):
        assert _criterion4_report() == _criterion4_report()
        assert _criterion7_report()[0] == _criterion7_report()[0]
        assert _criterion8_report()[0] == _criterion8_report()[0]
        bench_outputs = set()
        for _ in range(2):
            code = cli_main(["bench", "--suite", "paper", "--no-timing"])
            assert code == 0
            bench_outputs.add(capsys.readouterr().out)
        assert len(bench_outputs) == 1
