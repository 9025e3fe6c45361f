"""Smoke tests of the benchmark itself, at reduced sizes."""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import limpack  # noqa: E402
import limpack.cli  # noqa: E402

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from regular import regular_edges  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL = {
    "exact-cubic": lambda: workloads.ExactCubic({20: 2}),
    "cubic-cli": lambda: workloads.CubicCli((30, 60)),
    "randomized-dense": lambda: workloads.RandomizedDense((200,)),
}


def one_pass(name, tmp_path, trace=False):
    ops = SMALL[name]().setup(7, limpack, tmp_path)
    tracer = Tracer() if trace else None
    (result,) = run.measure(ops, workloads.Api(tracer), 0.0, tracer)
    return ops, result


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_completes(name, tmp_path):
    ops, p = one_pass(name, tmp_path)
    assert len(p.errors) == len(ops)
    assert not any(p.failed()), run.op_records(ops, p)
    metrics = run.end_to_end(ops, [0.1], [p])
    assert set(metrics) == set(run.END_TO_END)
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counters_repeat(name, tmp_path):
    ops, first = one_pass(name, tmp_path, trace=True)
    _, second = one_pass(name, tmp_path, trace=True)
    assert first.counters() == second.counters()
    assert first.counters()  # every workload counts something
    metrics = run.per_layer([first], [second])
    assert list(metrics) == list(run.PER_LAYER)
    assert sum(v for k, v in metrics.items() if k.endswith(".self_s")) > 0


def test_checker_rejects_invalid_packing():
    c6 = [[(v - 1) % 6, (v + 1) % 6] for v in range(6)]
    assert checker.packing_problems(c6, [0, 3], 1) == []
    assert checker.packing_problems(c6, [0, 1], 1)
    assert checker.packing_problems(c6, [0, 6], 2)
    assert checker.dominating_problems(c6, [0, 1, 2, 3, 4], 3)
    assert checker.dominating_problems(c6, [0, 1, 2, 3, 4], 2) == []
    assert checker.cubic_two_problems(c6, [0])


def test_checker_rejects_wrong_optimum():
    g = limpack.gen_random_regular(20, 3, workloads.pool_seed(20, 0))
    expected = json.loads(workloads.OPTIMA_FILE.read_text())["20"][0]
    out = workloads._exact_run(g, workloads.Api())
    assert workloads._exact_inspect(g, expected, out).problems == []
    wrong = dict(expected, k2=expected["k2"] + 1)
    assert any("recorded" in p for p in workloads._exact_inspect(g, wrong, out).problems)
    results = {key: (r.optimum, r.witness) for key, r in out.items()}
    results["l2"] = (results["l2"][0] - 1, results["l2"][1][1:])
    problems = checker.exact_problems(g.adj, results, expected)
    assert any(p.startswith("duality") for p in problems)


def test_recursion_error_is_a_failure_and_the_pass_goes_on(tmp_path, monkeypatch):
    def overflow(tm):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(limpack.cli, "construct_two_limited", overflow)
    ops, p = one_pass("cubic-cli", tmp_path)
    assert p.failed() == [True, True]
    assert all("construct cubic2: RecursionError" in e for e in p.errors)
    assert all(i.problems == [] for i in p.inspections)  # greedy output still checked
    assert p.counters()["cubic.construct_two_limited.failures"] == 2

    def boom(api):
        raise RecursionError("deep")

    ok = workloads.Op("ok", 5, lambda api: {}, lambda out: workloads.Inspection([], Counter()))
    bad = workloads.Op("bad", 5, boom, lambda out: workloads.Inspection([], Counter()))
    result = run.run_pass([bad, ok], workloads.Api(), None)
    assert result.failed() == [True, False]


def test_regular_builder_is_seeded_simple_and_regular():
    for seed in range(50):  # small dense graphs need many repair switches
        assert checker.regular_problems(30, regular_edges(30, 10, seed), 10) == []
    edges = regular_edges(300, 10, 5)
    assert checker.regular_problems(300, edges, 10) == []
    assert regular_edges(300, 10, 5) == edges
    assert regular_edges(300, 10, 6) != edges


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
