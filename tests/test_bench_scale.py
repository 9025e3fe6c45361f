"""`limpack bench --suite scale --json FILE` and its committed records."""

import json
import platform
import subprocess
import sys
from pathlib import Path

import limpack.scale
from limpack import gen_random_regular, max_k_limited, min_tuple_dominating
from limpack.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_grid_holds_the_pool_and_the_larger_graphs():
    assert len(set(limpack.scale.GRID)) == len(limpack.scale.GRID) == 36 * 4 + 2 * 3 * 3
    pool = {(n, seed) for n, seed, _, _ in limpack.scale.GRID if n <= 28}
    assert pool == {(n, 100_000 * n + i) for n in (20, 24, 28) for i in range(12)}


def test_scale_record_matches_the_solvers(tmp_path, capsys, monkeypatch):
    grid = [(8, 1, "k", 2), (10, 100_000 * 10, "l", 2), (8, 1, "l", 3)]
    monkeypatch.setattr(limpack.scale, "GRID", grid)
    path = tmp_path / "BENCH_test.json"
    assert main(["bench", "--suite", "scale", "--json", str(path), "--no-timing"]) == 0
    rows = capsys.readouterr().out.splitlines()
    record = json.loads(path.read_text())
    assert (record["suite"], record["repeats"]) == ("scale", 3)
    assert record["python"] == platform.python_version()
    assert record["platform"] == platform.platform()
    assert rows[0] == "graph limit optimum nodes"
    assert len(rows) == len(record["cells"]) + 1 == len(grid) + 1
    for (n, seed, name, limit), cell, row in zip(grid, record["cells"], rows[1:]):
        g = gen_random_regular(n, 3, seed)
        result = max_k_limited(g, limit) if name == "k" else min_tuple_dominating(g, limit)
        assert cell["graph"] == f"gen_random_regular({n}, 3, {seed})"
        assert (cell[name], cell["optimum"], cell["nodes"]) == (
            limit, result.optimum, result.nodes_explored
        )
        times = cell["seconds"]
        assert 0 <= times["q1"] <= times["median"] <= times["q3"]
        graph = f"gen_random_regular({n},3,{seed})"
        assert row == f"{graph} {name}={limit} {result.optimum} {result.nodes_explored}"


def test_scale_timing_column(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(limpack.scale, "GRID", [(8, 1, "k", 1)])
    path = tmp_path / "BENCH_test.json"
    assert main(["bench", "--suite", "scale", "--json", str(path)]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == "graph limit optimum nodes median_ms"
    median = json.loads(path.read_text())["cells"][0]["seconds"]["median"]
    assert row.split()[-1] == f"{median * 1000.0:.3f}"


def test_json_goes_with_the_scale_suite_only(tmp_path, capsys):
    path = tmp_path / "out.json"
    for argv in (["--suite", "paper", "--json", str(path)], ["--suite", "scale"]):
        assert main(["bench", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "usage error: --json is given exactly when --suite is scale\n"
    assert not path.exists()


def test_cli_import_leaves_the_driver_out():
    code = "import sys, limpack.cli; print('limpack.scale' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr


def _key(cell: dict) -> tuple:
    name = "k" if "k" in cell else "l"
    return cell["graph"], name, cell[name]


def test_committed_records_agree():
    """Each committed scale record is well formed and, on its pool cells,
    finds the optimum the solver finds; records agree on the optimum of
    every cell they share.  The records of the one-term bound and of the
    two-term bound before it cover the same cells with the same nodes,
    since the two walk the same trees on every cubic graph."""
    scale = {
        p.name: record
        for p in ROOT.glob("BENCH_*.json")
        if (record := json.loads(p.read_text()))["suite"] == "scale"
    }
    solved: dict = {}
    optima: dict = {}
    for record in scale.values():
        assert record["python"] and record["platform"] and record["repeats"] >= 1
        keys = [_key(cell) for cell in record["cells"]]
        assert len(set(keys)) == len(keys)
        for key, cell in zip(keys, record["cells"]):
            times = cell["seconds"]
            assert 0 <= times["q1"] <= times["median"] <= times["q3"]
            assert optima.setdefault(key, cell["optimum"]) == cell["optimum"], key
            graph, name, limit = key
            n, _, seed = graph.removeprefix("gen_random_regular(").removesuffix(")").split(", ")
            if int(n) <= 28 and key not in solved:
                g = gen_random_regular(int(n), 3, int(seed))
                solve = max_k_limited if name == "k" else min_tuple_dominating
                solved[key] = solve(g, limit).optimum
                assert cell["optimum"] == solved[key], key
    before, after = (
        {_key(cell): cell["nodes"] for cell in scale[name]["cells"]}
        for name in ("BENCH_two-term-bound.json", "BENCH_excess-bound.json")
    )
    assert before == after
