"""The benchmark workloads: seeded inputs, the timed ops, and their inspection.

An op is one instance carried through its whole pipeline. `Op.run` is the
timed part and calls limpack only through an `Api`, which wraps each
layer in a span when the run is traced. `Op.inspect` runs after the pass,
outside the timed region: it checks the outputs with `checker` and
derives the deterministic counters from what limpack returned.

This module imports no limpack code at import time, so that the set-up
time can include importing the package.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checker
from regular import regular_edges

HERE = Path(__file__).resolve().parent
OPTIMA_FILE = HERE / "optima.json"

# Public functions timed as layers, named "<module>.<function>".
LAYERS = (
    "solver.max_k_limited",
    "solver.min_tuple_dominating",
    "generators.gen_random_regular",
    "cubic.construct_two_limited",
    "randomized.lll_resample",
    "randomized.sample_and_repair",
    "graph.parse_graph",
    "graph.serialize_graph",
    "greedy.greedy_packing",
    "bounds.bound_sheet",
    "verify.verify_k_limited",
    "verify.verify_tuple_dominating",
)

# Rule names that construct_two_limited writes into its trace.
CUBIC_RULES = (
    "base-case",
    "configuration-A",
    "brooks",
    "degree-1",
    "degree-2",
    "degree-2-c-k4",
    "d-edge-two-triangles",
    "d-edge-one-triangle",
    "d-edge-one-triangle-c-k4",
    "d-edge-no-triangle",
    "d-edge-no-triangle-c-k4-pair",
    "d-edge-no-triangle-c-k4-triple",
    "d-edge-no-triangle-c-k4-quad",
)


class Api:
    """The limpack functions ops call; each is wrapped in a span when traced.

    `cli_main` runs limpack.cli.main in-process. When traced, the layer
    functions that limpack.cli imported are replaced by their wrappers
    while `installed()` is active, so CLI calls record layer spans too.
    """

    def __init__(self, tracer=None) -> None:
        self._tracer = tracer
        self._cli = importlib.import_module("limpack.cli")
        for layer in LAYERS:
            module, name = layer.split(".")
            fn = getattr(importlib.import_module(f"limpack.{module}"), name)
            setattr(self, name, tracer.wrap(layer, fn) if tracer else fn)
        self.dual_complement = importlib.import_module("limpack.verify").dual_complement
        self.cli_main = tracer.wrap("cli.main", self._cli.main) if tracer else self._cli.main

    @contextlib.contextmanager
    def installed(self):
        saved = {}
        if self._tracer is not None:
            for layer in LAYERS:
                name = layer.split(".")[1]
                if hasattr(self._cli, name):
                    saved[name] = getattr(self._cli, name)
                    setattr(self._cli, name, getattr(self, name))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(self._cli, name, fn)


@dataclass
class Inspection:
    problems: list[str]
    counters: Counter
    size: float = 0.0  # output size counted in size_ratio
    reference: float = 0.0  # closed-form reference for the same outputs


@dataclass
class Op:
    id: str
    n: int
    run: Callable[[Api], dict]
    inspect: Callable[[dict], Inspection]


class SetupError(Exception):
    pass


# ---------------------------------------------------------------- exact-cubic

POOL_SIZE = 12


def pool_seed(n: int, index: int) -> int:
    """gen_random_regular seed of graph `index` in the size-n pool."""
    return 100_000 * n + index


class ExactCubic:
    """Exact solves on random cubic graphs drawn from recorded pools.

    Each size has a pool of POOL_SIZE graphs whose optima are recorded in
    optima.json (see record_optima.py); the workload seed picks which
    graphs of each pool the pass solves.
    """

    name = "exact-cubic"

    def __init__(self, draws: dict[int, int] | None = None) -> None:
        self.draws = draws or {20: 4, 24: 8, 28: 8}

    def setup(self, seed: int, lp, workdir: Path) -> list[Op]:
        optima = json.loads(OPTIMA_FILE.read_text())
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for n, count in self.draws.items():
            for index in sorted(rng.sample(range(POOL_SIZE), count)):
                g = lp.gen_random_regular(n, 3, pool_seed(n, index))
                expected = optima[str(n)][index]
                inspect = partial(_exact_inspect, g, expected)
                ops.append(Op(f"n{n}-g{index}", n, partial(_exact_run, g), inspect))
        return ops


def _exact_run(g, api: Api) -> dict:
    return {
        "k1": api.max_k_limited(g, 1),
        "k2": api.max_k_limited(g, 2),
        "l3": api.min_tuple_dominating(g, 3),
        "l2": api.min_tuple_dominating(g, 2),
    }


def _exact_inspect(g, expected: dict, out: dict) -> Inspection:
    counters = Counter()
    if not out:
        return Inspection([], counters)
    results = {key: (r.optimum, r.witness) for key, r in out.items()}
    problems = checker.exact_problems(g.adj, results, expected)
    counters["solver.max_k_limited.nodes"] = out["k1"].nodes_explored + out["k2"].nodes_explored
    counters["solver.min_tuple_dominating.nodes"] = (
        out["l3"].nodes_explored + out["l2"].nodes_explored
    )
    size = out["k1"].optimum + out["k2"].optimum
    reference = checker.packing_upper(g.n, 1, 3) + checker.packing_upper(g.n, 2, 3)
    return Inspection(problems, counters, size, reference)


# ------------------------------------------------------------------ cubic-cli


class CubicCli:
    """The CLI pipeline gen -> cubic2 -> verify -> greedy -> verify, in-process."""

    name = "cubic-cli"

    def __init__(self, sizes: tuple[int, ...] = (500, 1000, 2000)) -> None:
        self.sizes = sizes

    def setup(self, seed: int, lp, workdir: Path) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for n in self.sizes:
            stem = workdir / f"n{n}"
            ops.append(
                Op(
                    f"n{n}",
                    n,
                    partial(_cli_run, n, rng.randrange(2**31), stem),
                    partial(_cli_inspect, n, stem),
                )
            )
        return ops


def _cli_call(api: Api, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = api.cli_main(argv)
    return code, out.getvalue()


def _witness(stdout: str) -> list[int]:
    for line in stdout.splitlines():
        if line.startswith("witness:"):
            return [int(tok) for tok in line.split()[1:]]
    raise ValueError("no witness line in construct output")


def _cli_run(n: int, graph_seed: int, stem: Path, api: Api) -> dict:
    graph = f"{stem}.graph"
    out: dict = {"codes": {}, "errors": []}

    def step(label: str, argv: list[str]):
        try:
            code, stdout = _cli_call(api, argv)
        except Exception as exc:  # an uncaught error is exit 1 for a real process
            out["codes"][label] = 1
            out["errors"].append(f"{label}: {type(exc).__name__}")
            return None
        out["codes"][label] = code
        if code != 0:
            out["errors"].append(f"{label}: exit {code}")
            return None
        return stdout

    gen = ["gen", "--family", "random-regular", "--n", str(n), "--r", "3"]
    if step("gen", gen + ["--seed", str(graph_seed), "--out", graph]) is None:
        return out
    for method in ("cubic2", "greedy"):
        argv = ["construct", "--method", method, "--k", "2"]
        if method == "cubic2":
            argv += ["--trace", f"{stem}.trace"]
        stdout = step(f"construct {method}", argv + [graph])
        if stdout is None:
            continue
        out[method] = _witness(stdout)
        packing = f"{stem}.{method}"
        with open(packing, "w", encoding="utf-8") as fh:
            fh.write(" ".join(map(str, out[method])) + "\n")
        step(f"verify {method}", ["verify", "--k", "2", "--packing", packing, graph])
    return out


def _cli_inspect(n: int, stem: Path, out: dict) -> Inspection:
    codes = out.get("codes", {})
    counters = Counter()
    counters["cli.main.calls"] = len(codes)
    counters["cli.main.nonzero_exits"] = sum(1 for c in codes.values() if c != 0)
    counters["generators.gen_random_regular.calls"] = int("gen" in codes)
    counters["cubic.construct_two_limited.failures"] = int(codes.get("construct cubic2", 0) != 0)
    verifies = sum(1 for label in codes if label.startswith("verify"))
    counters["verify.vertices_checked"] = n * verifies
    problems: list[str] = []
    size = reference = 0.0
    graph = Path(f"{stem}.graph")
    if codes.get("gen") == 0:
        text = graph.read_text()
        # every call of the op writes (gen) or reads the graph file once
        counters["graph.bytes"] = len(text.encode()) * len(codes)
        adj = checker.parse_graph_file(text)
        if len(adj) != n or any(len(a) != 3 for a in adj):
            problems.append(f"gen: expected a cubic graph on {n} vertices")
        elif "cubic2" in out:
            problems += checker.cubic_two_problems(adj, out["cubic2"])
            size, reference = len(out["cubic2"]), n / 3
            rules = [
                line.split()[0][len("rule="):]
                for line in Path(f"{stem}.trace").read_text().splitlines()
            ]
            counters["cubic.construct_two_limited.steps"] = len(rules)
            counters.update(f"cubic.rule.{rule}" for rule in rules)
        if "greedy" in out:
            problems += checker.packing_problems(adj, out["greedy"], 2, "greedy")
    for method in ("cubic2", "greedy"):
        if method in out and codes.get(f"verify {method}") != 0 and not problems:
            problems.append(f"verify rejected a valid {method} packing")
    for suffix in (".graph", ".trace", ".cubic2", ".greedy"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(f"{stem}{suffix}")
    return Inspection(problems, counters, size, reference)


# ----------------------------------------------------------- randomized-dense

DENSE_DEGREE = 10


class RandomizedDense:
    """sample_and_repair, lll_resample, greedy, bounds and verify on 10-regular graphs."""

    name = "randomized-dense"

    def __init__(
        self, sizes: tuple[int, ...] = (4000, 16000), ks: tuple[int, ...] = (2, 5)
    ) -> None:
        self.sizes = sizes
        self.ks = ks

    def setup(self, seed: int, lp, workdir: Path) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for n in self.sizes:
            edges = regular_edges(n, DENSE_DEGREE, rng.randrange(2**31))
            problems = checker.regular_problems(n, edges, DENSE_DEGREE)
            if problems:
                raise SetupError(f"n={n}: {problems[0]}")
            g = lp.Graph.from_edges(n, edges)
            for k in self.ks:
                run = partial(_dense_run, g, k, rng.randrange(2**31))
                ops.append(Op(f"n{n}-k{k}", n, run, partial(_dense_inspect, g, k)))
        return ops


def _dense_run(g, k: int, seed: int, api: Api) -> dict:
    out = {
        "sr": api.sample_and_repair(g, k, seed=seed),
        "lll": api.lll_resample(g, k, seed=seed),
        "greedy": api.greedy_packing(g, k),
        "sheet": api.bound_sheet(g.n, DENSE_DEGREE, DENSE_DEGREE, k),
        "errors": [],
    }
    for method in ("sr", "lll"):
        xs = out[method].packing.vertices
        dual = api.dual_complement(g, xs, k)
        out[f"verify {method}"] = (
            api.verify_k_limited(g, xs, k).valid,
            api.verify_tuple_dominating(g, dual, DENSE_DEGREE + 1 - k).valid,
        )
    if not out["lll"].success:
        out["errors"].append("lll_resample: success=False")
    return out


def _dense_inspect(g, k: int, out: dict) -> Inspection:
    counters = Counter()
    if not out:
        return Inspection([], counters)
    sr, lll = out["sr"], out["lll"]
    counters["randomized.sample_and_repair.repairs"] = sr.repairs
    counters["randomized.sample_and_repair.kept"] = len(sr.packing.vertices)
    counters["randomized.lll_resample.rounds"] = lll.rounds
    counters["randomized.lll_resample.calls"] = 1
    counters["randomized.lll_resample.successes"] = int(lll.success)
    counters["verify.vertices_checked"] = 4 * g.n
    n, l = g.n, DENSE_DEGREE + 1 - k
    problems = checker.packing_problems(g.adj, out["greedy"], k, "greedy")
    for method, report in (("sr", sr), ("lll", lll)):
        xs = report.packing.vertices
        found = checker.packing_problems(g.adj, xs, k, method)
        found += checker.dominating_problems(g.adj, set(range(n)) - xs, l, f"{method} dual")
        if method == "sr" or lll.success:
            problems += found
        if out[f"verify {method}"] != (not found, not found):
            problems.append(f"limpack.verify disagrees with the checker on {method}")
    sheet = out["sheet"]
    lower = checker.random_lower(n, DENSE_DEGREE, k)
    if abs(sheet.random_lower - lower) > 1e-9 * lower:
        problems.append(f"bound_sheet.random_lower {sheet.random_lower} != {lower}")
    upper = checker.packing_upper(n, k, DENSE_DEGREE)
    if abs(float(sheet.packing_upper) - upper) > 1e-9 * upper:
        problems.append(f"bound_sheet.packing_upper {sheet.packing_upper} is wrong")
    size = len(sr.packing.vertices) + len(lll.packing.vertices)
    return Inspection(problems, counters, size, 2 * lower)


WORKLOADS = {w.name: w for w in (ExactCubic, CubicCli, RandomizedDense)}


def purge_limpack() -> None:
    """Forget imported limpack modules so the next import is timed in full."""
    for name in [m for m in sys.modules if m == "limpack" or m.startswith("limpack.")]:
        del sys.modules[name]
