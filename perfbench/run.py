"""limpack benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload exact-cubic --seed 1 --seconds 30 --trace 0

Runs one workload in this process, single-threaded and closed-loop: the
next op starts when the previous one returns. Set-up (importing limpack
and building the seeded inputs) is repeated SETUP_REPEATS times and
reported as its median. Timed passes over the workload's fixed op list
then repeat while the next pass fits in --seconds. Outputs are checked
by checker.py after each pass, outside the timed region. Every time is
reported in reference seconds (see speed.py); the raw wall-clock values
are kept in the run record.

--trace 0 reports the end-to-end metrics. --trace 1 spends half of
--seconds on untraced passes and half on passes with a span around every
call into a limpack layer, and reports the per-layer metrics. Both modes
print every metric with its unit, then the deterministic counters, and
end with one JSON line: {"correct", "attempted", "failed", "metrics"}.
The full run record, spans included, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CUBIC_RULES, LAYERS, WORKLOADS, Api, Inspection, purge_limpack  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "goodput_vps": "vertices/s",
    "op_max_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "size_ratio": "ratio",
}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.main.self_s": "s",
    "solver.max_k_limited.nodes": "count",
    "solver.max_k_limited.nodes_per_s": "1/s",
    "solver.min_tuple_dominating.nodes": "count",
    "solver.min_tuple_dominating.nodes_per_s": "1/s",
    "generators.gen_random_regular.calls": "count",
    "cubic.construct_two_limited.steps": "count",
    "cubic.construct_two_limited.failures": "count",
    **{f"cubic.rule.{rule}": "count" for rule in CUBIC_RULES},
    "randomized.lll_resample.rounds": "count",
    "randomized.lll_resample.success_ratio": "ratio",
    "randomized.sample_and_repair.repairs": "count",
    "randomized.sample_and_repair.kept_ratio": "ratio",
    "graph.bytes": "bytes",
    "cli.main.calls": "count",
    "cli.main.nonzero_exits": "count",
    "verify.vertices_checked": "count",
    "bench.fail_ratio": "ratio",
    "bench.trace_overhead_ratio": "ratio",
    "bench.unattributed_s": "s",
}


@dataclass
class Pass:
    op_seconds: list[float]  # wall clock
    op_scale: list[float]  # wall clock -> reference seconds, per op
    errors: list[list[str]]
    inspections: list[Inspection]
    probes: list[float]  # speed.probe() before the first op and after each op
    self_times: dict[str, float] = field(default_factory=dict)  # reference seconds

    @property
    def seconds(self) -> list[float]:
        return [s * f for s, f in zip(self.op_seconds, self.op_scale)]

    @property
    def wall(self) -> float:
        return sum(self.seconds)

    def failed(self) -> list[bool]:
        return [bool(e or i.problems) for e, i in zip(self.errors, self.inspections)]

    def counters(self) -> Counter:
        total = Counter()
        for inspection in self.inspections:
            total.update(inspection.counters)
        return total


def set_up(workload, seed: int, workdir: Path):
    """Import limpack and build the inputs SETUP_REPEATS times.

    Returns the ops of the last repetition and the wall-clock and
    reference-second time of each repetition.
    """
    raw, scaled = [], []
    before = speed.probe()
    for _ in range(SETUP_REPEATS):
        ops = None
        purge_limpack()
        start = perf_counter()
        lp = importlib.import_module("limpack")
        importlib.import_module("limpack.cli")
        ops = workload.setup(seed, lp, workdir)
        raw.append(perf_counter() - start)
        after = speed.probe()
        scaled.append(raw[-1] * speed.scale([before, after]))
        before = after
    if not Path(lp.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"limpack was imported from {lp.__file__}, not from {SRC}")
    return ops, raw, scaled


def run_pass(ops, api: Api, tracer: Tracer | None) -> Pass:
    outs = []
    probes = [speed.probe()]
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        start = perf_counter()
        try:
            out = op.run(api)
        except Exception as exc:  # a failed op is counted and the pass goes on
            out = {"errors": [f"{type(exc).__name__}: {exc}"]}
        outs.append((out, perf_counter() - start))
        probes.append(speed.probe())
    if tracer is not None:
        tracer.op = None
    result = Pass([], [], [], [], probes)
    for i, (op, (out, seconds)) in enumerate(zip(ops, outs)):
        result.op_seconds.append(seconds)
        result.op_scale.append(speed.scale(probes[max(0, i - 1) : i + 3]))
        result.errors.append(out.pop("errors", []))
        try:
            result.inspections.append(op.inspect(out))
        except Exception as exc:
            problem = f"inspect: {type(exc).__name__}: {exc}"
            result.inspections.append(Inspection([problem], Counter()))
    return result


def measure(ops, api: Api, budget: float, tracer: Tracer | None = None) -> list[Pass]:
    """Timed passes while the next one is expected to end within budget."""
    passes: list[Pass] = []
    start = perf_counter()
    with api.installed():
        while True:
            mark = len(tracer.spans) if tracer else 0
            p = run_pass(ops, api, tracer)
            if tracer is not None:
                factor = {op.id: f for op, f in zip(ops, p.op_scale)}
                for (op_id, name), seconds in tracer.self_times(mark).items():
                    p.self_times[name] = p.self_times.get(name, 0.0) + seconds * factor[op_id]
            passes.append(p)
            typical = statistics.median(sum(q.op_seconds) for q in passes)
            if perf_counter() - start + typical > budget:
                return passes


def end_to_end(ops, setup_seconds: list[float], passes: list[Pass], raw: bool = False):
    """The end-to-end metrics; `raw` gives the timings in wall-clock seconds."""

    def seconds(p: Pass) -> list[float]:
        return p.op_seconds if raw else p.seconds

    goodput = [
        sum(op.n for op, bad in zip(ops, p.failed()) if not bad) / sum(seconds(p))
        for p in passes
    ]
    first = passes[0].inspections
    reference = sum(i.reference for i in first)
    failed = sum(sum(p.failed()) for p in passes)
    return {
        "setup_s": statistics.median(setup_seconds),
        "wall_s": statistics.median(sum(seconds(p)) for p in passes),
        "goodput_vps": statistics.median(goodput),
        "op_max_s": statistics.median(max(seconds(p)) for p in passes),
        "ok_ratio": 1.0 - failed / (len(ops) * len(passes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "size_ratio": sum(i.size for i in first) / reference if reference else 0.0,
    }


def per_layer(untraced: list[Pass], traced: list[Pass]) -> dict[str, float]:
    def med(fn) -> float:
        return statistics.median(fn(p) for p in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = traced[0].counters()
    metrics = {name: float(c[name]) for name in PER_LAYER}
    for layer in (*LAYERS, "cli.main"):
        metrics[f"{layer}.self_s"] = med(lambda p: p.self_times.get(layer, 0.0))
    for layer in ("solver.max_k_limited", "solver.min_tuple_dominating"):
        metrics[f"{layer}.nodes_per_s"] = ratio(c[f"{layer}.nodes"], metrics[f"{layer}.self_s"])
    metrics["randomized.lll_resample.success_ratio"] = ratio(
        c["randomized.lll_resample.successes"], c["randomized.lll_resample.calls"]
    )
    kept = c["randomized.sample_and_repair.kept"]
    metrics["randomized.sample_and_repair.kept_ratio"] = ratio(
        kept, kept + c["randomized.sample_and_repair.repairs"]
    )
    runs = untraced + traced
    metrics["bench.fail_ratio"] = ratio(
        sum(sum(p.failed()) for p in runs), sum(len(p.errors) for p in runs)
    )
    metrics["bench.trace_overhead_ratio"] = (
        med(lambda p: p.wall) / statistics.median(p.wall for p in untraced) - 1.0
    )
    metrics["bench.unattributed_s"] = med(lambda p: p.wall - sum(p.self_times.values()))
    return metrics


def op_records(ops, p: Pass) -> list[dict]:
    return [
        {"op": op.id, "n": op.n, "seconds": s, "scale": f, "errors": e, "problems": i.problems}
        for op, s, f, e, i in zip(ops, p.op_seconds, p.op_scale, p.errors, p.inspections)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "limpack" / "__init__.py").is_file():
        print(f"error: no limpack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    workdir = TMP_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops, setup_raw, setup_scaled = set_up(workload, args.seed, workdir)
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = measure(ops, Api(), budget)
        traced: list[Pass] = []
        tracer = None
        if args.trace:
            tracer = Tracer()
            traced = measure(ops, Api(tracer), budget, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(ops, setup_scaled, untraced)
    layers = per_layer(untraced, traced) if args.trace else {}
    runs = untraced + traced
    attempted = sum(len(p.errors) for p in runs)
    failed = sum(sum(p.failed()) for p in runs)
    correct = not any(i.problems for p in runs for i in p.inspections)
    counters = (traced or untraced)[0].counters()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "recursion_limit": sys.getrecursionlimit(),
        "reference_probe_s": speed.REFERENCE_S,
        "end_to_end": e2e,
        "end_to_end_wall_clock": end_to_end(ops, setup_raw, untraced, raw=True),
        "per_layer": layers,
        "counters": dict(sorted(counters.items())),
        "setup_wall_clock_s": setup_raw,
        "passes": [
            {
                "traced": traced_pass,
                "wall_clock_s": sum(p.op_seconds),
                "reference_s": p.wall,
                "probes_s": p.probes,
            }
            for traced_pass, group in ((False, untraced), (True, traced))
            for p in group
        ],
        "ops": op_records(ops, runs[0]),
        "spans": tracer.records() if tracer else [],
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    for key in ("workload", "seed", "python", "platform", "nproc", "recursion_limit"):
        print(f"# {key}: {record[key]}")
    print(f"# passes: {len(untraced)} untraced, {len(traced)} traced; record: {out_file.name}")
    for entry in record["ops"]:
        status = "; ".join(entry["errors"] + entry["problems"]) or "ok"
        print(f"# op {entry['op']}: {entry['seconds']:.3f} s wall clock, {status}")
    for name, value in record["end_to_end_wall_clock"].items():
        print(f"wall-clock {name} {value:.6g} {END_TO_END[name]}")
    for name, value in e2e.items():
        print(f"metric {name} {value:.6g} {END_TO_END[name]}")
    for name, value in layers.items():
        print(f"metric {name} {value:.6g} {PER_LAYER[name]}")
    for name, value in record["counters"].items():
        print(f"counter {name} {value}")
    metrics, units = (layers, PER_LAYER) if args.trace else (e2e, END_TO_END)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
