"""The `scale` bench suite: timed exact solves, written as a JSON record.

``limpack bench --suite scale --json FILE`` runs every cell of ``GRID``
``REPEATS`` times, in rounds over the whole grid so that a drift in the
machine's speed spreads over every cell, and writes one record:
- ``python`` and ``platform``, the interpreter and the machine;
- per cell, the instance, its ``optimum`` and ``nodes`` (the same in
  every round), and the median and quartiles of its solve time in
  seconds, measured around the public solver call alone.
Two records of the same grid can be diffed cell by cell: the optima and
node counts tell whether the searches changed, the times whether they
got faster.  The CLI imports this module only when the suite runs.
"""

from __future__ import annotations

import json
import platform
import statistics
import time

from .errors import InternalError
from .generators import gen_random_regular
from .solver import max_k_limited, min_tuple_dominating

REPEATS = 3

# (n, seed, limit name, limit): exact solves on random cubic graphs.  The
# first part is the pool of graphs gen_random_regular(n, 3, 100000·n + i),
# the second the larger graphs at seeds 0-2.
GRID = [
    (n, 100_000 * n + i, name, limit)
    for n in (20, 24, 28)
    for i in range(12)
    for name, limit in (("k", 1), ("k", 2), ("l", 3), ("l", 2))
] + [
    (n, seed, name, limit)
    for n in (40, 48)
    for seed in range(3)
    for name, limit in (("k", 1), ("k", 2), ("l", 2))
]


def run() -> dict:
    """Solve every cell of GRID REPEATS times; return the record."""
    graphs = {(n, seed): gen_random_regular(n, 3, seed) for n, seed, _, _ in GRID}
    results: list = [None] * len(GRID)
    seconds: list[list[float]] = [[] for _ in GRID]
    for _ in range(REPEATS):
        for i, (n, seed, name, limit) in enumerate(GRID):
            solve = max_k_limited if name == "k" else min_tuple_dominating
            g = graphs[n, seed]
            start = time.perf_counter_ns()
            result = solve(g, limit)
            seconds[i].append((time.perf_counter_ns() - start) / 1e9)
            found = (result.optimum, result.nodes_explored)
            if results[i] is None:
                results[i] = found
            elif results[i] != found:
                raise InternalError(f"scale cell {i} changed between rounds")
    cells = []
    for (n, seed, name, limit), (optimum, nodes), times in zip(GRID, results, seconds):
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        cells.append({
            "graph": f"gen_random_regular({n}, 3, {seed})",
            name: limit,
            "optimum": optimum,
            "nodes": nodes,
            "seconds": {"q1": q1, "median": median, "q3": q3},
        })
    return {
        "suite": "scale",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": REPEATS,
        "cells": cells,
    }


def write(path: str, show_timing: bool) -> None:
    """Run the suite, write its record to `path` and print one row per cell."""
    record = run()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    header = "graph limit optimum nodes"
    print(header + " median_ms" if show_timing else header)
    for cell in record["cells"]:
        limit = f"k={cell['k']}" if "k" in cell else f"l={cell['l']}"
        line = f"{cell['graph'].replace(' ', '')} {limit} {cell['optimum']} {cell['nodes']}"
        if show_timing:
            line += f" {cell['seconds']['median'] * 1000.0:.3f}"
        print(line)
