"""Seeded simple r-regular graphs in expected linear time.

The configuration model pairs shuffled stubs; every self-loop or repeated
edge is then removed by a double-edge switch with a uniformly chosen
edge, repeated until the multigraph is simple. The number of bad edges
is about (r^2 - 1)/4 whatever n is, so a handful of O(m) sweeps finish
the job. limpack's own pairing generator is quadratic and would take
minutes at the sizes this is used for.
"""

from __future__ import annotations

import random


def regular_edges(n: int, r: int, seed: int) -> list[tuple[int, int]]:
    if n * r % 2 or r >= n:
        raise ValueError(f"no simple {r}-regular graph on {n} vertices")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(r)]
    rng.shuffle(stubs)
    edges = [[stubs[i], stubs[i + 1]] for i in range(0, len(stubs), 2)]
    while True:
        multiplicity: dict[tuple[int, int], int] = {}
        for u, v in edges:
            key = (u, v) if u < v else (v, u)
            multiplicity[key] = multiplicity.get(key, 0) + 1
        bad = [
            i
            for i, (u, v) in enumerate(edges)
            if u == v or multiplicity[(u, v) if u < v else (v, u)] > 1
        ]
        if not bad:
            return [(u, v) for u, v in edges]
        for i in bad:
            j = rng.randrange(len(edges) - 1)
            j += j >= i  # a uniformly chosen other edge
            (a, b), (c, d) = edges[i], edges[j]
            edges[i], edges[j] = [a, c], [b, d]
