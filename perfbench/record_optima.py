"""Record the exact optima of the exact-cubic graph pools in optima.json.

    PYTHONPATH=src python3 perfbench/record_optima.py

The checker compares every exact-cubic solve against these values. Run
this only when the pools (POOL_SIZE, pool_seed, the sizes) change; a
solver change must reproduce the recorded optima, not rewrite them.
"""

from __future__ import annotations

import json
import sys

from limpack import gen_random_regular, max_k_limited, min_tuple_dominating

from workloads import OPTIMA_FILE, POOL_SIZE, ExactCubic, pool_seed


def main() -> int:
    optima = {}
    for n in ExactCubic().draws:
        rows = []
        for index in range(POOL_SIZE):
            g = gen_random_regular(n, 3, pool_seed(n, index))
            rows.append(
                {
                    "k1": max_k_limited(g, 1).optimum,
                    "k2": max_k_limited(g, 2).optimum,
                    "l3": min_tuple_dominating(g, 3).optimum,
                    "l2": min_tuple_dominating(g, 2).optimum,
                }
            )
            print(n, index, rows[-1], file=sys.stderr)
        optima[str(n)] = rows
    OPTIMA_FILE.write_text(json.dumps(optima, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
