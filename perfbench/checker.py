"""Independent output checks and closed-form reference sizes.

Nothing here imports limpack: the checks read adjacency lists, vertex
lists and numbers, and recount closed neighbourhoods themselves. Every
function returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import math


def _counts(adj, members) -> list[int]:
    inside = [False] * len(adj)
    for v in members:
        inside[v] = True
    return [inside[v] + sum(inside[u] for u in adj[v]) for v in range(len(adj))]


def _range_problems(n: int, members, label: str) -> list[str]:
    bad = [v for v in members if not (0 <= v < n)]
    if bad:
        return [f"{label}: vertex {bad[0]} outside 0..{n - 1}"]
    if len(set(members)) != len(members):
        return [f"{label}: repeated vertex"]
    return []


def packing_problems(adj, members, k: int, label: str = "packing") -> list[str]:
    """|N[v] ∩ X| <= k for every vertex v."""
    members = list(members)
    problems = _range_problems(len(adj), members, label)
    if problems:
        return problems
    over = [v for v, c in enumerate(_counts(adj, members)) if c > k]
    return [f"{label}: N[{over[0]}] holds more than {k} members"] if over else []


def dominating_problems(adj, members, l: int, label: str = "dominating") -> list[str]:
    """|N[v] ∩ D| >= l for every vertex v."""
    members = list(members)
    problems = _range_problems(len(adj), members, label)
    if problems:
        return problems
    under = [v for v, c in enumerate(_counts(adj, members)) if c < l]
    return [f"{label}: N[{under[0]}] holds fewer than {l} members"] if under else []


def exact_problems(adj, results: dict, expected: dict) -> list[str]:
    """Check the four exact solves of one cubic graph.

    `results` maps "k1", "k2", "l3", "l2" to (optimum, witness); `expected`
    maps the same keys to recorded optima. Checks the witnesses, the
    duality identity min_tuple_dominating(4 - k) == n - max_k_limited(k),
    and the optima against the recorded values.
    """
    n = len(adj)
    problems: list[str] = []
    for key, (optimum, witness) in results.items():
        if len(witness) != optimum:
            problems.append(f"{key}: witness size {len(witness)} != optimum {optimum}")
        limit = int(key[1:])
        if key[0] == "k":
            problems += packing_problems(adj, witness, limit, key)
        else:
            problems += dominating_problems(adj, witness, limit, key)
        if optimum != expected[key]:
            problems.append(f"{key}: optimum {optimum} != recorded {expected[key]}")
    for k in (1, 2):
        packing, dominating = results[f"k{k}"][0], results[f"l{4 - k}"][0]
        if dominating != n - packing:
            problems.append(f"duality: l={4 - k} optimum {dominating} != {n} - {packing}")
    return problems


def cubic_two_problems(adj, members) -> list[str]:
    """A cubic2 result: 2-limited and 3|X| >= n."""
    problems = packing_problems(adj, members, 2, "cubic2")
    if 3 * len(members) < len(adj):
        problems.append(f"cubic2: 3*{len(members)} < n = {len(adj)}")
    return problems


def regular_problems(n: int, edges, r: int) -> list[str]:
    """The edge list is a simple r-regular graph on n vertices."""
    seen = set()
    degree = [0] * n
    for u, v in edges:
        if u == v:
            return [f"self-loop at {u}"]
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return [f"repeated edge {key}"]
        seen.add(key)
        degree[u] += 1
        degree[v] += 1
    off = [v for v in range(n) if degree[v] != r]
    return [f"vertex {off[0]} has degree {degree[off[0]]}, not {r}"] if off else []


def parse_graph_file(text: str) -> list[list[int]]:
    """Adjacency lists from a plain limpack graph file ("n m", then "u v")."""
    rows = [line.split("#")[0].split() for line in text.splitlines()]
    rows = [row for row in rows if row]
    n, m = int(rows[0][0]), int(rows[0][1])
    if len(rows) != m + 1:
        raise ValueError(f"header promises {m} edges, file has {len(rows) - 1}")
    adj: list[list[int]] = [[] for _ in range(n)]
    for row in rows[1:]:
        u, v = int(row[0]), int(row[1])
        adj[u].append(v)
        adj[v].append(u)
    return adj


def packing_upper(n: int, k: int, min_degree: int) -> float:
    """Double-counting upper bound k*n/(min_degree + 1)."""
    return k * n / (min_degree + 1)


def random_lower(n: int, max_degree: int, k: int) -> float:
    """Sampling-with-repair lower bound n*k / ((k+1) * (C(D,k)*(D+1))^(1/k))."""
    base = math.comb(max_degree, k) * (max_degree + 1)
    return n * k / ((k + 1) * base ** (1.0 / k))
