"""Seeded CLI fuzz tests: broken input files and extreme numeric flags
never crash the CLI.

Each file case mutates a valid plain graph file, typed graph file or
packing file (truncation, bad tokens, huge or negative counts, duplicate
edges, typed/untyped mixes, invalid UTF-8) and runs one CLI command on
it.  Each flag case runs `bounds` or `construct` with its numeric flags
drawn from values that reach the float range and beyond (10^400), on a
star whose centre has degree 10^4.  Every command runs in a child
process; children run one at a time, each under an address-space cap set
in that child only.  Every run must end in a documented exit code (0
success, 1 invalid certificate or failed solve, 2 usage error, 3 input
error) and write no traceback.
"""

import os
import random
import resource
import subprocess
import sys

import pytest
from corpus import random_typed_multigraph

import limpack
from limpack import Graph, gen_named, serialize_graph

SEED = 20_261_018
CASES = 40
CAP = 128 * 2**20

BAD_TOKENS = [b"x", b"1.5", b"-1", b"nan", b"0x10", b"", b"\xd9\xa3", b"99999999999999999999"]
COUNTS = [b"0", b"-3", b"64", b"65", b"1000000000", b"-1000000000", b"99999999999999999999"]
TYPES = [b" c", b" d", b" e", b" c d", b""]
INVALID_UTF8 = [b"\xff", b"\xc3", b"\xe9\x80", b"\xed\xa0\x80"]
# from D = 10^4 with k >= 133, C(D,k)*(D+1) is beyond a float
NUMBERS = ["1", "3", "133", str(10**5), str(10**400), "-1"]
STAR_LEAVES = 10_000


def _mutate(rng: random.Random, data: bytes) -> bytes:
    lines = data.split(b"\n")
    kind = rng.choice(["truncate", "token", "count", "duplicate", "type", "utf8"])
    if kind == "truncate":
        return data[: rng.randrange(len(data))]
    if kind == "utf8":
        at = rng.randrange(len(data) + 1)
        return data[:at] + rng.choice(INVALID_UTF8) + data[at:]
    if kind == "duplicate":
        index = rng.randrange(len(lines))
        lines.insert(index, lines[rng.randrange(len(lines))])
        return b"\n".join(lines)
    index = rng.randrange(len(lines))
    tokens = lines[index].split() or [b"0"]
    at = rng.randrange(len(tokens))
    if kind == "token":
        tokens[at] = rng.choice(BAD_TOKENS)
    elif kind == "count":
        # the header's counts most often, any number otherwise
        if rng.random() < 0.6:
            index, tokens = 0, lines[0].split() or [b"0"]
            at = rng.randrange(len(tokens))
        tokens[at] = rng.choice(COUNTS)
    else:
        lines[index] = b" ".join(tokens[:2]) + rng.choice(TYPES)
        return b"\n".join(lines)
    lines[index] = b" ".join(tokens)
    return b"\n".join(lines)


def _commands(graph: str, packing: str) -> list[list[str]]:
    return [
        ["solve", "--k", "2", graph],
        ["solve", "--l", "2", graph],
        ["verify", "--k", "2", "--packing", packing, graph],
        ["verify", "--l", "1", "--packing", packing, graph],
        ["construct", "--method", "cubic2", "--k", "2", graph],
        ["construct", "--method", "greedy", "--k", "1", graph],
        ["construct", "--method", "sample-repair", "--k", "2", "--seed", "3", graph],
        ["construct", "--method", "lll", "--k", "2", "--max-rounds", "200", graph],
        ["bounds", "--k", "2", graph],
    ]


def _flag_commands(rng: random.Random, k: str, star: str) -> list[list[str]]:
    n, maxdeg, mindeg = (rng.choice(NUMBERS) for _ in range(3))
    return [
        ["bounds", "--k", k, "--n", n, "--maxdeg", maxdeg, "--mindeg", mindeg],
        ["bounds", "--k", k, star],
        ["construct", "--method", "greedy", "--k", k, star],
        ["construct", "--method", "sample-repair", "--k", k, "--seed", "3", star],
        ["construct", "--method", "lll", "--k", k, "--max-rounds", "200", star],
    ]


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CAP, CAP))


def _run_capped(argv: list[str], timeout: float = 60) -> subprocess.CompletedProcess:
    """Run the CLI in a child under the address-space cap."""
    # -S skips the site hooks, which cost a third of each child's start-up;
    # the child imports limpack from where this process found it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(limpack.__file__)))
    return subprocess.run(
        [sys.executable, "-S", "-m", "limpack.cli", *argv],
        capture_output=True,
        env=env,
        preexec_fn=_cap_memory,
        timeout=timeout,
    )


def test_mutated_inputs_exit_cleanly(tmp_path):
    rng = random.Random(SEED)
    bases = {
        "plain": serialize_graph(gen_named("petersen")).encode(),
        "typed": serialize_graph(random_typed_multigraph(2, 12)).encode(),
        "packing": b"# a 2-limited packing\n0 2 4\n6 8\n",
    }
    graph_path = tmp_path / "g.graph"
    packing_path = tmp_path / "p.txt"
    seen = set()
    for case in range(CASES):
        target = rng.choice(sorted(bases))
        packing = bases["packing"]
        if target == "packing":
            graph = bases[rng.choice(["plain", "typed"])]
            packing = _mutate(rng, packing)
        else:
            graph = _mutate(rng, bases[target])
        graph_path.write_bytes(graph)
        packing_path.write_bytes(packing)
        argv = rng.choice(_commands(str(graph_path), str(packing_path)))
        out = _run_capped(argv)
        context = (case, argv, graph, packing, out.stderr)
        assert out.returncode in (0, 1, 2, 3), context
        assert b"Traceback" not in out.stderr, context
        seen.add(out.returncode)
    # the mutations reach both the accepting and the rejecting paths
    assert {0, 3} <= seen


def test_numeric_flags_exit_cleanly(tmp_path):
    """Every command runs once with each k; the other numbers are drawn."""
    rng = random.Random(SEED)
    star = tmp_path / "star.graph"
    edges = [(0, v) for v in range(1, STAR_LEAVES + 1)]
    star.write_text(serialize_graph(Graph.from_edges(STAR_LEAVES + 1, edges)))
    seen = set()
    for k in NUMBERS:
        for argv in _flag_commands(rng, k, str(star)):
            out = _run_capped(argv)
            context = (argv, out.stderr)
            assert out.returncode in (0, 1, 3), context
            assert b"Traceback" not in out.stderr, context
            seen.add(out.returncode)
    assert {0, 3} <= seen


# Sizes where an exact binomial or a projective point count takes minutes
# or gigabytes: C(10^7, 5*10^6), C(10^300, 10^5), 2^(10^10).
STALLS = [
    (["bounds", "--n", "10000000", "--maxdeg", "10000000", "--mindeg", "1", "--k", "5000000"], 0),
    (["bounds", "--n", "100000", "--maxdeg", str(10**300), "--mindeg", "1", "--k", "100000"], 0),
    (["gen", "--family", "projective", "--q", "2", "--k", "10000000000", "--out", "{out}"], 3),
]


@pytest.mark.parametrize("argv,code", STALLS, ids=["bounds-1e7", "bounds-1e300", "projective"])
def test_large_numbers_finish_in_time(tmp_path, argv, code):
    argv = [a.format(out=tmp_path / "g.graph") for a in argv]
    out = _run_capped(argv, timeout=20)
    assert out.returncode == code, out.stderr
    assert b"Traceback" not in out.stderr
    if code == 3:
        assert out.stderr.decode().splitlines() == [
            "error: graph has over 2^10000000001 vertices (limit 10000000)"
        ]


def test_gen_copies_refuse_the_edge_limit(tmp_path):
    """400 vertices and 11 368 edges per copy: 1760 copies pass the vertex
    limit but hold over 2·10^7 edges, and are refused before any copy."""
    argv = ["gen", "--family", "projective", "--q", "7", "--k", "2", "--copies", "1760"]
    out = _run_capped([*argv, "--out", str(tmp_path / "g.graph")], timeout=20)
    assert out.returncode == 3, out.stderr
    assert out.stderr.decode().splitlines() == [
        "error: graph has up to 20007680 edges (limit 20000000)"
    ]
    assert not (tmp_path / "g.graph").exists()
