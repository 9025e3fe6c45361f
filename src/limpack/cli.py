"""Command-line interface: gen, solve, construct, verify, bounds, bench.

Exit codes: 0 success or valid certificate, 1 invalid certificate or
infeasible/failed solve, 2 usage error, 3 input error, 4 internal error
(a broken invariant inside limpack), 141 standard output closed early by
its reader (as in ``limpack bench | head``).  All randomness
takes an explicit --seed (default 0, never wall-clock), so identical
invocations produce byte-identical reports; `bench --no-timing` drops
the only non-deterministic column.  `main` builds its parser on the first
call and reuses it for the rest of the process; each call parses into a
fresh namespace, so in-process calls are independent of one another.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from typing import Optional

from .bounds import bound_sheet
from .cubic import construct_two_limited
from .errors import GraphInputError, InfeasibleError, InternalError, LimpackError
from .generators import _check_edge_count, gen_cycle, gen_named, gen_projective, gen_random_regular
from .graph import (
    Graph,
    TypedMultigraph,
    _check_vertex_count,
    degree_stats,
    disjoint_union,
    parse_graph,
    parse_packing,
    read_edge_lines,
    serialize_graph,
    serialize_packing,
)
from .greedy import greedy_packing
from .randomized import MAX_ROUNDS, lll_resample, sample_and_repair
from .solver import _check_size, max_k_limited, min_tuple_dominating
from .verify import verify_k_limited, verify_tuple_dominating, verify_typed_two_limited


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limpack",
        description="k-limited packings and tuple domination: generate, solve,"
        " construct, verify, bound, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a graph file")
    p_gen.add_argument(
        "--family",
        required=True,
        choices=["cycle", "h6", "petersen", "k4", "projective", "random-regular"],
    )
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--r", type=int)
    p_gen.add_argument("--q", type=int)
    p_gen.add_argument("--k", type=int)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--copies", type=int, default=1)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="exact optimum by branch and bound")
    _add_limit(p_solve)
    p_solve.add_argument("file")
    p_solve.set_defaults(func=_cmd_solve)

    p_con = sub.add_parser("construct", help="build a packing by a chosen method")
    p_con.add_argument(
        "--method", required=True, choices=["cubic2", "greedy", "sample-repair", "lll"]
    )
    p_con.add_argument("--k", type=int, required=True)
    p_con.add_argument("--seed", type=int, default=0)
    p_con.add_argument("--p", type=float)
    p_con.add_argument("--max-rounds", type=int, default=MAX_ROUNDS)
    p_con.add_argument("--trace")
    p_con.add_argument("file")
    p_con.set_defaults(func=_cmd_construct)

    p_ver = sub.add_parser("verify", help="check a packing or dominating set file")
    _add_limit(p_ver)
    p_ver.add_argument("--packing", required=True)
    p_ver.add_argument("graph")
    p_ver.set_defaults(func=_cmd_verify)

    p_bounds = sub.add_parser("bounds", help="print the closed-form bound sheet")
    p_bounds.add_argument("--k", type=int, required=True)
    p_bounds.add_argument("--n", type=int)
    p_bounds.add_argument("--maxdeg", type=int)
    p_bounds.add_argument("--mindeg", type=int)
    p_bounds.add_argument("file", nargs="?")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_bench = sub.add_parser("bench", help="reproduce the tightness examples")
    p_bench.add_argument("--suite", required=True, choices=["paper"])
    p_bench.add_argument("--no-timing", action="store_true")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def _add_limit(parser: argparse.ArgumentParser) -> None:
    """The limit names the problem: --k a k-limited packing, --l an
    l-tuple dominating set.  Exactly one is given."""
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--k", type=int, help="solve or check a K-limited packing")
    limit.add_argument("--l", type=int, help="solve or check an L-tuple dominating set")


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to the null device
        # so the interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory: instance over a size limit", file=sys.stderr)
        return 3
    # last: BrokenPipeError is an OSError, and the two above are LimpackErrors
    except (LimpackError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


class _UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_graph(path: str):
    return parse_graph(_read_text(path))


def _plain_graph(g, path: str, context: str) -> Graph:
    if isinstance(g, TypedMultigraph):
        raise GraphInputError(f"{context} requires a plain (untyped) graph file: {path}")
    return g


def _cmd_gen(args) -> int:
    if args.copies < 1:
        raise _UsageError("--copies must be at least 1")
    family = args.family
    if family == "cycle":
        if args.n is None:
            raise _UsageError("gen --family cycle needs --n")
        g = gen_cycle(args.n)
    elif family in ("h6", "petersen", "k4"):
        g = gen_named(family)
    elif family == "projective":
        if args.q is None or args.k is None:
            raise _UsageError("gen --family projective needs --q and --k")
        g = gen_projective(args.q, args.k)
    else:
        if args.n is None or args.r is None:
            raise _UsageError("gen --family random-regular needs --n and --r")
        g = gen_random_regular(args.n, args.r, args.seed)
    _check_vertex_count(g.n * args.copies)  # before the list of copies is made
    _check_edge_count(sum(map(len, g.adj)) // 2 * args.copies)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(serialize_graph(disjoint_union(*[g] * args.copies)))
    return 0


def _cmd_solve(args) -> int:
    text = _read_text(args.file)
    # refuse a graph over the solvers' limit before building its n vertices
    _check_size(read_edge_lines(text)[0])
    g = _plain_graph(parse_graph(text), args.file, "solve")
    if args.l is not None:
        result = min_tuple_dominating(g, args.l)
    else:
        result = max_k_limited(g, args.k)
    sys.stdout.write(result.to_text())
    return 0


def _cmd_construct(args) -> int:
    """Print the size, the run's report lines, then the witness as a
    packing-file line."""
    if args.method == "cubic2":
        if args.k != 2:
            raise _UsageError("construct --method cubic2 requires --k 2")
        g = _read_graph(args.file)
    elif args.trace:
        raise _UsageError("construct --trace needs --method cubic2")
    else:
        g = _plain_graph(_read_graph(args.file), args.file, f"construct --method {args.method}")
    chosen, report_lines, success, trace = _construct(
        args.method, g, args.k, args.seed, args.p, args.max_rounds
    )
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace.to_text())
    print(f"size: {len(chosen)}")
    for line in report_lines:
        print(line)
    sys.stdout.write("witness: " + serialize_packing(chosen))
    return 0 if success else 1


def _construct(method: str, g, k: int, seed: int = 0, p=None, max_rounds: int = MAX_ROUNDS):
    """Run one construct method on g: the chosen set, the report lines,
    whether the run succeeded, and the cubic2 trace (None otherwise)."""
    if method == "cubic2":
        chosen, trace = construct_two_limited(g)
        return chosen, [], True, trace
    if method == "greedy":
        return greedy_packing(g, k), [], True, None
    if method == "sample-repair":
        report = sample_and_repair(g, k, p=p, seed=seed)
        lines = [f"rounds: {report.rounds}", f"repairs: {report.repairs}", "clamped: false"]
    else:  # lll
        report = lll_resample(g, k, p=p, seed=seed, max_rounds=max_rounds)
        lines = [
            f"rounds: {report.rounds}",
            f"clamped: {'true' if report.params.clamped else 'false'}",
            f"success: {'true' if report.success else 'false'}",
        ]
    return report.packing.vertices, lines, report.success, None


def _cmd_verify(args) -> int:
    parsed = _read_graph(args.graph)
    vertices = parse_packing(_read_text(args.packing))
    if isinstance(parsed, TypedMultigraph):
        if args.l is not None:
            raise GraphInputError("typed multigraphs support packing verification only")
        if args.k != 2:
            raise GraphInputError("typed multigraphs support only --k 2")
        report = verify_typed_two_limited(parsed, vertices)
    elif args.l is not None:
        report = verify_tuple_dominating(parsed, vertices, args.l)
    else:
        report = verify_k_limited(parsed, vertices, args.k)
    sys.stdout.write(report.to_text())
    return 0 if report.valid else 1


def _cmd_bounds(args) -> int:
    if args.file is not None:
        g = _plain_graph(_read_graph(args.file), args.file, "bounds")
        stats = degree_stats(g)
        avg = 2.0 * stats.edge_count / stats.vertex_count if stats.vertex_count else 0.0
        sheet = bound_sheet(
            stats.vertex_count, stats.max_degree, stats.min_degree, args.k, avg_degree=avg
        )
    else:
        if args.n is None or args.maxdeg is None or args.mindeg is None:
            raise _UsageError("bounds needs either a graph file or --n, --maxdeg, --mindeg")
        sheet = bound_sheet(args.n, args.maxdeg, args.mindeg, args.k)
    sys.stdout.write(sheet.to_text())
    return 0


def _bench_rows():
    h6 = gen_named("h6")
    h6x2 = disjoint_union(h6, h6)
    h6x3 = disjoint_union(h6, h6, h6)
    petersen = gen_named("petersen")
    return [
        ("c4", gen_cycle(4), 2),
        ("c5", gen_cycle(5), 1),
        ("c6", gen_cycle(6), 1),
        ("c6", gen_cycle(6), 2),
        ("petersen", petersen, 1),
        ("petersen", petersen, 2),
        ("petersen", petersen, 3),
        ("h6", h6, 2),
        ("h6x2", h6x2, 2),
        ("h6x3", h6x3, 2),
        ("k4", gen_named("k4"), 2),
        ("proj-2-1", gen_projective(2, 1), 1),
        ("proj-3-1", gen_projective(3, 1), 1),
        ("proj-2-2", gen_projective(2, 2), 2),
    ]


def _cmd_bench(args) -> int:
    show_timing = not args.no_timing
    header = "family n k method size exact upper"
    if show_timing:
        header += " time_ms"
    print(header)
    for family, g, k in _bench_rows():
        stats = degree_stats(g)
        upper = bound_sheet(g.n, stats.max_degree, stats.min_degree, k).packing_upper
        methods = ["exact", "greedy", "sample-repair", "lll"]
        if k == 2 and stats.max_degree <= 3:
            methods.append("cubic2")
        results = []
        for name in methods:
            start = time.perf_counter()
            if name == "exact":
                size = max_k_limited(g, k).optimum
            else:
                size = len(_construct(name, g, k)[0])
            results.append((name, size, (time.perf_counter() - start) * 1000.0))
        # the timed "exact" solve is the first method and supplies the exact column
        exact = results[0][1]
        for name, size, elapsed_ms in results:
            line = f"{family} {g.n} {k} {name} {size} {exact} {upper}"
            if show_timing:
                line += f" {elapsed_ms:.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
