import contextlib
import io
import math
import os
import shutil
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from limpack import (
    Graph,
    degree_stats,
    gen_cycle,
    gen_named,
    gen_random_regular,
    min_tuple_dominating,
    parse_graph,
    serialize_graph,
    serialize_packing,
    verify_tuple_dominating,
)
from limpack.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(serialize_graph(g))
    return str(path)


def test_gen_and_solve_cycle(tmp_path, capsys):
    out = str(tmp_path / "c6.graph")
    code, _, _ = run_cli(capsys, "gen", "--family", "cycle", "--n", "6", "--out", out)
    assert code == 0
    code, stdout, _ = run_cli(capsys, "solve", "--k", "2", out)
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "optimum: 4"
    assert lines[1].startswith("witness: ")
    assert lines[2].startswith("nodes: ")


def test_gen_copies(tmp_path, capsys):
    out = str(tmp_path / "h6x3.graph")
    code, _, _ = run_cli(
        capsys, "gen", "--family", "h6", "--copies", "3", "--out", out
    )
    assert code == 0
    g = parse_graph(open(out).read())
    assert g.n == 18 and degree_stats(g).edge_count == 27


def test_gen_checks_copies_before_generating(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "gen", "--family", "cycle", "--copies", "0", "--out", str(tmp_path / "x")
    )
    assert code == 2
    assert err == "usage error: --copies must be at least 1\n"


def test_gen_projective(tmp_path, capsys):
    out = str(tmp_path / "p.graph")
    code, _, _ = run_cli(
        capsys, "gen", "--family", "projective", "--q", "2", "--k", "1", "--out", out
    )
    assert code == 0
    assert parse_graph(open(out).read()).n == 7


def test_gen_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "gen", "--family", "cycle", "--out", str(tmp_path / "x")
    )
    assert code == 2
    assert "usage error" in err


def test_gen_input_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "gen", "--family", "cycle", "--n", "2", "--out", str(tmp_path / "x")
    )
    assert code == 3
    assert "error" in err


def test_solve_dominating(tmp_path, capsys):
    path = write_graph(tmp_path, "c4.graph", parse_graph("4 4\n0 1\n1 2\n2 3\n3 0\n"))
    code, stdout, _ = run_cli(capsys, "solve", "--l", "1", path)
    assert code == 0
    assert stdout.splitlines()[0] == "optimum: 2"


def test_solve_infeasible_exits_one(tmp_path, capsys):
    path = write_graph(tmp_path, "p.graph", gen_named("petersen"))
    code, _, err = run_cli(capsys, "solve", "--l", "9", path)
    assert code == 1
    assert "infeasible" in err


def test_solve_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "--k", "1", "/nonexistent/file.graph")
    assert code == 3


def test_solve_directory_exits_three(tmp_path, capsys):
    code, stdout, err = run_cli(capsys, "solve", "--k", "1", str(tmp_path))
    assert code == 3
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--k", "1"],
        ["construct", "--method", "cubic2", "--k", "2"],
        ["construct", "--method", "greedy", "--k", "1"],
        ["bounds", "--k", "2"],
        ["verify", "--k", "2", "--packing", "PACKING"],
    ],
)
def test_graph_file_not_utf8_exits_three(tmp_path, capsys, argv):
    path = tmp_path / "bad.graph"
    path.write_bytes(b"3 1\n0 1\n# caf\xe9\n")
    packing = tmp_path / "pack.txt"
    packing.write_text("0\n")
    argv = [str(packing) if a == "PACKING" else a for a in argv]
    code, stdout, err = run_cli(capsys, *argv, str(path))
    assert code == 3
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_internal_error_exits_four(tmp_path, capsys, monkeypatch):
    """A rule that breaks the construction's invariant is exit 4, not 1 or 3."""
    import limpack.cubic

    monkeypatch.setattr(
        limpack.cubic,
        "_reduce_component",
        lambda st, piece: ("base-case", set(st.members(piece)), [], set()),
    )
    path = write_graph(tmp_path, "p.graph", gen_named("petersen"))
    code, stdout, err = run_cli(capsys, "construct", "--method", "cubic2", "--k", "2", path)
    assert code == 4
    assert stdout == ""
    assert err.startswith("error: internal error: ")
    assert "Traceback" not in err


def test_out_of_memory_exits_three(tmp_path):
    """A graph under the vertex limit but too large for the memory cap
    ends in one error line and exit 3.

    The address-space cap is set in the child process only."""
    import resource

    cap = 256 * 2**20
    out = subprocess.run(
        [sys.executable, "-m", "limpack.cli", "gen", "--family", "cycle",
         "--n", "9000000", "--out", str(tmp_path / "big.graph")],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert out.returncode == 3
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("argv", [["--k", "1"], ["--l", "1"]])
def test_solve_checks_vertex_limit_before_building(tmp_path, argv):
    """A header over the solvers' vertex limit is refused before the
    adjacency of its n vertices is built, even under a small memory cap
    (set in the child process only)."""
    import resource

    cap = 128 * 2**20
    path = tmp_path / "huge.graph"
    path.write_text("1000000000 0\n")
    out = subprocess.run(
        [sys.executable, "-m", "limpack.cli", "solve", *argv, str(path)],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        timeout=60,
    )
    assert out.returncode == 3
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert "limit 64" in out.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--k", "1", "--packing", "PACKING"],
        ["construct", "--method", "greedy", "--k", "1"],
        ["bounds", "--k", "1"],
    ],
    ids=["verify", "construct", "bounds"],
)
def test_graph_vertex_limit_applies_before_building(tmp_path, argv):
    """Every command that builds a graph refuses a header over
    graph.MAX_VERTICES before allocating its adjacency, even under a small
    memory cap (set in the child process only)."""
    import resource

    cap = 128 * 2**20
    path = tmp_path / "huge.graph"
    path.write_text("1000000000 0\n")
    packing = tmp_path / "empty.pack"
    packing.write_text("")
    argv = [str(packing) if a == "PACKING" else a for a in argv]
    out = subprocess.run(
        [sys.executable, "-m", "limpack.cli", *argv, str(path)],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        timeout=60,
    )
    assert out.returncode == 3
    assert out.stderr == "error: graph has 1000000000 vertices (limit 10000000)\n"


@pytest.mark.parametrize(
    "argv, n",
    [
        (["--family", "cycle", "--n", "1000000000"], 1000000000),
        (["--family", "random-regular", "--n", "100000000", "--r", "3"], 100000000),
        (["--family", "petersen", "--copies", "100000000"], 1000000000),
        (["--family", "projective", "--q", "101", "--k", "3"], 105101005),
    ],
    ids=["cycle", "random-regular", "copies", "projective"],
)
def test_gen_vertex_limit_applies_before_generating(tmp_path, argv, n):
    """gen refuses a graph over graph.MAX_VERTICES before listing its
    edges, points or copies, even under a small memory cap (set in the
    child process only), and writes no file."""
    import resource

    cap = 128 * 2**20
    out_path = tmp_path / "big.graph"
    out = subprocess.run(
        [sys.executable, "-m", "limpack.cli", "gen", *argv, "--out", str(out_path)],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        timeout=60,
    )
    assert out.returncode == 3
    assert out.stderr == f"error: graph has {n} vertices (limit 10000000)\n"
    assert not out_path.exists()


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_pipe_exits_141(unbuffered):
    """`limpack bench | head` must not print a traceback or claim exit 1.

    The read end of the pipe is closed before the CLI starts, so every
    write fails: unbuffered output fails inside the command, buffered
    output at the final flush.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "limpack.cli", "bench", "--suite", "paper", "--no-timing"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert out.returncode == 141
    assert out.stderr == b""


def test_verify_pipeline_valid(tmp_path, capsys):
    gpath = write_graph(tmp_path, "h6.graph", gen_named("h6"))
    code, stdout, _ = run_cli(capsys, "construct", "--method", "cubic2", "--k", "2", gpath)
    assert code == 0
    witness = stdout.splitlines()[-1].removeprefix("witness: ")
    ppath = tmp_path / "pack.txt"
    ppath.write_text(witness + "\n")
    code, stdout, _ = run_cli(capsys, "verify", "--k", "2", "--packing", str(ppath), gpath)
    assert code == 0
    assert stdout.splitlines()[0] == "valid: true"


def test_verify_invalid_exits_one(tmp_path, capsys):
    gpath = write_graph(tmp_path, "h6.graph", gen_named("h6"))
    ppath = tmp_path / "bad.txt"
    ppath.write_text("0 1 2\n")
    code, stdout, _ = run_cli(capsys, "verify", "--k", "2", "--packing", str(ppath), gpath)
    assert code == 1
    lines = stdout.splitlines()
    assert lines[0] == "valid: false"
    assert any(line.startswith("violation: vertex") for line in lines)


def test_verify_dominating(tmp_path, capsys):
    gpath = write_graph(tmp_path, "c4.graph", parse_graph("4 4\n0 1\n1 2\n2 3\n3 0\n"))
    ppath = tmp_path / "dom.txt"
    ppath.write_text("0 2\n")
    code, stdout, _ = run_cli(
        capsys, "verify", "--l", "1", "--packing", str(ppath), gpath
    )
    assert code == 0


def test_packing_without_k_is_a_usage_error(tmp_path, capsys):
    gpath = write_graph(tmp_path, "c4.graph", parse_graph("4 4\n0 1\n1 2\n2 3\n3 0\n"))
    tpath = tmp_path / "typed.graph"
    tpath.write_text("2 1\n0 1 c\n")
    ppath = tmp_path / "pack.txt"
    ppath.write_text("0\n")
    for argv in (
        ["solve", gpath],
        ["solve", "/nonexistent/file.graph"],
        ["verify", "--packing", str(ppath), gpath],
        ["verify", "--packing", str(ppath), str(tpath)],
    ):
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert stdout == ""
        last = err.splitlines()[-1]
        assert last == f"limpack {argv[0]}: error: one of the arguments --k --l is required"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--k", "1", "--l", "2", "GRAPH"],
        ["verify", "--k", "1", "--l", "3", "--packing", "PACKING", "GRAPH"],
    ],
    ids=["solve", "verify"],
)
def test_k_and_l_together_are_a_usage_error(tmp_path, capsys, argv):
    """The limit names the problem, so giving both is a usage error, not
    one dropped in favour of the other: {0, 3} is a 1-limited packing of
    C6 but not 3-tuple dominating.  Neither limit is the case of
    `test_packing_without_k_is_a_usage_error`."""
    (tmp_path / "GRAPH").write_text(serialize_graph(gen_cycle(6)))
    (tmp_path / "PACKING").write_text("0 3\n")
    argv = [str(tmp_path / a) if a.isupper() else a for a in argv]
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"usage: limpack {argv[0]} [-h] (--k K | --l L)")
    assert err.splitlines()[-1] == (
        f"limpack {argv[0]}: error: argument --l: not allowed with argument --k"
    )


@pytest.mark.parametrize(
    "g",
    [gen_cycle(6), gen_named("petersen"), gen_named("h6"), gen_random_regular(20, 3, 5)],
    ids=["c6", "petersen", "h6", "cubic20"],
)
@pytest.mark.parametrize("l", [1, 2, 3])
def test_l_solves_and_checks_tuple_domination(tmp_path, capsys, g, l):
    """`--l` alone selects domination: `solve` prints the library's
    optimum, and `verify` prints the library's report on the witness
    (exit 0) and on the witness less its first member (exit 1)."""
    gpath = write_graph(tmp_path, "g.graph", g)
    result = min_tuple_dominating(g, l)
    assert run_cli(capsys, "solve", "--l", str(l), gpath) == (0, result.to_text(), "")
    ppath = tmp_path / "d.txt"
    for members, code in ((result.witness, 0), (result.witness[1:], 1)):
        ppath.write_text(serialize_packing(members))
        report = verify_tuple_dominating(g, members, l)
        got = run_cli(capsys, "verify", "--l", str(l), "--packing", str(ppath), gpath)
        assert got == (code, report.to_text(), "")


def test_verify_typed_graph(tmp_path, capsys):
    gpath = tmp_path / "typed.graph"
    gpath.write_text("2 2\n0 1 c\n0 1 d\n")
    ppath = tmp_path / "pack.txt"
    ppath.write_text("0 1\n")
    code, stdout, _ = run_cli(
        capsys, "verify", "--k", "2", "--packing", str(ppath), str(gpath)
    )
    assert code == 1
    assert "violation: cedge 0 1" in stdout
    # typed graphs only support k = 2
    code, _, err = run_cli(
        capsys, "verify", "--k", "1", "--packing", str(ppath), str(gpath)
    )
    assert code == 3


def test_construct_all_methods_verify(tmp_path, capsys):
    gpath = write_graph(tmp_path, "cubic.graph", gen_named("petersen"))
    for method in ("cubic2", "greedy", "sample-repair", "lll"):
        code, stdout, _ = run_cli(
            capsys, "construct", "--method", method, "--k", "2", "--seed", "3", gpath
        )
        assert code == 0, method
        witness = stdout.splitlines()[-1].removeprefix("witness: ")
        ppath = tmp_path / f"{method}.txt"
        ppath.write_text(witness + "\n")
        code, _, _ = run_cli(capsys, "verify", "--k", "2", "--packing", str(ppath), gpath)
        assert code == 0, method


def test_construct_cubic2_large_cubic_graph(tmp_path, capsys):
    """cubic2 at n = 1200 used to exceed the recursion limit and exit 1."""
    gpath = write_graph(tmp_path, "cubic.graph", gen_random_regular(1200, 3, 1))
    code, stdout, err = run_cli(capsys, "construct", "--method", "cubic2", "--k", "2", gpath)
    assert code == 0
    assert "Traceback" not in err
    witness = stdout.splitlines()[-1].removeprefix("witness: ").split()
    assert 3 * len(witness) >= 1200


def test_construct_cubic2_requires_k2(tmp_path, capsys):
    gpath = write_graph(tmp_path, "c6.graph", parse_graph("3 3\n0 1\n1 2\n0 2\n"))
    code, _, err = run_cli(capsys, "construct", "--method", "cubic2", "--k", "1", gpath)
    assert code == 2


def test_construct_trace(tmp_path, capsys):
    gpath = write_graph(tmp_path, "h6.graph", gen_named("h6"))
    tpath = tmp_path / "trace.txt"
    code, _, _ = run_cli(
        capsys, "construct", "--method", "cubic2", "--k", "2", "--trace", str(tpath), gpath
    )
    assert code == 0
    text = tpath.read_text()
    assert text.startswith("rule=")


def test_construct_typed_input_promoted_and_guarded(tmp_path, capsys):
    tpath = tmp_path / "typed.graph"
    tpath.write_text("3 2\n0 1 c\n1 2 d\n")
    code, stdout, _ = run_cli(capsys, "construct", "--method", "cubic2", "--k", "2", str(tpath))
    assert code == 0
    code, _, err = run_cli(capsys, "construct", "--method", "greedy", "--k", "2", str(tpath))
    assert code == 3  # randomized/greedy constructors need plain graphs


def test_construct_lll_report_lines(tmp_path, capsys):
    gpath = write_graph(tmp_path, "c6.graph", parse_graph("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"))
    code, stdout, _ = run_cli(
        capsys, "construct", "--method", "lll", "--k", "2", "--seed", "1", gpath
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0].startswith("size: ")
    assert lines[1].startswith("rounds: ")
    assert lines[2] in ("clamped: true", "clamped: false")
    assert lines[3] == "success: true"


def test_construct_lll_succeeds_in_its_last_round(tmp_path, capsys):
    gpath = str(tmp_path / "r10.graph")
    argv = ["--family", "random-regular", "--n", "200", "--r", "10", "--seed", "3"]
    assert run_cli(capsys, "gen", *argv, "--out", gpath)[0] == 0
    code, stdout, _ = run_cli(
        capsys, "construct", "--method", "lll", "--k", "2", "--seed", "5", "--max-rounds", "8", gpath
    )
    assert code == 0
    assert stdout.splitlines()[1:4] == ["rounds: 8", "clamped: true", "success: true"]
    argv = ["construct", "--method", "lll", "--k", "2", "--seed", "5", "--max-rounds", "7", gpath]
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 1  # a failed run still prints its report and witness
    assert stdout.splitlines()[1:4] == ["rounds: 7", "clamped: true", "success: false"]


def test_seed_defaults_to_zero(tmp_path, capsys):
    """Leaving out --seed is --seed 0, for gen and for construct."""
    gen = ["gen", "--family", "random-regular", "--n", "40", "--r", "3", "--out"]
    assert run_cli(capsys, *gen, str(tmp_path / "a.graph"))[0] == 0
    assert run_cli(capsys, *gen, str(tmp_path / "b.graph"), "--seed", "0")[0] == 0
    assert (tmp_path / "a.graph").read_text() == (tmp_path / "b.graph").read_text()
    gpath = str(tmp_path / "a.graph")
    for method in ("sample-repair", "lll"):
        default = run_cli(capsys, "construct", "--method", method, "--k", "2", gpath)
        assert default == run_cli(
            capsys, "construct", "--method", method, "--k", "2", "--seed", "0", gpath
        )


@pytest.mark.parametrize(
    "method, p, head, digest",
    [
        ("lll", "0.2", ["size: 318", "rounds: 13", "clamped: true", "success: true"],
         "16dae4a28bb152b0473a330c750d55f61e199cd533ac53f678613f83414b5068"),
        ("sample-repair", "0.3", ["size: 472", "rounds: 0", "repairs: 116", "clamped: false"],
         "3df043bc46fd7da617a2d4a8bcd5e8637228cc267163feec6c348bf2cb235383"),
    ],
    ids=["lll", "sample-repair"],
)
def test_construct_with_explicit_p(tmp_path, capsys, method, p, head, digest):
    """`--p` overrides the method's own rate; the report lines and the
    SHA-256 of the whole output, witness included, are pinned."""
    import hashlib

    g = gen_random_regular(2000, 10, 3)
    gpath = write_graph(tmp_path, "r10.graph", g)
    code, stdout, _ = run_cli(
        capsys, "construct", "--method", method, "--k", "5", "--seed", "2", "--p", p, gpath
    )
    assert code == 0
    assert stdout.splitlines()[:4] == head
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["gen", "--family", "projective", "--q", "2", "--out", "OUT"], 2,
         "usage error: gen --family projective needs --q and --k\n"),
        (["gen", "--family", "random-regular", "--n", "10", "--out", "OUT"], 2,
         "usage error: gen --family random-regular needs --n and --r\n"),
        (["verify", "--l", "1", "--packing", "PACKING", "TYPED"], 3,
         "error: typed multigraphs support packing verification only\n"),
        # a trace once went unwritten, exit 0, for any method but cubic2
        (["construct", "--method", "greedy", "--k", "2", "--trace", "OUT", "GRAPH"], 2,
         "usage error: construct --trace needs --method cubic2\n"),
    ],
    ids=[
        "projective-no-k", "regular-no-r", "verify-typed-dominating",
        "trace-without-cubic2",
    ],
)
def test_input_errors(tmp_path, capsys, argv, code, err):
    """Each names its error on one line; the upper-case arguments are files."""
    files = {"GRAPH": "3 2\n0 1\n1 2\n", "TYPED": "3 2\n0 1 c\n1 2 d\n", "PACKING": "0\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a.isupper() else a for a in argv]
    assert run_cli(capsys, *argv) == (code, "", err)
    assert not (tmp_path / "OUT").exists()


def test_bounds_from_flags(capsys):
    code, stdout, _ = run_cli(
        capsys, "bounds", "--k", "2", "--n", "60", "--maxdeg", "3", "--mindeg", "3"
    )
    assert code == 0
    assert "packing_upper: 30" in stdout
    assert "random_lower: " in stdout


def test_bounds_from_file(tmp_path, capsys):
    gpath = write_graph(tmp_path, "p.graph", gen_named("petersen"))
    code, stdout, _ = run_cli(capsys, "bounds", "--k", "1", gpath)
    assert code == 0
    assert "greedy_lower: 1" in stdout
    assert "n: 10" in stdout


def test_bounds_needs_flags_or_file(capsys):
    code, _, err = run_cli(capsys, "bounds", "--k", "2")
    assert code == 2
    # any two of the three flags are not enough
    for given in (["--n", "10", "--maxdeg", "3"], ["--n", "10", "--mindeg", "3"],
                  ["--maxdeg", "3", "--mindeg", "3"]):
        code, stdout, err = run_cli(capsys, "bounds", "--k", "2", *given)
        assert (code, stdout) == (2, ""), given
        assert err == "usage error: bounds needs either a graph file or --n, --maxdeg, --mindeg\n"


def test_bench_table_properties(capsys):
    code, stdout, _ = run_cli(capsys, "bench", "--suite", "paper", "--no-timing")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "family n k method size exact upper"
    assert len(lines) > 20
    for line in lines[1:]:
        family, n, k, method, size, exact, upper = line.split()
        n, k, size, exact = int(n), int(k), int(size), int(exact)
        upper_val = float(Fraction(upper))
        assert size <= exact <= upper_val + 1e-9
        if method == "cubic2":
            assert 3 * size >= n


def test_bench_byte_identical(capsys):
    """The same table on every run, and this one: every row of every method."""
    import hashlib

    code1, out1, _ = run_cli(capsys, "bench", "--suite", "paper", "--no-timing")
    code2, out2, _ = run_cli(capsys, "bench", "--suite", "paper", "--no-timing")
    assert code1 == code2 == 0
    assert out1 == out2
    digest = "ec932716b5c9a7fd42bc421481c6557d52afb24691d88d413765bdbb05fed4f8"
    assert hashlib.sha256(out1.encode()).hexdigest() == digest


def test_bench_timing_column(capsys):
    """Without --no-timing each row ends in one more column, time_ms, a
    finite float >= 0 and no longer than the whole call; without that
    column the table is the --no-timing table byte for byte."""
    import time

    start = time.perf_counter()
    code, timed, _ = run_cli(capsys, "bench", "--suite", "paper")
    total_ms = (time.perf_counter() - start) * 1000.0
    assert code == 0
    code, untimed, _ = run_cli(capsys, "bench", "--suite", "paper", "--no-timing")
    assert code == 0
    timed_rows = timed.splitlines()
    assert timed_rows[0].endswith(" time_ms")
    for row in timed_rows[1:]:
        elapsed_ms = float(row.rsplit(" ", 1)[1])
        assert math.isfinite(elapsed_ms) and 0 <= elapsed_ms <= total_ms
    assert "".join(row.rsplit(" ", 1)[0] + "\n" for row in timed_rows) == untimed


def test_construct_byte_identical(tmp_path, capsys):
    gpath = write_graph(tmp_path, "g.graph", gen_named("petersen"))
    outs = set()
    for _ in range(2):
        code, stdout, _ = run_cli(
            capsys, "construct", "--method", "sample-repair", "--k", "2", "--seed", "11", gpath
        )
        assert code == 0
        outs.add(stdout)
    assert len(outs) == 1


def test_usage_exit_code_from_argparse(capsys):
    assert main(["nonsense"]) == 2
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_console_script_entrypoint(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "limpack.cli", "bounds", "--k", "1", "--n", "10",
         "--maxdeg", "3", "--mindeg", "3"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "greedy_lower: 1" in out.stdout


def test_imports_only_the_standard_library():
    """The package has no runtime dependencies: importing it and its CLI in
    a fresh interpreter loads no top-level module outside the standard
    library besides limpack itself."""
    code = (
        "import sys; before = set(sys.modules); import limpack, limpack.cli; "
        "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    loaded = out.stdout.split()
    assert "limpack" in loaded
    assert [m for m in loaded if m != "limpack" and m not in sys.stdlib_module_names] == []


def _star(leaves):
    return Graph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--k", "200", "STAR"],
        ["construct", "--method", "sample-repair", "--k", "200", "STAR"],
        ["bounds", "--k", "100", "--n", "1000000", "--maxdeg", "100000", "--mindeg", "100000"],
    ],
)
def test_large_degree_and_k_beyond_float_range(tmp_path, capsys, argv):
    """C(D,k)*(D+1) exceeds a float here; its k-th root is taken in log space."""
    star = write_graph(tmp_path, "star.graph", _star(10_000))
    code, stdout, err = run_cli(capsys, *[star if a == "STAR" else a for a in argv])
    assert (code, err) == (0, "")
    if argv[0] == "bounds":
        assert "random_lower: n/a" not in stdout
    else:
        assert stdout.startswith("size: ")


def test_bounds_beyond_float_range_exits_three(capsys):
    argv = ["bounds", "--k", "1", "--n", str(10**400), "--maxdeg", "3", "--mindeg", "3"]
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, stdout) == (3, "")
    assert err == "error: n*k and max_degree must be at most 1.7976931348623157e+308\n"


_COUNT_PARSER_BUILDS = textwrap.dedent(
    """
    import argparse, contextlib, io, os, sys

    built = 0
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        global built
        built += 1
        init(self, *args, **kwargs)

    argparse.ArgumentParser.__init__ = counting_init
    import limpack.cli

    print(built)
    os.chdir(sys.argv[1])
    with open("w.txt", "w") as fh:
        fh.write("0\\n")
    calls = [
        ["gen", "--family", "random-regular", "--n", "12", "--r", "3", "--out", "g.graph"],
        ["gen", "--family", "petersen", "--out", "p.graph"],
        ["solve", "--k", "2", "g.graph"],
        ["solve", "--l", "1", "p.graph"],
        ["construct", "--method", "cubic2", "--k", "2", "g.graph"],
        ["construct", "--method", "greedy", "--k", "1", "p.graph"],
        ["verify", "--k", "2", "--packing", "w.txt", "g.graph"],
        ["bounds", "--k", "2", "g.graph"],
        ["bounds", "--k", "1", "--n", "10", "--maxdeg", "3", "--mindeg", "3"],
        ["bench", "--suite", "nope"],
        ["--help"],
        ["bench", "--suite", "paper", "--no-timing"],
    ]
    codes = []
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(limpack.cli.main(argv))
    print(built)
    print(*codes)
    """
)


def test_parser_built_once_per_process(tmp_path):
    """Importing the CLI builds no parser; the first main call builds the
    tree (one top-level parser and six subparsers) and later calls reuse
    it.  Counted in a child process, so test order cannot matter."""
    out = subprocess.run(
        [sys.executable, "-c", _COUNT_PARSER_BUILDS, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["0", "7", "0 0 0 0 0 0 0 0 0 2 0 0"]


_ISOLATION_CASES = {
    "trace-then-none": [
        ["construct", "--method", "cubic2", "--k", "2", "--trace", "t.txt", "g.graph"],
        ["construct", "--method", "cubic2", "--k", "2", "g.graph"],
    ],
    "seed-then-default": [
        ["construct", "--method", "sample-repair", "--k", "1", "--seed", "11", "g.graph"],
        ["construct", "--method", "sample-repair", "--k", "1", "g.graph"],
    ],
    "dominating-then-packing": [
        ["verify", "--l", "1", "--packing", "p.txt", "g.graph"],
        ["verify", "--k", "2", "--packing", "p.txt", "g.graph"],
    ],
    "copies-then-one": [
        ["gen", "--family", "h6", "--copies", "3", "--out", "h.graph"],
        ["gen", "--family", "h6", "--out", "h.graph"],
    ],
    "usage-error-then-success": [
        ["construct", "--k", "2", "g.graph"],
        ["verify", "--packing", "p.txt", "g.graph"],
        ["bounds", "--k", "1", "g.graph"],
    ],
    "help-then-command": [
        ["--help"],
        ["verify", "--help"],
        ["solve", "--k", "1", "g.graph"],
    ],
}


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("calls", _ISOLATION_CASES.values(), ids=_ISOLATION_CASES)
def test_in_process_calls_match_fresh_processes(tmp_path, capsys, monkeypatch, calls):
    """Back-to-back main calls in one process each give the code, stdout,
    stderr and written files of the same call in a fresh process: nothing
    one call sets carries into the next, and usage and help text go to
    the streams in place at the time of the call.  Each call starts from
    its own copy of the input files."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the width the child sees
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "g.graph").write_text(serialize_graph(gen_random_regular(30, 3, seed=5)))
    (inputs / "p.txt").write_text("0 5 10 15 20 25\n")
    # the parser exists, built under streams other than capsys's
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(["--help"])
    in_process = []
    for i, argv in enumerate(calls):
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        shutil.copytree(inputs, here)
        shutil.copytree(inputs, fresh)
        monkeypatch.chdir(here)
        result = run_cli(capsys, *argv)
        child = subprocess.run(
            [sys.executable, "-m", "limpack.cli", *argv],
            cwd=fresh,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result == (child.returncode, child.stdout, child.stderr), argv
        assert _files(here) == _files(fresh), argv
        in_process.append((result, _files(here)))
    # the first call's outputs differ from the second's, so a leaked option would show
    assert in_process[0] != in_process[1]
