"""Check that the exact solver's tree tests catch known mutants of ``_maximize``.

    python tests/solver_mutants.py

Each mutant is one textual edit of ``src/limpack/solver.py``.  The script
copies ``src``, ``tests`` and ``pyproject.toml`` to a temporary directory,
applies each edit there in turn, and runs

    pytest -x -q tests/test_solver_incremental.py tests/test_solver_reference.py

with a limit of TIMEOUT seconds per run.  A mutant is caught when that
run fails within the limit.  The replay in ``tests/solver_replay.py``
rejects a node whose terms, prune, stepped-over vertices or children
differ from the documented search, so it must catch a bound that prunes
one too early and one that prunes one too late.  The unmutated copy runs
first and must pass.  The exit status is 0 when every mutant is caught.
``tests/test_solver_dp.py`` is not in the run: under a bound that stops
pruning, its tests pass slowly or fail only at their 30-s budget each,
over a minute in all.  Standard library only; pytest does not collect
this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLVER = Path("src/limpack/solver.py")
TESTS = ["tests/test_solver_incremental.py", "tests/test_solver_reference.py"]
TIMEOUT = 120

# (name, text in solver.py, replacement); each text occurs exactly once
MUTANTS = [
    ("drop `zero[v] = 1`", "        zero[v] = 1\n", ""),
    (
        "prune at `<= best_size - len(chosen) + 1`",
        "<= best_size - len(chosen):",
        "<= best_size - len(chosen) + 1:",
    ),
    (
        "prune at `<= best_size - len(chosen) - 1`",
        "<= best_size - len(chosen):",
        "<= best_size - len(chosen) - 1:",
    ),
    ("drop `lsize -= size[u]`", "                        lsize -= size[u]\n", ""),
    (
        "drop `nodes += 1` in the skip loop",
        "            v = order[pos]\n            nodes += 1\n",
        "            v = order[pos]\n",
    ),
]


def _run(tree: Path) -> str:
    """'passed', 'failed' or 'timed out': the tree tests in `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
    try:
        done = subprocess.run(
            command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return "timed out"
    return "passed" if done.returncode == 0 else "failed"


def main() -> int:
    source = (ROOT / SOLVER).read_text()
    for name, old, _ in MUTANTS:
        if source.count(old) != 1:
            print(f"mutant {name!r} does not apply to {SOLVER}")
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tree)
        if _run(tree) != "passed":
            print("the unmutated copy does not pass; no mutant was run")
            return 2
        missed = 0
        for name, old, new in MUTANTS:
            (tree / SOLVER).write_text(source.replace(old, new))
            start = time.perf_counter()
            outcome = _run(tree)
            caught = outcome == "failed"
            missed += not caught
            seconds = time.perf_counter() - start
            print(f"{'caught' if caught else 'missed'}: {name} ({outcome} in {seconds:.1f} s)")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
