import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# Tests that start `python -m limpack.cli` in a child process need the
# source tree on the child's import path too, as pyproject gives pytest.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

from limpack import Graph, gen_cycle, gen_named, gen_random_regular


@pytest.fixture(scope="session")
def petersen() -> Graph:
    return gen_named("petersen")


@pytest.fixture(scope="session")
def h6() -> Graph:
    return gen_named("h6")


@pytest.fixture(scope="session")
def k4() -> Graph:
    return gen_named("k4")


@pytest.fixture(scope="session")
def small_corpus() -> list[tuple[str, Graph]]:
    """Mixed bag of graphs with n <= 14 for oracle-agreement sweeps."""
    graphs = [
        ("c4", gen_cycle(4)),
        ("c5", gen_cycle(5)),
        ("c6", gen_cycle(6)),
        ("c7", gen_cycle(7)),
        ("k4", gen_named("k4")),
        ("h6", gen_named("h6")),
        ("petersen", gen_named("petersen")),
        ("star", Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])),
        ("path5", Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])),
        ("empty4", Graph.from_edges(4, [])),
        ("cubic12", gen_random_regular(12, 3, seed=7)),
        ("reg4_10", gen_random_regular(10, 4, seed=3)),
        ("cubic14", gen_random_regular(14, 3, seed=11)),
    ]
    return graphs
