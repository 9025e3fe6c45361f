"""Differential test: the edge-list reader against a frozen two-pass copy.

Seeded random texts go through ``parse_graph`` and ``parse_packing``,
and seeded random (u, v) and (u, v, type) lists through
``Graph.from_edges`` and ``TypedMultigraph.from_edges``, both here and
in ``reference_parse``.  Each pair must agree on the built graph (its
class and adjacency), or on the exact exception type and message.  The
texts mix endpoints in and out of range, bad tokens and types, comments,
tabs, no-break spaces and both line ends; the lists mix bools, floats,
strings, self-loops, repeated pairs, unhashable type tokens, wrong
arities and one-shot iterators.
"""

import random

import pytest
import reference_parse as ref

from limpack import Graph, TypedMultigraph, parse_graph, parse_packing, serialize_graph
from limpack.graph import read_edge_lines

SEED = 20_261_019
CASES = 5000

NUMBERS = ["0", "1", "2", "3", "4", "5", "7", "-1", "1.5", "x", "+2", "007", "10000001",
           "100000000000", "99999999999999999999"]
TYPES = ["c", "d"] * 12 + ["x", "#", "#c", "e", "cd", "D"]
SEPS = [" ", " ", "  ", "\t", "\xa0", " \t "]
COMMENTS = ["", "   ", "\t", "#", "# note", "  # indented", "\t#tab", "#c", "\xa0# nbsp"]
# every line boundary of str.splitlines, which the frozen reader walks
BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


# Texts one step away from serialize_graph's plain form, which the reader
# takes in bulk; every other text goes through its line walk.
BASE = "4 3\n0 1\n1 2\n2 3\n"
OVER_DIGIT_LIMIT = "1" * 5000  # int() refuses it under Python's default limit
NEAR_CANONICAL = {
    "canonical": BASE,
    "no-final-newline": BASE[:-1],
    "crlf": BASE.replace("\n", "\r\n"),
    "double-space": "4 3\n0  1\n1 2\n2 3\n",
    "trailing-space": "4 3\n0 1\n1 2 \n2 3\n",
    "leading-space": "4 3\n0 1\n 1 2\n2 3\n",
    "leading-space-header": " 4 3\n0 1\n1 2\n2 3\n",
    "one-endpoint-and-space": "4 3\n0 1\n1 \n2 3\n",
    "space-and-one-endpoint": "4 3\n0 1\n 3\n1 2\n",
    "space-and-one-number-header": " 43\n0 1\n1 2\n2 3\n",
    "trailing-number": "4 2\n0 1\n1 2\n3",
    # two faults whose number counts would make up for each other
    "one-endpoint-lines": "4 1\n0 \n1 \n",
    "space-first-lines": "4 1\n 0\n 1\n",
    "space-first-and-trailing-number": " 5\n1 0\n1",
    "leading-zeros": "004 3\n0 1\n1 2\n2 003\n",
    "leading-zeros-out-of-range": "4 3\n007 1\n1 2\n2 3\n",
    "plus-sign": "4 3\n0 +1\n1 2\n2 3\n",
    "arabic-indic-digit": "4 3\n0 1\n1 2\n2 \u0663\n",
    "arabic-indic-header": "\u0664 3\n0 1\n1 2\n2 3\n",
    "superscript-digit": "4 3\n0 1\n1 2\n2 \u00b3\n",
    "endpoint-over-digit-limit": f"4 3\n0 1\n1 2\n2 {OVER_DIGIT_LIMIT}\n",
    "header-over-digit-limit": f"{OVER_DIGIT_LIMIT} 3\n0 1\n1 2\n2 3\n",
    "header-over-vertex-limit": "99999999999999999999 1\n0 1\n",
    "empty-graph": "0 0\n",
    "edgeless": "3 0\n",
    "too-few-edge-lines": "4 3\n0 1\n1 2\n",
    "too-many-edge-lines": BASE + "0 3\n",
    "vertex-equal-to-n": "4 3\n0 1\n1 4\n2 3\n",
    "self-loop": "4 3\n0 1\n2 2\n2 3\n",
    "repeated-edge": "4 3\n0 1\n1 0\n2 3\n",
    "typed-line": "4 3\n0 1\n1 2 c\n2 3\n",
    "comment": "4 3\n0 1\n# 1 2\n1 2\n2 3\n",
    "blank-line": "4 3\n0 1\n\n1 2\n2 3\n",
    "trailing-blank-line": BASE + "\n",
    "vertical-tab-break": "4 3\n0 1\v1 2\n2 3\n",
    "next-line-break": "4 3\n0 1\x851 2\n2 3\n",
}


def _outcome(call, *args):
    try:
        result = call(*args)
    except Exception as exc:  # the exact type and message are compared
        return type(exc), str(exc)
    if isinstance(result, (Graph, TypedMultigraph)):
        return type(result), serialize_graph(result), result
    return result


def _tokens_line(rng: random.Random, tokens: list[str]) -> str:
    line = rng.choice(["", "", " ", "\t", "\xa0"])
    for i, tok in enumerate(tokens):
        line += (rng.choice(SEPS) if i else "") + tok
    if rng.random() < 0.05:
        line += rng.choice([" #c", " # trailing", "#", " "])
    return line


def _graph_text(rng: random.Random) -> str:
    n = rng.choice(["3", "5", "8"] * 4 + ["0", "1", "-1", "x", "10000001", "100000000000"])
    m = rng.choice(["0", "1", "2", "3", "5", "5"] * 3 + ["-2", "1.5"])
    header = [n, m] if rng.random() < 0.95 else rng.choice([[n], [n, m, "c"], []])
    lines = [rng.choice(COMMENTS) for _ in range(rng.randrange(3))]
    lines.append(_tokens_line(rng, header))
    edges = int(m) + rng.choice([0, 0, 0, 0, -1, 1]) if m.isdigit() else rng.randrange(4)
    bound = max(int(n), 2) if n.isdigit() and int(n) < 100 else 8
    for _ in range(max(edges, 0)):
        if rng.random() < 0.1:
            lines.append(rng.choice(COMMENTS))
        if rng.random() < 0.97:
            u, v = (str(rng.randrange(bound + (rng.random() < 0.05))) for _ in range(2))
        else:
            u, v = rng.choice(NUMBERS), rng.choice(NUMBERS)
        tokens = [u, v]
        if rng.random() < 0.3:
            tokens.append(rng.choice(TYPES))
        if rng.random() < 0.03:
            tokens = tokens[: rng.randrange(len(tokens))] or tokens + ["c", "d"]
        lines.append(_tokens_line(rng, tokens))
    eol = rng.choice(["\n", "\r\n"])
    return eol.join(lines) + (eol if rng.random() < 0.8 else "")


def _packing_text(rng: random.Random) -> str:
    tokens = ["0", "3", "12", "-1", "9#10", "#", "# c", "x", "1.5", "7#", "\xa0", "\t", "", " "]
    lines = []
    for _ in range(rng.randrange(5)):
        lines.append(_tokens_line(rng, [rng.choice(tokens) for _ in range(rng.randrange(4))]))
    return rng.choice(["\n", "\r\n"]).join(lines)


def _triples(rng: random.Random, n: int) -> list:
    ends = [0, 1, 2, n - 1, n, -1, 1.5, True, False, "1"]
    types = ["c", "d", "c", "d", "x", None, ["c"], "cd", 1]
    out = []
    for _ in range(rng.randrange(7)):
        if rng.random() < 0.8:
            u, v = rng.randrange(max(n, 1)), rng.randrange(max(n, 1))
        else:
            u, v = rng.choice(ends), rng.choice(ends)
        t = rng.choice(types) if rng.random() < 0.2 else rng.choice("cd")
        out.append((u, v, t) if rng.random() < 0.97 else rng.choice([(u, v), (u, v, t, t)]))
    return out


def _pairs(rng: random.Random, n) -> list:
    ends = [0, 1, 2, n - 1, n, -1, 1.5, True, False, "1", 10**8]
    out: list = []
    seen: list = []
    for _ in range(rng.randrange(12)):
        roll = rng.random()
        if roll < 0.2 and seen:  # a repeated pair, either way round
            u, v = rng.choice(seen)
            out.append((u, v) if rng.random() < 0.5 else (v, u))
            continue
        if roll < 0.85:
            u, v = rng.randrange(max(n, 1)), rng.randrange(max(n, 1))
        else:
            u, v = rng.choice(ends), rng.choice(ends)
        seen.append((u, v))
        out.append((u, v) if rng.random() < 0.97 else rng.choice([(u,), (u, v, v)]))
    return out


def _shape(rng: random.Random, edges: list):
    """The same edges as a list, tuple, iterator or generator."""
    return rng.choice([list, tuple, iter, lambda e: (x for x in e)])(edges)


def test_parse_graph_matches_reference():
    rng = random.Random(SEED)
    kinds = set()
    for _ in range(CASES):
        text = _graph_text(rng)
        new = _outcome(parse_graph, text)
        assert new == _outcome(ref.parse_graph, text), text
        # the vertex count `solve` checks before anything is built
        count = _outcome(lambda t: read_edge_lines(t)[0], text)
        assert count == _outcome(lambda t: ref.read_edge_lines(t)[0], text), text
        kinds.add(new[0].__name__)
    # the texts reach both graph classes and both error classes
    assert kinds == {"Graph", "TypedMultigraph", "GraphInputError", "ResourceLimitError"}


def test_parse_graph_matches_reference_on_every_line_break():
    """Each text's lines are joined by one boundary, or by a mix of all of
    them, and a boundary also lands inside a line now and then: a reader
    that walks the lines itself must end them exactly where
    ``str.splitlines`` does, and number them the same."""
    rng = random.Random(SEED + 1)
    for brk in [*BREAKS, None]:
        kinds = set()
        for _ in range(CASES // 10):
            lines = _graph_text(rng).splitlines()
            if rng.random() < 0.2 and lines:
                i = rng.randrange(len(lines))
                j = rng.randrange(len(lines[i]) + 1)
                lines[i] = lines[i][:j] + rng.choice(BREAKS) + lines[i][j:]
            text = "".join(line + (brk or rng.choice(BREAKS)) for line in lines)
            new = _outcome(parse_graph, text)
            assert new == _outcome(ref.parse_graph, text), text
            count = _outcome(lambda t: read_edge_lines(t)[0], text)
            assert count == _outcome(lambda t: ref.read_edge_lines(t)[0], text), text
            kinds.add(new[0].__name__)
        assert {"Graph", "TypedMultigraph", "GraphInputError"} <= kinds, brk


def test_parse_packing_matches_reference():
    rng = random.Random(SEED)
    for _ in range(CASES):
        text = _packing_text(rng)
        assert _outcome(parse_packing, text) == _outcome(ref.parse_packing, text), text


def test_typed_from_edges_matches_reference():
    rng = random.Random(SEED)
    kinds = set()
    for _ in range(CASES):
        n = rng.choice([-1, 0, 1, 3, 6, 6, 10**8])
        edges = _triples(rng, n)
        shape = rng.random()
        new = _outcome(TypedMultigraph.from_edges, n, _shape(random.Random(shape), edges))
        old = _outcome(ref.typed_from_edges, n, _shape(random.Random(shape), edges))
        assert new == old, (n, edges)
        kinds.add(new[0].__name__)
    assert kinds == {"TypedMultigraph", "GraphInputError", "ResourceLimitError", "ValueError"}


def test_from_edges_matches_reference():
    rng = random.Random(SEED)
    kinds = set()
    for _ in range(CASES):
        n = rng.choice([-1, 0, 1, 3, 6, 6, 10, 10**8, 2.0, True])
        edges = _pairs(rng, n if type(n) is int else 3)
        shape = rng.random()
        new = _outcome(Graph.from_edges, n, _shape(random.Random(shape), edges))
        old = _outcome(ref.graph_from_edges, n, _shape(random.Random(shape), edges))
        assert new == old, (n, edges)
        kinds.add(new[0].__name__)
    assert kinds == {"Graph", "GraphInputError", "ResourceLimitError", "ValueError"}


@pytest.mark.parametrize("text", NEAR_CANONICAL.values(), ids=NEAR_CANONICAL.keys())
def test_near_canonical_text_matches_reference(text):
    assert _outcome(parse_graph, text) == _outcome(ref.parse_graph, text)
    count = _outcome(lambda t: read_edge_lines(t)[0], text)
    assert count == _outcome(lambda t: ref.read_edge_lines(t)[0], text)
