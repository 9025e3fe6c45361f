"""Guards for the incremental cubic n/3 construction and the Brooks cut-vertex pass.

* every incremental query of `construct_two_limited` is checked, at every
  step, against a full scan of its component, and so is every piece the
  set-up or a split builds (the oracle fixture);
* the BFS levels change only the cost: rooting every piece at its
  smallest member and deciding every split by search alone gives the
  same sets and traces;
* seeded sets and traces at n = 2000-8000, too large for the recursive
  reference in ``reference_cubic``, hash as they did before the queries
  became incremental, and so do those of a shuffled binary tree and comb,
  which split their pieces hundreds of times;
* `brooks_three_coloring` agrees with ``reference_brooks``, which finds
  the lowest cut vertex by one search per vertex.
"""

import hashlib
import random
from collections import Counter

import pytest
import reference_brooks

import corpus
import limpack.cubic as cubic
from limpack import (
    Graph,
    TypedMultigraph,
    brooks_three_coloring,
    construct_two_limited,
    disjoint_union,
    gen_cycle,
    gen_named,
    gen_random_regular,
    verify_typed_two_limited,
)
from limpack.graph import components_within

# sha256 of " ".join(sorted(X)) and of trace.to_text() for
# gen_random_regular(n, 3, seed), recorded with the construction that
# rescanned the whole component on every step
LARGE = {
    (2000, 1): ("b9535996e416e87658610690027a0f7b52cb6d77443efec869a0ba3fa3fecf87",
                "fa62ac042a675e73a628fdef5be0b971e3a7b517b5ca87b8e29893b2a826e67f"),
    (2000, 2): ("0fe22446bda496113647694953655f418b39b6e50ebb91079e56c08c2a7d7874",
                "6ebfa8a8b45e9799264d5f50c6c900d674930cbc9b1b982c725b710e43535f3d"),
    (4000, 1): ("ceac88459bb1ecb684ca236e2e12ada30bf070b80e86df9168e65f21ed64e70b",
                "2ca0fdde4019484e1bb34391c042a017fce99554fea54e0e0e40fde85290a5dd"),
    (4000, 2): ("bcbdb9aa18344b13406b6970a27f0e3a3d345b38e3aa526d3891d8aa76214456",
                "ddf9dc328d263448711454ad01c2879c26d8741b0c4dfa2c11da870a2d847b99"),
    (8000, 1): ("cfefc8fe5b10849138d9bd308c3b30ecde3dcb87ef8cffaef449fdbdd10517f0",
                "4d0900e1f39ca51c10197e96e2e5aa6125e33e5ccf0f7e9e0b3a1ba4e4a878cd"),
    (8000, 2): ("9304310d44ace3d2c1f8072b269a3a1c37bf2988a7ad1e9855527ef9cbaf5b60",
                "429a82265a19c469ded797509ff170cc8be9b99185886b65bfbfa6d472f4dfd6"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n, seed", sorted(LARGE))
def test_large_random_cubic_matches_recorded_hashes(n, seed):
    chosen, trace = construct_two_limited(TypedMultigraph.from_graph(gen_random_regular(n, 3, seed)))
    assert (_sha(" ".join(map(str, sorted(chosen)))), _sha(trace.to_text())) == LARGE[n, seed]


def _shuffled(n: int, edges) -> Graph:
    perm = list(range(n))
    random.Random(1).shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _binary_tree() -> Graph:
    return _shuffled(8191, [((v - 1) // 2, v) for v in range(1, 8191)])


def _comb() -> Graph:
    path = [(i, i + 1) for i in range(3999)]
    return _shuffled(8000, path + [(i, 4000 + i) for i in range(4000)])


# the same hashes for two graphs whose runs split pieces over and over
# (random cubic graphs split only 2-4 times per run), recorded before the
# c-edge planner and the shared BFS helper: a complete binary tree of
# depth 13 (1101 splits) and a path with one pendant leaf per vertex
# (800 splits), labels shuffled
SPLITTING = {
    _binary_tree: ("dd7024d3d92bb05144c320c420e788a6cf3078d6bc0f07ada7d6dd0299fb6bfe",
                   "8f4b415b6106449fa9ee8a1d1783fa523e6c7d85b512051acd30129ff1739655"),
    _comb: ("be8cb28205ad669bec80c821ccdb0107e281f15f0b91efe9ee1026ce3f9fa507",
            "f19f35ca0ad3dd032d197b399359e0ff6c01a223723adcabbdc5538a3cf28245"),
}


@pytest.mark.parametrize("build", list(SPLITTING), ids=["binary-tree", "comb"])
def test_splitting_graphs_match_recorded_hashes(build):
    chosen, trace = construct_two_limited(TypedMultigraph.from_graph(build()))
    assert (_sha(" ".join(map(str, sorted(chosen)))), _sha(trace.to_text())) == SPLITTING[build]


def test_scale_smoke():
    tm = TypedMultigraph.from_graph(gen_random_regular(20_000, 3, 1))
    chosen, _ = construct_two_limited(tm)
    assert verify_typed_two_limited(tm, chosen).valid
    assert 3 * len(chosen) >= tm.n


# ---------------------------------------------------------------- oracle


def _component(st, piece) -> list[int]:
    """The members of `piece` by its labels, checked to be one whole component."""
    comp = sorted(v for v, owner in enumerate(st.owner) if owner is piece)
    assert all(st.owner[x] is piece for v in comp for x in st.nadj[v])
    assert components_within(st.nadj.__getitem__, comp) == [comp]
    assert piece.size == len(comp)
    return comp


def _degree_key(st, u) -> int:
    """1 or 2 for that many distinct neighbors, 3 for any other vertex
    that is not simple degree 3, 0 for a simple one."""
    nd = len(st.nadj[u])
    if nd in (1, 2):
        return nd
    return 3 if nd != 3 or len(st.cadj[u]) + len(st.dadj[u]) != 3 else 0


def _scan_low(st, comp):
    return min(((k, u) for u in comp if (k := _degree_key(st, u))), default=None)


def _scan_d_edge(st, comp, triangles):
    for u in comp:
        for v in sorted(st.dadj[u]):
            if u < v and (not triangles or len(st.nadj[u] & st.nadj[v]) == triangles):
                return u, v
    return None


def _check_levels(st, piece):
    """Every vertex of `piece` but its root has a strictly lower neighbor."""
    for v in _component(st, piece):
        assert v == piece.root or any(st.level[w] < st.level[v] for w in st.nadj[v])


def _check_new_piece(st, piece):
    """A piece as built holds an entry for every vertex and d-edge that
    qualifies: its degree key, each c-degree-3 vertex as a candidate,
    and each d-edge's triangle key together with the key-2 entry that
    stands for it once its triangles are gone."""
    comp = _component(st, piece)
    _check_levels(st, piece)
    assert sorted(piece.members) == comp
    low, cand, dedges = set(piece.low), set(piece.cand), set(piece.dedges)
    for u in comp:
        assert not _degree_key(st, u) or (_degree_key(st, u), u) in low
        assert len(st.cadj[u]) != 3 or u in cand
        for v in st.dadj[u]:
            common = len(st.nadj[u] & st.nadj[v])
            assert u > v or {(2, u, v), (2 - common, u, v)} <= dedges


@pytest.fixture
def oracle(monkeypatch):
    """Wrap each incremental query of `_State` with an assertion that it
    equals the full scan, and each new piece with `_check_new_piece`;
    yields a counter of the answers seen."""
    seen: Counter = Counter()
    State = cubic._State
    active = []  # the wrapped queries running, outermost first

    def wrap(name, check):
        original = getattr(State, name)

        def wrapped(st, piece, *args):
            before = _component(st, piece)
            active.append(name)
            result = original(st, piece, *args)
            active.pop()
            check(st, before, args, result)
            seen[name, result is not None and result != []] += 1
            return result

        monkeypatch.setattr(State, name, wrapped)

    original_new_piece = State.new_piece

    def new_piece(st, levels):
        piece = original_new_piece(st, levels)
        _check_new_piece(st, piece)
        if not active:  # set-up: one piece of all n vertices iff the input is connected
            seen["set-up", piece.size == len(st.owner)] += 1
        return piece

    monkeypatch.setattr(State, "new_piece", new_piece)

    def check_low(st, comp, args, result):
        assert result == _scan_low(st, comp)

    def check_config_a(st, comp, args, result):
        assert result == cubic._find_config_a(st, comp)

    def check_d_edge(st, comp, args, result):
        scans = (_scan_d_edge(st, comp, t) for t in (2, 1, 0))
        assert result == next((e for e in scans if e is not None), None)

    def check_lowest(st, comp, args, result):
        assert result == comp[0]

    def check_apply(st, comp, args, pieces):
        removed, _ = args
        rest = [v for v in comp if v not in removed]
        assert [_component(st, p) for p in pieces] == components_within(st.nadj.__getitem__, rest)
        seen["split", len(pieces) > 1] += 1
        for p in pieces:
            _check_levels(st, p)

    wrap("lowest_low", check_low)
    wrap("config_a", check_config_a)
    wrap("d_edge", check_d_edge)
    wrap("lowest", check_lowest)
    wrap("apply", check_apply)
    return seen


def _typed_corpus() -> list[TypedMultigraph]:
    """500 seeded typed multigraphs and the graphs of the special subcases."""
    graphs = [corpus.random_typed_multigraph(s, 4 + (s * 7) % 60) for s in range(500)]
    return graphs + [
        corpus.configuration_a_graph(),
        corpus.degree_one_addition_graph(),
        corpus.degree_two_special_graph(),
        corpus.two_triangles_graph(),
        corpus.two_triangles_degenerate_graph(),
        corpus.one_triangle_special_graph(),
        corpus.no_triangle_pair_graph(),
        corpus.no_triangle_triple_graph(),
        corpus.no_triangle_quad_graph(),
    ]


def test_incremental_queries_match_full_scans(oracle):
    graphs = _typed_corpus()
    graphs += [TypedMultigraph.from_graph(gen_random_regular(n, 3, n)) for n in (120, 300)]
    rules = Counter()
    for tm in graphs:
        _, trace = construct_two_limited(tm)
        rules.update(step.rule for step in trace.steps)
    # every query answered both ways, and the runs reached every rule
    for name in ("lowest_low", "config_a", "d_edge", "apply", "split", "set-up"):
        assert oracle[name, True] and oracle[name, False], name
    assert set(rules) == {
        "base-case", "brooks", "configuration-A", "degree-1", "degree-2",
        "degree-2-c-k4", "d-edge-two-triangles", "d-edge-one-triangle",
        "d-edge-one-triangle-c-k4", "d-edge-no-triangle", "d-edge-no-triangle-c-k4-pair",
        "d-edge-no-triangle-c-k4-triple", "d-edge-no-triangle-c-k4-quad",
    }


def test_levels_change_only_the_cost(monkeypatch):
    """Sets and traces depend only on which vertices make up each piece:
    rooting every piece at its smallest member, where the construction
    roots it at its largest, and giving the level repair no steps, so
    every split is decided by the lockstep search, changes neither."""
    graphs = [*_typed_corpus(), TypedMultigraph.from_graph(_comb())]
    expected = [construct_two_limited(tm) for tm in graphs]
    State = cubic._State
    relevel, new_piece, repair = State._relevel, State.new_piece, State._repair

    def at_smallest(st, piece, root):
        relevel(st, piece, min(v for v in piece.members if st.owner[v] is piece))

    def new_piece_at_smallest(st, levels):
        piece = new_piece(st, levels)
        at_smallest(st, piece, piece.root)
        return piece

    def no_steps(st, piece, check, steps):
        return repair(st, piece, check, 0)

    monkeypatch.setattr(State, "_relevel", at_smallest)
    monkeypatch.setattr(State, "new_piece", new_piece_at_smallest)
    monkeypatch.setattr(State, "_repair", no_steps)
    for tm, (chosen, trace) in zip(graphs, expected):
        again, again_trace = construct_two_limited(tm)
        assert again == chosen and again_trace.to_text() == trace.to_text()


# ---------------------------------------------------------------- Brooks


def _blocks_at_a_cut_vertex(seed: int) -> Graph:
    """3-regular graph: a centre joined by bridges to three random blocks,
    each a random cubic graph with one edge subdivided by its apex; the
    labels are shuffled so the lowest cut vertex varies."""
    rng = random.Random(seed)
    edges = []
    n = 1
    for _ in range(3):
        m = rng.choice((4, 6, 8, 10))
        block = gen_random_regular(m, 3, rng.randrange(2**32)).edges()
        a, b = block.pop(rng.randrange(len(block)))
        apex = n + m
        edges += [(n + u, n + v) for u, v in block]
        edges += [(n + a, apex), (n + b, apex), (apex, 0)]
        n = apex + 1
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _brooks_inputs():
    for n in range(6, 62, 2):
        for seed in range(3):
            yield gen_random_regular(n, 3, seed)
    for seed in range(40):
        yield _blocks_at_a_cut_vertex(seed)
    yield Graph.from_edges(16, [e for i in range(3) for e in _diamond_block(1 + 5 * i)])
    yield disjoint_union(_blocks_at_a_cut_vertex(1), gen_named("petersen"))
    yield disjoint_union(gen_cycle(7), _blocks_at_a_cut_vertex(2))
    # isolated vertices, alone and between other components
    yield Graph.from_edges(1, [])
    yield Graph.from_edges(3, [(1, 2)])
    isolated = Graph.from_edges(2, [])
    yield disjoint_union(isolated, gen_named("petersen"), isolated, gen_cycle(5), isolated)
    yield disjoint_union(_blocks_at_a_cut_vertex(3), isolated)


def _diamond_block(first: int):
    # the test_brooks_cut_vertex_cubic block: a diamond closed by an apex on 0
    a, b, c, d, e = range(first, first + 5)
    return [(a, b), (a, c), (a, d), (b, c), (b, d), (c, e), (d, e), (0, e)]


def test_brooks_matches_reference_scan():
    for g in _brooks_inputs():
        assert brooks_three_coloring(g) == reference_brooks.brooks_three_coloring(g)
