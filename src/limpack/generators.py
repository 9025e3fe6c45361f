"""Generators for the graph families used as examples and extremal witnesses.

Cycles, the chorded 6-cycle H6 (isomorphic to K_{3,3}), the Petersen
graph, K4, seeded random regular graphs via the pairing model, and the
projective orthogonality graphs over GF(q): vertices are the points of a
(k+1)-dimensional projective space over GF(q), as normalized coordinate
tuples, joined when their inner product vanishes; a point's neighbours
are the solutions of one linear equation, listed directly.  Each
generator refuses a graph over ``graph.MAX_VERTICES`` vertices before it
lists any edge or point, and the random regular and projective families
refuse one over ``MAX_EDGES`` edges as well (n·r/2, and at most n·H/2 with
H the degree bound below); the pairing model gives up after ``MAX_ATTEMPTS``.
"""

from __future__ import annotations

import random
import reprlib
from itertools import product

from .errors import GraphInputError, ResourceLimitError, _check_arg, _show
from .graph import MAX_VERTICES, Graph, _check_vertex_count

MAX_ATTEMPTS = 1000
# Every cubic graph within graph.MAX_VERTICES stays under it.
MAX_EDGES = 2 * 10**7

# q -> (characteristic p, extension degree, irreducible polynomial coeffs
# low-to-high).  x^2+x+1 over GF(2), x^3+x+1 over GF(2), x^2+1 over GF(3).
_PRIME_POWER_FIELDS = {
    4: (2, 2, (1, 1, 1)),
    8: (2, 3, (1, 1, 0, 1)),
    9: (3, 2, (1, 0, 1)),
}


class GaloisField:
    """GF(q) for prime q (modular arithmetic) or q in {4, 8, 9} (tables).

    Elements are the integers 0..q-1; for prime powers the base-p digits
    of an element are the coefficients of its polynomial representative.
    A prime field builds no table; q is at most ``graph.MAX_VERTICES``.
    """

    def __init__(self, q: int):
        _check_arg("q", q)
        if q > MAX_VERTICES:  # no projective graph within the vertex limit needs more
            raise ResourceLimitError(f"field order {_show(q)} over the limit {MAX_VERTICES}")
        self.q = q
        self._prime = _is_prime(q)
        if not self._prime:
            if q not in _PRIME_POWER_FIELDS:
                raise GraphInputError(
                    f"unsupported field order {_show(q)}: q must be prime or one of"
                    f" {sorted(_PRIME_POWER_FIELDS)}"
                )
            self._add, self._mul = _build_tables(*_PRIME_POWER_FIELDS[q])

    def add(self, a: int, b: int) -> int:
        if self._prime:
            return (a + b) % self.q
        return self._add[a][b]

    def mul(self, a: int, b: int) -> int:
        if self._prime:
            return (a * b) % self.q
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise GraphInputError("zero has no multiplicative inverse")
        if self._prime:
            return pow(a, self.q - 2, self.q)
        return self._mul[a].index(1)

    def dot(self, u: tuple[int, ...], w: tuple[int, ...]) -> int:
        total = 0
        for a, b in zip(u, w):
            total = self.add(total, self.mul(a, b))
        return total


def projective_points(q: int, k: int) -> list[tuple[int, ...]]:
    """All points of the (k+1)-dimensional projective space over GF(q).

    Each point is its coordinate tuple whose first nonzero entry is 1.
    Count is (q^(k+2)-1)/(q-1); points are in lexicographic order, which
    fixes the vertex numbering of gen_projective.
    """
    _point_count(q, k)
    # the leading 1 moves from the last position to the first, so each
    # block of points follows every point with more leading zeros
    return [
        (0,) * i + (1,) + suffix
        for i in reversed(range(k + 2))
        for suffix in product(range(q), repeat=k + 1 - i)
    ]


def _point_count(q: int, k: int) -> int:
    """The point count of projective_points(q, k), once q and k are checked
    and the count is within the vertex limit."""
    _check_arg("q", q)
    _check_arg("k", k, 1)
    if q >= 2:  # before GaloisField's primality test, which takes sqrt(q) steps
        # log2 of the point count is at least `low`: past 2^16 bits, refuse
        # from it rather than form q^(k+2) (over 1 GiB for q = 2, k = 10^10)
        low = (k + 1) * (q.bit_length() - 1)
        if low > 2**16:
            raise ResourceLimitError(
                f"graph has over 2^{_show(low)} vertices (limit {MAX_VERTICES})"
            )
        count = (q ** (k + 2) - 1) // (q - 1)
        _check_vertex_count(count)
    GaloisField(q)  # validates q
    return count


def gen_projective(q: int, k: int) -> Graph:
    """Orthogonality graph on projective points over GF(q).

    Distinct points are adjacent when their inner product is 0 in GF(q);
    self-orthogonal points do not get self-loops, so degrees are H or H-1
    with H = (q^(k+1)-1)/(q-1).  With s the last nonzero coordinate of p,
    each point y on k+1 coordinates gives p one orthogonal x: y with
    x_s = -(p'.y)/p_s inserted at s, p' being p without p_s.  x is
    normalized (y is zero before s only when p'.y = 0) and distinct y give
    distinct x, so a vertex costs H dot products, not n.
    """
    n = _point_count(q, k)
    _check_edge_count(n * (n // q) // 2)  # n = q·H + 1
    pts = projective_points(q, k)
    field = GaloisField(q)
    index = {p: i for i, p in enumerate(pts)}
    ys = [p[1:] for p in pts[: len(pts) // q]]  # the H points whose first coordinate is 0
    minus_one = next(a for a in range(q) if field.add(a, 1) == 0)
    adj = []
    for i, p in enumerate(pts):
        s = max(j for j, c in enumerate(p) if c)
        rest = p[:s] + p[s + 1 :]
        scale = field.mul(minus_one, field.inv(p[s]))
        nbrs = [index[y[:s] + (field.mul(scale, field.dot(rest, y)),) + y[s:]] for y in ys]
        adj.append(tuple(sorted(j for j in nbrs if j != i)))
    return Graph(len(pts), tuple(adj))


def gen_cycle(n: int) -> Graph:
    """The cycle C_n, n >= 3."""
    _check_arg("n", n, 3)
    _check_vertex_count(n)
    return Graph(n, tuple([tuple(sorted(((v - 1) % n, (v + 1) % n))) for v in range(n)]))


def gen_named(family: str) -> Graph:
    """Fixed small graphs: 'h6', 'petersen', or 'k4'.

    h6 is the 6-cycle with its three length-3 chords (isomorphic to
    K_{3,3}); petersen is the standard outer-C5 / inner-pentagram drawing.
    """
    if family == "h6":
        edges = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4), (2, 5)]
        return Graph.from_edges(6, edges)
    if family == "petersen":
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(i, i + 5) for i in range(5)]
        edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return Graph.from_edges(10, edges)
    if family == "k4":
        return Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    raise GraphInputError(f"unknown graph family {reprlib.repr(family)} (h6, petersen, k4)")


def gen_random_regular(n: int, r: int, seed: int) -> Graph:
    """Seeded simple r-regular graph via the pairing model.

    Stubs are matched one at a time against a uniformly chosen compatible
    stub (no self-loops, no repeated edges); a dead end discards the whole
    attempt, and MAX_ATTEMPTS dead ends raise ResourceLimitError.
    Deterministic for a fixed seed.  An attempt takes O(n r^2 log n) time.
    """
    _check_arg("n", n, 0)
    _check_arg("r", r, 0)
    _check_arg("seed", seed)
    if n * r % 2 != 0:
        raise GraphInputError(f"n*r must be even, got n={_show(n)}, r={_show(r)}")
    if r > 0 and r >= n:
        raise GraphInputError(f"need r < n, got n={_show(n)}, r={_show(r)}")
    _check_vertex_count(n)
    _check_edge_count(n * r // 2)
    rng = random.Random(seed)
    for _ in range(MAX_ATTEMPTS):
        nbrs = _pairing_attempt(n, r, rng)
        if nbrs is not None:
            # made while every list is alive, the tuples lie in vertex order
            return Graph(n, tuple([tuple(sorted(a)) for a in nbrs]))
    raise ResourceLimitError(
        f"no simple {r}-regular graph found on {n} vertices in {MAX_ATTEMPTS} attempts"
    )


def _pairing_attempt(n: int, r: int, rng: random.Random) -> list[list[int]] | None:
    """Neighbour lists in matching order; None when the lowest live stub has no partner.

    The live stubs form a list sorted by vertex; each pairing matches its
    first stub, of the lowest vertex u with one left, to the i-th of the
    compatible stubs (neither u's nor a current neighbour's), with i drawn
    by ``rng.randrange`` over their count.  A vertex's stubs are
    interchangeable, so only the vertex of the i-th compatible stub
    matters: a Fenwick tree (Fenwick 1994) over the live stub counts finds
    it in O(r log n) by skipping the blocked vertices' stubs in sorted
    order.  u's stubs leave the tree when u becomes the lowest, so each
    pairing updates the tree for its partner alone.
    """
    live = [r] * n
    tree = [0] + live  # tree[j] sums the live stubs of vertices j - (j & -j) .. j - 1
    for j in range(1, n + 1):
        if j + (j & -j) <= n:
            tree[j + (j & -j)] += tree[j]
    top = 1 << max(n.bit_length() - 1, 0)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    total = n * r  # live stubs in the tree
    for u in range(n):
        if not live[u]:
            continue
        j = u + 1
        while j <= n:
            tree[j] -= live[u]
            j += j & -j
        total -= live[u]
        while live[u]:
            # u is the lowest vertex with a live stub, so its live neighbours lie above it
            blocked = sorted(w for w in nbrs[u] if live[w])
            compatible = total - sum(live[w] for w in blocked)
            if not compatible:
                return None
            i = rng.randrange(compatible)
            for w in blocked:
                below = 0  # live stubs of the vertices below w
                j = w
                while j:
                    below += tree[j]
                    j &= j - 1
                if below > i:
                    break
                i += live[w]
            v = 0  # the vertex holding live stub i
            step = top
            while step:
                if v + step <= n and tree[v + step] <= i:
                    v += step
                    i -= tree[v]
                step >>= 1
            nbrs[u].append(v)
            nbrs[v].append(u)
            live[u] -= 1
            live[v] -= 1
            j = v + 1
            while j <= n:
                tree[j] -= 1
                j += j & -j
            total -= 1
    return nbrs


def _check_edge_count(m: int) -> None:
    if m > MAX_EDGES:
        raise ResourceLimitError(f"graph has up to {_show(m)} edges (limit {MAX_EDGES})")


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    i = 2
    while i * i <= q:
        if q % i == 0:
            return False
        i += 1
    return True


def _build_tables(
    p: int, deg: int, poly: tuple[int, ...]
) -> tuple[list[list[int]], list[list[int]]]:
    """Addition and multiplication tables for GF(p^deg) with the given
    irreducible polynomial."""
    q = p**deg

    def digits(a: int) -> list[int]:
        out = []
        for _ in range(deg):
            out.append(a % p)
            a //= p
        return out

    def undigits(ds: list[int]) -> int:
        total = 0
        for c in reversed(ds):
            total = total * p + c
        return total

    add = [[0] * q for _ in range(q)]
    mul = [[0] * q for _ in range(q)]
    for a in range(q):
        for b in range(q):
            da, db = digits(a), digits(b)
            add[a][b] = undigits([(ca + cb) % p for ca, cb in zip(da, db)])
            prod = [0] * (2 * deg - 1)
            for i, ca in enumerate(da):
                if ca:
                    for j, cb in enumerate(db):
                        prod[i + j] = (prod[i + j] + ca * cb) % p
            # reduce modulo the irreducible polynomial (monic, degree deg)
            for i in range(len(prod) - 1, deg - 1, -1):
                c = prod[i]
                if c:
                    prod[i] = 0
                    for j in range(deg):
                        prod[i - deg + j] = (prod[i - deg + j] - c * poly[j]) % p
            mul[a][b] = undigits(prod[:deg])
    return add, mul
