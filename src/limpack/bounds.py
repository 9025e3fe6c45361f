"""Closed-form bound sheet for packing and double-domination numbers.

Rational bounds are kept exact as fractions; bounds involving k-th roots
or logarithms are 64-bit floats (the root is evaluated in double
precision, relative error well under 1e-12 at desk scale).  A base too
large for a float, as C(D,k)*(D+1) is at large D and k, has its root
taken in log space instead; C(D,k) itself is built exactly only up to
2^16 bits, and beyond that its logarithm is taken in floating point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional, Union

from .errors import GraphInputError, _check_arg, _show

Value = Union[Fraction, float]

# C(D,k) is built exactly only up to this many bits, which takes at most
# about 0.1 s; math.comb(10**6, 5 * 10**5), a million bits, takes 12 s.
_EXACT_BITS = 2**16


@dataclass(frozen=True)
class BoundSheet:
    """Every closed-form bound that applies to (n, max_degree, min_degree, k).

    Lower bounds on the largest k-limited packing:
      * exact_value - n itself, reported exactly when k > max_degree;
      * greedy_lower - n/(max_degree^2 + 1), the greedy guarantee, k = 1 only;
      * random_lower - n*k / ((k+1) * (C(D,k)*(D+1))^(1/k)) from random
        sampling with repair, k <= max_degree;
      * random_lower_alt - the same bound factored through C(D+1,k+1);
      * random_lower_simple - the weaker closed form n*k / (e * D^(1+1/k)).

    Upper bounds:
      * packing_upper - k*n/(min_degree + 1) by double counting;
      * double_dom_upper_avg / double_dom_upper_min - upper bounds on the
        smallest double dominating set via the average and the minimum
        degree; `double_dom_upper_useful` is False in the cubic case
        min_degree = avg_degree = 3 where both exceed n.

    Cubic reference values (max_degree = 3 only):
      * cubic_quarter_lower - the n/4 reference lower bound for k = 2,
        superseded by the constructive n/3 guarantee; no construction
        attached;
      * cubic_l3_lower - 9n/14, the k = 3 guarantee dual to the 5n/14
        domination bound for connected cubic graphs.
    """

    n: int
    max_degree: int
    min_degree: int
    k: int
    avg_degree: float
    tuple_l: int
    exact_value: Optional[int]
    greedy_lower: Optional[Fraction]
    random_lower: Optional[float]
    random_lower_alt: Optional[float]
    random_lower_simple: Optional[float]
    packing_upper: Fraction
    double_dom_upper_avg: Optional[float]
    double_dom_upper_min: Optional[float]
    double_dom_upper_useful: bool
    cubic_quarter_lower: Optional[Fraction]
    cubic_l3_lower: Optional[Fraction]

    def lower_bounds(self) -> list[Value]:
        """All applicable lower bounds on the largest k-limited packing."""
        out: list[Value] = []
        if self.exact_value is not None:
            out.append(Fraction(self.exact_value))
        for v in (self.greedy_lower, self.random_lower, self.random_lower_alt,
                  self.random_lower_simple, self.cubic_quarter_lower,
                  self.cubic_l3_lower):
            if v is not None:
                out.append(v)
        return out

    def to_text(self) -> str:
        def fmt(v):
            if v is None:
                return "n/a"
            if isinstance(v, bool):
                return "true" if v else "false"
            if isinstance(v, Fraction):
                return str(v)
            return repr(v)

        return "".join(f"{f.name}: {fmt(getattr(self, f.name))}\n" for f in fields(self))


def bound_sheet(
    n: int,
    max_degree: int,
    min_degree: int,
    k: int,
    avg_degree: Optional[float] = None,
) -> BoundSheet:
    """Evaluate every closed-form bound for the given degree data.

    Binomial coefficients of at most 2^16 bits are computed exactly before
    any floating-point conversion; larger ones go by their logarithm.
    avg_degree defaults to min_degree (exact for regular graphs); pass the
    true average when it is known.  It must lie in [min_degree, max_degree],
    as a graph's average degree does.
    """
    _check_arg("n", n, 0)
    _check_arg("max_degree", max_degree)
    _check_arg("min_degree", min_degree)
    _check_arg("k", k, 1)
    if max_degree < min_degree or min_degree < 0:
        raise GraphInputError(
            f"need max_degree >= min_degree >= 0, got {_show(max_degree)}, {_show(min_degree)}"
        )
    if max(n * k, max_degree) > sys.float_info.max:
        raise GraphInputError(f"n*k and max_degree must be at most {sys.float_info.max!r}")
    if avg_degree is not None:
        _check_arg("avg_degree", avg_degree, min_degree, max_degree, number=True)
    d = float(min_degree) if avg_degree is None else float(avg_degree)

    exact_value = n if k > max_degree else None
    greedy_lower = Fraction(n, max_degree**2 + 1) if k == 1 else None

    random_lower = random_lower_alt = random_lower_simple = None
    if k <= max_degree:
        # C(D,k)*(D+1) == (k+1)*C(D+1,k+1), the base of the alternative form
        base, root = _sampling_base(max_degree, k)
        if base is None:  # base beyond a float: its root in log space
            random_lower = random_lower_alt = n * k / (k + 1) * root
        else:
            random_lower = n * k / ((k + 1) * base ** (1.0 / k))
            random_lower_alt = n * k / (k + 1) * (1.0 / base) ** (1.0 / k)
        try:
            random_lower_simple = n * k / (math.e * max_degree ** (1.0 + 1.0 / k))
        except OverflowError:
            random_lower_simple = n * k / math.e * _power(max_degree, -1.0 - 1.0 / k)

    packing_upper = Fraction(k * n, min_degree + 1)

    double_dom_upper_avg = double_dom_upper_min = None
    if min_degree >= 1:
        double_dom_upper_avg = (math.log(1.0 + d) + math.log(min_degree) + 1.0) * n / min_degree
        double_dom_upper_min = (
            (math.log(1.0 + min_degree) + math.log(min_degree) + 1.0) * n / min_degree
        )
    double_dom_upper_useful = not (min_degree == 3 and d == 3.0)

    # n/4 is implied by the constructive n/3 guarantee for any max-degree-3
    # graph; 9n/14 is dual to a domination bound proved for 3-regular graphs
    # only, so it additionally requires min_degree == 3.
    cubic_quarter_lower = Fraction(n, 4) if (max_degree == 3 and k == 2) else None
    cubic_l3_lower = (
        Fraction(9 * n, 14) if (max_degree == 3 and min_degree == 3 and k == 3) else None
    )

    return BoundSheet(
        n=n,
        max_degree=max_degree,
        min_degree=min_degree,
        k=k,
        avg_degree=d,
        tuple_l=2,
        exact_value=exact_value,
        greedy_lower=greedy_lower,
        random_lower=random_lower,
        random_lower_alt=random_lower_alt,
        random_lower_simple=random_lower_simple,
        packing_upper=packing_upper,
        double_dom_upper_avg=double_dom_upper_avg,
        double_dom_upper_min=double_dom_upper_min,
        double_dom_upper_useful=double_dom_upper_useful,
        cubic_quarter_lower=cubic_quarter_lower,
        cubic_l3_lower=cubic_l3_lower,
    )


def _sampling_base(max_degree: int, k: int) -> tuple[Optional[int], float]:
    """C(D,k)*(D+1) and its (-1/k)-th power, for 1 <= k <= D <= the float
    maximum.  The int is None unless it fits in a float; beyond that the
    power is taken through math.log of the exact int while C(D,k) has at
    most _EXACT_BITS bits, and through _log_comb above that."""
    log_comb = _log_comb(max_degree, min(k, max_degree - k))  # C(D,k) == C(D,D-k)
    if log_comb > _EXACT_BITS * math.log(2):
        return None, math.exp(-(log_comb + math.log(max_degree + 1)) / k)
    base = math.comb(max_degree, k) * (max_degree + 1)
    try:
        return base, base ** (-1.0 / k)
    except OverflowError:
        return None, _power(base, -1.0 / k)


def _log_comb(d: int, j: int) -> float:
    """log C(d, j) in floating point, for 0 <= j <= d/2.  log(d!/(d-j)!)
    comes from Stirling's series written with log1p, which keeps its
    digits when d is far above j; a plain lgamma difference loses them
    all there (lgamma(d+1) is about 7e302 at d = 10^300)."""
    y = d - j
    return (
        j * math.log(d) - (y + 0.5) * math.log1p(-j / d) - j
        + (1 / d - 1 / y) / 12 - math.lgamma(j + 1)
    )


def _power(x: int, e: float) -> float:
    """x ** e for an int x >= 1, by way of math.log, which takes an int
    too large for a float."""
    return math.exp(e * math.log(x))
