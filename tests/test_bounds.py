import math
import sys
import time
from fractions import Fraction

import pytest

from limpack import GraphInputError, auto_sample_rate, bound_sheet


def test_cubic_k2_random_lower_closed_form():
    sheet = bound_sheet(100, 3, 3, 2)
    assert sheet.random_lower == pytest.approx(100 / (3 * math.sqrt(3)), rel=1e-12)
    assert sheet.random_lower == pytest.approx(19.245008972987527, rel=1e-12)


def test_cubic_k1_greedy_lower():
    sheet = bound_sheet(100, 3, 3, 1)
    assert sheet.greedy_lower == Fraction(100, 10)
    assert bound_sheet(100, 3, 3, 2).greedy_lower is None


def test_cubic_upper_half():
    sheet = bound_sheet(100, 3, 3, 2)
    assert sheet.packing_upper == Fraction(100, 2)


def test_simple_form_value():
    sheet = bound_sheet(100, 3, 3, 2)
    expected = 100 * 2 / (math.e * 3 ** 1.5)
    assert sheet.random_lower_simple == pytest.approx(expected, rel=1e-12)
    assert sheet.random_lower_simple == pytest.approx(14.159686, rel=1e-6)


def test_alt_form_equals_binomial_form():
    # (k+1) C(D+1, k+1) == (D+1) C(D, k) makes both factorizations agree
    for max_deg in range(1, 12):
        for k in range(1, max_deg + 1):
            sheet = bound_sheet(60, max_deg, max_deg, k)
            assert sheet.random_lower == pytest.approx(sheet.random_lower_alt, rel=1e-12)


def test_k_above_max_degree_reports_exact():
    sheet = bound_sheet(17, 3, 3, 4)
    assert sheet.exact_value == 17
    assert sheet.random_lower is None
    assert bound_sheet(17, 3, 3, 3).exact_value is None


def test_lower_bounds_below_upper_when_regular():
    for r in range(1, 8):
        for k in range(1, r + 2):
            sheet = bound_sheet(90, r, r, k)
            for low in sheet.lower_bounds():
                assert float(low) <= float(sheet.packing_upper) + 1e-9


def test_binomial_form_dominates_simple_form():
    # the chain binomial-form >= simple-form needs k >= 2 (it reverses at
    # k = 1, where the simple form is instead dominated by the greedy bound)
    for r in range(2, 10):
        for k in range(2, r + 1):
            sheet = bound_sheet(90, r, r, k)
            assert sheet.random_lower >= sheet.random_lower_simple - 1e-9
            assert float(sheet.packing_upper) >= sheet.random_lower - 1e-9
    one = bound_sheet(90, 2, 2, 1)
    assert one.random_lower_simple <= float(one.greedy_lower) + 1e-9


def test_double_domination_bounds():
    sheet = bound_sheet(30, 3, 3, 2)
    expected_avg = (math.log(4) + math.log(3) + 1) * 30 / 3
    expected_min = expected_avg  # min degree equals average degree here
    assert sheet.double_dom_upper_avg == pytest.approx(expected_avg, rel=1e-12)
    assert sheet.double_dom_upper_min == pytest.approx(expected_min, rel=1e-12)
    assert not sheet.double_dom_upper_useful  # not useful in the cubic case
    assert sheet.double_dom_upper_avg > 30  # exceeds n, hence not useful
    other = bound_sheet(30, 5, 4, 2, avg_degree=4.5)
    assert other.double_dom_upper_useful


def test_cubic_reference_values():
    sheet = bound_sheet(14, 3, 3, 2)
    assert sheet.cubic_quarter_lower == Fraction(14, 4)
    sheet3 = bound_sheet(14, 3, 3, 3)
    assert sheet3.cubic_l3_lower == Fraction(9 * 14, 14)
    assert bound_sheet(14, 3, 1, 3).cubic_l3_lower is None
    assert bound_sheet(14, 4, 4, 2).cubic_quarter_lower is None


def test_errors():
    with pytest.raises(GraphInputError):
        bound_sheet(10, 3, 3, 0)
    with pytest.raises(GraphInputError):
        bound_sheet(-1, 3, 3, 1)
    with pytest.raises(GraphInputError):
        bound_sheet(10, 2, 3, 1)


def test_empty_graph_sheet():
    sheet = bound_sheet(0, 0, 0, 1)
    assert sheet.exact_value == 0
    assert sheet.packing_upper == 0


def test_to_text_deterministic():
    a = bound_sheet(60, 3, 3, 2).to_text()
    b = bound_sheet(60, 3, 3, 2).to_text()
    assert a == b
    assert "random_lower:" in a and "packing_upper: 30" in a


def _log_comb(d, k):
    return math.lgamma(d + 1) - math.lgamma(k + 1) - math.lgamma(d - k + 1)


@pytest.mark.parametrize(
    "n,d,k", [(10_001, 10**4, 200), (10**6, 10**5, 100), (50, 10**4, 10**4 // 2)]
)
def test_random_lower_beyond_float_range(n, d, k):
    """From D = 10^4, k >= 133 on, C(D,k)*(D+1) exceeds a float; the k-th
    root is then taken in log space, and agrees with lgamma."""
    assert math.comb(d, k) * (d + 1) > sys.float_info.max
    sheet = bound_sheet(n, d, 1, k)
    expected = n * k / (k + 1) * math.exp(-(_log_comb(d, k) + math.log(d + 1)) / k)
    assert sheet.random_lower == pytest.approx(expected, rel=1e-9)
    assert sheet.random_lower_alt == sheet.random_lower
    simple = n * k / (math.e * d ** (1 + 1 / k))
    assert sheet.random_lower_simple == pytest.approx(simple, rel=1e-12)
    rate = auto_sample_rate(d, k)
    assert rate == pytest.approx(sheet.random_lower * (k + 1) / (n * k), rel=1e-12)


def test_auto_rate_beyond_float_range():
    assert auto_sample_rate(10**4, 200) == pytest.approx(0.00722, abs=5e-6)


def test_log_space_root_meets_float_root():
    """Just below the float limit (D = 10^4, k = 132) the float expressions
    still run, and the log-space root gives the same value."""
    d, k = 10**4, 132
    base = math.comb(d, k) * (d + 1)
    assert base < sys.float_info.max
    log_root = math.exp(-math.log(base) / k)
    expected = 100 * k / (k + 1) * log_root
    assert bound_sheet(100, d, 1, k).random_lower == pytest.approx(expected, rel=1e-12)
    assert auto_sample_rate(d, k) == pytest.approx(log_root, rel=1e-12)


# C(D,k) of 2^16 to 2^18 bits: beyond _EXACT_BITS, yet still cheap to build here
LOG_SPACE_GRID = [(10**5, 20_000), (10**5, 50_000), (10**7, 6_000), (10**7, 20_000),
                  (10**300, 70), (10**300, 250)]


@pytest.mark.parametrize("d,k", LOG_SPACE_GRID)
def test_log_space_binomial_matches_exact(d, k):
    """Above 2^16 bits C(D,k) is not built; the root from its floating-point
    logarithm agrees with the exact integer's."""
    exact = math.comb(d, k)
    assert 2**16 < exact.bit_length() <= 2**18
    root = math.exp(-math.log(exact * (d + 1)) / k)
    assert auto_sample_rate(d, k) == pytest.approx(root, rel=1e-9)
    sheet = bound_sheet(1000, d, 1, k)
    assert sheet.random_lower == pytest.approx(1000 * k / (k + 1) * root, rel=1e-9)
    assert sheet.random_lower_alt == sheet.random_lower


@pytest.mark.parametrize("d,k", [(10**4, 200), (10**5, 15_000), (10**300, 60)])
def test_exact_binomial_up_to_two_to_the_sixteen_bits(d, k):
    """Up to 2^16 bits C(D,k) is built, and the root is the one taken from
    the exact integer, bit for bit."""
    base = math.comb(d, k) * (d + 1)
    assert math.comb(d, k).bit_length() <= 2**16 and base > sys.float_info.max
    root = math.exp((-1.0 / k) * math.log(base))
    assert auto_sample_rate(d, k) == root
    assert bound_sheet(1000, d, 1, k).random_lower == 1000 * k / (k + 1) * root


@pytest.mark.parametrize("d,k", [(10**7, 5 * 10**6), (10**6, 5 * 10**5), (10**300, 10**5)])
def test_large_binomial_is_fast(d, k):
    """math.comb(10**6, 5 * 10**5) alone takes over 10 s."""
    start = time.perf_counter()
    sheet = bound_sheet(10**7, d, 1, k)
    rate = auto_sample_rate(d, k)
    assert time.perf_counter() - start < 1.0
    assert rate == pytest.approx(sheet.random_lower * (k + 1) / (10**7 * k), rel=1e-12)


def test_simple_form_beyond_float_range():
    """D^(1+1/k) above a float, with D itself a float: log space again."""
    sheet = bound_sheet(10**300, 10**200, 10**200, 1)
    assert sheet.random_lower_simple == pytest.approx(1e-100 / math.e, rel=1e-9)


@pytest.mark.parametrize(
    "n,d,k", [(10**400, 3, 1), (10**300, 3, 10**9), (1, 10**309, 1)], ids=["n", "n*k", "degree"]
)
def test_float_range_exceeded(n, d, k):
    with pytest.raises(GraphInputError, match="must be at most"):
        bound_sheet(n, d, 1, k)
