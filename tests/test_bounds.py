import decimal
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from trimoves.bounds import (
    _DIRECT_BITS,
    MAX_BOUND_DIGITS,
    ManifoldData,
    barymoves_bound,
    commonsub_bound,
    compute_report,
    depth_m,
    depth_mprime,
    reduction_sum_bound,
    inj_lower,
    bridge_sum_bound,
    mu,
    sphere_volume,
    total_bound,
    volhyp_m,
    _text,
)
from trimoves.geometry import Geometry
from trimoves.subdivision import ResourceCapExceeded


def convexity_radius_chain(l_c: Fraction) -> tuple[Fraction, Fraction]:
    """(r, inj) from the shortest closed geodesic: r = inj/2 = l_c/4, exact."""
    l_c = Fraction(l_c)
    if l_c <= 0:
        raise ValueError("geodesic length must be positive")
    inj = l_c / 2
    return inj / 2, inj


E, S, H = Geometry.EUCLIDEAN, Geometry.SPHERICAL, Geometry.HYPERBOLIC


def naive_power(base: int, exp: int) -> int:
    out = 1
    for _ in range(exp):
        out *= base
    return out


def naive_factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


class TestMu:
    def test_euclidean(self):
        assert mu(E, 3) == 4

    def test_spherical(self):
        assert mu(S, 2) == 5

    def test_hyperbolic(self):
        got = mu(H, 2, 1.0)
        with mp.workdps(60):
            want = mp.mpf(2) * mp.cosh(1) + 1
            assert abs(got - want) < mp.mpf("1e-45")
        assert float(got) == pytest.approx(4.086161, abs=1e-6)


class TestDepth:
    def test_nonpositive_log_clamps(self):
        assert depth_m(4, 1.0, 2.0) == 1

    def test_exact_integer_boundary(self):
        # mu ln(lam/inj) = 4 exactly: smallest strictly greater integer is 5
        assert depth_m(4, mp.e, 1.0) == 5

    def test_strictly_greater(self):
        m = depth_m(3.5, 2.0, 1.0)
        assert m > 3.5 * math.log(2.0)
        assert m - 1 <= 3.5 * math.log(2.0)

    def test_mprime(self):
        assert depth_mprime(3, 3) == 16
        assert depth_mprime(40, 3) == 40


class TestInjLower:
    def test_euclidean_reduction_n2(self):
        # vol(S^2) = 4 pi, so the bound reduces to vol / (4 diam)
        got = inj_lower(E, 2, 3.0, 1.5)
        assert float(got) == pytest.approx(3.0 / (4 * 1.5), rel=1e-12)

    def test_sphere_volume_closed_form(self):
        assert float(sphere_volume(2)) == pytest.approx(4 * math.pi, rel=1e-12)
        assert float(sphere_volume(3)) == pytest.approx(2 * math.pi**2, rel=1e-12)

    def test_hyperbolic_n3(self):
        got = inj_lower(H, 3, 1.0, 1.0)
        want = math.pi / (math.sinh(1.0) ** 2 * 2 * math.pi**2)
        assert float(got) == pytest.approx(want, abs=1e-9)

    def test_radius_chain(self):
        r, inj = convexity_radius_chain(Fraction(7, 3))
        assert inj == Fraction(7, 6)
        assert r == Fraction(7, 12)
        assert r == inj / 2 == Fraction(7, 3) / 4


class TestExactBounds:
    def test_total_bound_oracle(self):
        # independent big-integer oracle by repeated multiplication
        got = total_bound(2, 1, 1, 8)
        want = naive_power(2, 2) * naive_power(naive_factorial(3), 28) * 1 * 1 * 2
        assert got == want == 8 * 6**28

    def test_total_bound_monotone(self):
        base = total_bound(2, 3, 4, 8)
        assert total_bound(3, 3, 4, 8) > base
        assert total_bound(2, 4, 4, 8) > base
        assert total_bound(2, 3, 5, 8) > base
        assert total_bound(2, 3, 4, 9) > base

    def test_total_bound_n1_shape(self):
        assert total_bound(1, 3, 5, 7) == 2 * 2 ** (4 + 21) * 3 * 5 * 8

    def test_barymoves(self):
        assert barymoves_bound(2, 0, 4) == 36 * 16
        assert barymoves_bound(2, 1, 1) == 6**4

    def test_digit_cap_is_exact_and_checked_first(self):
        # barymoves_bound(2, m, 1) = 6^(2m+2), with floor((2m+2) log10 6) + 1
        # digits: m = 642,547 gives exactly MAX_BOUND_DIGITS digits and is
        # built, the next m is refused, and so is an exponent far too large
        # to build or to convert to a float
        assert MAX_BOUND_DIGITS == 1_000_000
        v = barymoves_bound(2, 642_547, 1)
        assert 10 ** (MAX_BOUND_DIGITS - 1) <= v < 10**MAX_BOUND_DIGITS
        with pytest.raises(ResourceCapExceeded, match="barymoves_bound"):
            barymoves_bound(2, 642_548, 1)
        with pytest.raises(ResourceCapExceeded, match="barymoves_bound"):
            barymoves_bound(2, 10**400, 1)
        with pytest.raises(ResourceCapExceeded, match="total_bound"):
            total_bound(30, 10, 12, depth_mprime(1, 30))

    def test_cross_check_small_range(self):
        for n in range(1, 7):
            for mprime in (1, 5, 20):
                got = total_bound(n, 2, 3, mprime)
                want = (
                    naive_power(2, n)
                    * naive_power(naive_factorial(n + 1), 4 + 3 * mprime)
                    * 2 * 3 * 5
                )
                assert got == want


class TestSumBounds:
    def test_reduction_sum_bound_n2(self):
        p = (4, 6, 4)
        s = (0, 6, 4)
        # 1! p0 s1 + 0! p_{-1} s2 with p_{-1} = 1
        assert reduction_sum_bound(2, p, s) == 1 * 4 * 6 + 1 * 1 * 4

    def test_identity_subdivision_conventions(self):
        # s_i = p_i reproduces the m = 0 barycentric layer shape
        p = (4, 6, 4)
        assert reduction_sum_bound(2, p, p) <= barymoves_bound(2, 0, 4)

    def test_zero_s(self):
        assert reduction_sum_bound(3, (4, 6, 4, 1), (0, 0, 0, 0)) == 0
        assert bridge_sum_bound(3, (4, 6, 4, 1), (0, 0, 0, 0)) == 0

    def test_bridge_sum_uses_two_vertex_ridge_links(self):
        p = (999, 6, 4)  # actual vertex count ignored in favour of p_0 = 2
        s = (0, 5, 7)
        want = 1 * (2 * 2) * 2 * 5 + 1 * 36 * 1 * 7
        # terms: i=1: (n-i)! (i+1)!^2 p_0 s_1 = 1 * 4 * 2 * 5
        #        i=2: 0! * 36 * p_{-1} * 7
        assert bridge_sum_bound(2, p, s) == 1 * 4 * 2 * 5 + 36 * 7 == want

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            reduction_sum_bound(2, (1, 2), (0, 0, 0))

    def test_commonsub_bound(self):
        assert commonsub_bound(2, 2, 1, 1) == 3 * 36


class TestVolhyp:
    def test_n3_orientable_reference(self):
        # 50-digit reference evaluation of the n = 3 formula with w = 0.9427
        with mp.workdps(60):
            x = (3 * mp.cosh(1) ** 2 + 1) * mp.log(2 * mp.pi * 10 * 1 / mp.mpf("0.9427"))
            want = int(mp.floor(x)) + 1
        assert volhyp_m(3, 10, 1.0) == want

    def test_even_branch_has_power_floor(self):
        assert volhyp_m(4, 10, 1.0) >= 2**5 + 1

    def test_general_branch(self):
        m = volhyp_m(5, 10, 1.0)
        assert m >= 2**6 + 1

    def test_domain(self):
        with pytest.raises(ValueError):
            volhyp_m(1, 10, 1.0)


class TestReport:
    def test_reproducible(self):
        data = ManifoldData(H, 3, 1.0, 10, 12, vol=1.0, diam=2.0)
        r1 = compute_report(data)
        r2 = compute_report(data)
        assert r1.to_json() == r2.to_json()

    def test_diam_substitution_note(self):
        data = ManifoldData(E, 2, 0.5, 18, 18, vol=1.0)
        rep = compute_report(data)
        assert any("p*lam" in n for n in rep.notes)

    def test_integers_exact(self):
        data = ManifoldData(E, 2, 0.5, 18, 18, inj=0.25)
        rep = compute_report(data)
        assert isinstance(rep.values["total_bound"], int)
        assert rep.values["total_bound"] == total_bound(2, 18, 18, rep.mprime)

    def test_spherical_lam_guard(self):
        with pytest.raises(ValueError):
            ManifoldData(S, 2, 2.0, 3, 3)


class TestExactText:
    """``_text`` converts big integers by divide and conquer; it must give
    ``str(Decimal(v))`` digit for digit."""

    def assert_text(self, v):
        assert _text(v) == str(decimal.Decimal(v)), v

    def test_small_and_decimal_boundaries(self):
        for v in (0, 1, 9, 10):
            self.assert_text(v)
        # 2^4096 has 1,234 digits, 2^8192 has 2,467
        for k in (1, 100, 1233, 1234, 1300, 2466, 2467, 5000, 12_345):
            self.assert_text(10**k - 1)
            self.assert_text(10**k)
            self.assert_text(-(10**k))

    def test_powers_of_two_near_the_split(self):
        for k in range(_DIRECT_BITS - 3, _DIRECT_BITS + 4):
            for k2 in (k, 2 * k, 4 * k + 1):
                for v in (2**k2 - 1, 2**k2, 2**k2 + 1):
                    self.assert_text(v)

    def test_seeded_random_integers(self):
        rng = random.Random(20)
        for _ in range(40):
            digits = rng.randint(1, 20_000)
            self.assert_text(rng.randrange(10 ** (digits - 1), 10**digits))
