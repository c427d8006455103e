"""Exact evaluation of the move-count bounds and radius relations.

Factorial and power expressions are evaluated in exact big-integer
arithmetic.  Transcendentals (ln, cosh, sinh, sin, Gamma) are evaluated at
50 significant digits via mpmath; where a bound direction depends on a
rounding, the rounding is taken conservatively so the reported bound is
never understated.
"""
from __future__ import annotations

import decimal
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import mpmath as mp

from .geometry import Geometry
from .subdivision import ResourceCapExceeded

DPS = 50
_GUARD = 10  # extra working digits
MAX_BOUND_DIGITS = 1_000_000  # decimal digits of the largest bound evaluated exactly


def _mpf(x) -> mp.mpf:
    with mp.workdps(DPS + _GUARD):
        return mp.mpf(x)


def mu(tag: Geometry, n: int, lam: Optional[float] = None) -> mp.mpf:
    """Subdivision-depth coefficient: n+1, 2n+1, or n cosh^(n-1)(lam) + 1."""
    with mp.workdps(DPS + _GUARD):
        if tag == Geometry.EUCLIDEAN:
            return mp.mpf(n + 1)
        if tag == Geometry.SPHERICAL:
            return mp.mpf(2 * n + 1)
        if lam is None:
            raise ValueError("hyperbolic mu needs the edge bound")
        return n * mp.cosh(lam) ** (n - 1) + 1


def depth_m(mu_value, lam: float, inj: float) -> int:
    """Smallest positive integer strictly greater than mu ln(lam/inj).

    When the logarithm is non-positive the clamp m >= 1 keeps at least one
    subdivision in the pipeline before strong-convexity checks.
    """
    if lam <= 0 or inj <= 0:
        raise ValueError("lam and inj must be positive")
    with mp.workdps(DPS + _GUARD):
        x = _mpf(mu_value) * mp.log(_mpf(lam) / _mpf(inj))
        # conservative upward guard: a representation error just below an
        # integer must not shrink m below the exact-value answer
        m = int(mp.floor(x + mp.mpf("1e-40"))) + 1
    return max(1, m)


def depth_mprime(m: int, n: int) -> int:
    return max(2 ** (n + 1), m)


def sphere_volume(n: int) -> mp.mpf:
    """Volume of the round unit n-sphere: 2 pi^((n+1)/2) / Gamma((n+1)/2)."""
    with mp.workdps(DPS + _GUARD):
        return 2 * mp.pi ** (mp.mpf(n + 1) / 2) / mp.gamma(mp.mpf(n + 1) / 2)


def inj_lower(tag: Geometry, n: int, vol: float, diam: float) -> mp.mpf:
    """Injectivity radius lower bound pi vol / (delta vol(S^n)) with delta
    the (sin/sinh-adjusted) diameter term of the closed-geodesic bound."""
    if vol <= 0 or diam <= 0:
        raise ValueError("vol and diam must be positive")
    with mp.workdps(DPS + _GUARD):
        d = _mpf(diam)
        if tag == Geometry.EUCLIDEAN:
            delta = d
        elif tag == Geometry.SPHERICAL:
            delta = mp.sin(d) ** (n - 1)
        else:
            delta = mp.sinh(d) ** (n - 1)
        return mp.pi * _mpf(vol) / (delta * sphere_volume(n))


def _check_digits(name: str, n: int, exponent: int, log10_rest: float) -> None:
    """Raise ResourceCapExceeded unless (n+1)!^exponent times a factor with
    base-10 logarithm ``log10_rest`` has at most MAX_BOUND_DIGITS digits.

    The digit count floor(log10 x) + 1 is predicted in floats before the
    power is built.  (n+1)! >= 2 adds more than a quarter digit per unit of
    exponent, so a larger exponent than 4 * MAX_BOUND_DIGITS is over the cap
    and is never converted to a float."""
    if exponent > 4 * MAX_BOUND_DIGITS:
        log10_x = math.inf
    else:
        log10_x = exponent * math.lgamma(n + 2) / math.log(10) + log10_rest
    if log10_x >= MAX_BOUND_DIGITS:
        raise ResourceCapExceeded(
            f"{name} would have more than {MAX_BOUND_DIGITS} digits "
            f"((n+1)! to the power {exponent}, n = {n})"
        )


def total_bound(n: int, p: int, q: int, mprime: int) -> int:
    """2^n (n+1)!^(4+3m') p q (p+q), exactly; ResourceCapExceeded when it
    would have more than MAX_BOUND_DIGITS digits."""
    if min(n, p, q, mprime) <= 0:
        raise ValueError("all arguments must be positive")
    exponent = 4 + 3 * mprime
    _check_digits(
        "total_bound", n, exponent,
        n * math.log10(2) + math.log10(p) + math.log10(q) + math.log10(p + q),
    )
    return 2**n * math.factorial(n + 1) ** exponent * p * q * (p + q)


def barymoves_bound(n: int, m: int, p: int) -> int:
    """(n+1)!^(2m+2) p^2, exactly; ResourceCapExceeded when it would have
    more than MAX_BOUND_DIGITS digits."""
    if n <= 0 or m < 0 or p <= 0:
        raise ValueError("need n, p positive and m non-negative")
    _check_digits("barymoves_bound", n, 2 * m + 2, 2 * math.log10(p))
    return math.factorial(n + 1) ** (2 * m + 2) * p * p


def reduction_sum_bound(n: int, p_vector, s_vector) -> int:
    """sum_{i=1..n} (n-i)! p_{n-i-1} s_i with the convention p_{-1} = 1.

    ``p_vector`` supplies the actual counts (p_0, ..., p_n); ``s_vector``
    supplies (s_0, ..., s_n) of which only s_1..s_n are used.
    """
    p = list(p_vector)
    s = list(s_vector)
    if len(p) != n + 1 or len(s) != n + 1:
        raise ValueError(f"expected vectors of length {n + 1}")
    return sum(reduction_level_bound(n, i, p, s[i]) for i in range(1, n + 1))


def reduction_level_bound(n: int, r: int, p_vector, s_r: int) -> int:
    """(n-r)! p_{n-r-1} s_r with p_{-1} = 1: the moves level r of the
    reduction may use."""
    return math.factorial(n - r) * (1 if r == n else p_vector[n - r - 1]) * s_r


def bridge_sum_bound(n: int, p_vector, s_vector) -> int:
    """sum_{i=1..n} (n-i)! (i+1)!^2 p_{n-i-1} s_i with p_0 := 2, p_{-1} := 1.

    The p_0 = 2 convention is used verbatim (the link of a ridge has exactly
    two vertices); the supplied p_vector entry 0 is ignored here and the
    substitution is reported by the caller rather than silently blended.
    """
    p = list(p_vector)
    s = list(s_vector)
    if len(p) != n + 1 or len(s) != n + 1:
        raise ValueError(f"expected vectors of length {n + 1}")

    def pi(i: int) -> int:
        if i == -1:
            return 1
        if i == 0:
            return 2
        return p[i]

    return sum(
        math.factorial(n - i) * math.factorial(i + 1) ** 2 * pi(n - i - 1) * s[i]
        for i in range(1, n + 1)
    )


def commonsub_bound(n: int, i: int, p_i: int, q_n: int) -> int:
    """(2^n - 1)(n+1)!^2 p_i q_n, exactly."""
    return (2**n - 1) * math.factorial(n + 1) ** 2 * p_i * q_n


def commonsub_rows(s1, s2, p, q) -> dict[int, list[dict]]:
    """The count bound s_i < (2^n - 1)(n+1)!^2 p_i q_n, or s_i = 0, on a
    common subdivision of K1 and K2, with f-vectors p and q: side 1 checks
    the skeleton counts s1 over K1 with (p_i, q_n), side 2 the counts s2
    over K2 with (q_i, p_n).  One row per i, by side."""
    n = len(p) - 1
    rows = {}
    for side, s, own, other in ((1, s1, p, q), (2, s2, q, p)):
        bounds = [commonsub_bound(n, i, own[i], other[n]) for i in range(n + 1)]
        rows[side] = [
            {"i": i, "s_i": s[i], "bound": b, "ok": s[i] < b or s[i] == 0}
            for i, b in enumerate(bounds)
        ]
    return rows


def commonsub_violation(rows: dict[int, list[dict]]) -> Optional[str]:
    """The first row of ``commonsub_rows`` over its bound, naming its side,
    i, s_i and the bound; None when every row holds."""
    bad = [(side, r) for side, side_rows in rows.items() for r in side_rows if not r["ok"]]
    if not bad:
        return None
    side, r = bad[0]
    return f"common subdivision, side {side}: s_{r['i']} = {r['s_i']} is not below its bound {r['bound']}"


W_HYPERBOLIC_3 = "0.9427"  # closed orientable hyperbolic 3-manifold volume floor


def volhyp_m(n: int, p: int, lam: float, *, orientable: bool = True) -> int:
    """Subdivision depth for closed hyperbolic manifolds from universal
    volume bounds, as the smallest qualifying integer.

    n = 3 and orientable uses the w = 0.9427 volume floor (no 2^(n+1) term
    in that branch); even n uses the Gauss-Bonnet variant; any other n > 2
    uses the universal lower volume bound, both under max(2^(n+1), .).
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    if p <= 0 or lam <= 0:
        raise ValueError("p and lam must be positive")
    with mp.workdps(DPS + _GUARD):
        lam_m = _mpf(lam)
        coeff = n * mp.cosh(lam_m) ** (n - 1) + 1
        guard = mp.mpf("1e-40")
        if n == 3 and orientable:
            x = coeff * mp.log(2 * mp.pi * p * lam_m**2 / mp.mpf(W_HYPERBOLIC_3))
            return int(mp.floor(x + guard)) + 1
        if n % 2 == 0:
            x = coeff * mp.log(2 * p * lam_m**2 / mp.pi)
        else:
            x = coeff * mp.log(
                2 * p * lam_m**2 * n * mp.mpf((n + 3) ** n) * mp.pi ** (n * (n - 1))
            )
        return max(2 ** (n + 1), int(mp.floor(x + guard))) + 1


# -- report assembly ----------------------------------------------------------


@dataclass
class ManifoldData:
    """Inputs for the bound calculator; optional fields unlock extra rows."""

    tag: Geometry
    n: int
    lam: float
    p: int
    q: int
    inj: Optional[float] = None
    vol: Optional[float] = None
    diam: Optional[float] = None
    lam_min: Optional[float] = None
    orientable: bool = True

    def __post_init__(self):
        if self.n < 1 or self.p < 1 or self.q < 1 or self.lam <= 0:
            raise ValueError("dimension, simplex counts and edge bound must be positive")
        if self.tag == Geometry.SPHERICAL and self.lam > math.pi / 2 + 1e-12:
            raise ValueError("spherical inputs require lam <= pi/2")
        for name in ("inj", "vol", "diam", "lam_min"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"{name} must be positive when present")


@dataclass
class BoundReport:
    """Every bound the calculator can evaluate on the given data.

    Integer-valued formulas are exact integers; real-valued quantities are
    50-digit decimal strings.  ``notes`` records conventions applied
    (clamps, diameter substitutions, p_0 = 2).
    """

    mu: str
    kappa: str
    m: int
    mprime: int
    values: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "mu": self.mu,
                "kappa": self.kappa,
                "m": self.m,
                "mprime": self.mprime,
                "values": {k: _text(v) for k, v in sorted(self.values.items())},
                "notes": self.notes,
            },
            indent=2,
            sort_keys=True,
        )


def _text(v) -> str:
    """A value as text; an exact integer goes through ``Decimal``, which has
    no digit limit (``str(int)`` refuses more than 4,300 digits)."""
    return str(_exact_decimal(v)) if isinstance(v, int) else str(v)


_DIRECT_BITS = 4096  # below this, Decimal(v) is fast enough


def _exact_decimal(v: int) -> decimal.Decimal:
    """``Decimal(v)`` in subquadratic time.  ``Decimal(v)`` converts an int
    digit by digit, which is quadratic in its length; here v is split at
    half its bit length, both halves converted recursively and joined as
    hi · 2^half + lo (the divide and conquer of CPython 3.12's ``_pylong``).
    """
    if v < 0:
        return _exact_decimal(-v).copy_negate()
    # joins must be exact: any rounding raises instead of passing silently
    exact = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        traps=[decimal.Inexact, decimal.Rounded],
    )
    powers: dict[int, decimal.Decimal] = {}

    def power(bits: int) -> decimal.Decimal:
        if bits not in powers:
            if bits <= _DIRECT_BITS:
                powers[bits] = decimal.Decimal(1 << bits)
            else:
                half = bits >> 1
                powers[bits] = exact.multiply(power(half), power(bits - half))
        return powers[bits]

    def convert(v: int, bits: int) -> decimal.Decimal:
        if bits <= _DIRECT_BITS:
            return decimal.Decimal(v)
        half = bits >> 1
        hi, lo = v >> half, v & ((1 << half) - 1)
        return exact.add(exact.multiply(convert(hi, bits - half), power(half)), convert(lo, half))

    return convert(v, v.bit_length())


def _fmt(x: mp.mpf) -> str:
    with mp.workdps(DPS):
        return mp.nstr(mp.mpf(x), DPS)


def compute_report(data: ManifoldData) -> BoundReport:
    notes: list[str] = []
    mu_v = mu(data.tag, data.n, data.lam)
    with mp.workdps(DPS + _GUARD):
        kap = (mu_v - 1) / mu_v  # the diameter contraction factor kappa

    inj = data.inj
    if inj is None and data.vol is not None:
        diam = data.diam
        if diam is None:
            diam = data.p * data.lam
            notes.append("diam substituted by p*lam")
        inj_b = inj_lower(data.tag, data.n, data.vol, diam)
        inj = float(inj_b)
        notes.append("inj from vol/diam lower bound")

    values: dict = {}
    if inj is not None:
        with mp.workdps(DPS + _GUARD):
            x = mu_v * mp.log(_mpf(data.lam) / _mpf(inj))
        m = depth_m(mu_v, data.lam, inj)
        if x < 1:
            notes.append("m clamped to 1 (log term below 1)")
        values["inj_used"] = _fmt(_mpf(inj))
    else:
        m = 1
        notes.append("no injectivity radius available; m defaulted to 1")
    mprime = depth_mprime(m, data.n)

    values["total_bound"] = total_bound(data.n, data.p, data.q, mprime)
    if data.n <= 4:
        values["total_bound_direct"] = total_bound(data.n, data.p, data.q, m)
        notes.append("n <= 4: direct bound with exponent 4+3m also reported")
    values["barymoves_bound"] = barymoves_bound(data.n, m, data.p)
    if data.vol is not None and data.diam is not None:
        values["inj_lower"] = _fmt(inj_lower(data.tag, data.n, data.vol, data.diam))
    if data.tag == Geometry.HYPERBOLIC and data.n >= 2:
        values["volhyp_m"] = volhyp_m(data.n, data.p, data.lam, orientable=data.orientable)
        if data.n == 3 and data.orientable:
            notes.append(f"volhyp_m uses the w = {W_HYPERBOLIC_3} volume floor")

    return BoundReport(_fmt(mu_v), _fmt(kap), m, mprime, values, notes)
