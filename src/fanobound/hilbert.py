"""Anticanonical Hilbert polynomial of a smooth 5-fold with -K nef and big.

For such an X the Euler characteristic of O(-mK) is

    P(m) = (2m+1) * ( m(m+1) * [ (3m^2+3m-1) a + b ] + 1 )

with 720 a = (-K)^5 and 144 b = (-K)^3.c2.  Vanishing of higher cohomology
for m >= 0 makes P(m) = h^0(-mK), so P(m) must be a nonnegative integer
there; this module treats violations as hard errors rather than warnings,
because every downstream derivation rule assumes them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact import AffineForm, Poly, to_rat


class HilbertError(ValueError):
    """Base class for inconsistencies detected while evaluating P."""


class NonIntegralValueError(HilbertError):
    """P(m) failed to be an integer: the pair (k5, k3c2) belongs to no
    genuine 5-fold of this class."""

    def __init__(self, m: int, value: Fraction):
        self.m = m
        self.value = value
        super().__init__(f"P({m}) = {value} is not an integer")


class VanishingViolationError(HilbertError):
    """P(m) < 0 for m >= 0, contradicting the vanishing axiom."""

    def __init__(self, m: int, value: int):
        self.m = m
        self.value = value
        super().__init__(f"P({m}) = {value} < 0 violates vanishing for m >= 0")


class ChernData(NamedTuple("ChernData", [("k5", int), ("k3c2", int)])):
    """The two Chern intersection numbers determining P: (-K)^5 and (-K)^3.c2."""

    __slots__ = ()
    # _replace builds through _make, so a replaced field is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, k5: int, k3c2: int) -> "ChernData":
        if k5 < 1:
            raise ValueError("(-K)^5 must be >= 1 for -K nef and big")
        return super().__new__(cls, k5, k3c2)

    @property
    def a(self) -> Fraction:
        return Fraction(self.k5, 720)

    @property
    def b(self) -> Fraction:
        return Fraction(self.k3c2, 144)


class PValue(NamedTuple("PValue", [("m", int), ("value", int)])):
    """An exact value P(m) at a non-negative multiple m.

    Vanishing (value >= 0) is enforced where tables are produced, in
    p_eval; the record itself also serves hypothetical inversions.
    """

    __slots__ = ()
    # _replace builds through _make, so a replaced field is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, m: int, value: int) -> "PValue":
        if m < 0:
            raise ValueError("P values are recorded for m >= 0 only")
        return super().__new__(cls, m, value)


def p_affine(m: int) -> AffineForm:
    """P(m) as an exact affine form in (a, b).

    Negative m is allowed; the form satisfies P(m) + P(-1-m) = 0,
    the shape Serre duality forces on the polynomial.
    """
    u = m * (m + 1)
    w = 2 * m + 1
    return AffineForm.of(w * u * (3 * u - 1), w * u, w)


# the strict dimension test is tried for exponents r up to this cap
LEMMA2_R_CAP = 4


def lemma2_threshold(m: int, r: int, d5: int) -> int:
    """The section count to beat: m^r * D^5 + r for D = -K with D^5 = d5."""
    if m < 1 or r < 0 or d5 < 1:
        raise ValueError("need m >= 1, r >= 0, d5 >= 1")
    return m**r * d5 + r


def lemma2_slack_form(m: int, r: int) -> AffineForm:
    """P(m) - (m^r * 720a + r): positive exactly when the test passes with
    (-K)^5 expressed as 720a."""
    return p_affine(m) - AffineForm.of(720 * m**r, 0, r)


def p_eval(c: ChernData, m: int) -> int:
    """Exact integer value of P(m) for concrete Chern data.

    Raises NonIntegralValueError when the value is not an integer and
    VanishingViolationError when m >= 0 and the value is negative.
    """
    v = p_affine(m).evaluate(c.a, c.b)
    if v.denominator != 1:
        raise NonIntegralValueError(m, v)
    n = int(v)
    if m >= 0 and n < 0:
        raise VanishingViolationError(m, n)
    return n


def fit_ab(v1: PValue, v2: PValue) -> tuple[Fraction, Fraction]:
    """Invert the formula: the unique (a, b) with P(v1.m) = v1.value and
    P(v2.m) = v2.value.

    Requires two distinct multiples away from m in {0, -1}, where the
    (a, b) coefficients vanish and the system degenerates.
    """
    for v in (v1, v2):
        if v.m in (0, -1):
            raise ValueError(f"m = {v.m} carries no (a, b) information")
    if v1.m == v2.m:
        raise ValueError("need two distinct multiples")
    f1, f2 = p_affine(v1.m), p_affine(v2.m)
    det = f1.coeff_a * f2.coeff_b - f2.coeff_a * f1.coeff_b
    if det == 0:
        raise ValueError(
            f"coefficient rows for m = {v1.m}, {v2.m} are proportional"
        )
    r1 = to_rat(v1.value) - f1.const
    r2 = to_rat(v2.value) - f2.const
    a = (r1 * f2.coeff_b - r2 * f1.coeff_b) / det
    b = (f1.coeff_a * r2 - f2.coeff_a * r1) / det
    return a, b


def coefficient_polys() -> tuple[Poly, Poly, Poly]:
    """The coefficients of P(m) as polynomials in m: (a-coefficient,
    b-coefficient, constant)."""
    t = Poly.x()
    one = Poly.const(1)
    u = t * (t + one)
    w = t.scale(2) + one
    fa = w * u * (u.scale(3) - one)
    fb = w * u
    return fa, fb, w


def difference_polys() -> tuple[Poly, Poly, Poly]:
    """The coefficients of P(m+1) - P(m) as polynomials in m, in the order
    of coefficient_polys."""
    fa, fb, fc = coefficient_polys()
    return fa.shift(1) - fa, fb.shift(1) - fb, fc.shift(1) - fc


def p_poly(c: ChernData) -> Poly:
    """P as a univariate polynomial in m for concrete Chern data."""
    fa, fb, fc = coefficient_polys()
    return fa.scale(c.a) + fb.scale(c.b) + fc
