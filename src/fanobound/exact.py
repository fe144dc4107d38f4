"""Exact arithmetic layer: rationals, univariate polynomials, affine forms.

Everything downstream (the Hilbert polynomial, the inequality engine, the
certificates) runs on these types.  All arithmetic is exact; floats never
appear.  Rationals are ``fractions.Fraction``, which keeps canonical form
(positive denominator, reduced) after every operation and sits on Python's
arbitrary-precision integers.

The kernels every check runs through (``Poly.__call__``, ``Poly.shift``
and ``AffineForm.evaluate``) work on integers: the numerators of their
inputs over one common denominator.  Each result value is built as a
Fraction once, so only one gcd is taken per value instead of one per
multiply-add.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Union

RatLike = Union[int, str, Fraction]

# the strings rat_str writes; Fraction alone would also take decimals and
# exponents such as "1e30000000", whose integer takes minutes to build
_RAT_STR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def to_rat(x: RatLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational.

    bool is refused although it subclasses int: a JSON true is not a number.
    A string must read -?[0-9]+(/[0-9]+)?; Python's limit on the digits of
    an integer parsed from a string caps its length.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        match = _RAT_STR.fullmatch(x)
        if match is None:
            raise ValueError(f"{x!r} is not a rational of the form p or p/q")
        # built from the matched digits, not parsed a second time; a zero
        # denominator raises ZeroDivisionError
        p, q = match.groups()
        return Fraction(int(p), int(q or 1))
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rat_str(x: Fraction) -> str:
    """Serialize a rational as "p/q", omitting "/1" for integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _over_common_denominator(cs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """The numerators of cs over the lcm of their denominators, and that
    lcm (1 for no values)."""
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


class Poly:
    """Univariate polynomial over the rationals.

    Coefficients are stored low degree first with trailing zeros trimmed;
    the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [to_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def const(cls, c: RatLike) -> "Poly":
        return cls([to_rat(c)])

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return Poly(a)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def scale(self, c: RatLike) -> "Poly":
        c = to_rat(c)
        return Poly([c * a for a in self.coeffs])

    def __call__(self, x: RatLike) -> Fraction:
        """p(x) by Horner on the coefficient numerators over their common
        denominator den.  For x = r/s the loop is homogenised: coefficient
        i is scaled by s^(d-i), so every step is an integer multiply-add
        and p(x) = acc / (den * s^d)."""
        x = to_rat(x)
        if not self.coeffs:
            return Fraction(0)
        r, s = x.numerator, x.denominator
        nums, den = _over_common_denominator(self.coeffs)
        acc, s_pow = 0, 1
        for n in reversed(nums):
            acc = acc * r + n * s_pow
            s_pow *= s
        return Fraction(acc, den * (s_pow // s))

    def shift(self, h: RatLike) -> "Poly":
        """Return the polynomial t -> p(t + h).

        The integer Taylor shift (Shaw and Traub, J. ACM 21, 1974): with
        p = sum n_i t^i / den and h = r/s, the integers n_i * s^(d-i) are
        the coefficients of den * s^d * p(y/s); shifting them by r in place
        takes d(d+1)/2 multiply-adds, and coefficient k of p(t + h) is the
        shifted c_k / (den * s^(d-k)).
        """
        h = to_rat(h)
        r, s = h.numerator, h.denominator
        nums, den = _over_common_denominator(self.coeffs)
        d = len(nums) - 1
        c = [n * s ** (d - i) for i, n in enumerate(nums)]
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                c[j] += r * c[j + 1]
        return Poly([Fraction(ck, den * s ** (d - k)) for k, ck in enumerate(c)])

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{rat_str(c)}*t^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + " + ".join(terms) + ")"


class AffineForm(NamedTuple):
    """Affine expression coeff_a * a + coeff_b * b + const over two parameters."""

    coeff_a: Fraction
    coeff_b: Fraction
    const: Fraction

    @classmethod
    def of(cls, ca: RatLike, cb: RatLike, k: RatLike) -> "AffineForm":
        return cls(to_rat(ca), to_rat(cb), to_rat(k))

    @classmethod
    def constant(cls, k: RatLike) -> "AffineForm":
        return cls.of(0, 0, k)

    def evaluate(self, a: RatLike, b: RatLike) -> Fraction:
        """coeff_a * a + coeff_b * b + const, summed as integers over the
        lcm of the three terms' denominators."""
        a, b = to_rat(a), to_rat(b)
        ca, cb, k = self.coeff_a, self.coeff_b, self.const
        da = ca.denominator * a.denominator
        db = cb.denominator * b.denominator
        den = lcm(da, db, k.denominator)
        num = (
            ca.numerator * a.numerator * (den // da)
            + cb.numerator * b.numerator * (den // db)
            + k.numerator * (den // k.denominator)
        )
        return Fraction(num, den)

    def __add__(self, other: "AffineForm") -> "AffineForm":
        return AffineForm(
            self.coeff_a + other.coeff_a,
            self.coeff_b + other.coeff_b,
            self.const + other.const,
        )

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return self + other.scale(-1)

    def scale(self, c: RatLike) -> "AffineForm":
        c = to_rat(c)
        return AffineForm(c * self.coeff_a, c * self.coeff_b, c * self.const)

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.coeff_a, self.coeff_b, self.const)


def poly_positive_on_ray(p: Poly, m0: RatLike) -> bool:
    """Sufficient test for p > 0 on [m0, oo): shifted coefficients all >= 0
    with a strictly positive constant term."""
    shifted = p.shift(m0)
    if not shifted.coeffs:
        return False
    return all(c >= 0 for c in shifted.coeffs) and shifted.coeffs[0] > 0
