"""Exact arithmetic layer: rationals, univariate polynomials, affine forms.

Everything downstream (the Hilbert polynomial, the inequality engine, the
certificates) runs on these types.  All arithmetic is exact; floats never
appear.  Rationals are ``fractions.Fraction``, which keeps canonical form
(positive denominator, reduced) after every operation and sits on Python's
arbitrary-precision integers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Rat = Fraction

RatLike = Union[int, str, Fraction]

CERTIFIED_NONNEG = "certified_nonneg"
UNKNOWN = "unknown"

# the strings rat_str writes; Fraction alone would also take decimals and
# exponents such as "1e30000000", whose integer takes minutes to build
_RAT_STR = re.compile(r"-?[0-9]+(/[0-9]+)?")


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
        if not _RAT_STR.fullmatch(x):
            raise ValueError(f"{x!r} is not a rational of the form p or p/q")
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rat_str(x: Fraction) -> str:
    """Serialize a rational as "p/q", omitting "/1" for integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


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
        x = to_rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, h: RatLike) -> "Poly":
        """Return the polynomial t -> p(t + h)."""
        h = to_rat(h)
        out = Poly()
        base = Poly([h, 1])
        for c in reversed(self.coeffs):
            out = out * base + Poly.const(c)
        return out

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{rat_str(c)}*t^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + " + ".join(terms) + ")"


@dataclass(frozen=True)
class AffineForm:
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
        return self.coeff_a * to_rat(a) + self.coeff_b * to_rat(b) + self.const

    def __add__(self, other: "AffineForm") -> "AffineForm":
        return AffineForm(
            self.coeff_a + other.coeff_a,
            self.coeff_b + other.coeff_b,
            self.const + other.const,
        )

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return self + other.scale(-1)

    def __neg__(self) -> "AffineForm":
        return self.scale(-1)

    def scale(self, c: RatLike) -> "AffineForm":
        c = to_rat(c)
        return AffineForm(c * self.coeff_a, c * self.coeff_b, c * self.const)

    def is_zero(self) -> bool:
        return self.coeff_a == 0 and self.coeff_b == 0 and self.const == 0

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.coeff_a, self.coeff_b, self.const)


def affine_eval(f: AffineForm, a: RatLike, b: RatLike) -> Fraction:
    return f.evaluate(a, b)


def poly_nonneg_on_ray(p: Poly, m0: RatLike) -> str:
    """Sufficient test for p >= 0 on [m0, oo).

    Shifts the polynomial to p(m0 + t) and certifies nonnegativity when all
    shifted coefficients are >= 0.  Returns ``certified_nonneg`` only in that
    case, otherwise ``unknown``; never a false certificate.
    """
    shifted = p.shift(m0)
    if all(c >= 0 for c in shifted.coeffs):
        return CERTIFIED_NONNEG
    return UNKNOWN


def poly_positive_on_ray(p: Poly, m0: RatLike) -> bool:
    """Sufficient test for p > 0 on [m0, oo): shifted coefficients all >= 0
    with a strictly positive constant term."""
    shifted = p.shift(m0)
    if not shifted.coeffs:
        return False
    return all(c >= 0 for c in shifted.coeffs) and shifted.coeffs[0] > 0
