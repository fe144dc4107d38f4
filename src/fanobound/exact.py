"""Exact arithmetic layer: rationals, univariate polynomials, affine forms.

Everything downstream (the Hilbert polynomial, the inequality engine, the
certificates) runs on these types.  All arithmetic is exact; floats never
appear.  Rationals are ``fractions.Fraction``, which keeps canonical form
(positive denominator, reduced) after every operation and sits on Python's
arbitrary-precision integers.

A Poly is integer numerators over one positive denominator, kept in
lowest terms, so its kernels (``Poly.shift``, ``Poly.difference``,
``Poly.first_mismatch``) read and build integers only; Fractions appear
only when something reads ``coeffs``.  An AffineForm's coefficients are
ints or Fractions; ``AffineForm.evaluate`` reads only their numerators and
denominators, sums its terms as integers over one common denominator and
builds one Fraction.

Each layer holds one rational type.  The prover holds ints and
Fractions and writes each certificate rational once, as a "p/q" string,
with rat_str.  A certificate holds those strings.  The verifier reads each
with parse_rat into an integer pair that reads like a Fraction's
numerator and denominator, and checks on the pairs themselves.  rat_str
and parse_rat are the only crossings: one writes the prover's numbers, the
other reads strings only.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, NamedTuple, Optional, Sequence, Union

# the strings rat_str writes; Fraction alone would also take decimals and
# exponents such as "1e30000000", whose integer takes minutes to build
_RAT_STR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class RatPair(NamedTuple):
    """A rational as the integers numerator / denominator, denominator > 0,
    not necessarily in lowest terms.  It reads like a Fraction's two
    fields, so code that takes one takes the other."""

    numerator: int
    denominator: int


def parse_rat(x: str) -> RatPair:
    """A "p/q" string, the format rat_str writes, as the integers (p, q).

    The string must read -?[0-9]+(/[0-9]+)?, so q > 0 once a zero q is
    refused; Python's limit on the digits of an integer parsed from a
    string caps its length.  A zero denominator raises the
    ZeroDivisionError that Fraction(p, 0) raises.
    """
    match = _RAT_STR.fullmatch(x)
    if match is None:
        raise ValueError(f"{x!r} is not a rational of the form p or p/q")
    p, q = match.groups()
    p, q = int(p), int(q or 1)
    if not q:
        raise ZeroDivisionError(f"Fraction({p}, 0)")
    return RatPair(p, q)


def rat_str(x: Union[int, Fraction]) -> str:
    """Serialize an int or Fraction as "p/q", omitting "/1" for integers.

    Dispatches on the exact type, so bool, float and any other type, a
    subclass of int or Fraction included, are refused."""
    t = type(x)
    if t is int:
        return repr(x)
    if t is Fraction:
        n, d = x.numerator, x.denominator
        return str(n) if d == 1 else f"{n}/{d}"
    raise TypeError(f"cannot write {x!r} as a rational")


def over_common_denominator(cs: Sequence[Union[Fraction, RatPair]]) -> tuple[list[int], int]:
    """The numerators of cs, Fractions or RatPairs, over the lcm of their
    denominators, and that lcm (1 for no values)."""
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def taylor_shift(c: list[int], r: int) -> list[int]:
    """Shift the coefficients c (low degree first) in place to t -> c(t + r)."""
    d = len(c) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            c[j] += r * c[j + 1]
    return c


class Poly:
    """Univariate polynomial over the rationals: the integers nums, low
    degree first, over den > 0, in lowest terms with trailing zeros
    trimmed, so equal polynomials have equal fields."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: Iterable[int] = (), den: int = 1):
        if den <= 0:
            raise ValueError(f"a Poly's denominator must be positive, got {den}")
        nums = list(nums)
        while nums and nums[-1] == 0:
            nums.pop()
        g = gcd(den, *nums)
        self.nums: tuple[int, ...] = tuple(n // g for n in nums)
        self.den: int = den // g

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, low degree first."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.nums) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and (self.nums, self.den) == (other.nums, other.den)

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def first_mismatch(self, values: Iterable[int], start: int = 1) -> Optional[int]:
        """The first m >= start where p(m) != values[m - start], or None."""
        nums, den = self.nums, self.den
        for m, value in enumerate(values, start):
            acc = 0
            for n in reversed(nums):
                acc = acc * m + n
            if acc != den * value:
                return m
        return None

    def shift(self, r: int) -> "Poly":
        """Return the polynomial t -> p(t + r) for an integer r: the integer
        Taylor shift (Shaw and Traub, J. ACM 21, 1974) of the numerators,
        d(d+1)/2 multiply-adds over the same denominator."""
        return Poly(taylor_shift(list(self.nums), r), self.den)

    def difference(self) -> "Poly":
        """Return the polynomial t -> p(t + 1) - p(t).

        By the binomial theorem its coefficient of t^j is the sum of
        n_i * C(i, j) over i > j, for p = sum n_i t^i / den, over den.
        """
        nums = self.nums
        return Poly([sum(nums[i] * comb(i, j) for i in range(j + 1, len(nums)))
                     for j in range(len(nums) - 1)], self.den)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{rat_str(c)}*t^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + " + ".join(terms) + ")"


class AffineForm(NamedTuple):
    """Affine expression coeff_a * a + coeff_b * b + const over two
    parameters.  A coefficient is an int or a Fraction: the forms of P(m)
    and of the Lemma 2 slack hold ints, a constraint's form over its
    denominator holds Fractions."""

    coeff_a: Union[int, Fraction]
    coeff_b: Union[int, Fraction]
    const: Union[int, Fraction]

    def evaluate(self, a: Fraction, b: Fraction) -> Fraction:
        """coeff_a * a + coeff_b * b + const, summed as integers over the
        lcm of the three terms' denominators.  It reads only the numerator
        and denominator of each coefficient, which an int has too, and
        builds one Fraction, the result."""
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

    def as_tuple(self) -> tuple[Union[int, Fraction], ...]:
        return (self.coeff_a, self.coeff_b, self.const)


def poly_positive_on_ray(p: Poly, m0: int) -> bool:
    """Sufficient test for p > 0 on [m0, oo): shifted coefficients all >= 0
    with a strictly positive constant term."""
    nums = p.shift(m0).nums
    return bool(nums) and nums[0] > 0 and all(c >= 0 for c in nums)
