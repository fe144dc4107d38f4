"""Anticanonical Hilbert polynomial of a smooth 5-fold with -K nef and big.

For such an X the Euler characteristic of O(-mK) is

    P(m) = (2m+1) * ( m(m+1) * [ (3m^2+3m-1) a + b ] + 1 )

with 720 a = (-K)^5 and 144 b = (-K)^3.c2.  Multiplied out, P is written
once, as three integer coefficient tuples in m, low degree first:

    P(m) = a * (6m^5 + 15m^4 + 10m^3 - m)     _A = (0, -1, 0, 10, 15, 6)
         + b * (2m^3 + 3m^2 + m)               _B = (0, 1, 3, 2)
         + (2m + 1)                            _C = (1, 2)

so 720 P(m) = (-K)^5 _A(m) + 5 (-K)^3.c2 _B(m) + 720 _C(m) is an integer
for integer m, and p_eval needs no rationals.  p_coeffs evaluates the
three tuples in one pass, and p_affine and lemma2_slack_form hold its
integers as the fields of an AffineForm, so building a form makes no
Fraction.  Vanishing of higher cohomology for m >= 0 makes P(m) =
h^0(-mK), so P(m) must be a nonnegative integer there; this module treats
violations as hard errors rather than warnings, because every downstream
derivation rule assumes them.

What the prover and the verifier must read alike is written here once: each
constraint kind as an integer row of P's coefficients (constraint_row) and
its name (CONSTRAINT_CIDS), and the dimension tests with their search order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd
from typing import Iterator, NamedTuple, Optional

from .exact import AffineForm, Poly, taylor_shift

# P's coefficients of a, of b and of 1 as polynomials in m, low degree first
_A = (0, -1, 0, 10, 15, 6)
_B = (0, 1, 3, 2)
_C = (1, 2)
# the coefficients of a, of b and of 1 zipped degree by degree, low first
_ABC = tuple(zip_longest(_A, _B, _C, fillvalue=0))


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


def p_coeffs(m: int) -> tuple[int, int, int]:
    """P(m) as the integers (ca, cb, k) with P(m) = ca * a + cb * b + k:
    one Horner pass over the three coefficient tuples at once."""
    ca = cb = k = 0
    for x, y, z in reversed(_ABC):
        ca, cb, k = ca * m + x, cb * m + y, k * m + z
    return ca, cb, k


def p_affine(m: int) -> AffineForm:
    """P(m) as an exact affine form in (a, b) whose fields are the integers
    of p_coeffs(m); no Fraction is built.

    Negative m is allowed; the form satisfies P(m) + P(-1-m) = 0,
    the shape Serre duality forces on the polynomial.
    """
    return AffineForm(*p_coeffs(m))


# the kinds a constraint may take, and the cid each names its constraint
# by, filled in from the params: A4.3 is P(3) >= 0, F.P3>=7 the fact P(3) >= 7
CONSTRAINT_CIDS = {
    "k5_floor": "A1", "vanishing": "A4.{}", "mono12": "A5",
    "p1_eq_lo": "H.P1={}.lo", "p1_eq_hi": "H.P1={}.hi", "p1_tail": "H.P1>={}",
    "from_fact": "F.P{}>={}",
}


def constraint_row(kind: str, params: tuple) -> tuple[int, int, int, int]:
    """The constraint (ca * a + cb * b + k) / den >= 0 a descriptor names, as
    integers in lowest terms, den > 0.  A kind takes exactly its parameters:
    from_fact takes two integers, m and the bound of the fact P(m) >= bound.
    vanishing, an axiom for m >= 0 only, refuses a negative m."""
    if kind in ("k5_floor", "mono12") and params:
        raise ValueError(f"{kind} takes no parameters")
    if kind == "k5_floor":
        return 720, 0, -1, 720  # a >= 1/720
    if kind == "vanishing":
        (m,) = params
        if int(m) < 0:
            raise ValueError(f"vanishing holds for m >= 0 only, not m = {m}")
        return (*p_coeffs(int(m)), 1)
    if kind == "mono12":
        return (*(x - y for x, y in zip(p_coeffs(2), p_coeffs(1))), 1)
    if kind in ("p1_eq_lo", "p1_eq_hi", "p1_tail"):
        (l,) = params
        ca, cb, k = p_coeffs(1)
        sign = -1 if kind == "p1_eq_hi" else 1
        return sign * ca, sign * cb, sign * (k - int(l)), 1
    if kind == "from_fact":
        m, bound = params
        return fact_row(int(m), int(bound))
    raise ValueError(f"unknown constraint kind {kind!r}")


def fact_row(m: int, bound: int) -> tuple[int, int, int, int]:
    """The from_fact row P(m) - bound, divided by the gcd of its integer
    coefficients, with den 1: P(3) >= 7 is (2940, 84, 0) / 84, the row
    (35, 1, 0, 1).  The zero row of P(0) >= 1 stays zero."""
    ca, cb, k = p_coeffs(m)
    k -= bound
    g = gcd(ca, cb, k) or 1
    return ca // g, cb // g, k // g, 1


# the strict dimension test is tried for exponents r up to this cap
LEMMA2_R_CAP = 4


def lemma2_threshold(m: int, r: int, d5: int) -> int:
    """The section count to beat: m^r * D^5 + r for D = -K with D^5 = d5."""
    if m < 1 or r < 0 or d5 < 1:
        raise ValueError("need m >= 1, r >= 0, d5 >= 1")
    return m**r * d5 + r


def passes_dimension_test(value: int, m: int, r: Optional[int], d5: int) -> bool:
    """Whether the section count value at m passes the pencil test (r is
    None), value >= 2, or the strict Lemma 2 test with exponent r; the
    boundary of the strict test is not a pass."""
    return value >= 2 if r is None else value > lemma2_threshold(m, r, d5)


def search_order(target_dim: int, m_start: int, m_stop: int) -> Iterator[tuple]:
    """The tests (m, r) a search for a dimension witness tries, in order:
    m from m_start to m_stop and, per m, the pencil test (r None) for
    dimension 1, else the strict test for r = target_dim - 1 .. LEMMA2_R_CAP."""
    rs = [None] if target_dim == 1 else range(target_dim - 1, LEMMA2_R_CAP + 1)
    return ((m, r) for m in range(m_start, m_stop + 1) for r in rs)


def lemma2_slack_coeffs(m: int, r: int) -> tuple[int, int, int]:
    """P(m) - (m^r * 720a + r) as integers (ca, cb, k) like p_coeffs:
    positive exactly when the test passes with (-K)^5 expressed as 720a."""
    ca, cb, k = p_coeffs(m)
    return ca - 720 * m**r, cb, k - r


def lemma2_slack_form(m: int, r: int) -> AffineForm:
    """lemma2_slack_coeffs(m, r) as an exact affine form in (a, b) whose
    fields are those integers."""
    return AffineForm(*lemma2_slack_coeffs(m, r))


def p_eval(c: ChernData, m: int) -> int:
    """Exact integer value of P(m) for concrete Chern data.

    Raises NonIntegralValueError when the value is not an integer and
    VanishingViolationError when m >= 0 and the value is negative.
    """
    ca, cb, k = p_coeffs(m)
    num = c.k5 * ca + 5 * c.k3c2 * cb + 720 * k
    n, rem = divmod(num, 720)
    if rem:
        raise NonIntegralValueError(m, Fraction(num, 720))
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
    (a1, b1, k1), (a2, b2, k2) = p_coeffs(v1.m), p_coeffs(v2.m)
    det = a1 * b2 - a2 * b1
    if det == 0:
        raise ValueError(
            f"coefficient rows for m = {v1.m}, {v2.m} are proportional"
        )
    r1, r2 = v1.value - k1, v2.value - k2
    return Fraction(r1 * b2 - r2 * b1, det), Fraction(a1 * r2 - a2 * r1, det)


# c(m+1) - c(m) for c = _A, _B, _C, padded to one length, for ray_tail: its
# coefficient of m^j is the sum of c_i * C(i, j) over i > j
_DIFFERENCE_NUMS = tuple(
    [sum(c[i] * comb(i, j) for i in range(j + 1, len(c))) for j in range(len(_A) - 1)]
    for c in (_A, _B, _C)
)


def ray_tail(b_row: tuple, a_row: tuple, m_start: int) -> Poly:
    """A polynomial q with P(m+1) - P(m) >= q(m) for every m >= m_start
    wherever b_row >= 0 and a_row >= 0.

    Each row is the integers (ca, cb, k) of a constraint_row, its
    denominator dropped.  b_row bounds b below and a_row, free of b, bounds
    a below.  The bound on b is substituted into the difference first, then
    the bound on a; each substitution minimizes because the coefficient it
    replaces has nonnegative coefficients once shifted to m_start.  Both run
    on integers, so q is its integer numerators over cb * ca, b_row's b
    coefficient times a_row's a coefficient.  Raises ValueError naming the
    first condition that fails.
    """
    (ba, bb, bk), (aa, ab, ak) = b_row, a_row
    if bb <= 0:
        raise ValueError("cited constraint gives no lower bound for b")
    if ab != 0 or aa <= 0:
        raise ValueError("cited constraint gives no lower bound for a")
    da, db, dk = _DIFFERENCE_NUMS
    if any(c < 0 for c in taylor_shift(list(db), m_start)):
        raise ValueError("b-substitution is not minimizing on the ray")
    # bb b >= -(ba a + bk), so bb times the difference is at least
    # subst_a a + bb dk - bk db, and then aa a >= -ak
    subst_a = [bb * x - ba * y for x, y in zip(da, db)]
    if any(c < 0 for c in taylor_shift(list(subst_a), m_start)):
        raise ValueError("a-substitution is not minimizing on the ray")
    return Poly([aa * (bb * z - bk * y) - ak * x for x, y, z in zip(subst_a, db, dk)],
                bb * aa)


def p_poly(c: ChernData) -> Poly:
    """P as a univariate polynomial in m for concrete Chern data: the
    integer combination p_eval evaluates, k5 _A + 5 k3c2 _B + 720 _C, as
    its integer coefficients over 720."""
    return Poly([c.k5 * x + 5 * c.k3c2 * y + 720 * z for x, y, z in _ABC], 720)
