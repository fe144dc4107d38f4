"""P(m) = chi(O(-mK)) from Hirzebruch-Riemann-Roch, derived independently.

For a smooth 5-fold X, chi(O(-mK)) is the degree-5 part of e^{m c1} td(X)
(Hirzebruch, Topological Methods in Algebraic Geometry, on multiplicative
sequences and the Todd genus).  This module computes it in the ring of
Chern classes c1..c5, truncated above degree 5, with the stdlib and
Fraction only, and uses nothing from the package:

  * the Todd class is exp(log td), where over the Chern roots x_i
        log td = sum_i log(x_i / (1 - e^{-x_i}))
               = p1 / 2 - sum_k B_2k / (2k (2k)!) p_2k,
    the power sums p_k come from Newton's identities and the Bernoulli
    numbers B_n from their recurrence;
  * the degree-5 part R(m) of e^{m c1} td holds the classes c1^5, c1^3 c2,
    c1 c2^2, c1^2 c3 and c1 c4.  The last three enter only through
    td5 = chi(O) and c1 td4, which the identity
        c1 td4 = 2 td5 + (5 c1^3 c2 - c1^5) / 720
    ties together, so R(m) - lambda(m) td5 lies in the span of c1^5 and
    c1^3 c2 for one lambda(m).  With td5 = chi(O) = 1, c1^5 = 720 a and
    c1^3 c2 = 144 b, P(m) = A(m) a + B(m) b + lambda(m).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

DIM = 5
# a class is {exponents of (c1, ..., c5): coefficient}
Mono = tuple[int, ...]
Cls = dict[Mono, Fraction]


def _degree(mono: Mono) -> int:
    return sum((i + 1) * e for i, e in enumerate(mono))


def chern(i: int) -> Cls:
    return {tuple(int(j == i - 1) for j in range(DIM)): Fraction(1)}


def const(c: Fraction) -> Cls:
    return {(0,) * DIM: Fraction(c)} if c else {}


def add(*xs: Cls) -> Cls:
    out: Cls = {}
    for x in xs:
        for mono, c in x.items():
            out[mono] = out.get(mono, Fraction(0)) + c
    return {mono: c for mono, c in out.items() if c}


def scale(c: Fraction, x: Cls) -> Cls:
    return {mono: c * v for mono, v in x.items() if c * v}


def mul(x: Cls, y: Cls) -> Cls:
    out: Cls = {}
    for mx, cx in x.items():
        for my, cy in y.items():
            mono = tuple(a + b for a, b in zip(mx, my))
            if _degree(mono) <= DIM:
                out[mono] = out.get(mono, Fraction(0)) + cx * cy
    return {mono: c for mono, c in out.items() if c}


def part(x: Cls, d: int) -> Cls:
    return {mono: c for mono, c in x.items() if _degree(mono) == d}


def exp(x: Cls) -> Cls:
    """exp of a class without a degree-0 part: the series stops at x^5."""
    assert not part(x, 0)
    out, term = const(Fraction(1)), const(Fraction(1))
    for n in range(1, DIM + 1):
        term = scale(Fraction(1, n), mul(term, x))
        out = add(out, term)
    return out


def bernoulli(n: int) -> Fraction:
    """B_n from sum_{j <= n} C(n+1, j) B_j = 0 with B_0 = 1."""
    bs = [Fraction(1)]
    for k in range(1, n + 1):
        bs.append(-sum(comb(k + 1, j) * bs[j] for j in range(k)) / (k + 1))
    return bs[n]


def power_sums() -> list[Cls]:
    """p_0..p_5 of the Chern roots, by Newton's identities
    p_k = sum_{i<k} (-1)^(i-1) c_i p_(k-i) + (-1)^(k-1) k c_k."""
    p: list[Cls] = [const(Fraction(DIM))]
    for k in range(1, DIM + 1):
        terms = [scale(Fraction((-1) ** (i - 1)), mul(chern(i), p[k - i])) for i in range(1, k)]
        p.append(add(*terms, scale(Fraction((-1) ** (k - 1) * k), chern(k))))
    return p


def todd() -> Cls:
    p = power_sums()
    log_td = scale(Fraction(1, 2), p[1])
    for k in range(1, DIM // 2 + 1):
        weight = bernoulli(2 * k) / (2 * k * factorial(2 * k))
        log_td = add(log_td, scale(-weight, p[2 * k]))
    return exp(log_td)


def chi_anti(m: int, td: Cls) -> Cls:
    """The degree-5 part of e^{m c1} td, for an integer m."""
    return part(mul(exp(scale(Fraction(m), chern(1))), td), DIM)


C1_5 = (5, 0, 0, 0, 0)
C1_3_C2 = (3, 1, 0, 0, 0)
C1_C4 = (1, 0, 0, 1, 0)


def todd_identity_holds(td: Cls) -> bool:
    """c1 td4 = 2 td5 + (5 c1^3 c2 - c1^5) / 720, the relation that
    eliminates c1 td4."""
    lhs = mul(chern(1), part(td, 4))
    rhs = add(scale(Fraction(2), part(td, 5)), {C1_3_C2: Fraction(5, 720), C1_5: Fraction(-1, 720)})
    return add(lhs, scale(Fraction(-1), rhs)) == {}


def hrr_affine(m: int, td: Cls) -> tuple[Fraction, Fraction, Fraction]:
    """P(m) as (coefficient of a, coefficient of b, constant), with
    c1^5 = 720 a, c1^3 c2 = 144 b and td5 = chi(O) = 1."""
    r = chi_anti(m, td)
    td5 = part(td, 5)
    # td5 is the only source of c1 c4 once c1 td4 is rewritten through it
    lam = r.get(C1_C4, Fraction(0)) / td5[C1_C4]
    rest = add(r, scale(-lam, td5))
    assert rest.keys() <= {C1_5, C1_3_C2}, f"classes left after elimination: {sorted(rest)}"
    return 720 * rest.get(C1_5, Fraction(0)), 144 * rest.get(C1_3_C2, Fraction(0)), lam
