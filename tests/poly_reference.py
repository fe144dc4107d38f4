"""Reference polynomial kernels on Fractions.

These are the rational kernels that ``Poly.shift``,
``AffineForm.evaluate``, ``derive.interpolate_model`` and
``hilbert.ray_tail`` used before they moved to integer numerators over a
common denominator, the evaluation of a ``Poly`` (poly_eval), which the
package no longer has, and the Fraction route by which hilbert built and
evaluated P before it stored P as integer coefficients (p_coefficients,
p_polynomial, p_value) and took its difference (poly_difference).  They
work on plain coefficient lists (low degree first) and use nothing from
the package, so a wrong value that the prover and the verifier would both
compute, and both accept, still differs from the reference.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _trim(cs: list[Fraction]) -> tuple[Fraction, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    """Horner's rule, one Fraction operation per step."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_shift(coeffs: Sequence[Fraction], h: Fraction) -> tuple[Fraction, ...]:
    """Coefficients of t -> p(t + h), by Horner's rule on polynomials:
    out = out * (t + h) + c for c from the leading coefficient down."""
    out: list[Fraction] = []
    for c in reversed(coeffs):
        times_t = [Fraction(0)] + out
        times_h = [h * a for a in out] + [Fraction(0)]
        out = [x + y for x, y in zip(times_t, times_h)]
        out[0] += c
    return _trim(out)


def affine_evaluate(
    ca: Fraction, cb: Fraction, k: Fraction, a: Fraction, b: Fraction
) -> Fraction:
    return ca * a + cb * b + k


def interpolate(nodes: Sequence[int], values: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Coefficients of the Lagrange polynomial through (nodes[i], values[i]),
    each basis polynomial built by multiplying out t - m_j on Fractions."""
    total = [Fraction(0)] * len(nodes)
    for i, mi in enumerate(nodes):
        basis = [Fraction(1)]
        den = Fraction(1)
        for j, mj in enumerate(nodes):
            if i == j:
                continue
            # basis * (t - mj)
            basis = [x - mj * y for x, y in zip([Fraction(0)] + basis, basis + [Fraction(0)])]
            den *= mi - mj
        weight = Fraction(values[i]) / den
        for d, c in enumerate(basis):
            total[d] += weight * c
    return _trim(total)


def poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def poly_add(p: Sequence[Fraction], q: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = max(len(p), len(q))
    return _trim([
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    ])


def p_coefficients() -> tuple[tuple[Fraction, ...], ...]:
    """The coefficients of a, of b and of 1 in P(m), multiplied out from
    the factored form (2m+1) * (m(m+1) * [(3m^2+3m-1) a + b] + 1) as
    hilbert built them before P was stored expanded."""
    one = (Fraction(1),)
    t = (Fraction(0), Fraction(1))
    u = poly_mul(t, poly_add(t, one))
    w = poly_add(poly_mul((Fraction(2),), t), one)
    fa = poly_mul(poly_mul(w, u), poly_add(poly_mul((Fraction(3),), u), (Fraction(-1),)))
    return fa, poly_mul(w, u), w


def p_polynomial(k5: int, k3c2: int) -> tuple[Fraction, ...]:
    """The coefficients of P with 720 a = k5 and 144 b = k3c2, summed on
    Fractions from p_coefficients."""
    fa, fb, fc = p_coefficients()
    a, b = Fraction(k5, 720), Fraction(k3c2, 144)
    return poly_add(poly_add([a * c for c in fa], [b * c for c in fb]), fc)


def poly_difference(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Coefficients of t -> p(t + 1) - p(t): the shift by 1 minus p."""
    return poly_add(poly_shift(coeffs, Fraction(1)), [-c for c in coeffs])


def p_value(k5: int, k3c2: int, m: int) -> Fraction:
    """P(m) on Fractions with 720 a = k5 and 144 b = k3c2, the route
    hilbert.p_eval took before its integer kernel."""
    fa, fb, fc = p_coefficients()
    a, b = Fraction(k5, 720), Fraction(k3c2, 144)
    return affine_evaluate(poly_eval(fa, m), poly_eval(fb, m), poly_eval(fc, m), a, b)



def ray_tail(
    b_form: Sequence[Fraction], a_form: Sequence[Fraction], m_start: int
) -> tuple[Fraction, ...]:
    """hilbert.ray_tail on Fractions, for forms (ca, cb, k) at any positive
    scale where hilbert's takes integer rows: the difference of each
    coefficient of P is its shift by 1 minus itself, and each bound is
    substituted by scaling.  Raises ValueError with the same messages, in
    the same order."""
    b_ca, b_cb, b_k = b_form
    a_ca, a_cb, a_k = a_form
    if b_cb <= 0:
        raise ValueError("cited constraint gives no lower bound for b")
    if a_cb != 0 or a_ca <= 0:
        raise ValueError("cited constraint gives no lower bound for a")
    da, db, dk = (poly_difference(p) for p in p_coefficients())
    if any(c < 0 for c in poly_shift(db, Fraction(m_start))):
        raise ValueError("b-substitution is not minimizing on the ray")
    # b >= -(b_ca a + b_k) / b_cb
    subst_a = poly_add(da, [-b_ca / b_cb * c for c in db])
    if any(c < 0 for c in poly_shift(subst_a, Fraction(m_start))):
        raise ValueError("a-substitution is not minimizing on the ray")
    subst_k = poly_add(dk, [-b_k / b_cb * c for c in db])
    # a >= -a_k / a_ca
    return poly_add([-a_k / a_ca * c for c in subst_a], subst_k)
