"""Reference polynomial kernels on Fractions.

These are the rational kernels that ``Poly.__call__``, ``Poly.shift``,
``AffineForm.evaluate`` and ``derive.interpolate_model`` used before they
moved to integer numerators over a common denominator.  They work on plain
coefficient lists (low degree first) and use nothing from the package, so
a wrong value that the prover and the verifier would both compute, and
both accept, still differs from the reference.
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
