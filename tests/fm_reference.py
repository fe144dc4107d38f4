"""Reference Fourier-Motzkin minimizer on Fraction rows, the Fraction
ladder of constraint forms, and ``form``, which builds and combines the
affine forms the tests write.

The minimizer is the rational kernel ``derive.fm_minimize`` used before it
moved to integer rows, with the point of an unbounded objective restated
apart from it.  A minimum's Farkas combination is chosen by its own rule,
over every constraint: the first single, then the first pair, in cid
order, whose multipliers are positive and reproduce ``f - value``.  Tests
compare the two on random systems: every field of the result must agree,
because certificates are built from them.

The ladder is ``derive.constraint_form`` as it stood before the kinds moved
to ``hilbert.constraint_row``, which must agree with it on every kind.  A
fact's form is P(m) - bound divided by the gcd of its coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Optional, Sequence

from fanobound.derive import ConstraintSystem, MinimizeResult
from fanobound.exact import AffineForm
from fanobound.hilbert import p_affine, p_coeffs


def form(*terms) -> AffineForm:
    """The AffineForm summing terms, each three numbers (ca, cb, k), an
    AffineForm among them, or a pair (c, f) of a number and such a triple,
    read as c * f.  A number is anything Fraction reads: an int, a Fraction
    or a "p/q" string.  form() is the zero form."""
    acc = [Fraction(0)] * 3
    for term in terms:
        c, coeffs = term if len(term) == 2 else (1, term)
        for i, x in enumerate(coeffs):
            acc[i] += Fraction(c) * Fraction(x)
    return AffineForm(*acc)


@dataclass(frozen=True)
class _Row:
    # coef = (ca, cb, ct); the row asserts ca*a + cb*b + ct*t + k (>= or >) 0
    coef: tuple[Fraction, Fraction, Fraction]
    k: Fraction
    strict: bool


def _eliminate(rows: list[_Row], idx: int) -> list[_Row]:
    pos = [r for r in rows if r.coef[idx] > 0]
    neg = [r for r in rows if r.coef[idx] < 0]
    zero = [r for r in rows if r.coef[idx] == 0]
    out: list[_Row] = list(zero)
    for p in pos:
        for n in neg:
            lp = -n.coef[idx]
            ln = p.coef[idx]
            coef = tuple(lp * p.coef[i] + ln * n.coef[i] for i in range(3))
            k = lp * p.k + ln * n.k
            out.append(_Row(coef, k, p.strict or n.strict))
    pruned: list[_Row] = []
    seen = set()
    for r in out:
        if all(c == 0 for c in r.coef):
            if r.k < 0 or (r.k == 0 and r.strict):
                return [r]
            continue
        key = (r.coef, r.k, r.strict)
        if key in seen:
            continue
        seen.add(key)
        pruned.append(r)
    return pruned


def _pick_in_interval(lo, lo_strict, hi, hi_strict) -> Fraction:
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi - 1 if hi_strict else hi
    if hi is None:
        return lo + 1 if lo_strict else lo
    if lo == hi:
        return lo
    if not lo_strict:
        return lo
    return (lo + hi) / 2


def _bounds_on(rows: Sequence[_Row], idx: int, values: dict[int, Fraction]):
    lo: Optional[Fraction] = None
    lo_strict = False
    hi: Optional[Fraction] = None
    hi_strict = False
    for r in rows:
        c = r.coef[idx]
        if c == 0:
            continue
        rest = r.k
        for j, v in values.items():
            rest += r.coef[j] * v
        bound = -rest / c
        if c > 0:
            if lo is None or bound > lo or (bound == lo and r.strict):
                lo, lo_strict = bound, r.strict
        else:
            if hi is None or bound < hi or (bound == hi and r.strict):
                hi, hi_strict = bound, r.strict
    return lo, lo_strict, hi, hi_strict


def _back_substitute(stage_a, stage_b, t: Fraction) -> tuple[Fraction, Fraction]:
    a = _pick_in_interval(*_bounds_on(stage_a, 0, {2: t}))
    b = _pick_in_interval(*_bounds_on(stage_b, 1, {0: a, 2: t}))
    return a, b


def _combination(cs: ConstraintSystem, target: AffineForm):
    """The first single, then the first pair, of all the constraints in cid
    order whose positive multipliers sum to target exactly; () for a
    constant target, None when there is neither."""
    if target.coeff_a == target.coeff_b == 0:
        return ()
    ordered = sorted(cs.constraints, key=lambda c: c.cid)
    for c in ordered:
        g = c.form
        pivot = g.coeff_a if g.coeff_a != 0 else g.coeff_b
        if pivot == 0:
            continue
        mult = (target.coeff_a if g.coeff_a != 0 else target.coeff_b) / pivot
        if mult > 0 and form((mult, g)) == target:
            return ((c.cid, mult),)
    for ci, cj in combinations(ordered, 2):
        gi, gj = ci.form, cj.form
        det = gi.coeff_a * gj.coeff_b - gj.coeff_a * gi.coeff_b
        if det == 0:
            continue
        mi = (target.coeff_a * gj.coeff_b - gj.coeff_a * target.coeff_b) / det
        mj = (gi.coeff_a * target.coeff_b - gi.coeff_b * target.coeff_a) / det
        if mi > 0 and mj > 0 and form((mi, gi), (mj, gj)) == target:
            return ((ci.cid, mi), (cj.cid, mj))
    return None


def fm_minimize_reference(cs: ConstraintSystem, f: AffineForm) -> MinimizeResult:
    rows = [
        _Row((c.form.coeff_a, c.form.coeff_b, Fraction(0)), c.form.const, c.strict)
        for c in cs.constraints
    ]
    rows.append(_Row((-f.coeff_a, -f.coeff_b, Fraction(1)), -f.const, False))
    rows.append(_Row((f.coeff_a, f.coeff_b, Fraction(-1)), f.const, False))

    stage_b = rows
    stage_a = _eliminate(stage_b, 1)
    if len(stage_a) == 1 and all(c == 0 for c in stage_a[0].coef):
        return MinimizeResult(status="infeasible")
    stage_t = _eliminate(stage_a, 0)
    if len(stage_t) == 1 and all(c == 0 for c in stage_t[0].coef):
        return MinimizeResult(status="infeasible")

    lower: list[tuple[Fraction, _Row]] = []
    upper: list[tuple[Fraction, _Row]] = []
    for r in stage_t:
        ct = r.coef[2]
        if ct > 0:
            lower.append((-r.k / ct, r))
        elif ct < 0:
            upper.append((-r.k / ct, r))
    if lower and upper:
        q_lo, row_lo = max(lower, key=lambda x: x[0])
        q_hi, row_hi = min(upper, key=lambda x: x[0])
        if q_lo > q_hi or (q_lo == q_hi and (row_lo.strict or row_hi.strict)):
            return MinimizeResult(status="infeasible")
    if not lower:
        # t has no floor: take t = 0, or the tightest ceiling when it lies below 0
        ceilings = sorted(v for v, _ in upper)
        t = ceilings[0] if ceilings and ceilings[0] < 0 else Fraction(0)
        return MinimizeResult(status="unbounded", point=_back_substitute(stage_a, stage_b, t))

    q = max(v for v, _ in lower)
    at_q = [r for v, r in lower if v == q]
    attained = not any(r.strict for r in at_q)
    farkas = _combination(cs, form(f, (0, 0, -q)))

    point = _back_substitute(stage_a, stage_b, q) if attained else None
    return MinimizeResult(status="minimum", value=q, farkas=farkas, point=point)


def constraint_form_reference(kind: str, params: Sequence) -> AffineForm:
    """The affine form of a constraint, form >= 0, from its descriptor, on
    Fractions; a kind takes exactly its parameters."""
    if kind in ("k5_floor", "mono12") and params:
        raise ValueError(f"{kind} takes no parameters")
    if kind == "k5_floor":
        return form((1, 0, Fraction(-1, 720)))
    if kind == "vanishing":
        (m,) = params
        return p_affine(int(m))
    if kind == "mono12":
        return form(p_coeffs(2), (-1, p_coeffs(1)))
    if kind in ("p1_eq_lo", "p1_eq_hi", "p1_tail"):
        (l,) = params
        ca, cb, k = p_coeffs(1)
        sign = -1 if kind == "p1_eq_hi" else 1
        return form((sign * ca, sign * cb, sign * (k - int(l))))
    if kind == "from_fact":
        m, bound = params
        ca, cb, k = p_coeffs(int(m))
        k -= int(bound)
        g = gcd(ca, cb, k) or 1
        return form((Fraction(ca, g), Fraction(cb, g), Fraction(k, g)))
    raise ValueError(f"unknown constraint kind {kind!r}")
