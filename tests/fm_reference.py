"""Reference Fourier-Motzkin minimizer on Fraction rows, and the Fraction
ladder of constraint forms.

The minimizer is the rational kernel ``derive.fm_minimize`` used before it
moved to integer rows, with the point of an unbounded objective restated
apart from it.  Tests compare the two on random systems: every field of
the result must agree, because certificates are built from them.

The ladder is ``derive.constraint_form`` as it stood before the kinds moved
to ``hilbert.constraint_row``, which must agree with it on every kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from fanobound.derive import ConstraintSystem, MinimizeResult
from fanobound.exact import AffineForm, to_rat
from fanobound.hilbert import p_affine, p_coeffs

_OBJ_POS = "__obj_pos__"
_OBJ_NEG = "__obj_neg__"


@dataclass(frozen=True)
class _Row:
    # coef = (ca, cb, ct); the row asserts ca*a + cb*b + ct*t + k (>= or >) 0
    coef: tuple[Fraction, Fraction, Fraction]
    k: Fraction
    strict: bool
    combo: tuple[tuple[str, Fraction], ...]


def _merge_combos(c1, m1: Fraction, c2, m2: Fraction):
    acc: dict[str, Fraction] = {}
    for cid, v in c1:
        acc[cid] = acc.get(cid, Fraction(0)) + m1 * v
    for cid, v in c2:
        acc[cid] = acc.get(cid, Fraction(0)) + m2 * v
    return tuple(sorted((cid, v) for cid, v in acc.items() if v != 0))


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
            out.append(
                _Row(coef, k, p.strict or n.strict, _merge_combos(p.combo, lp, n.combo, ln))
            )
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


def fm_minimize_reference(cs: ConstraintSystem, f: AffineForm) -> MinimizeResult:
    rows = [
        _Row(
            (c.form.coeff_a, c.form.coeff_b, Fraction(0)),
            c.form.const,
            c.strict,
            ((c.cid, Fraction(1)),),
        )
        for c in cs.constraints
    ]
    rows.append(
        _Row((-f.coeff_a, -f.coeff_b, Fraction(1)), -f.const, False, ((_OBJ_POS, Fraction(1)),))
    )
    rows.append(
        _Row((f.coeff_a, f.coeff_b, Fraction(-1)), f.const, False, ((_OBJ_NEG, Fraction(1)),))
    )

    def refutation(row: _Row) -> MinimizeResult:
        farkas = tuple((cid, v) for cid, v in row.combo if cid not in (_OBJ_POS, _OBJ_NEG))
        return MinimizeResult(status="infeasible", farkas=farkas)

    stage_b = rows
    stage_a = _eliminate(stage_b, 1)
    if len(stage_a) == 1 and all(c == 0 for c in stage_a[0].coef):
        return refutation(stage_a[0])
    stage_t = _eliminate(stage_a, 0)
    if len(stage_t) == 1 and all(c == 0 for c in stage_t[0].coef):
        return refutation(stage_t[0])

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
            combo = _merge_combos(row_lo.combo, -row_hi.coef[2], row_hi.combo, row_lo.coef[2])
            return refutation(_Row((Fraction(0),) * 3, Fraction(0), True, combo))
    if not lower:
        # t has no floor: take t = 0, or the tightest ceiling when it lies below 0
        ceilings = sorted(v for v, _ in upper)
        t = ceilings[0] if ceilings and ceilings[0] < 0 else Fraction(0)
        return MinimizeResult(status="unbounded", point=_back_substitute(stage_a, stage_b, t))

    q = max(v for v, _ in lower)
    at_q = [r for v, r in lower if v == q]
    attained = not any(r.strict for r in at_q)
    pool = at_q if attained else [r for r in at_q if r.strict]
    row = sorted(pool, key=lambda r: r.combo)[0]
    ct = row.coef[2]
    farkas = tuple((cid, v / ct) for cid, v in row.combo if cid not in (_OBJ_POS, _OBJ_NEG))

    point = _back_substitute(stage_a, stage_b, q) if attained else None
    return MinimizeResult(status="minimum", value=q, farkas=farkas, point=point)


def constraint_form_reference(kind: str, params: Sequence) -> AffineForm:
    """The affine form of a constraint, form >= 0, from its descriptor, on
    Fractions; a kind takes exactly its parameters."""
    if kind in ("k5_floor", "mono12") and params:
        raise ValueError(f"{kind} takes no parameters")
    if kind == "k5_floor":
        return AffineForm.of(1, 0, Fraction(-1, 720))
    if kind == "vanishing":
        (m,) = params
        return p_affine(int(m))
    if kind == "mono12":
        return AffineForm.of(*(x - y for x, y in zip(p_coeffs(2), p_coeffs(1))))
    if kind in ("p1_eq_lo", "p1_eq_hi", "p1_tail"):
        (l,) = params
        ca, cb, k = p_coeffs(1)
        sign = -1 if kind == "p1_eq_hi" else 1
        return AffineForm.of(sign * ca, sign * cb, sign * (k - int(l)))
    if kind == "from_fact":
        m, bound, scale = params
        ca, cb, k = p_coeffs(int(m))
        k, inv = k - to_rat(bound), Fraction(1, 1) / to_rat(scale)
        return AffineForm.of(ca * inv, cb * inv, k * inv)
    raise ValueError(f"unknown constraint kind {kind!r}")
