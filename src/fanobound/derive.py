"""Exact linear-constraint derivation over the two parameters (a, b).

The derivation engine encodes a small axiom set as affine inequalities,
minimizes affine objectives by Fourier-Motzkin elimination (b first, then
a), strengthens rational bounds through integrality of P(m), splits on the
integer value of P(1), and certifies eventual monotonicity of P along a
ray.  Every derived bound comes with a Farkas combination: nonnegative
multipliers on named constraints whose sum reproduces ``objective - bound``
exactly, so an independent checker can replay the claim by substitution
alone, with no search.

The eliminator works on integer rows: each row is its rational inequality
and Farkas combination scaled by a tracked positive multiplier, so no
fraction is normalised inside the loop.  Ties, duplicates and multipliers
are decided on the rational rows the integers stand for, so every result
is identical to elimination over fractions; fractions appear only in the
returned value, multipliers and point.

Axioms:

    A1   720 a is an integer >= 1           (a >= 1/720 as an inequality)
    A3   P(m) is an integer for every m     (every lower bound is rounded up)
    A4   P(m) >= 0 for 0 <= m <= horizon    (vanishing)
    A5   P(2) >= P(1)                       (hypothesis)

A5 is the per-case hypothesis the source derivation assumes.  It is always
part of the axiom system, as an explicit, named constraint, so
certificates stay honest about what is assumed versus proved.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, product
from typing import Callable, NamedTuple, Optional, Sequence

from .exact import AffineForm, Poly, poly_positive_on_ray, to_rat
from .hilbert import (
    ChernData,
    difference_polys,
    p_affine,
    p_eval,
    p_poly,
)

DEFAULT_HORIZON = 8


class DerivationError(Exception):
    """Base class for failures of the derivation engine."""


class InfeasibleSystemError(DerivationError):
    """The hypotheses of a system contradict each other."""


class UnboundedObjectiveError(DerivationError):
    """The objective has no finite infimum over the system."""


class MonotoneCertificationError(DerivationError):
    """The ray tail could not be certified."""


# ---------------------------------------------------------------------------
# Constraints and systems
# ---------------------------------------------------------------------------

def constraint_form(kind: str, params: Sequence) -> tuple[AffineForm, bool]:
    """Rebuild the affine form and strictness of a constraint from its
    descriptor.  Verifiers use this to reject tampered forms, so a kind
    takes exactly its parameters and k5_floor and mono12 take none."""
    if kind in ("k5_floor", "mono12") and params:
        raise ValueError(f"{kind} takes no parameters")
    if kind == "k5_floor":
        return AffineForm.of(1, 0, Fraction(-1, 720)), False
    if kind == "vanishing":
        (m,) = params
        return p_affine(int(m)), False
    if kind == "mono12":
        return p_affine(2) - p_affine(1), False
    if kind == "p1_eq_lo":
        (l,) = params
        return p_affine(1) - AffineForm.constant(int(l)), False
    if kind == "p1_eq_hi":
        (l,) = params
        return AffineForm.constant(int(l)) - p_affine(1), False
    if kind == "p1_tail":
        (l0,) = params
        return p_affine(1) - AffineForm.constant(int(l0)), False
    if kind == "from_fact":
        m, bound, scale, strict = params
        form = (p_affine(int(m)) - AffineForm.constant(to_rat(bound))).scale(
            Fraction(1, 1) / to_rat(scale)
        )
        return form, bool(strict)
    raise ValueError(f"unknown constraint kind {kind!r}")


class Constraint(NamedTuple("Constraint", [
    ("cid", str), ("kind", str), ("params", tuple), ("form", AffineForm), ("strict", bool),
    ("row", "_Row"),
])):
    """An affine inequality form(a, b) >= 0 or > 0 with provenance.

    The (kind, params) descriptor regenerates the form; cid names the
    constraint inside Farkas combinations.  row is the integer row the
    minimizer reads, computed once here from cid, form and strict, so equal
    constraints have equal rows.
    """

    __slots__ = ()

    def __new__(
        cls, cid: str, kind: str, params: tuple, form: AffineForm, strict: bool
    ) -> "Constraint":
        return super().__new__(
            cls, cid, kind, params, form, strict, _constraint_row(cid, form, strict)
        )

    # _replace builds through _make, and copy and pickle through
    # __getnewargs__; each passes only the five given fields, so the row is
    # recomputed, never copied
    _make = classmethod(lambda cls, fields: cls(*tuple(fields)[:5]))

    def __getnewargs__(self) -> tuple:
        return tuple(self)[:5]

    @classmethod
    def make(cls, cid: str, kind: str, params: Sequence = ()) -> "Constraint":
        form, strict = constraint_form(kind, tuple(params))
        return cls(cid, kind, tuple(params), form, strict)


class ConstraintSystem(NamedTuple):
    """An immutable, labelled set of constraints."""

    constraints: tuple[Constraint, ...]
    label: str = ""

    def with_constraints(self, extra: Sequence[Constraint], label: str = "") -> "ConstraintSystem":
        return ConstraintSystem(self.constraints + tuple(extra), label or self.label)


def axiom_system() -> ConstraintSystem:
    """The axiom system A1..A5 with vanishing up to DEFAULT_HORIZON.

    The vanishing family is an infinite axiom schema; only finitely many
    instances can enter the eliminator.  Dropping instances only weakens
    derived lower bounds, never forges them.
    """
    cons = [Constraint.make("A1", "k5_floor")]
    for m in range(DEFAULT_HORIZON + 1):
        cons.append(Constraint.make(f"A4.{m}", "vanishing", (m,)))
    cons.append(Constraint.make("A5", "mono12"))
    return ConstraintSystem(tuple(cons), label="axioms")


def geometry_system(facts: Sequence["Fact"] = ()) -> ConstraintSystem:
    """The reduced system used after the P(1) case analysis: positivity of
    (-K)^5 plus the affine constraints carried by derived facts."""
    cs = ConstraintSystem((Constraint.make("A1", "k5_floor"),), label="geometry")
    extra = [fact_to_constraint(f) for f in facts]
    return cs.with_constraints(extra, label="geometry")


# ---------------------------------------------------------------------------
# Fourier-Motzkin minimization
# ---------------------------------------------------------------------------

_OBJ_POS = "__obj_pos__"
_OBJ_NEG = "__obj_neg__"


class _Row(NamedTuple):
    """One inequality ca*a + cb*b + ct*t + k (>= or >) 0 in integers.

    The row is lam times the rational row it stands for (lam > 0): the
    coefficients, the constant and every multiplier of the Farkas combination
    (sorted (cid, multiplier) pairs) are scaled alike, so signs, bounds
    -k/ct and multipliers v/ct read the same as on the rational row.
    """

    coef: tuple[int, int, int]
    k: int
    strict: bool
    combo: tuple[tuple[str, int], ...]
    lam: int


def _int_form(form: AffineForm) -> tuple[int, tuple[int, int, int]]:
    """(lam, (ca, cb, k)): the form times lam, the lcm of its denominators."""
    xs = form.as_tuple()
    lam = math.lcm(*(x.denominator for x in xs))
    ca, cb, k = (x.numerator * (lam // x.denominator) for x in xs)
    return lam, (ca, cb, k)


def _constraint_row(cid: str, form: AffineForm, strict: bool) -> _Row:
    lam, (ca, cb, k) = _int_form(form)
    return _Row((ca, cb, 0), k, strict, ((cid, lam),), lam)


def _objective_rows(f: AffineForm) -> tuple[_Row, _Row]:
    """t - f >= 0 and its negation f - t >= 0, which pin t to f."""
    lam, (ca, cb, k) = _int_form(f)
    return (
        _Row((-ca, -cb, lam), -k, False, ((_OBJ_POS, lam),), lam),
        _Row((ca, cb, -lam), k, False, ((_OBJ_NEG, lam),), lam),
    )


def _merge_combos(c1, m1: int, c2, m2: int):
    # m1, m2 and every multiplier are positive, so no entry cancels
    acc = {cid: m1 * v for cid, v in c1}
    for cid, v in c2:
        acc[cid] = acc.get(cid, 0) + m2 * v
    return tuple(sorted(acc.items()))


def _rational_combo(row: _Row) -> tuple[tuple[str, Fraction], ...]:
    return tuple((cid, Fraction(v, row.lam)) for cid, v in row.combo)


def _eliminate(rows: list[_Row], idx: int) -> list[_Row]:
    """One Fourier-Motzkin step on variable ``idx``.

    The rows free of the variable come first, then every (positive,
    negative) pair combined so that the variable cancels.  Rows with no
    variable left are dropped, and a row whose rational row was already
    kept is skipped before its combination is built; the key is the integer
    row and lam divided by their gcd, which is the rational row in lowest
    terms.  Returns the refuting constant row alone when one appears (the
    caller reads the refutation off it).
    """
    pos = [r for r in rows if r.coef[idx] > 0]
    neg = [r for r in rows if r.coef[idx] < 0]
    zero = [(r, None) for r in rows if r.coef[idx] == 0]
    out: list[_Row] = []
    seen = set()
    for p, n in chain(zero, product(pos, neg)):
        if n is None:
            coef, k, strict, lam = p.coef, p.k, p.strict, p.lam
        else:
            lp = -n.coef[idx]
            ln = p.coef[idx]
            pc, nc = p.coef, n.coef
            coef = (lp * pc[0] + ln * nc[0], lp * pc[1] + ln * nc[1], lp * pc[2] + ln * nc[2])
            k = lp * p.k + ln * n.k
            strict = p.strict or n.strict
            lam = p.lam * n.lam
        constant = coef == (0, 0, 0)
        if constant:
            if k > 0 or (k == 0 and not strict):
                continue  # carries no information
        else:
            g = math.gcd(*coef, k, lam)
            key = (coef[0] // g, coef[1] // g, coef[2] // g, k // g, lam // g, strict)
            if key in seen:
                continue
            seen.add(key)
        row = p if n is None else _Row(coef, k, strict, _merge_combos(p.combo, lp, n.combo, ln), lam)
        if constant:
            return [row]
        out.append(row)
    return out


class MinimizeResult(NamedTuple):
    """Outcome of an exact minimization.

    status is one of "minimum", "unbounded", "infeasible".  For "minimum",
    value is the infimum, attained tells whether it is reached, farkas is a
    tuple of (cid, multiplier) with

        sum(multiplier * constraint.form) == objective - value

    and point is an optimal (a, b) when the infimum is attained.
    """

    status: str
    value: Optional[Fraction] = None
    attained: bool = False
    strict: bool = False
    farkas: tuple[tuple[str, Fraction], ...] = ()
    point: Optional[tuple[Fraction, Fraction]] = None


def _pick_in_interval(
    lo: Optional[Fraction],
    lo_strict: bool,
    hi: Optional[Fraction],
    hi_strict: bool,
) -> Fraction:
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi - 1 if hi_strict else hi  # type: ignore[operator]
    if hi is None:
        return lo + 1 if lo_strict else lo
    if lo == hi:
        return lo
    if not lo_strict:
        return lo
    return (lo + hi) / 2


def _bounds_on(rows: Sequence[_Row], idx: int, values: dict[int, Fraction]):
    # the known values over one common denominator, so that each row's
    # bound -(k + sum coef_j * v_j) / c is a single integer fraction
    den = math.lcm(*(v.denominator for v in values.values()))
    nums = [(j, v.numerator * (den // v.denominator)) for j, v in values.items()]
    lo: Optional[Fraction] = None
    lo_strict = False
    hi: Optional[Fraction] = None
    hi_strict = False
    for r in rows:
        c = r.coef[idx]
        if c == 0:
            continue
        rest = r.k * den
        for j, n in nums:
            rest += r.coef[j] * n
        bound = Fraction(-rest, c * den)
        if c > 0:
            if lo is None or bound > lo or (bound == lo and r.strict):
                lo, lo_strict = bound, r.strict
        else:
            if hi is None or bound < hi or (bound == hi and r.strict):
                hi, hi_strict = bound, r.strict
    return lo, lo_strict, hi, hi_strict


def fm_minimize(cs: ConstraintSystem, f: AffineForm) -> MinimizeResult:
    """Exact infimum of f over the feasible region of cs.

    Couples a fresh variable t to f with two opposite inequalities, then
    eliminates b and a; the surviving constraints on t describe the exact
    set of attainable objective values.  Infeasible and unbounded are
    results, not errors.
    """
    rows = [c.row for c in cs.constraints]
    rows.extend(_objective_rows(f))

    def refutation(row: _Row) -> MinimizeResult:
        farkas = tuple(x for x in _rational_combo(row) if x[0] not in (_OBJ_POS, _OBJ_NEG))
        return MinimizeResult(status="infeasible", farkas=farkas)

    stage_b = rows
    stage_a = _eliminate(stage_b, 1)
    if len(stage_a) == 1 and stage_a[0].coef == (0, 0, 0):
        return refutation(stage_a[0])
    stage_t = _eliminate(stage_a, 0)
    if len(stage_t) == 1 and stage_t[0].coef == (0, 0, 0):
        return refutation(stage_t[0])

    lower: list[tuple[Fraction, _Row]] = []
    upper: list[tuple[Fraction, _Row]] = []
    for r in stage_t:
        ct = r.coef[2]
        if ct > 0:
            lower.append((Fraction(-r.k, ct), r))
        elif ct < 0:
            upper.append((Fraction(-r.k, ct), r))
    if lower and upper:
        q_lo, row_lo = max(lower, key=lambda x: x[0])
        q_hi, row_hi = min(upper, key=lambda x: x[0])
        if q_lo > q_hi or (q_lo == q_hi and (row_lo.strict or row_hi.strict)):
            lp = -row_hi.coef[2]
            ln = row_lo.coef[2]
            combo = _merge_combos(row_lo.combo, lp, row_hi.combo, ln)
            return refutation(_Row((0, 0, 0), 0, True, combo, row_lo.lam * row_hi.lam))
    if not lower:
        return MinimizeResult(status="unbounded")

    q = max(v for v, _ in lower)
    at_q = [r for v, r in lower if v == q]
    # any strict row sitting exactly at q forces t > q, so q is not attained
    attained = not any(r.strict for r in at_q)
    pool = at_q if attained else [r for r in at_q if r.strict]
    # tie-break on the rational combination, as if rows were never scaled
    row = min(pool, key=_rational_combo)
    ct = row.coef[2]
    farkas = tuple(
        (cid, Fraction(v, ct)) for cid, v in row.combo if cid not in (_OBJ_POS, _OBJ_NEG)
    )

    point: Optional[tuple[Fraction, Fraction]] = None
    if attained:
        t_star = q
        a_lo, a_lo_s, a_hi, a_hi_s = _bounds_on(stage_a, 0, {2: t_star})
        a_star = _pick_in_interval(a_lo, a_lo_s, a_hi, a_hi_s)
        b_lo, b_lo_s, b_hi, b_hi_s = _bounds_on(stage_b, 1, {0: a_star, 2: t_star})
        b_star = _pick_in_interval(b_lo, b_lo_s, b_hi, b_hi_s)
        point = (a_star, b_star)
        assert f.evaluate(*point) == q
        for c in cs.constraints:
            v = c.form.evaluate(*point)
            assert v > 0 if c.strict else v >= 0

    return MinimizeResult(
        status="minimum",
        value=q,
        attained=attained,
        strict=not attained,
        farkas=farkas,
        point=point,
    )


def feasible_point(cs: ConstraintSystem) -> Optional[tuple[Fraction, Fraction]]:
    """A deterministic feasible point of cs, or None when infeasible."""
    res = fm_minimize(cs, AffineForm.constant(0))
    if res.status != "minimum":
        return None
    return res.point


def point_with_value_below(
    cs: ConstraintSystem, f: AffineForm, target: Fraction
) -> Optional[tuple[Fraction, Fraction]]:
    """A feasible point of cs where f < target, or None when f >= target
    throughout.  Used to witness that a search step genuinely fails."""
    aux = Constraint(
        cid="__aux_below__",
        kind="aux",
        params=(),
        form=AffineForm.constant(to_rat(target)) - f,
        strict=True,
    )
    return feasible_point(cs.with_constraints([aux]))


# ---------------------------------------------------------------------------
# Facts, strengthening, case split
# ---------------------------------------------------------------------------

class Fact(NamedTuple):
    """A derived claim P(m) >= bound (or > bound)."""

    m: int
    bound: Fraction
    strict: bool = False

    def describe(self) -> str:
        op = ">" if self.strict else ">="
        return f"P({self.m}) {op} {self.bound}"


class Branch(NamedTuple):
    label: str
    system: ConstraintSystem


def strengthen_integral(fact: Fact) -> Fact:
    """Round a rational bound on the integer P(m) (axiom A3) up to the next
    integer.

    P(m) > q becomes P(m) >= floor(q)+1; P(m) >= q with q not an integer
    becomes P(m) >= ceil(q); integral non-strict bounds are unchanged.
    """
    q = fact.bound
    if fact.strict:
        new = Fraction(math.floor(q) + 1)
    elif q.denominator != 1:
        new = Fraction(math.ceil(q))
    else:
        return fact
    return Fact(fact.m, new, False)


def derive_lower_bound(cs: ConstraintSystem, m: int) -> Fact:
    """Strongest P(m) >= q obtainable by minimization then integral
    strengthening."""
    if m < 0:
        raise ValueError("lower bounds are derived for m >= 0 only")
    res = fm_minimize(cs, p_affine(m))
    if res.status == "infeasible":
        raise InfeasibleSystemError(f"hypotheses of {cs.label or 'system'} are contradictory")
    if res.status == "unbounded":
        raise UnboundedObjectiveError(f"P({m}) is unbounded below over {cs.label or 'system'}")
    return strengthen_integral(Fact(m, res.value, res.strict))


def split_on_p1(cs: ConstraintSystem, lmax: int) -> list[Branch]:
    """Case split on the value of P(1): branches P(1) = 0, 1, ..., lmax and
    the tail P(1) >= lmax + 1.

    Coverage: P(1) is a nonnegative integer under vanishing and integrality,
    so the branches exhaust the feasible set of cs.
    """
    if lmax < 0:
        raise ValueError("lmax must be >= 0")
    branches = []
    for l in range(lmax + 1):
        extra = [
            Constraint.make(f"H.P1={l}.lo", "p1_eq_lo", (l,)),
            Constraint.make(f"H.P1={l}.hi", "p1_eq_hi", (l,)),
        ]
        branches.append(Branch(f"P(1)={l}", cs.with_constraints(extra, label=f"P(1)={l}")))
    tail = [Constraint.make(f"H.P1>={lmax + 1}", "p1_tail", (lmax + 1,))]
    branches.append(
        Branch(f"P(1)>={lmax + 1}", cs.with_constraints(tail, label=f"P(1)>={lmax + 1}"))
    )
    return branches


def merge_branch_facts(facts: Sequence[Fact]) -> Fact:
    """Combine one fact per covering branch into a fact on the parent system:
    the bound is the minimum over branches."""
    if not facts:
        raise ValueError("nothing to merge")
    m = facts[0].m
    if any(f.m != m for f in facts):
        raise ValueError("facts speak about different multiples")
    q = min(f.bound for f in facts)
    strict = all(f.strict for f in facts if f.bound == q)
    return Fact(m, q, strict)


def fact_to_constraint(fact: Fact) -> Constraint:
    """Turn P(m) >= q into a primitive affine inequality on (a, b).

    The form (P(m) - q) is divided by the positive gcd of its scaled integer
    coefficients, e.g. P(3) >= 7 becomes 35a + b >= 0.
    """
    base = p_affine(fact.m) - AffineForm.constant(fact.bound)
    denom_lcm, ints = _int_form(base)
    g = math.gcd(*ints)
    scale = Fraction(g, denom_lcm) if g else Fraction(1)
    cid = f"F.P{fact.m}{'>' if fact.strict else '>='}{fact.bound}"
    return Constraint.make(
        cid, "from_fact", (fact.m, fact.bound, scale, fact.strict)
    )


# ---------------------------------------------------------------------------
# Monotonicity certificates
# ---------------------------------------------------------------------------

class TailCertificate(NamedTuple):
    """Witness that P(m+1) - P(m) > 0 for every m >= m_start.

    q_poly is an exact univariate lower bound for the difference on the
    ray; its shift at m_start has nonnegative coefficients and a positive
    constant term.  In worst-case mode the bound arises by substituting a
    named lower-bound constraint for b and then the floor constraint for a;
    each substitution minimizes because the polynomial it multiplies is
    nonnegative on the ray, which the verifier re-checks.
    """

    m_start: int
    q_poly: Poly
    mode: str  # "worst_case" | "concrete" | "oracle"
    b_constraint: Optional[str] = None
    a_constraint: Optional[str] = None


def monotone_from(cs: ConstraintSystem, m0: int) -> TailCertificate:
    """Certify P(m+1) > P(m) over cs for every m >= m0 by the ray tail.

    The b-coefficient of the difference is nonnegative on the ray, so a
    lower-bound constraint on b can be substituted; the resulting
    a-coefficient must be nonnegative too, so a floor on a can follow.
    A failure is reported, not papered over.
    """
    if m0 < 1:
        raise ValueError("m0 must be >= 1")
    da, db, dk = difference_polys()
    # candidates providing a lower bound for b: coeff_b > 0
    b_cands = [c for c in cs.constraints if c.form.coeff_b > 0 and not c.strict]
    # candidates providing a lower bound for a alone: coeff_b == 0, coeff_a > 0
    a_cands = [
        c
        for c in cs.constraints
        if c.form.coeff_b == 0 and c.form.coeff_a > 0 and not c.strict
    ]
    # substituting the lower bound for b minimizes only if db >= 0 on the ray
    if not all(c >= 0 for c in db.shift(m0).coeffs):
        raise MonotoneCertificationError(
            f"difference b-coefficient not certified nonnegative from m = {m0}"
        )
    for bc in b_cands:
        # bc gives b >= -(ca*a + k)/cb
        ratio_a = bc.form.coeff_a / bc.form.coeff_b
        ratio_k = bc.form.const / bc.form.coeff_b
        subst_a = da - db.scale(ratio_a)
        subst_k = dk - db.scale(ratio_k)
        if not all(c >= 0 for c in subst_a.shift(m0).coeffs):
            continue
        for ac in a_cands:
            a_floor = -ac.form.const / ac.form.coeff_a
            q = subst_a.scale(a_floor) + subst_k
            if poly_positive_on_ray(q, m0):
                return TailCertificate(
                    m_start=m0,
                    q_poly=q,
                    mode="worst_case",
                    b_constraint=bc.cid,
                    a_constraint=ac.cid,
                )
    raise MonotoneCertificationError(f"no tail certificate from m = {m0}")


class ValueTable(NamedTuple):
    """Exact section counts h0(-mK) for m = first, first + 1, ..., with
    (-K)^5 and the polynomial the counts follow.

    mode names the source in certificates: "concrete" for Chern data,
    whose polynomial is P itself, or "oracle" for a section-count oracle,
    whose polynomial is interpolated and checked against the table.
    """

    values: tuple[int, ...]
    first: int
    d5: int
    poly: Poly
    mode: str

    def at(self, m: int) -> int:
        i = m - self.first
        if not 0 <= i < len(self.values):
            raise ValueError(f"the value table has no entry for m = {m}")
        return self.values[i]


def chern_table(c: ChernData, m_max: int) -> ValueTable:
    """P(0..m_max) for concrete Chern data, each value passing p_eval's
    checks."""
    values = tuple(p_eval(c, m) for m in range(m_max + 1))
    return ValueTable(values, 0, c.k5, p_poly(c), "concrete")


def table_monotone(table: ValueTable, m0: int) -> TailCertificate:
    """Certify P(m+1) > P(m) for every m >= m0 from the difference of the
    table's polynomial."""
    q = table.poly.shift(1) - table.poly
    if not poly_positive_on_ray(q, m0):
        raise MonotoneCertificationError(f"no tail certificate from m = {m0}")
    return TailCertificate(m0, q, table.mode)


def interpolate_model(values: Callable[[int], int], ms: Sequence[int]) -> Poly:
    """Exact Lagrange interpolation through (m, values(m)) for m in ms.

    The node polynomials prod_{j != i} (t - m_j) have integer coefficients:
    each is prod_j (t - m_j) divided by t - m_i synthetically.  The weights
    values(m_i) / prod_{j != i} (m_i - m_j) go over one common denominator,
    so the sum runs on integers and each coefficient is one Fraction.
    """
    if len(set(ms)) != len(ms):
        raise ValueError("interpolation nodes must be distinct")
    ys = [to_rat(values(m)) for m in ms]
    full = [1]  # prod_j (t - m_j), low degree first
    for m in ms:
        full = [hi - m * lo for lo, hi in zip(full + [0], [0] + full)]
    dens = [
        y.denominator * math.prod(mi - mj for mj in ms if mj != mi)
        for mi, y in zip(ms, ys)
    ]
    den = math.lcm(*dens)
    acc = [0] * len(ms)
    for mi, y, d in zip(ms, ys, dens):
        weight = y.numerator * (den // d)
        carry = 0
        for k in range(len(ms), 0, -1):
            carry = full[k] + mi * carry
            acc[k - 1] += weight * carry
    return Poly([Fraction(c, den) for c in acc])
