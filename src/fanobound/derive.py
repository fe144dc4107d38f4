"""Exact linear-constraint derivation over the two parameters (a, b).

The derivation engine encodes a small axiom set as closed affine
inequalities, minimizes affine objectives by Fourier-Motzkin elimination
(b first, then a), strengthens rational bounds through integrality of
P(m) into closed integral facts P(m) >= q, splits on the integer value of
P(1), and certifies eventual monotonicity of P along a ray.  Every derived
bound comes with a Farkas combination: positive multipliers on one or two
named constraints whose sum reproduces ``objective - bound`` exactly, so an
independent checker can replay the bound by substitution alone, with no
search.  Every row is closed, so a minimum that is bounded below is
attained, and it comes with a point that attains it; an objective that is
unbounded below comes with a feasible point where it is at most 0, which
refutes any test that asks for a positive lower bound.

The eliminator works on integer rows (ca, cb, ct, k), so no fraction is
normalised inside the loop; each row it derives is divided by the gcd of
its entries, so duplicates are found as equal primitive rows.  When the
objective f holds b, b is eliminated through the equality t = f that
couples the objective to its value t: each row holding b is combined once
with it.  Only an objective free of b pairs every row bounding b below
with every row bounding it above.  The last step, eliminating a, is
streamed: its rows bound only t, so only the greatest floor and the
least ceiling are kept.  Bounds are compared by cross-multiplying, a and
b are back-substituted on integers, and the returned point is checked on
integers.  The Farkas combination of a minimum is then solved from the
constraints tight at that point: in two variables one or two of them
always suffice.  Fractions appear only in the returned value, multipliers
and point.

Axioms:

    A1   720 a is an integer >= 1           (a >= 1/720 as an inequality)
    A3   P(m) is an integer for every m     (every lower bound is rounded up)
    A4   P(m) >= 0 for 0 <= m <= horizon    (vanishing)
    A5   P(2) >= P(1)                       (hypothesis)

A5 is the per-case hypothesis the source derivation assumes.  It is always
part of the axiom system, as an explicit, named constraint, so
certificates stay honest about what is assumed versus proved.

Systems are immutable: tuples of constraints, each a NamedTuple whose
integer row is built once from its descriptor.  So the axiom system is
built on first use and then shared by every caller, and a case split's
branches may be kept and shared too; only the minimizations run afresh.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, product
from typing import Callable, NamedTuple, Optional, Sequence

from .exact import AffineForm, Poly, over_common_denominator, poly_positive_on_ray
from .hilbert import (
    CONSTRAINT_CIDS,
    ChernData,
    constraint_row,
    p_affine,
    p_eval,
    p_poly,
    ray_tail,
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

def constraint_form(row: tuple) -> AffineForm:
    """The affine form of a constraint, form >= 0, from its integer row
    (ca, cb, k, den): the row over its denominator."""
    ca, cb, k, den = row
    return AffineForm(Fraction(ca, den), Fraction(cb, den), Fraction(k, den))


class Constraint(NamedTuple("Constraint", [
    ("cid", str), ("kind", str), ("params", tuple), ("form", AffineForm), ("row", tuple),
])):
    """A closed affine inequality form(a, b) >= 0 with provenance.

    The (kind, params) descriptor regenerates the form of a declared
    constraint, and make takes its cid from hilbert.CONSTRAINT_CIDS.  cid
    names the constraint inside Farkas combinations.  row is the integer
    row (ca, cb, k, den) the minimizer reads, the form times den, the lcm
    of its denominators: make reads the form off the row, and a constraint
    built from its first four fields computes the row from the form.
    """

    __slots__ = ()
    # every constraint is closed; perfbench's tracer reads this flag
    strict = False

    def __new__(cls, cid: str, kind: str, params: tuple, form: AffineForm) -> "Constraint":
        ints, den = over_common_denominator(form)
        return super().__new__(cls, cid, kind, params, form, (*ints, den))

    # _replace builds through _make, and copy and pickle through
    # __getnewargs__; each passes only the four given fields, so the row is
    # recomputed, never copied
    _make = classmethod(lambda cls, fields: cls(*tuple(fields)[:4]))

    def __getnewargs__(self) -> tuple:
        return tuple(self)[:4]

    @classmethod
    def make(cls, kind: str, params: Sequence = ()) -> "Constraint":
        """The constraint a descriptor declares: its row built once by
        hilbert.constraint_row, and the form read off that row.  Every
        param is exactly an int, as a certificate writes it, so a bool,
        a float or a string is refused before it can name a constraint."""
        params = tuple(params)
        for p in params:
            if type(p) is not int:
                raise ValueError(f"a {kind} param must be an int, got {p!r}")
        row = constraint_row(kind, params)
        cid = CONSTRAINT_CIDS[kind].format(*params)
        return super().__new__(cls, cid, kind, params, constraint_form(row), row)


class ConstraintSystem(NamedTuple):
    """An immutable, labelled set of constraints."""

    constraints: tuple[Constraint, ...]
    label: str = ""

    def with_constraints(self, extra: Sequence[Constraint], label: str = "") -> "ConstraintSystem":
        return ConstraintSystem(self.constraints + tuple(extra), label or self.label)


@cache
def axiom_system() -> ConstraintSystem:
    """The axiom system A1..A5 with vanishing up to DEFAULT_HORIZON.

    The vanishing family is an infinite axiom schema; only finitely many
    instances can enter the eliminator.  Dropping instances only weakens
    derived lower bounds, never forges them.

    The system is built on the first call, not at import, and every call
    returns that one object; it is a tuple of tuples, so no caller can
    change what the next one reads.
    """
    cons = [Constraint.make("k5_floor")]
    cons += [Constraint.make("vanishing", (m,)) for m in range(DEFAULT_HORIZON + 1)]
    cons.append(Constraint.make("mono12"))
    return ConstraintSystem(tuple(cons), label="axioms")


def geometry_system(facts: Sequence["Fact"] = ()) -> ConstraintSystem:
    """The reduced system used after the P(1) case analysis: positivity of
    (-K)^5, the axiom system's own A1, plus the affine constraints carried
    by derived facts."""
    cs = ConstraintSystem(axiom_system().constraints[:1], label="geometry")
    extra = [fact_to_constraint(f) for f in facts]
    return cs.with_constraints(extra, label="geometry")


# ---------------------------------------------------------------------------
# Fourier-Motzkin minimization
# ---------------------------------------------------------------------------

def _pairs(rows: list[tuple], idx: int):
    """The rows free of variable idx as (row, None), then every (positive,
    negative) pair on it: the order an elimination reads them in."""
    pos = [r for r in rows if r[idx] > 0]
    neg = [r for r in rows if r[idx] < 0]
    return chain([(r, None) for r in rows if r[idx] == 0], product(pos, neg))


def _through(rows: list[tuple], up: tuple, down: tuple) -> list[tuple]:
    """Each row as _eliminate reads it: a row free of b as (row, None), and
    a row holding b paired with the side of the equality up = -down = 0
    whose sign on b is opposite; up holds b positively.  Substituting b from
    an equality projects exactly, with one combination per row instead of
    one per pair (Schrijver, Theory of Linear and Integer Programming,
    1986, ch. 12)."""
    return [(r, None) if r[1] == 0 else (r, down) if r[1] > 0 else (up, r) for r in rows]


def _eliminate(pairs) -> Optional[list[tuple]]:
    """One Fourier-Motzkin step on b over rows (ca, cb, ct, k), read as
    _pairs or _through yields them.

    A row free of b is kept and each (positive, negative) pair is combined
    so that b cancels.  Each row is divided by the gcd of its entries, and
    a primitive row already kept is skipped; rows with no variable left are
    dropped.  Returns None when a negative constant row appears: the system
    is infeasible.
    """
    out = {}
    for p, n in pairs:
        if n is None:
            ca, _, ct, k = p
        else:
            lp, ln = -n[1], p[1]
            ca, ct, k = lp * p[0] + ln * n[0], lp * p[2] + ln * n[2], lp * p[3] + ln * n[3]
        if ca == ct == 0:
            if k < 0:
                return None
            continue  # carries no information
        g = math.gcd(ca, ct, k)
        out[(ca // g, 0, ct // g, k // g)] = None
    return list(out)


class MinimizeResult(NamedTuple):
    """Outcome of an exact minimization.

    status is one of "minimum", "unbounded", "infeasible".  For "minimum",
    value is the minimum, farkas is a tuple of at most two (cid,
    multiplier), distinct, in cid order and positive, with

        sum(multiplier * constraint.form) == objective - value

    and point is an (a, b) where the objective equals value.  For
    "unbounded", point is a feasible (a, b) where the objective equals
    min(0, its supremum), so it is at most 0.  An infeasible result
    carries no combination and no point.
    """

    status: str
    value: Optional[Fraction] = None
    farkas: tuple[tuple[str, Fraction], ...] = ()
    point: Optional[tuple[Fraction, Fraction]] = None


def _back_substitute(rows: Sequence[tuple], idx: int, point: tuple) -> tuple[int, int]:
    """The least value of variable idx the rows allow once the others are
    fixed, else the greatest, else 0, as (numerator, positive denominator).

    point is the homogeneous (a, b, t, den), den > 0 and 0 at idx, so each
    row's bound is a pair of integers, compared by cross-multiplying.
    """
    xa, xb, xt, den = point
    lo = hi = None  # (numerator, positive denominator)
    for ca, cb, ct, k in rows:
        c = cb if idx else ca
        if c == 0:
            continue
        rest = ca * xa + cb * xb + ct * xt + k * den
        if c > 0:
            if lo is None or -rest * lo[1] > lo[0] * c * den:
                lo = (-rest, c * den)
        elif hi is None or rest * hi[1] < hi[0] * -c * den:
            hi = (rest, -c * den)
    return lo or hi or (0, 1)


def _basic_combination(tight: list[Constraint], fa: int, fb: int, lf: int):
    """The Farkas combination of a minimum of f = (fa, fb, .)/lf from the
    constraints tight at its point: the first single whose gradient is a
    positive multiple of f's, else the first pair, in cid order, whose
    2x2 solve for f's gradient is positive; () for a constant f.

    Every row is tight at the point, where f equals its minimum, so the
    constants agree once the gradients do.  Linear programming duality
    and Caratheodory's theorem in two variables say a single or a pair
    always exists; both are solved on integers, one Fraction per
    multiplier.
    """
    if fa == fb == 0:
        return ()
    tight = sorted(tight, key=lambda c: c.cid)
    for c in tight:
        ca, cb, _, den = c.row
        if ca * fb == cb * fa and ca * fa + cb * fb > 0:
            return ((c.cid, Fraction(den * (ca * fa + cb * fb), lf * (ca * ca + cb * cb))),)
    for ci, cj in combinations(tight, 2):
        (ai, bi, _, di), (aj, bj, _, dj) = ci.row, cj.row
        # Cramer's rule: (fa, fb) = (xi (ai, bi) + xj (aj, bj)) / d
        d = ai * bj - aj * bi
        xi, xj = fa * bj - fb * aj, ai * fb - bi * fa
        if xi * d > 0 and xj * d > 0:
            return ((ci.cid, Fraction(di * xi, lf * d)), (cj.cid, Fraction(dj * xj, lf * d)))
    raise AssertionError("fm_minimize: no tight single or pair certifies the minimum")


def fm_minimize(cs: ConstraintSystem, f: AffineForm) -> MinimizeResult:
    """Exact minimum of f over the feasible region of cs.

    Couples a fresh variable t to f with two opposite inequalities, then
    eliminates b and a; the surviving constraints on t describe the exact
    set of attainable objective values.  When f holds b, b is eliminated
    through the equality t = f, one combination per row; otherwise every
    (positive, negative) pair on b is combined.  Infeasible and unbounded
    are results, not errors; both feasible outcomes fix t and
    back-substitute a, then b, for their point, which is checked against f
    and every constraint before it is returned.  A minimum's Farkas
    combination is read off the constraints tight at that point.
    """
    (fa, fb, fk), lf = over_common_denominator(f)
    rows = [(ca, cb, 0, k) for ca, cb, k, _ in (c.row for c in cs.constraints)]
    t_minus_f, f_minus_t = (-fa, -fb, lf, -fk), (fa, fb, -lf, fk)
    stage_b = rows + [t_minus_f, f_minus_t]
    if fb:
        # b through the equality t = f, up its side holding b positively
        up, down = (f_minus_t, t_minus_f) if fb > 0 else (t_minus_f, f_minus_t)
        stage_a = _eliminate(_through(rows, up, down))
    else:
        # both sides of t = f are free of b and pass through the pairing
        stage_a = _eliminate(_pairs(stage_b, 1))
    if stage_a is None:
        return MinimizeResult("infeasible")

    # eliminating a, streamed: each row it yields is ct*t + k >= 0, so only
    # the greatest floor -k/ct and the least ceiling on t are kept, as
    # (numerator, positive denominator), compared by cross-multiplying
    lo = hi = None
    for p, n in _pairs(stage_a, 0):
        if n is None:
            ct, k = p[2], p[3]
        else:
            lp, ln = -n[0], p[0]
            ct, k = lp * p[2] + ln * n[2], lp * p[3] + ln * n[3]
        if ct > 0:
            if lo is None or -k * lo[1] > lo[0] * ct:
                lo = (-k, ct)
        elif ct < 0:
            if hi is None or k * hi[1] < hi[0] * -ct:
                hi = (k, -ct)
        elif k < 0:
            return MinimizeResult("infeasible")

    if lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
        return MinimizeResult("infeasible")  # the floor lies above the ceiling
    if lo is not None:
        (qn, qd), status = lo, "minimum"
    else:
        # no floor on t: f takes every value up to its supremum
        (qn, qd), status = (hi if hi is not None and hi[0] < 0 else (0, 1)), "unbounded"

    # back-substitute t = qn/qd: a from the rows on (a, t), then b, on
    # integers; only the returned coordinates become Fractions
    an, ad = _back_substitute(stage_a, 0, (0, 0, qn, qd))
    bn, bd = _back_substitute(stage_b, 1, (an * qd, 0, qn * ad, ad * qd))
    a_star, b_star = Fraction(an, ad), Fraction(bn, bd)
    # both checks on integers: each row at the point, times ad * bd

    def at_point(ca: int, cb: int, k: int) -> int:
        return ca * an * bd + cb * bn * ad + k * ad * bd

    if at_point(fa, fb, fk) * qd != lf * ad * bd * qn:
        q = Fraction(qn, qd)
        raise AssertionError(f"fm_minimize: f does not equal {q} at {(a_star, b_star)}")
    tight = []
    for c in cs.constraints:
        ca, cb, k, _ = c.row
        v = at_point(ca, cb, k)
        if v < 0:
            raise AssertionError(f"fm_minimize: {c.cid} fails at {(a_star, b_star)}")
        if v == 0:
            tight.append(c)
    if status == "unbounded":
        return MinimizeResult(status, point=(a_star, b_star))
    return MinimizeResult(
        status, Fraction(qn, qd), _basic_combination(tight, fa, fb, lf), (a_star, b_star)
    )


# ---------------------------------------------------------------------------
# Facts, strengthening, case split
# ---------------------------------------------------------------------------

class Fact(NamedTuple):
    """A derived fact P(m) >= bound, bound an integer."""

    m: int
    bound: int

    def describe(self) -> str:
        return f"P({self.m}) >= {self.bound}"


def strengthen_integral(m: int, q: Fraction) -> Fact:
    """Round a rational bound P(m) >= q on the integer P(m) (axiom A3) up
    to the integral one P(m) >= ceil(q)."""
    return Fact(m, math.ceil(q))


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
    return strengthen_integral(m, res.value)


def split_on_p1(cs: ConstraintSystem, lmax: int) -> tuple[ConstraintSystem, ...]:
    """Case split on the value of P(1): the systems of the branches P(1) = 0,
    1, ..., lmax and the tail P(1) >= lmax + 1, each labelled with its case.

    Coverage: P(1) is a nonnegative integer under vanishing and integrality,
    so the branches exhaust the feasible set of cs.  The branches are a
    tuple, so a caller may keep them and share them.
    """
    if lmax < 0:
        raise ValueError("lmax must be >= 0")
    branches = []
    for l in range(lmax + 1):
        extra = [Constraint.make("p1_eq_lo", (l,)), Constraint.make("p1_eq_hi", (l,))]
        branches.append(cs.with_constraints(extra, label=f"P(1)={l}"))
    tail = [Constraint.make("p1_tail", (lmax + 1,))]
    branches.append(cs.with_constraints(tail, label=f"P(1)>={lmax + 1}"))
    return tuple(branches)


def merge_branch_facts(facts: Sequence[Fact]) -> Fact:
    """Combine one fact per covering branch into a fact on the parent system:
    the bound is the minimum over branches."""
    if not facts:
        raise ValueError("nothing to merge")
    m = facts[0].m
    if any(f.m != m for f in facts):
        raise ValueError("facts speak about different multiples")
    return Fact(m, min(f.bound for f in facts))


def fact_to_constraint(fact: Fact) -> Constraint:
    """Turn P(m) >= bound into a primitive affine inequality on (a, b): the
    form P(m) - bound divided by the gcd of its integer coefficients
    (hilbert.fact_row), e.g. P(3) >= 7 becomes 35a + b >= 0."""
    return Constraint.make("from_fact", (fact.m, fact.bound))


# ---------------------------------------------------------------------------
# Monotonicity certificates
# ---------------------------------------------------------------------------

class TailCertificate(NamedTuple):
    """Witness that P(m+1) - P(m) > 0 for every m >= m_start.

    It names the lower-bound constraint on b and the floor on a that
    hilbert.ray_tail substitutes into the difference; the verifier rebuilds
    the tail polynomial from them.
    """

    m_start: int
    b_constraint: str
    a_constraint: str


def monotone_from(cs: ConstraintSystem, m0: int) -> TailCertificate:
    """Certify P(m+1) > P(m) over cs for every m >= m0 by the ray tail.

    Pairs of constraints are tried in order, a bound on b then a floor on
    a, until ray_tail accepts a pair and its polynomial is positive on the
    ray.  A failure is reported, not papered over.
    """
    if m0 < 1:
        raise ValueError("m0 must be >= 1")
    for bc, ac in product(cs.constraints, repeat=2):
        try:
            q = ray_tail(bc.row[:3], ac.row[:3], m0)
        except ValueError:
            continue
        if poly_positive_on_ray(q, m0):
            return TailCertificate(m0, bc.cid, ac.cid)
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


def interpolate_model(values: Callable[[int], int], ms: Sequence[int]) -> Poly:
    """Exact Lagrange interpolation through (m, values(m)) for m in ms.

    The node polynomials prod_{j != i} (t - m_j) have integer coefficients:
    each is prod_j (t - m_j) divided by t - m_i synthetically.  The weights
    values(m_i) / prod_{j != i} (m_i - m_j) go over one common denominator,
    so the sum runs on integers and the model is its integers over it.
    """
    if len(set(ms)) != len(ms):
        raise ValueError("interpolation nodes must be distinct")
    ys = [values(m) for m in ms]
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
    return Poly(acc, den)
