"""Constraint derivation: elimination, strengthening, the case split, and
the replay of the published estimates."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fanobound.exact import AffineForm
from fanobound.hilbert import ChernData, p_affine
from fanobound.audit import CONFIRMED, DISCREPANCY, build_audit
from fanobound.derive import (
    Constraint,
    ConstraintSystem,
    Fact,
    InfeasibleSystemError,
    MonotoneCertificationError,
    UnboundedObjectiveError,
    axiom_system,
    chern_table,
    derive_lower_bound,
    fact_to_constraint,
    feasible_point,
    fm_minimize,
    geometry_system,
    merge_branch_facts,
    monotone_from,
    point_with_value_below,
    split_on_p1,
    strengthen_integral,
    table_monotone,
)

from fm_reference import fm_minimize_reference
from test_hilbert import sample_chern


def hyp(cid, m, bound, sense):
    """An ad-hoc case hypothesis P(m) >= bound, P(m) > bound or
    P(m) <= bound (sense ">=", ">" or "<=")."""
    form = p_affine(m) - AffineForm.constant(bound)
    if sense == "<=":
        form = form.scale(-1)
    return Constraint(cid, "hyp", (m, bound, sense), form, sense == ">")


def branch_system(l):
    return split_on_p1(axiom_system(), 3)[l].system


def merged_p3_fact():
    branches = split_on_p1(axiom_system(), 3)
    return merge_branch_facts([derive_lower_bound(br.system, 3) for br in branches])


def sample_feasible(cs, rng, tries=50):
    """Rejection-sample a feasible (a, b): pick a, then b in the interval
    the constraints leave open."""
    for _ in range(tries):
        a = Fraction(1, 720) + Fraction(rng.randint(0, 4000), rng.randint(1, 200))
        lo, hi = None, None
        ok = True
        for c in cs.constraints:
            cb = c.form.coeff_b
            rest = c.form.coeff_a * a + c.form.const
            if cb == 0:
                if rest < 0 or (rest == 0 and c.strict):
                    ok = False
                    break
            elif cb > 0:
                bound = -rest / cb
                lo = bound if lo is None else max(lo, bound)
            else:
                bound = -rest / cb
                hi = bound if hi is None else min(hi, bound)
        if not ok or (lo is not None and hi is not None and lo > hi):
            continue
        if lo is None and hi is None:
            b = Fraction(rng.randint(-100, 100))
        elif lo is None:
            b = hi - rng.randint(0, 100)
        elif hi is None:
            b = lo + Fraction(rng.randint(0, 100), rng.randint(1, 10))
        else:
            t = Fraction(rng.randint(0, 16), 16)
            b = lo + (hi - lo) * t
        point = (a, b)
        if all(
            (c.form.evaluate(*point) > 0 if c.strict else c.form.evaluate(*point) >= 0)
            for c in cs.constraints
        ):
            return point
    return None


class TestFmMinimize:
    def test_branch_minima_match_published_cases(self):
        # published case (i): P(1)=0, P(2)>=0 force P(3) >= 35
        for l, want in ((0, 35), (1, 21), (2, 7)):
            res = fm_minimize(branch_system(l), p_affine(3))
            assert res.status == "minimum"
            assert res.value == want
            assert res.attained

    def test_single_bound_attained(self):
        res = fm_minimize(geometry_system(), AffineForm.of(1, 0, 0))
        assert res.status == "minimum"
        assert res.value == Fraction(1, 720)
        assert res.attained and res.point[0] == Fraction(1, 720)

    def test_constant_objective(self):
        res = fm_minimize(axiom_system(), p_affine(0))
        assert res.status == "minimum" and res.value == 1

    def test_unbounded(self):
        res = fm_minimize(geometry_system(), p_affine(1))
        assert res.status == "unbounded"

    def test_infeasible_with_farkas(self):
        cs = axiom_system().with_constraints(
            [
                hyp("H.lo", 1, 2, ">="),
                hyp("H.hi", 1, 1, "<="),
            ]
        )
        res = fm_minimize(cs, p_affine(3))
        assert res.status == "infeasible"
        # the refuting combination must sum to a negative constant
        forms = {c.cid: c.form for c in cs.constraints}
        acc = AffineForm.of(0, 0, 0)
        for cid, mult in res.farkas:
            assert mult >= 0
            acc = acc + forms[cid].scale(mult)
        assert acc.coeff_a == acc.coeff_b == 0 and acc.const < 0

    def test_farkas_combination_replays_exactly(self):
        cs = branch_system(0)
        res = fm_minimize(cs, p_affine(3))
        forms = {c.cid: c.form for c in cs.constraints}
        acc = AffineForm.of(0, 0, 0)
        for cid, mult in res.farkas:
            assert mult >= 0
            acc = acc + forms[cid].scale(mult)
        assert acc == p_affine(3) - AffineForm.of(0, 0, res.value)

    def test_soundness_on_random_feasible_points(self):
        rng = random.Random(20240301)
        systems = [
            axiom_system(),
            branch_system(2),
            geometry_system([merged_p3_fact()]),
        ]
        objectives = [p_affine(3), p_affine(4), AffineForm.of(1, 1, 0)]
        for cs in systems:
            for f in objectives:
                res = fm_minimize(cs, f)
                if res.status != "minimum":
                    continue
                count = 0
                while count < 1000:
                    point = sample_feasible(cs, rng)
                    if point is None:
                        continue
                    count += 1
                    value = f.evaluate(*point)
                    assert value > res.value if res.strict else value >= res.value

    def test_strict_constraints_give_strict_bounds(self):
        cs = ConstraintSystem(
            (
                hyp("S", 1, 0, ">"),  # P(1) > 0
                Constraint.make("A1", "k5_floor"),
            )
        )
        res = fm_minimize(cs, p_affine(1))
        assert res.status == "minimum"
        assert res.value == 0 and not res.attained and res.strict

    def test_mixed_strictness_at_the_infimum_is_not_attained(self):
        cs = ConstraintSystem(
            (
                hyp("NS", 1, 0, ">="),
                hyp("ST", 1, 0, ">"),
            )
        )
        res = fm_minimize(cs, p_affine(1))
        assert res.value == 0 and not res.attained and res.strict

    def test_point_below(self):
        cs = geometry_system([merged_p3_fact()])
        point = point_with_value_below(cs, p_affine(1), Fraction(2))
        assert point is not None
        assert p_affine(1).evaluate(*point) < 2
        assert feasible_point(cs) is not None


small_rat = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def aux_system(rows):
    """A system of named rows (ca, cb, k, strict): ca*a + cb*b + k >= 0."""
    return ConstraintSystem(
        tuple(
            Constraint(f"c{i}", "aux", (), AffineForm.of(ca, cb, k), strict)
            for i, (ca, cb, k, strict) in enumerate(rows)
        )
    )


@st.composite
def small_systems(draw):
    """Up to six rows with small rational coefficients; about a quarter are
    positive multiples of an earlier row, so minima tie and scaled copies of
    one rational row meet in the dedup."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        if rows and draw(st.integers(0, 3)) == 0:
            ca, cb, k, strict = draw(st.sampled_from(rows))
            c = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3)]))
            rows.append((c * ca, c * cb, c * k, strict))
        else:
            rows.append((draw(small_rat), draw(small_rat), draw(small_rat), draw(st.booleans())))
    f = AffineForm(draw(small_rat), draw(small_rat), draw(small_rat))
    return aux_system(rows), f


MINIMIZE_FIELDS = ("status", "value", "attained", "strict", "farkas", "point")

# one case of each outcome the random systems must also reach
INFEASIBLE = (aux_system([(1, 0, -1, False), (-1, 0, 0, False)]), AffineForm.of(0, 1, 0))
UNBOUNDED = (aux_system([]), AffineForm.of(1, 0, 0))
TIED = (
    aux_system([(1, 0, 0, False), (0, 1, 0, False), (2, 0, 0, False), (Fraction(1, 2), 0, 0, False)]),
    AffineForm.of(1, 1, 0),
)
NOT_ATTAINED = (
    aux_system([(1, 0, 0, True), (Fraction(1, 3), 0, 0, False)]),
    AffineForm.of(Fraction(2, 3), 0, 1),
)


class TestIntegerKernel:
    """The integer-row minimizer against the rational reference kernel."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(small_systems())
    @example(INFEASIBLE)
    @example(UNBOUNDED)
    @example(TIED)
    @example(NOT_ATTAINED)
    def test_every_field_matches_the_rational_kernel(self, case):
        cs, f = case
        got, want = fm_minimize(cs, f), fm_minimize_reference(cs, f)
        for name in MINIMIZE_FIELDS:
            assert getattr(got, name) == getattr(want, name), name

    def test_examples_reach_every_outcome(self):
        assert fm_minimize(*INFEASIBLE).status == "infeasible"
        assert fm_minimize(*UNBOUNDED).status == "unbounded"
        tied = fm_minimize(*TIED)
        assert tied.status == "minimum" and tied.attained
        # rows built from a, 2a and a/2 all reach the minimum; the rational
        # combinations differ in their objective multiplier (1, 2, 1/2), so
        # a/2 wins, where the integer rows (multiplier 1 for both a and a/2)
        # would have picked a
        assert tied.farkas == (("c1", 1), ("c3", 2))
        assert not fm_minimize(*NOT_ATTAINED).attained

    def test_matches_on_every_worst_case_minimization(self, monkeypatch):
        import fanobound.bounds as bounds
        import fanobound.derive as derive

        checked = []
        real = derive.fm_minimize

        def compared(cs, f):
            got = real(cs, f)
            assert got == fm_minimize_reference(cs, f)
            checked.append(f)
            return got

        monkeypatch.setattr(derive, "fm_minimize", compared)
        monkeypatch.setattr(bounds, "fm_minimize", compared)
        assert bounds.solve_worst_case().bound == 16
        assert len(checked) == 49
        # the differences the solve once minimised per multiple, which the
        # ray tail now covers, still exercise the kernel here
        geom = geometry_system([merged_p3_fact()])
        for m in range(3, 65):
            compared(geom, p_affine(m + 1) - p_affine(m))


class TestStrengthenIntegral:
    def test_strict_bound_rounds_to_next_integer(self):
        fact = strengthen_integral(Fact(2, Fraction(5), strict=True))
        assert fact.bound == 6 and not fact.strict

    def test_integral_bound_unchanged(self):
        fact = Fact(3, Fraction(7))
        assert strengthen_integral(fact) == fact

    def test_fractional_bound_ceils(self):
        assert strengthen_integral(Fact(3, Fraction(13, 2))).bound == 7

    def test_never_weakens(self):
        rng = random.Random(20240302)
        for _ in range(300):
            q = Fraction(rng.randint(-500, 500), rng.randint(1, 60))
            strict = rng.random() < 0.5
            out = strengthen_integral(Fact(1, q, strict))
            assert out.bound >= q
            assert out.bound.denominator == 1


class TestSplitAndMerge:
    def test_branch_count(self):
        assert len(split_on_p1(axiom_system(), 3)) == 5
        assert len(split_on_p1(axiom_system(), 0)) == 2

    def test_branch_bounds_and_merge(self):
        branches = split_on_p1(axiom_system(), 3)
        facts = [derive_lower_bound(br.system, 3) for br in branches]
        # (i)-(iii) published; P(1)=3 and the engine-completed tail by hand:
        # P(1)=3 pins b=-5a so P(3)=2520a+7 >= 21/2 -> 11, and on the tail
        # P(3) >= 7(360a + 2l - 5) >= 49/2 -> 25
        assert [f.bound for f in facts] == [35, 21, 7, 11, 25]
        merged = merge_branch_facts(facts)
        assert merged.m == 3 and merged.bound == 7

    def test_unsplit_bound_is_weaker(self):
        # by hand the unsplit minimum sits at P(1) = 19/8, value 7/4
        res = fm_minimize(axiom_system(), p_affine(3))
        assert res.value == Fraction(7, 4)
        assert res.value <= merged_p3_fact().bound

    def test_branch_coverage_exactly_one(self):
        rng = random.Random(20240303)
        branches = split_on_p1(axiom_system(), 3)
        checked = 0
        while checked < 200:
            c = sample_chern(rng, k5_span=40, kb_span=1500)
            try:
                values = [p_affine(m).evaluate(c.a, c.b) for m in range(9)]
            except Exception:
                continue
            if any(v < 0 for v in values):
                continue
            if values[2] < values[1]:  # A5
                continue
            checked += 1
            point = (c.a, c.b)
            hits = [
                br.label
                for br in branches
                if all(
                    (cc.form.evaluate(*point) > 0 if cc.strict else cc.form.evaluate(*point) >= 0)
                    for cc in br.system.constraints
                )
            ]
            assert len(hits) == 1, (c, hits)


class TestDeriveLowerBound:
    def test_case_iii(self):
        fact = derive_lower_bound(branch_system(2), 3)
        assert fact.bound == 7

    def test_pinned_system_case_v(self):
        cs = axiom_system().with_constraints(
            [
                hyp("H.P2=6.lo", 2, 6, ">="),
                hyp("H.P2=6.hi", 2, 6, "<="),
                hyp("H.P1=3.lo", 1, 3, ">="),
                hyp("H.P1=3.hi", 1, 3, "<="),
            ]
        )
        low = derive_lower_bound(cs, 3)
        assert low.bound == 14
        # it is an equality: the negated objective is also pinned
        res_hi = fm_minimize(cs, AffineForm.of(0, 0, 0) - p_affine(3))
        assert res_hi.value == -14

    def test_constant_form(self):
        assert derive_lower_bound(axiom_system(), 0).bound == 1

    def test_infeasible_raises(self):
        cs = axiom_system().with_constraints(
            [
                hyp("H1", 1, 5, ">="),
                hyp("H2", 1, 4, "<="),
            ]
        )
        with pytest.raises(InfeasibleSystemError):
            derive_lower_bound(cs, 3)

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedObjectiveError):
            derive_lower_bound(geometry_system(), 1)


class TestFactToConstraint:
    def test_p3_geq_7_becomes_primitive(self):
        c = fact_to_constraint(Fact(3, Fraction(7)))
        # (2940a + 84b + 7) - 7 divided by the positive scalar 84
        assert c.form == AffineForm.of(35, 1, 0)
        assert not c.strict

    def test_vacuous_fact_retained(self):
        c = fact_to_constraint(Fact(0, Fraction(1)))
        assert c.form == AffineForm.of(0, 0, 0)

    def test_p1_geq_0(self):
        c = fact_to_constraint(Fact(1, Fraction(0)))
        # 30a + 6b + 3 >= 0 over gcd 3: equivalent to b >= -5a - 1/2
        assert c.form == AffineForm.of(10, 2, 1)
        assert c.form.evaluate(0, Fraction(-1, 2)) == 0


class TestMonotone:
    def test_worst_case_range_and_tail(self):
        # the tail from 3 stays below every per-multiple minimum of the
        # difference over the geometry, and meets it at m = 3
        geom = geometry_system([merged_p3_fact()])
        tail = monotone_from(geom, 3)
        assert tail.m_start == 3
        assert (tail.b_constraint, tail.a_constraint) == (geom.constraints[1].cid, "A1")
        q = tail.q_poly
        for m in range(3, 33):
            res = fm_minimize(geom, p_affine(m + 1) - p_affine(m))
            assert res.status == "minimum" and res.value >= q(m) > 0
        # by hand: min of P(4)-P(3) over {b >= -35a, a >= 1/720} is 4320/720+2
        assert q(3) == 8

    def test_axioms_only_fails_at_one(self):
        with pytest.raises(MonotoneCertificationError) as exc:
            monotone_from(axiom_system(), 1)
        assert "m = 1" in str(exc.value)

    def test_concrete_pointwise(self):
        # the tail polynomial is the difference of P itself, so it agrees
        # with the table at every multiple
        table = chern_table(ChernData(6250, 2750), 51)
        tail = table_monotone(table, 1)
        assert tail.mode == "concrete" and tail.m_start == 1
        for m in range(1, 51):
            assert tail.q_poly(m) == table.at(m + 1) - table.at(m) > 0

    def test_tail_polynomial_bounds_the_difference(self):
        geom = geometry_system([merged_p3_fact()])
        tail = monotone_from(geom, 3)
        rng = random.Random(20240304)
        q = tail.q_poly
        for _ in range(200):
            point = sample_feasible(geom, rng)
            if point is None:
                continue
            m = rng.randint(3, 40)
            diff = (p_affine(m + 1) - p_affine(m)).evaluate(*point)
            assert diff >= q(m) > 0


class TestProp1Replay:
    def test_statuses_and_values(self):
        by_item = {e.location: e for e in build_audit().entries}
        assert by_item["Proposition 1 (i)"].status == CONFIRMED
        assert "P(3) >= 35" in by_item["Proposition 1 (i)"].engine_result
        assert "P(3) >= 21" in by_item["Proposition 1 (ii)"].engine_result
        assert "P(3) >= 7" in by_item["Proposition 1 (iii)"].engine_result
        assert "P(2) >= 6" in by_item["Proposition 1 (iv)"].engine_result
        v = by_item["Proposition 1 (v)"]
        assert v.status == DISCREPANCY
        assert "1/360" in v.engine_result and "14" in v.engine_result
        assert "1/60" in v.paper_claim and "49" in v.paper_claim
        assert by_item["Proposition 1 (vi)"].status == CONFIRMED

    def test_both_case_v_readings_satisfy_the_sequel(self):
        # the downstream use is only P(3) >= 7; both value sets clear it
        assert p_affine(3).evaluate(Fraction(1, 60), Fraction(-1, 12)) == 49 >= 7
        assert p_affine(3).evaluate(Fraction(1, 360), Fraction(-1, 72)) == 14 >= 7
