"""Constraint derivation: elimination, strengthening, the case split, and
the replay of the published estimates."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fanobound.exact import AffineForm
from fanobound.hilbert import ChernData, constraint_row, p_affine, ray_tail
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
    fm_minimize,
    geometry_system,
    merge_branch_facts,
    monotone_from,
    split_on_p1,
    strengthen_integral,
)
from fanobound.bounds import certify_r0, worst_case_branches

from fm_reference import fm_minimize_reference, form
from poly_reference import poly_eval
from test_hilbert import sample_chern


def hyp(cid, m, bound, sense):
    """An ad-hoc case hypothesis P(m) >= bound or P(m) <= bound (sense
    ">=" or "<=")."""
    f = form(p_affine(m), (0, 0, -bound))
    if sense == "<=":
        f = form((-1, f))
    return Constraint(cid, "hyp", (m, bound, sense), f)


def branch_system(l):
    return split_on_p1(axiom_system(), 3)[l]


def merged_p3_fact():
    branches = split_on_p1(axiom_system(), 3)
    return merge_branch_facts([derive_lower_bound(br, 3) for br in branches])


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
                if rest < 0:
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
        if all(c.form.evaluate(*point) >= 0 for c in cs.constraints):
            return point
    return None


class TestFmMinimize:
    def test_branch_minima_match_published_cases(self):
        # published case (i): P(1)=0, P(2)>=0 force P(3) >= 35
        for l, want in ((0, 35), (1, 21), (2, 7)):
            res = fm_minimize(branch_system(l), p_affine(3))
            assert res.status == "minimum"
            assert res.value == want
            assert p_affine(3).evaluate(*res.point) == want

    def test_single_bound_attained(self):
        res = fm_minimize(geometry_system(), form((1, 0, 0)))
        assert res.status == "minimum"
        assert res.value == Fraction(1, 720)
        assert res.point[0] == Fraction(1, 720)

    def test_constant_objective(self):
        res = fm_minimize(axiom_system(), p_affine(0))
        assert res.status == "minimum" and res.value == 1

    def test_unbounded(self):
        res = fm_minimize(geometry_system(), p_affine(1))
        assert res.status == "unbounded"
        assert res.value is None and res.farkas == ()
        assert p_affine(1).evaluate(*res.point) == 0

    def test_infeasible_carries_no_combination(self):
        cs = axiom_system().with_constraints(
            [
                hyp("H.lo", 1, 2, ">="),
                hyp("H.hi", 1, 1, "<="),
            ]
        )
        res = fm_minimize(cs, p_affine(3))
        assert res == ("infeasible", None, (), None)

    def test_farkas_combination_replays_exactly(self):
        cs = branch_system(0)
        res = fm_minimize(cs, p_affine(3))
        forms = {c.cid: c.form for c in cs.constraints}
        terms = []
        for cid, mult in res.farkas:
            assert mult >= 0
            terms.append((mult, forms[cid]))
        assert form(*terms) == form(p_affine(3), (0, 0, -res.value))

    def test_soundness_on_random_feasible_points(self):
        rng = random.Random(20240301)
        systems = [
            axiom_system(),
            branch_system(2),
            geometry_system([merged_p3_fact()]),
        ]
        objectives = [p_affine(3), p_affine(4), form((1, 1, 0))]
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
                    assert value >= res.value

    def test_point_below(self):
        # P(1) is unbounded below over the worst-case geometry, so the
        # point fm_minimize returns is feasible and has P(1) <= 0
        cs = geometry_system([merged_p3_fact()])
        res = fm_minimize(cs, p_affine(1))
        assert res.status == "unbounded"
        assert p_affine(1).evaluate(*res.point) <= 0
        assert all(c.form.evaluate(*res.point) >= 0 for c in cs.constraints)


small_rat = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def aux_system(rows):
    """A system of named rows (ca, cb, k): ca*a + cb*b + k >= 0."""
    return ConstraintSystem(
        tuple(
            Constraint(f"c{i}", "aux", (), form((ca, cb, k)))
            for i, (ca, cb, k) in enumerate(rows)
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
            ca, cb, k = draw(st.sampled_from(rows))
            c = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3)]))
            rows.append((c * ca, c * cb, c * k))
        else:
            rows.append((draw(small_rat), draw(small_rat), draw(small_rat)))
    f = AffineForm(draw(small_rat), draw(small_rat), draw(small_rat))
    return aux_system(rows), f


MINIMIZE_FIELDS = ("status", "value", "farkas", "point")

# one case of each outcome the random systems must also reach
INFEASIBLE = (aux_system([(1, 0, -1), (-1, 0, 0)]), form((0, 1, 0)))
UNBOUNDED = (aux_system([]), form((1, 0, 0)))
# a <= -2, so f = a reaches at most -2 and its point sits there
BOUNDED_ABOVE = (aux_system([(-1, 0, -2), (0, 1, 0)]), form((1, 0, 0)))
# a, b, 2a and a/2: the rows on a are one primitive row, and all four are
# tight at (0, 0)
TIED = (
    aux_system([(1, 0, 0), (0, 1, 0), (2, 0, 0), (Fraction(1, 2), 0, 0)]),
    form((1, 1, 0)),
)
# eliminating b, c0 + c2 and c1 + c3 are both the row a - 1 >= 0, which
# the elimination keeps once; all four rows are tight at the minimum
DEDUP = (
    aux_system([(0, 1, 0), (1, 1, -1), (1, -1, -1), (0, -1, 0)]),
    form((1, 0, 0)),
)



def named_system(*rows):
    """A system of rows (cid, ca, cb, k), in the order given."""
    return ConstraintSystem(
        tuple(Constraint(cid, "aux", (), form((ca, cb, k))) for cid, ca, cb, k in rows)
    )


# the last step, eliminating a, for f = b.  Its pairs (p, n) and (p, m)
# both give t - 1 >= 0, the first as p + n and the second as 2p + m, and
# all three rows are tight at the minimum
LAST_STEP_DUPLICATE = (
    named_system(("p", 1, 0, -1), ("n", -1, 1, 0), ("m", -2, 1, 1)),
    form((0, 1, 0)),
)
# t - 1 and 2t - 2 tie at the floor, then the pair of p and n raises it to 2
FLOOR_RISES = (
    aux_system([(1, 0, -2), (0, 1, -1), (0, 2, -2), (-1, 1, 0)]),
    form((0, 1, 0)),
)
# the last step reads the floor t >= 1 and the ceiling t <= 3, then the
# pair of c2 and c3, -1 >= 0, which refutes
LAST_STEP_REFUTATION = (
    aux_system([(0, 1, -1), (0, -1, 3), (1, 0, -1), (-1, 0, 0)]),
    form((0, 1, 0)),
)

# a + b = 1 as a row and its negation, the shape of H.P1=l.lo and
# H.P1=l.hi, with a <= 2: f = b eliminates b through t = f and reaches -1
EQUALITY_PAIR = (
    aux_system([(1, 1, -1), (-1, -1, 1), (-1, 0, 2)]),
    form((0, 1, 0)),
)
# f = a is free of b, so b is eliminated by pairing a + b >= 0 with b <= 1
B_FREE_OBJECTIVE = (
    aux_system([(1, 1, 0), (0, -1, 1)]),
    form((1, 0, 0)),
)


class TestIntegerKernel:
    """The integer-row minimizer against the rational reference kernel."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(small_systems())
    @example(INFEASIBLE)
    @example(UNBOUNDED)
    @example(BOUNDED_ABOVE)
    @example(TIED)
    @example(DEDUP)
    @example(LAST_STEP_DUPLICATE)
    @example(FLOOR_RISES)
    @example(LAST_STEP_REFUTATION)
    @example(EQUALITY_PAIR)
    @example(B_FREE_OBJECTIVE)
    def test_every_field_matches_the_rational_kernel(self, case):
        cs, f = case
        got, want = fm_minimize(cs, f), fm_minimize_reference(cs, f)
        for name in MINIMIZE_FIELDS:
            assert getattr(got, name) == getattr(want, name), name
        # over closed rows every minimum is attained at a feasible point
        if got.status == "minimum":
            assert f.evaluate(*got.point) == got.value
            assert all(c.form.evaluate(*got.point) >= 0 for c in cs.constraints)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(small_systems())
    @example(TIED)
    @example(DEDUP)
    @example(LAST_STEP_DUPLICATE)
    def test_every_minimum_has_a_basic_combination(self, case):
        # at most two positive entries, on distinct constraints in cid
        # order, summing exactly to f - value
        cs, f = case
        got = fm_minimize(cs, f)
        if got.status != "minimum":
            return
        cids = [cid for cid, _ in got.farkas]
        assert len(cids) <= 2 and cids == sorted(set(cids))
        assert all(mult > 0 for _, mult in got.farkas)
        forms = {c.cid: c.form for c in cs.constraints}
        acc = form(*((mult, forms[cid]) for cid, mult in got.farkas))
        assert acc == form(f, (0, 0, -got.value))

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(small_systems())
    @example(UNBOUNDED)
    @example(BOUNDED_ABOVE)
    def test_unbounded_point_sits_at_min_of_zero_and_sup(self, case):
        cs, f = case
        got = fm_minimize(cs, f)
        if got.status != "unbounded":
            return
        assert all(c.form.evaluate(*got.point) >= 0 for c in cs.constraints)
        # sup f is minus the minimum of -f, or +oo when -f is unbounded too
        neg = fm_minimize(cs, form((-1, f)))
        sup_f = -neg.value if neg.status == "minimum" else None
        want = 0 if sup_f is None else min(Fraction(0), sup_f)
        assert f.evaluate(*got.point) == want

    def test_examples_reach_every_outcome(self):
        assert fm_minimize(*INFEASIBLE).status == "infeasible"
        assert fm_minimize(*UNBOUNDED).status == "unbounded"
        tied = fm_minimize(*TIED)
        assert tied.status == "minimum"
        # no single row is parallel to a + b, and the first pair in cid
        # order, c0 and c1, certifies it; c2 and c3 would serve as c0
        assert tied.farkas == (("c0", 1), ("c1", 1))
        # c0 + c1 would need -1 on c0, so the first positive pair is c0 + c2
        dedup = fm_minimize(*DEDUP)
        assert (dedup.value, dedup.farkas) == (1, (("c0", 1), ("c2", 1)))
        # the cids sort m, n, p; the pair (m, n) would need -1 on m
        first = fm_minimize(*LAST_STEP_DUPLICATE)
        assert (first.value, first.farkas) == (1, (("m", 1), ("p", 2)))
        risen = fm_minimize(*FLOOR_RISES)
        assert (risen.value, risen.farkas) == (2, (("c0", 1), ("c3", 1)))
        refuted = fm_minimize(*LAST_STEP_REFUTATION)
        assert (refuted.status, refuted.farkas) == ("infeasible", ())
        # b + 1 = (a + b - 1) + (2 - a); c0 and its negation c1 are tight
        # but no pair, so the first pair is c0 and c2
        pair = fm_minimize(*EQUALITY_PAIR)
        assert (pair.value, pair.farkas, pair.point) == (-1, (("c0", 1), ("c2", 1)), (2, -1))
        free = fm_minimize(*B_FREE_OBJECTIVE)
        assert (free.value, free.farkas, free.point) == (-1, (("c0", 1), ("c1", 1)), (-1, 1))

    def test_b_goes_through_the_objective_equality_when_f_holds_b(self, monkeypatch):
        # one combination per row holding b when f does; pairing otherwise
        import fanobound.derive as derive

        routes = []

        def counted(name):
            real = getattr(derive, name)

            def route(*args):
                routes.append(name)
                return real(*args)
            return route

        for name in ("_through", "_pairs"):
            monkeypatch.setattr(derive, name, counted(name))
        fm_minimize(*EQUALITY_PAIR)
        assert routes == ["_through", "_pairs"]  # b, then a
        routes.clear()
        fm_minimize(*B_FREE_OBJECTIVE)
        assert routes == ["_pairs", "_pairs"]

    def test_a_wrong_point_raises(self, monkeypatch):
        # both feasibility checks run as statements, not asserts, so they
        # also run under python -O
        import fanobound.derive as derive

        real = derive._back_substitute

        def lifted_b(rows, idx, point):
            num, den = real(rows, idx, point)
            return num + den * (idx == 1), den

        monkeypatch.setattr(derive, "_back_substitute", lifted_b)
        # P(3) depends on b, so its value moves off the minimum
        with pytest.raises(AssertionError, match="f does not equal"):
            fm_minimize(branch_system(0), p_affine(3))
        # f = a does not, but c1 bounds b above by 0
        cs = aux_system([(1, 0, 0), (0, -1, 0)])
        with pytest.raises(AssertionError, match="c1 fails"):
            fm_minimize(cs, form((1, 0, 0)))

    def test_no_certifying_combination_raises(self):
        # a = 1/720 cannot certify a minimum of f = b, alone or in a pair;
        # the check is a statement, so it also runs under python -O
        import fanobound.derive as derive

        with pytest.raises(AssertionError, match="no tight single or pair"):
            derive._basic_combination([Constraint.make("k5_floor")], 0, 1, 1)

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
        assert len(checked) == 28
        # the differences the solve once minimised per multiple, which the
        # ray tail now covers, still exercise the kernel here
        geom = geometry_system([merged_p3_fact()])
        for m in range(3, 65):
            compared(geom, form(p_affine(m + 1), (-1, p_affine(m))))


class TestStrengthenIntegral:
    def test_integral_bound_unchanged(self):
        assert strengthen_integral(3, Fraction(7)) == Fact(3, Fraction(7))

    def test_fractional_bound_ceils(self):
        assert strengthen_integral(3, Fraction(13, 2)).bound == 7

    def test_never_weakens(self):
        rng = random.Random(20240302)
        for _ in range(300):
            q = Fraction(rng.randint(-500, 500), rng.randint(1, 60))
            out = strengthen_integral(1, q)
            assert out.bound >= q
            assert out.bound.denominator == 1


class TestSplitAndMerge:
    def test_branch_count(self):
        assert len(split_on_p1(axiom_system(), 3)) == 5
        assert len(split_on_p1(axiom_system(), 0)) == 2

    def test_branch_bounds_and_merge(self):
        branches = split_on_p1(axiom_system(), 3)
        facts = [derive_lower_bound(br, 3) for br in branches]
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
                if all(cc.form.evaluate(*point) >= 0 for cc in br.constraints)
            ]
            assert len(hits) == 1, (c, hits)


class TestSharedSystems:
    def test_axiom_system_is_built_once(self):
        fresh = ConstraintSystem(
            (Constraint.make("k5_floor"),
             *(Constraint.make("vanishing", (m,)) for m in range(9)),
             Constraint.make("mono12")),
            label="axioms",
        )
        assert axiom_system() is axiom_system()
        assert axiom_system() == fresh
        assert [c.row for c in axiom_system().constraints] == [c.row for c in fresh.constraints]

    def test_worst_case_branches_are_a_fresh_split(self):
        shared = worst_case_branches()
        assert shared is worst_case_branches()
        # a shared list could be changed by one caller under the next
        assert isinstance(shared, tuple)
        assert shared == split_on_p1(axiom_system(), 3)


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
        res_hi = fm_minimize(cs, form((-1, p_affine(3))))
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
        c = fact_to_constraint(Fact(3, 7))
        # (2940a + 84b + 7) - 7 divided by the gcd 84 of its coefficients
        assert c.form == form((35, 1, 0))
        assert (c.cid, c.params, c.row) == ("F.P3>=7", (3, 7), (35, 1, 0, 1))

    def test_vacuous_fact_retained(self):
        c = fact_to_constraint(Fact(0, 1))
        assert c.form == form()

    def test_row_is_the_descriptors(self):
        # the row make keeps is the descriptor's constraint_row, and the
        # constraint equals one rebuilt from its four fields
        for m in range(12):
            for bound in (0, 1, 7, -3, 35):
                c = fact_to_constraint(Fact(m, bound))
                assert c.row == constraint_row("from_fact", c.params), (m, bound)
                assert c == Constraint(c.cid, c.kind, c.params, c.form), (m, bound)

    def test_p1_geq_0(self):
        c = fact_to_constraint(Fact(1, 0))
        # 30a + 6b + 3 >= 0 over gcd 3: equivalent to b >= -5a - 1/2
        assert c.form == form((10, 2, 1))
        assert c.form.evaluate(0, Fraction(-1, 2)) == 0


def tail_poly(cs, tail):
    """The polynomial the verifier rebuilds from a tail's cited constraints."""
    rows = {c.cid: c.row[:3] for c in cs.constraints}
    return ray_tail(rows[tail.b_constraint], rows[tail.a_constraint], tail.m_start)


class TestMonotone:
    def test_worst_case_range_and_tail(self):
        # the tail from 3 stays below every per-multiple minimum of the
        # difference over the geometry, and meets it at m = 3
        geom = geometry_system([merged_p3_fact()])
        tail = monotone_from(geom, 3)
        assert tail.m_start == 3
        assert (tail.b_constraint, tail.a_constraint) == (geom.constraints[1].cid, "A1")
        q = tail_poly(geom, tail)
        for m in range(3, 33):
            res = fm_minimize(geom, form(p_affine(m + 1), (-1, p_affine(m))))
            assert res.status == "minimum" and res.value >= poly_eval(q.coeffs, m) > 0
        # by hand: min of P(4)-P(3) over {b >= -35a, a >= 1/720} is 4320/720+2
        assert poly_eval(q.coeffs, 3) == 8

    def test_axioms_only_fails_at_one(self):
        with pytest.raises(MonotoneCertificationError) as exc:
            monotone_from(axiom_system(), 1)
        assert "m = 1" in str(exc.value)

    def test_concrete_pointwise(self):
        # the tail polynomial is the difference of P itself, so it agrees
        # with the table at every multiple
        table = chern_table(ChernData(6250, 2750), 51)
        assert certify_r0(table, 3) is None
        q = table.poly.difference()
        for m in range(1, 51):
            assert poly_eval(q.coeffs, m) == table.at(m + 1) - table.at(m) > 0

    def test_tail_polynomial_bounds_the_difference(self):
        geom = geometry_system([merged_p3_fact()])
        tail = monotone_from(geom, 3)
        rng = random.Random(20240304)
        q = tail_poly(geom, tail)
        for _ in range(200):
            point = sample_feasible(geom, rng)
            if point is None:
                continue
            m = rng.randint(3, 40)
            diff = form(p_affine(m + 1), (-1, p_affine(m))).evaluate(*point)
            assert diff >= poly_eval(q.coeffs, m) > 0


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
