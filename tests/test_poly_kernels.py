"""The integer polynomial kernels against the Fraction reference.

Poly.shift, Poly.difference, Poly.first_mismatch, AffineForm.evaluate and
derive.interpolate_model compute on integer numerators over a common
denominator, and hilbert.ray_tail on integer rows.  The prover and the
verifier share them, so each is compared for exact equality with
tests/poly_reference.py, which does not use the package and also
evaluates every Poly the tests read.  A Poly is built from its fields
(nums, den), in lowest terms or not and with trailing zeros or not.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import poly_reference as ref
from fm_reference import form
from fanobound.derive import interpolate_model
from fanobound.exact import AffineForm, Poly, over_common_denominator
from fanobound.hilbert import ray_tail

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)

small_ints = st.integers(-30, 30)
big_ints = st.integers(-(10**60), 10**60)
rationals = st.one_of(
    small_ints.map(Fraction),
    st.builds(Fraction, small_ints, st.integers(1, 30)),
    st.builds(Fraction, big_ints, st.integers(1, 10**40)),
)
# int or Fraction, as callers pass both
arguments = st.one_of(small_ints, big_ints, rationals)
# Poly.shift takes an integer, as every caller passes
shifts = st.one_of(small_ints, big_ints)
coefficients = st.lists(rationals, max_size=8)


def unreduced(nums, den, g, zeros):
    """The fields (nums, den) with the factor g left in both and zeros
    trailing zeros, as a caller may pass them to Poly."""
    return [g * n for n in nums] + [0] * zeros, g * den


factors, trailing = st.integers(1, 10**6), st.integers(0, 3)
# a Poly's fields: Fraction coefficients over their lcm, or integers over a
# denominator, not in lowest terms and with trailing zeros
pairs = st.one_of(
    coefficients.map(over_common_denominator),
    st.builds(unreduced, st.lists(st.one_of(small_ints, big_ints), max_size=8),
              st.integers(1, 10**40), factors, trailing),
)


def fractions_of(nums, den):
    return [Fraction(n, den) for n in nums]


def exact(x: Fraction) -> tuple[type, int, int]:
    """A Fraction's type and canonical numerator and denominator."""
    return type(x), x.numerator, x.denominator


class TestPolyCall:
    """Poly has no evaluation of its own: the tests evaluate one with the
    reference's Horner rule, checked here against the sum of powers."""

    @staticmethod
    def power_sum(cs, x):
        return sum((c * Fraction(x) ** i for i, c in enumerate(cs)), Fraction(0))

    @SETTINGS
    @given(pairs, arguments)
    def test_matches_reference(self, pair, x):
        got = ref.poly_eval(Poly(*pair).coeffs, x)
        assert exact(got) == exact(self.power_sum(fractions_of(*pair), x))

    def test_zero_and_constants(self):
        for x in (0, -7, Fraction(-3, 11), 10**50):
            assert exact(ref.poly_eval(Poly().coeffs, x)) == exact(Fraction(0))
            assert exact(ref.poly_eval(Poly([-5], 6).coeffs, x)) == exact(Fraction(-5, 6))

    def test_large_numerators_at_a_rational(self):
        cs = [Fraction(-(10**45) + 7, 3**20), Fraction(2**100, 5**30), Fraction(-1, 7**25)]
        x = Fraction(-(10**30) + 1, 11**15)
        assert ref.poly_eval(cs, x) == self.power_sum(cs, x)


class TestPolyCanonicalForm:
    """Poly keeps its fields in lowest terms with trailing zeros trimmed, so
    equality and hashing read the fields alone."""

    @SETTINGS
    @given(pairs)
    def test_fields_are_the_reduced_coefficients(self, pair):
        p = Poly(*pair)
        trimmed = ref.poly_add(fractions_of(*pair), ())  # adding zero trims
        assert [exact(c) for c in p.coeffs] == [exact(c) for c in trimmed]
        assert p.den > 0 and gcd(p.den, *p.nums) == 1
        assert not p.nums or p.nums[-1] != 0
        q = Poly(*over_common_denominator(p.coeffs))
        assert (q.nums, q.den) == (p.nums, p.den) and q == p and hash(q) == hash(p)

    def test_equal_polynomials_have_equal_fields(self):
        p, q = Poly([2, 4, 0], 2), Poly([1, 2])
        assert p == q and hash(p) == hash(q)
        assert (p.nums, p.den) == ((1, 2), 1)
        assert Poly([3, 0], 6) != Poly([1], 3)
        for zero in (Poly(), Poly([0, 0], 7), Poly([], 12)):
            assert zero == Poly() and zero.den == 1 and zero.nums == ()

    def test_denominator_must_be_positive(self):
        for den in (0, -2):
            with pytest.raises(ValueError, match="positive"):
                Poly([1], den)


class TestPolyFirstMismatch:
    @SETTINGS
    @given(
        st.lists(big_ints, min_size=6, max_size=6),
        st.integers(-40, 40),
        st.lists(st.integers(-1, 1), max_size=40),
        factors,
        trailing,
    )
    def test_matches_reference(self, ys, start, bends, g, zeros):
        # through integers at six consecutive nodes a quintic is integral
        # at every integer; each non-zero bend moves one value off it
        cs = ref.interpolate(range(start, start + 6), [Fraction(y) for y in ys])
        exact_values = [ref.poly_eval(cs, Fraction(m)) for m in range(start, start + len(bends))]
        assert all(v.denominator == 1 for v in exact_values)
        values = [v.numerator + d for v, d in zip(exact_values, bends)]
        want = next((start + i for i, d in enumerate(bends) if d), None)
        model = Poly(*unreduced(*over_common_denominator(cs), g, zeros))
        assert model.first_mismatch(values, start) == want

    def test_rational_model_and_edges(self):
        assert Poly([1], 2).first_mismatch([0, 1]) == 1
        assert Poly().first_mismatch([0, 0, 3], start=-1) == 1
        assert Poly().first_mismatch([]) is None
        # m(m+1)/2 is integral although no coefficient is
        triangle = Poly([0, 1, 1], 2)
        assert triangle.first_mismatch([m * (m + 1) // 2 for m in range(-5, 30)], -5) is None

    def test_a_bend_of_one_part_in_ten_to_the_forty(self):
        # eps * (t-1)...(t-5) is zero on m = 1..5 and eps * 120 at m = 6
        cs = ref.interpolate(range(1, 7), [Fraction(y) for y in (91, 2277, 15708, 62909, 186030, 0)])
        bend = (Fraction(1),)
        for r in range(1, 6):
            bend = ref.poly_mul(bend, (Fraction(-r), Fraction(1)))
        bent = ref.poly_add(cs, [Fraction(1, 10**40) * c for c in bend])
        values = [int(ref.poly_eval(cs, Fraction(m))) for m in range(1, 33)]
        assert Poly(*over_common_denominator(cs)).first_mismatch(values) is None
        assert Poly(*over_common_denominator(bent)).first_mismatch(values) == 6


class TestPolyShift:
    @SETTINGS
    @given(pairs, shifts)
    def test_matches_reference(self, pair, h):
        got = Poly(*pair).shift(h).coeffs
        want = ref.poly_shift(fractions_of(*pair), Fraction(h))
        assert [exact(c) for c in got] == [exact(c) for c in want]

    @SETTINGS
    @given(pairs, shifts, rationals)
    def test_shifted_value_is_the_value_moved(self, pair, h, x):
        p = Poly(*pair)
        assert ref.poly_eval(p.shift(h).coeffs, x) == ref.poly_eval(p.coeffs, x + h)

    def test_zero_and_constants(self):
        for h in (0, 3, -4, 10**40):
            assert Poly().shift(h) == Poly()
            assert Poly([9], 4).shift(h) == Poly([9], 4)

    def test_negative_integer_shift_of_large_coefficients(self):
        cs = [Fraction(10**40 + 3, 7), -(10**35), Fraction(-2, 3**30), 0, Fraction(1, 2**70)]
        h = -(10**25)
        assert Poly(*over_common_denominator(cs)).shift(h).coeffs == ref.poly_shift(cs, h)


class TestPolyDifference:
    @SETTINGS
    @given(pairs)
    def test_matches_reference(self, pair):
        # p(t + 1) - p(t) on the reference's Fraction kernels
        cs = fractions_of(*pair)
        want = ref.poly_add(ref.poly_shift(cs, Fraction(1)), [-c for c in cs])
        assert [exact(c) for c in Poly(*pair).difference().coeffs] == [exact(c) for c in want]

    def test_zero_constants_and_the_oracle_model(self):
        assert Poly().difference() == Poly()
        assert Poly([-7], 3).difference() == Poly()
        # a quintic through the printed example's first five counts: its
        # difference at m is its value at m + 1 minus its value at m
        cs = ref.interpolate(range(1, 7), [Fraction(y) for y in (91, 2277, 15708, 62909, 186030, 0)])
        values = [ref.poly_eval(cs, Fraction(m)) for m in range(1, 7)]
        diff = Poly(*over_common_denominator(cs)).difference()
        assert [ref.poly_eval(diff.coeffs, m) for m in range(1, 6)] == [b - a for a, b in zip(values, values[1:])]


def tail_outcome(tail, b_form, a_form, m_start):
    """The coefficients a ray tail returns, each as exact(), or the message
    of the ValueError it raises."""
    try:
        return [exact(c) for c in tail(b_form, a_form, m_start)]
    except ValueError as exc:
        return str(exc)


def row_tail(b_form, a_form, m_start):
    """hilbert.ray_tail on each form's integer row, the form over the lcm of
    its denominators, as the prover and the verifier call it."""
    rows = (over_common_denominator(f)[0] for f in (b_form, a_form))
    return ray_tail(*rows, m_start).coeffs


forms = st.builds(AffineForm, rationals, rationals, rationals)
# a form free of b, as every floor on a is
floors = st.builds(AffineForm, rationals, st.just(Fraction(0)), rationals)
# the worst-case tail's pair: F.P3>=7 (35a + b >= 0) and A1 (a >= 1/720)
MERGED, A1 = form((35, 1, 0)), form((1, 0, Fraction(-1, 720)))
# one case per outcome: a polynomial, then each refusal in the order checked
TAILS = {
    "polynomial": (MERGED, A1, 3),
    "no lower bound for b": (form((35, -1, 0)), A1, 3),
    "no lower bound for a": (MERGED, form((1, 1, 0)), 3),
    "b-substitution": (MERGED, A1, -3),
    "a-substitution": (form((10**6, 1, 0)), A1, 3),
}


class TestRayTail:
    @SETTINGS
    @given(forms, st.one_of(floors, forms), st.integers(-4, 8))
    @example(*TAILS["polynomial"])
    @example(*TAILS["no lower bound for b"])
    @example(*TAILS["no lower bound for a"])
    @example(*TAILS["b-substitution"])
    @example(*TAILS["a-substitution"])
    # a floor free of b whose a coefficient is negative
    @example(MERGED, form((-1, 0, 1)), 3)
    def test_matches_reference(self, b_form, a_form, m_start):
        got = tail_outcome(row_tail, b_form, a_form, m_start)
        assert got == tail_outcome(ref.ray_tail, b_form, a_form, m_start)

    def test_every_outcome_is_reached(self):
        for want, args in TAILS.items():
            got = tail_outcome(row_tail, *args)
            assert (want == "polynomial") == isinstance(got, list)
            if want != "polynomial":
                assert want in got
        # by hand: min of P(4)-P(3) over {b >= -35a, a >= 1/720} is 4320/720+2
        assert ref.poly_eval(row_tail(*TAILS["polynomial"]), 3) == 8


class TestAffineEvaluate:
    @SETTINGS
    @given(rationals, rationals, rationals, arguments, arguments)
    def test_matches_reference(self, ca, cb, k, a, b):
        got = AffineForm(ca, cb, k).evaluate(a, b)
        assert exact(got) == exact(ref.affine_evaluate(ca, cb, k, Fraction(a), Fraction(b)))

    def test_zero_form(self):
        assert exact(form().evaluate(Fraction(-1, 3), 10**40)) == exact(Fraction(0))


class TestInterpolateModel:
    @SETTINGS
    @given(
        st.lists(st.integers(-60, 60), unique=True, max_size=8),
        st.lists(st.one_of(big_ints, rationals), min_size=8, max_size=8),
    )
    def test_matches_reference(self, nodes, ys):
        table = dict(zip(nodes, ys))
        got = interpolate_model(table.__getitem__, nodes).coeffs
        want = ref.interpolate(nodes, [Fraction(table[m]) for m in nodes])
        assert [exact(c) for c in got] == [exact(c) for c in want]

    def test_non_consecutive_and_negative_nodes(self):
        p = Poly(*over_common_denominator([Fraction(-7, 24), 3, Fraction(1, 5), 0, -(10**30), Fraction(5, 24)]))
        nodes = [-11, -2, 0, 3, 17, 40]
        model = interpolate_model(lambda m: ref.poly_eval(p.coeffs, m), nodes)
        assert model == p
        assert model.coeffs == ref.interpolate(nodes, [ref.poly_eval(p.coeffs, m) for m in nodes])

    def test_integer_values_at_the_oracle_nodes(self):
        # the printed closed form m(5m-1)(5m+1)(5m+2)(10m+3)/24 at m = 1..6
        def closed(m):
            return m * (5 * m - 1) * (5 * m + 1) * (5 * m + 2) * (10 * m + 3) // 24

        model = interpolate_model(closed, range(1, 7))
        assert model.coeffs == ref.interpolate(range(1, 7), [closed(m) for m in range(1, 7)])
        assert all(ref.poly_eval(model.coeffs, m) == closed(m) for m in range(1, 40))

    def test_no_nodes_and_zero_values(self):
        assert interpolate_model(lambda m: 1, []) == Poly()
        assert interpolate_model(lambda m: 0, [4, -1, 9]) == Poly()

    def test_repeated_node_refused(self):
        with pytest.raises(ValueError, match="distinct"):
            interpolate_model(lambda m: m, [1, 2, 1])
