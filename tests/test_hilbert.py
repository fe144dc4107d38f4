"""Hilbert polynomial of -mK: formula values, invariants, inversion."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

import hrr_reference as hrr
import poly_reference as ref
from fm_reference import form
from fanobound.certs import MAX_SEARCH
from fanobound.hilbert import (
    LEMMA2_R_CAP,
    ChernData,
    NonIntegralValueError,
    PValue,
    VanishingViolationError,
    _A,
    _B,
    _C,
    _DIFFERENCE_NUMS,
    fit_ab,
    lemma2_slack_coeffs,
    lemma2_slack_form,
    p_affine,
    p_coeffs,
    p_eval,
    p_poly,
)


def bracket_value(c, m):
    """The bracket q with P(m) = (2m+1) * q, q = m(m+1)[(3m^2+3m-1)a+b] + 1."""
    u = m * (m + 1)
    return u * ((3 * u - 1) * c.a + c.b) + 1


def brute_force_h0_example(m):
    """Independent oracle for the example 5-fold P(O^4 + O(1)) over the line:
    enumerate all multi-indices of S^{5m}, twist by O(m), count sections."""
    k = 5 * m
    total = 0
    for alpha5 in range(k + 1):
        # remaining k - alpha5 spread over four untwisted summands
        mult = comb(k - alpha5 + 3, 3)
        total += mult * max(0, alpha5 + m + 1)
    return total


def sample_chern(rng, k5_span=200, kb_span=3000):
    """Random Chern data on the integrality lattice: kb even and
    24 | k5 + kb (these make every P(m) an integer)."""
    kb = 2 * rng.randint(-kb_span // 2, kb_span // 2)
    k5 = 24 * rng.randint(1, k5_span) - (kb % 24)
    if k5 < 1:
        k5 += 24
    return ChernData(k5, kb)


class TestPAffine:
    def test_at_three(self):
        # published: P(3) = 7[12(35a + b) + 1]
        assert p_affine(3) == form((2940, 84, 7))

    def test_at_zero(self):
        assert p_affine(0) == form((0, 0, 1))

    def test_at_four(self):
        # published: P(4) = 9[20(59a + b) + 1]
        assert p_affine(4) == form((9 * 20 * 59, 180, 9))

    def test_antisymmetry_identity(self):
        zero = form()
        for m in range(-20, 21):
            assert form(p_affine(m), p_affine(-1 - m)) == zero

    def test_normalization_p0_is_one(self):
        rng = random.Random(11)
        for _ in range(50):
            c = sample_chern(rng)
            assert p_eval(c, 0) == 1

    def test_coefficient_polys_match_pointwise(self):
        fa, fb, fc = ref.p_coefficients()
        for m in range(-6, 12):
            f = p_affine(m)
            assert ref.poly_eval(fa, m) == f.coeff_a
            assert ref.poly_eval(fb, m) == f.coeff_b
            assert ref.poly_eval(fc, m) == f.const

    def test_difference_form_shape(self):
        # P(m+1) - P(m) = 30(m+1)^4 a + 6(m+1)^2 b + 2, expanded by hand
        for m in range(0, 10):
            d = form(p_affine(m + 1), (-1, p_affine(m)))
            assert d.coeff_a == 30 * (m + 1) ** 4
            assert d.coeff_b == 6 * (m + 1) ** 2
            assert d.const == 2

    def test_lemma2_slack_form_is_p_minus_the_threshold(self):
        # the integer coefficients against P(m) - (m^r * 720a + r) built
        # from affine forms, for every multiple a search may reach
        for m in range(1, MAX_SEARCH + 1):
            for r in range(LEMMA2_R_CAP + 1):
                want = form(p_affine(m), (-1, (720 * m**r, 0, r)))
                assert lemma2_slack_form(m, r) == want, (m, r)

    def test_forms_are_their_integer_triples(self):
        # the fields are the integer triple itself, each exactly an int,
        # whose numerator and denominator AffineForm.evaluate reads
        for m in range(41):
            f = p_affine(m)
            assert tuple(f) == p_coeffs(m), m
            assert all(type(x) is int for x in f), m
            for r in range(1, LEMMA2_R_CAP + 1):
                slack = lemma2_slack_form(m, r)
                assert tuple(slack) == lemma2_slack_coeffs(m, r), (m, r)
                assert all(type(x) is int for x in slack), (m, r)


class TestPEval:
    def test_example_values_match_brute_force(self):
        c = ChernData(6250, 2750)
        assert p_eval(c, 0) == 1
        assert p_eval(c, 1) == brute_force_h0_example(1) == 378
        assert p_eval(c, 2) == brute_force_h0_example(2) == 5005

    def test_non_integral_chern_rejected(self):
        with pytest.raises(NonIntegralValueError):
            p_eval(ChernData(6251, 2750), 1)

    def test_vanishing_violation_rejected(self):
        # (24, -240): P(1) = (24 - 240)/24 + 3 = -6
        with pytest.raises(VanishingViolationError) as exc:
            p_eval(ChernData(24, -240), 1)
        assert exc.value.m == 1

    def test_negative_m_allowed_without_vanishing_check(self):
        c = ChernData(6250, 2750)
        # antisymmetry pins the negative-m values to minus their partners
        assert p_eval(c, -1) == -p_eval(c, 0) == -1
        assert p_eval(c, -2) == -p_eval(c, 1)

    def test_k5_must_be_positive(self):
        with pytest.raises(ValueError):
            ChernData(0, 0)

    def test_divisibility_shape(self):
        rng = random.Random(12)
        for _ in range(100):
            c = sample_chern(rng)
            m = rng.randint(0, 20)
            try:
                v = p_eval(c, m)
            except VanishingViolationError:
                continue
            assert Fraction(v) == (2 * m + 1) * bracket_value(c, m)

    def test_p_poly_agrees(self):
        c = ChernData(6250, 2750)
        poly = p_poly(c)
        for m in range(0, 12):
            assert ref.poly_eval(poly.coeffs, m) == p_eval(c, m)


class TestFitAB:
    def test_example_bundle_fit(self):
        a, b = fit_ab(PValue(1, 378), PValue(2, 5005))
        assert a == Fraction(625, 72)
        assert b == Fraction(1375, 72)
        assert 720 * a == 6250  # equals 2 * 5^5, the geometric (-K)^5

    def test_round_trip_from_direct_values(self):
        # (a, b) = (0, -1/2) round-trips through its own values
        vals = []
        for m in (1, 2):
            vals.append(PValue(m, int(p_affine(m).evaluate(0, Fraction(-1, 2)))))
        assert fit_ab(*vals) == (Fraction(0), Fraction(-1, 2))
        # built on integers: Fractions, never floats that compare equal
        assert all(type(x) is Fraction for x in fit_ab(*vals))

    def test_round_trip_random_chern(self):
        rng = random.Random(13)
        for _ in range(100):
            c = sample_chern(rng)
            try:
                v1, v2 = p_eval(c, 1), p_eval(c, 2)
            except VanishingViolationError:
                continue
            assert fit_ab(PValue(1, v1), PValue(2, v2)) == (c.a, c.b)

    def test_published_case_v_inversion(self):
        # P(1)=3, P(2)=6: solving 6(5a+b)+3=3 and 30(17a+b)+5=6 by hand
        # gives a = 1/360, b = -1/72, against the published a = 1/60
        a, b = fit_ab(PValue(1, 3), PValue(2, 6))
        assert (a, b) == (Fraction(1, 360), Fraction(-1, 72))
        assert p_affine(3).evaluate(a, b) == 14

    def test_degenerate_pairs_rejected(self):
        with pytest.raises(ValueError, match="m = 0 carries no"):
            fit_ab(PValue(0, 1), PValue(2, 5))
        with pytest.raises(ValueError, match="m >= 0 only"):
            fit_ab(PValue(-1, 0), PValue(2, 5))
        with pytest.raises(ValueError, match="need two distinct multiples"):
            fit_ab(PValue(2, 5), PValue(2, 6))
        # the antisymmetric partner of m = 2, whose coefficient row is
        # proportional, is no PValue
        with pytest.raises(ValueError, match="m >= 0 only"):
            fit_ab(PValue(2, 5), PValue(-3, -5))

    def test_distinct_multiples_never_have_proportional_rows(self):
        # ca(m) = (3m^2 + 3m - 1) * cb(m) with cb(m) = m(m+1)(2m+1) > 0 and
        # the factor strictly increasing for m >= 1
        for m in range(1, 200):
            ca, cb, _ = p_coeffs(m)
            assert cb == m * (m + 1) * (2 * m + 1) > 0
            assert ca == (3 * m * m + 3 * m - 1) * cb
        rows = {p_coeffs(m)[:2] for m in range(1, 200)}
        slopes = {Fraction(ca, cb) for ca, cb in rows}
        assert len(rows) == len(slopes) == 199


class TestAgainstFractionRoute:
    """p_eval's integer kernel and the stored coefficients against the
    Fraction route of tests/poly_reference.py."""

    def test_coefficient_polys_match_the_product_construction(self):
        assert (_A, _B, _C) == ref.p_coefficients()
        for c in (ChernData(6250, 2750), ChernData(12, -60), ChernData(1, 0), ChernData(7, 5)):
            assert p_poly(c).coeffs == ref.p_polynomial(c.k5, c.k3c2)

    def test_difference_and_concrete_polys_match(self):
        # ray_tail's integer differences, padded to one length, and the
        # concrete tail, the difference of p_poly
        for mine, theirs in zip(_DIFFERENCE_NUMS, ref.p_coefficients()):
            want = ref.poly_difference(theirs)
            assert mine == list(want) + [0] * (len(_A) - 1 - len(want))
        for c in (ChernData(6250, 2750), ChernData(12, -60), ChernData(1, 0)):
            want = ref.poly_difference(ref.p_polynomial(c.k5, c.k3c2))
            assert p_poly(c).difference().coeffs == want
        c = ChernData(6250, 2750)
        for m in range(-5, 40):
            assert ref.poly_eval(p_poly(c).coeffs, m) == ref.p_value(c.k5, c.k3c2, m)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(
            # on the integrality lattice: k3c2 even and 24 | k5 + k3c2
            st.tuples(st.integers(1, 10**6), st.integers(-(10**7), 10**7)).map(
                lambda t: (24 * t[0] - (2 * t[1]) % 24, 2 * t[1])
            ),
            st.tuples(st.integers(1, 10**40), st.integers(-(10**40), 10**40)),
        ),
        st.integers(-50, 600),
    )
    @example((24, -240), 1)
    @example((6251, 2750), 1)
    def test_p_eval_matches_the_fraction_route(self, chern, m):
        want = ref.p_value(*chern, m)
        c = ChernData(*chern)
        if want.denominator != 1:
            err = NonIntegralValueError(m, want)
        elif m >= 0 and want < 0:
            err = VanishingViolationError(m, int(want))
        else:
            got = p_eval(c, m)
            assert type(got) is int and got == want
            return
        with pytest.raises(type(err)) as exc:
            p_eval(c, m)
        assert (exc.value.m, exc.value.value, str(exc.value)) == (err.m, err.value, str(err))
        assert type(exc.value.value) is type(err.value)


class TestRiemannRoch:
    """p_affine against P derived from Hirzebruch-Riemann-Roch in
    tests/hrr_reference.py."""

    def test_todd_class_low_degrees(self):
        td = hrr.todd()
        c1, c2, c3 = hrr.chern(1), hrr.chern(2), hrr.chern(3)
        assert hrr.part(td, 0) == hrr.const(Fraction(1))
        assert hrr.part(td, 1) == hrr.scale(Fraction(1, 2), c1)
        assert hrr.part(td, 2) == hrr.scale(Fraction(1, 12), hrr.add(hrr.mul(c1, c1), c2))
        assert hrr.part(td, 3) == hrr.scale(Fraction(1, 24), hrr.mul(c1, c2))
        assert hrr.bernoulli(2) == Fraction(1, 6) and hrr.bernoulli(4) == Fraction(-1, 30)

    def test_the_eliminating_identity(self):
        assert hrr.todd_identity_holds(hrr.todd())

    def test_p_affine_is_riemann_roch(self):
        td = hrr.todd()
        for m in range(13):
            assert hrr.hrr_affine(m, td) == p_affine(m).as_tuple()


class TestCoefficientMemo:
    """p_coeffs is memoised per process, with a bound."""

    def test_the_memo_is_bounded(self):
        assert p_coeffs.cache_info().maxsize is not None

    def test_a_long_table_stays_within_the_bound(self, capsys):
        from fanobound.cli import main

        assert main(["table", "--k5", "6250", "--k3c2", "2750", "--max-m", "5000"]) == 0
        capsys.readouterr()
        info = p_coeffs.cache_info()
        assert info.currsize <= info.maxsize

    def test_memoised_values_are_the_horner_pass(self):
        # past the bound, so entries are evicted and computed again
        for m in range(-600, 2001):
            assert p_coeffs(m) == p_coeffs.__wrapped__(m), m

    def test_a_float_is_not_served_the_int_entry(self):
        p_coeffs(1)
        got = p_coeffs(1.0)
        assert got == p_coeffs(1) and all(type(x) is float for x in got)
