"""Hilbert polynomial of -mK: formula values, invariants, inversion."""

import random
from fractions import Fraction
from math import comb

import pytest

from fanobound.exact import AffineForm
from fanobound.hilbert import (
    ChernData,
    NonIntegralValueError,
    PValue,
    VanishingViolationError,
    bracket_value,
    coefficient_polys,
    fit_ab,
    p_affine,
    p_eval,
    p_poly,
)


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
        assert p_affine(3) == AffineForm.of(2940, 84, 7)

    def test_at_zero(self):
        assert p_affine(0) == AffineForm.of(0, 0, 1)

    def test_at_four(self):
        # published: P(4) = 9[20(59a + b) + 1]
        assert p_affine(4) == AffineForm.of(9 * 20 * 59, 180, 9)

    def test_antisymmetry_identity(self):
        zero = AffineForm.of(0, 0, 0)
        for m in range(-20, 21):
            assert p_affine(m) + p_affine(-1 - m) == zero

    def test_normalization_p0_is_one(self):
        rng = random.Random(11)
        for _ in range(50):
            c = sample_chern(rng)
            assert p_eval(c, 0) == 1

    def test_coefficient_polys_match_pointwise(self):
        fa, fb, fc = coefficient_polys()
        for m in range(-6, 12):
            form = p_affine(m)
            assert fa(m) == form.coeff_a
            assert fb(m) == form.coeff_b
            assert fc(m) == form.const

    def test_difference_form_shape(self):
        # P(m+1) - P(m) = 30(m+1)^4 a + 6(m+1)^2 b + 2, expanded by hand
        for m in range(0, 10):
            d = p_affine(m + 1) - p_affine(m)
            assert d.coeff_a == 30 * (m + 1) ** 4
            assert d.coeff_b == 6 * (m + 1) ** 2
            assert d.const == 2


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
            assert poly(m) == p_eval(c, m)


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
            form = p_affine(m)
            vals.append(PValue(m, int(form.evaluate(0, Fraction(-1, 2)))))
        assert fit_ab(*vals) == (Fraction(0), Fraction(-1, 2))

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
        with pytest.raises(ValueError):
            fit_ab(PValue(0, 1), PValue(2, 5))
        with pytest.raises(ValueError):
            fit_ab(PValue(-1, 0), PValue(2, 5))
        with pytest.raises(ValueError):
            fit_ab(PValue(2, 5), PValue(2, 6))
        # antisymmetric partner has a proportional coefficient row
        with pytest.raises(ValueError):
            fit_ab(PValue(2, 5), PValue(-3, -5))
