"""Exact arithmetic layer: canonical form, field axioms, affine forms,
ray positivity."""

import random
from fractions import Fraction
from math import gcd

import pytest

from fanobound.exact import Poly, RatPair, over_common_denominator, parse_rat, poly_positive_on_ray, rat_str
from fm_reference import form
from poly_reference import poly_eval


def rand_rat(rng, span=1000):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


class TestRat:
    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 0)

    def test_scaling_a_reciprocal(self):
        # -5 * (1/60) = -1/12, the slope that appears in the published case (v)
        assert Fraction(-5) * Fraction(1, 60) == Fraction(-1, 12)

    def test_additive_identity(self):
        x = Fraction(7, 3)
        assert Fraction(0) + x == x

    def test_longhand_fraction_arithmetic(self):
        # by hand: 125/2 = 4500/72, so the difference is 1375/72
        assert Fraction(125, 2) - Fraction(3125, 72) == Fraction(1375, 72)

    def test_canonical_form_after_operation_chains(self):
        rng = random.Random(20240201)
        for _ in range(500):
            x, y, z = (rand_rat(rng) for _ in range(3))
            for v in (x + y, x - y, x * y, x + y * z, (x - y) * z):
                assert v.denominator > 0
                assert gcd(abs(v.numerator), v.denominator) == 1

    def test_field_axioms_on_random_rationals(self):
        rng = random.Random(20240202)
        for _ in range(500):
            x, y, z = (rand_rat(rng) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            assert (x * y) * z == x * (y * z)

    def test_total_order(self):
        vals = [Fraction(1, 3), Fraction(-2), Fraction(0), Fraction(5, 7), Fraction(1, 3)]
        assert sorted(vals) == [Fraction(-2), Fraction(0), Fraction(1, 3), Fraction(1, 3), Fraction(5, 7)]

    def test_rat_str_roundtrip(self):
        for v in (Fraction(-7, 3), Fraction(4), Fraction(0), Fraction(35, 1)):
            assert Fraction(*parse_rat(rat_str(v))) == v
        assert rat_str(Fraction(8, 2)) == "4"

    def test_rat_str_writes_ints_and_fractions_only(self):
        assert [rat_str(x) for x in (0, -12, 10**40, Fraction(-6, 4))] == ["0", "-12", "1" + "0" * 40, "-3/2"]
        # a float, a string, a bool or a Decimal is refused, not coerced
        from decimal import Decimal

        class Count(int):
            pass

        # the exact types only: a subclass of int is refused too
        for x in (0.5, "1/2", True, False, Decimal(1), None, Count(3)):
            with pytest.raises(TypeError):
                rat_str(x)

    def test_parse_rat_reads_strings_as_fraction_does_on_its_own_grammar(self):
        # the grammar is -?[0-9]+(/[0-9]+)?; within it the value is the one
        # Fraction parses, and anything outside it is refused
        accepted = ["0", "-0", "7", "-35/3", "007/014", "10/5", "-4/1", "1" * 300 + "/3"]
        for x in accepted:
            got = parse_rat(x)
            assert Fraction(*got) == Fraction(x) and type(got) is RatPair
        refused = ["", "1.5", "1e3", " 1", "1 ", "+1", "1/", "/2", "1/-2", "--1", "1/2/3", "\u0661"]
        for x in refused:
            with pytest.raises(ValueError, match="not a rational"):
                parse_rat(x)
        with pytest.raises(ZeroDivisionError):
            parse_rat("3/0")

    def test_parse_rat_keeps_the_pair_as_written(self):
        # the pair is not reduced, its denominator is positive, and a
        # string outside the grammar is refused
        assert parse_rat("-6/4") == (-6, 4) and parse_rat("007/014") == (7, 14)
        assert (parse_rat("-0").numerator, parse_rat("12").denominator) == (0, 1)
        for x in ("", "1.5", "1/-2", "+1"):
            with pytest.raises(ValueError, match="not a rational"):
                parse_rat(x)
        # a zero denominator raises what Fraction raises
        with pytest.raises(ZeroDivisionError) as got:
            parse_rat("-3/0")
        with pytest.raises(ZeroDivisionError) as want:
            Fraction(-3, 0)
        assert str(got.value) == str(want.value)

    def test_parse_rat_reads_strings_only(self):
        # a JSON number, true or false is not a rational string
        assert parse_rat("1") == (1, 1)
        for x in (1, True, False, Fraction(1), None):
            with pytest.raises(TypeError):
                parse_rat(x)


class TestAffineForm:
    def test_eval_matches_substitution_by_hand(self):
        # 2940/360 - 84/72 + 7 = 49/6 - 7/6 + 7 = 14
        f = form((84 * 35, 84, 7))
        assert f.evaluate(Fraction(1, 360), Fraction(-1, 72)) == 14

    def test_eval_at_origin_is_constant(self):
        f = form((123, -456, Fraction(7, 9)))
        assert f.evaluate(0, 0) == Fraction(7, 9)

    def test_published_value_p3_equals_49(self):
        f = form((2940, 84, 7))
        assert f.evaluate(Fraction(1, 60), Fraction(-1, 12)) == 49

    def test_linearity(self):
        rng = random.Random(3)
        f = form((rand_rat(rng), rand_rat(rng), rand_rat(rng)))
        g = form((rand_rat(rng), rand_rat(rng), rand_rat(rng)))
        a, b = rand_rat(rng), rand_rat(rng)
        assert form(f, g).evaluate(a, b) == f.evaluate(a, b) + g.evaluate(a, b)
        assert form(f, (-1, g)).evaluate(a, b) == f.evaluate(a, b) - g.evaluate(a, b)
        assert form((3, f)).evaluate(a, b) == 3 * f.evaluate(a, b)


class TestPoly:
    def test_eval_and_degree(self):
        p = Poly([-3, -5, 2])  # (1 + 2t)(t - 3)
        assert poly_eval(p.coeffs, 5) == 11 * 2
        assert p.degree == 2

    def test_shift(self):
        p = Poly([9, -6, 1])  # (t - 3)^2
        assert p.shift(3) == Poly([0, 0, 1])

    def test_zero_poly(self):
        assert Poly([0, 0]).is_zero()


class TestPolyNonnegOnRay:
    def test_never_a_false_certificate(self):
        rng = random.Random(20240203)
        certified = 0
        for _ in range(200):
            p = Poly(*over_common_denominator([rand_rat(rng, 20) for _ in range(rng.randint(1, 6))]))
            m0 = rng.randint(-10, 10)
            if not poly_positive_on_ray(p, m0):
                continue
            certified += 1
            for _ in range(20):
                x = m0 + abs(rand_rat(rng, 50))
                assert poly_eval(p.coeffs, x) > 0
        assert certified > 0

    def test_strict_variant(self):
        assert poly_positive_on_ray(Poly([2, 0, 1]), 0)
        assert not poly_positive_on_ray(Poly([0, 0, 1]), 0)  # zero at 0
        assert not poly_positive_on_ray(Poly(), 5)
