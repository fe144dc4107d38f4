"""Split-bundle section counts: both conventions, geometry, the closed
form, and the worked example's certificates."""

import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from fanobound.hilbert import ChernData, PValue, fit_ab, p_affine, p_eval
from fanobound.bundle import (
    EXAMPLE_TWISTS,
    PAPER_DIM1_START,
    ChiApproximationWarning,
    SplitBundle,
    UnsupportedConventionError,
    anticanonical_data,
    h0_anti,
    h0_p1,
    is_nef,
    k5_geometric,
    oracle_source,
    paper_closed_form,
    rank_printed,
    sym_power_twists,
)
from fanobound.bounds import solve_oracle
from fanobound.certs import verify


def brute_force_twists(twists, k):
    """Exhaustive multi-index enumeration of S^k(O(e1) + ... + O(e5))."""
    out = {}
    for alpha in product(range(k + 1), repeat=5):
        if sum(alpha) != k:
            continue
        d = sum(a * e for a, e in zip(alpha, twists))
        out[d] = out.get(d, 0) + 1
    return out


def brute_force_h0(twists, m):
    shift = m * (2 - sum(twists))
    mults = brute_force_twists(twists, 5 * m)
    return sum(c * h0_p1(d + shift) for d, c in mults.items())


class TestBasics:
    def test_bundle_needs_five_twists(self):
        with pytest.raises(ValueError):
            SplitBundle((0, 0, 0, 1))

    def test_h0_p1(self):
        assert h0_p1(3) == 4
        assert h0_p1(-1) == 0
        assert h0_p1(-5) == 0
        assert h0_p1(1) == 2  # degree m + i at m = 1, i = 0

    def test_anticanonical_data(self):
        assert anticanonical_data(SplitBundle(EXAMPLE_TWISTS)) == (5, 1)
        assert anticanonical_data(SplitBundle((0, 0, 0, 0, 0))) == (5, 2)
        assert anticanonical_data(SplitBundle((1, 1, 1, 1, 1))) == (5, -3)

    def test_k5_geometric(self):
        # (5L + H)^5 with H^2 = 0: 3125 L^5 + 5 * 625 H.L^4 = 3125 + 3125
        assert k5_geometric(SplitBundle(EXAMPLE_TWISTS)) == 6250
        assert k5_geometric(SplitBundle((0, 0, 0, 0, 0))) == 6250

    def test_parse(self):
        assert SplitBundle.parse("0,0,0,0,1").twists == (0, 0, 0, 0, 1)

    def test_is_nef(self):
        for offset in NEF_OFFSETS:
            for shift in (-3, 0, 7):
                assert is_nef(SplitBundle(tuple(d + shift for d in offset)))
        for twists in ((-1, 0, 0, 0, 0), (0, 0, 0, 0, 3), (0, 0, 0, 1, 2), (0, 1, 10, 100, 3000)):
            assert not is_nef(SplitBundle(twists))


class TestSymPowerTwists:
    def test_example_standard_multiplicities(self):
        got = sym_power_twists(SplitBundle(EXAMPLE_TWISTS), 5, "standard")[5]
        # brute force over all C(9,4) = 126 multi-indices
        assert got == brute_force_twists(EXAMPLE_TWISTS, 5)
        assert [got[d] for d in range(6)] == [56, 35, 20, 10, 4, 1]

    def test_example_printed_multiplicities(self):
        got = sym_power_twists(SplitBundle(EXAMPLE_TWISTS), 5, "paper")[5]
        # printed rank (k-1)k(k+1)/6 at k = 5..0
        assert [got.get(d, 0) for d in range(6)] == [20, 10, 4, 1, 0, 0]

    def test_trivial_bundle(self):
        got = sym_power_twists(SplitBundle((0, 0, 0, 0, 0)), 2, "standard")[2]
        assert got == {0: comb(6, 4)}

    def test_dp_equals_brute_force_random_twists(self):
        rng = random.Random(20240501)
        for _ in range(40):
            twists = tuple(rng.randint(-2, 3) for _ in range(5))
            k = rng.randint(0, 8)
            assert sym_power_twists(SplitBundle(twists), k)[k] == brute_force_twists(
                twists, k
            )

    def test_total_rank(self):
        rng = random.Random(20240502)
        for _ in range(20):
            twists = tuple(rng.randint(-2, 3) for _ in range(5))
            k = rng.randint(0, 10)
            mults = sym_power_twists(SplitBundle(twists), k)[k]
            assert sum(mults.values()) == comb(k + 4, 4)

    def test_printed_convention_needs_special_shape(self):
        with pytest.raises(UnsupportedConventionError):
            sym_power_twists(SplitBundle((1, 1, 0, 0, 0)), 5, "paper")
        # any order of four zeros and one e is accepted; degrees whose
        # printed rank is zero are not stored
        expected = {
            0: rank_printed(3),
            2: rank_printed(2),
            4: rank_printed(1),
            6: rank_printed(0),
        }
        assert sym_power_twists(SplitBundle((0, 2, 0, 0, 0)), 3, "paper")[3] == {
            d: c for d, c in expected.items() if c
        }


class TestOnePassTables:
    def test_every_power_of_one_pass(self):
        twists = (-1, 0, 0, 2, 3)
        table = sym_power_twists(SplitBundle(twists), 6)
        assert len(table) == 7
        for k, got in enumerate(table):
            assert got == brute_force_twists(twists, k)

    def test_printed_table_matches_printed_rank(self):
        # the paper list is the standard one shifted by two; check it
        # against the published rank (k-1)k(k+1)/6 entry by entry
        for e in range(-3, 4):
            b = SplitBundle((0, 0, 0, 0, e))
            table = sym_power_twists(b, 15, "paper")
            for k, got in enumerate(table):
                expected = {}
                for j in range(k + 1):
                    expected[j * e] = expected.get(j * e, 0) + rank_printed(k - j)
                assert got == {d: c for d, c in expected.items() if c}

    def test_table_is_prefix_stable(self):
        b = SplitBundle((0, 0, 0, 1, 1))
        assert h0_anti(b, 4) == h0_anti(b, 9)[:4]
        assert h0_anti(b, 9) == [h0_anti(b, m)[-1] for m in range(1, 10)]


# every nef split bundle is a shift of one with twists >= 0 summing to at
# most 2: 5 min(e) + 2 - sum(e) >= 0 says exactly that
NEF_OFFSETS = [d for d in product(range(3), repeat=5) if sum(d) <= 2]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    offset=st.sampled_from(NEF_OFFSETS),
    shift=st.integers(-3, 3),
    m_max=st.integers(1, 8),
)
def test_nef_table_equals_brute_force_and_p(offset, shift, m_max):
    twists = tuple(d + shift for d in offset)
    assert is_nef(SplitBundle(twists))
    values = h0_anti(SplitBundle(twists), m_max)
    assert len(values) == m_max
    for m in range(1, min(m_max, 2) + 1):
        assert values[m - 1] == brute_force_h0(twists, m)
    # every nef split bundle has (-K)^5 = 6250 and (-K)^3.c2 = 2750
    chern = ChernData(6250, 2750)
    assert values == [p_eval(chern, m) for m in range(1, m_max + 1)]


class TestH0Anti:
    def test_printed_convention_headline_values(self):
        b = SplitBundle(EXAMPLE_TWISTS)
        values = h0_anti(b, 5, "paper")
        assert values[0] == 91
        assert values[3] == 62909
        assert values[4] == 186030

    def test_standard_convention_value(self):
        b = SplitBundle(EXAMPLE_TWISTS)
        # by brute force: sum of C(8-i,3)*(i+2) over i = 0..5
        assert h0_anti(b, 1, "standard")[0] == brute_force_h0(EXAMPLE_TWISTS, 1) == 378

    def test_trivial_bundle_value(self):
        # P^4 x P^1: h0(-K) = C(9,4) * 3
        assert h0_anti(SplitBundle((0, 0, 0, 0, 0)), 1)[0] == brute_force_h0(
            (0, 0, 0, 0, 0), 1
        ) == 126 * 3

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError):
            h0_anti(SplitBundle(EXAMPLE_TWISTS), 0)

    def test_chi_guard_warns_on_deep_negative_twists(self):
        b = SplitBundle((-2, 0, 0, 0, 1))
        with pytest.warns(ChiApproximationWarning):
            (value,) = h0_anti(b, 1)
        assert value == brute_force_h0((-2, 0, 0, 0, 1), 1)

    def test_no_warning_on_the_example(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", ChiApproximationWarning)
            h0_anti(SplitBundle(EXAMPLE_TWISTS), 2)


class TestPaperClosedForm:
    def test_published_values(self):
        assert paper_closed_form(1) == 91
        assert paper_closed_form(4) == 62909
        assert paper_closed_form(5) == 186030

    def test_identity_with_summation_up_to_fifty(self):
        b = SplitBundle(EXAMPLE_TWISTS)
        for m, value in enumerate(h0_anti(b, 50, "paper"), start=1):
            assert value == paper_closed_form(m)


class TestHilbertFit:
    def test_standard_values_fit_one_ab(self):
        b = SplitBundle(EXAMPLE_TWISTS)
        values = h0_anti(b, 10)
        a, bb = fit_ab(PValue(1, values[0]), PValue(2, values[1]))
        for m in range(1, 11):
            assert p_affine(m).evaluate(a, bb) == values[m - 1]
        assert p_affine(0).evaluate(a, bb) == 1  # P(0) = 1 extrapolates
        assert 720 * a == 6250

    def test_fit_matches_geometry_for_twist_family(self):
        for e in (0, 1, 2):
            twists = (0, 0, 0, 0, e)
            b = SplitBundle(twists)
            v1, v2 = h0_anti(b, 2)
            a, _ = fit_ab(PValue(1, v1), PValue(2, v2))
            assert 720 * a == k5_geometric(b)

    def test_printed_values_fit_nothing(self):
        b = SplitBundle(EXAMPLE_TWISTS)
        printed = h0_anti(b, 3, "paper")
        a, bb = fit_ab(PValue(1, printed[0]), PValue(2, printed[1]))
        # the pair (91, 2277) inverts to a = 229/45, but m = 3 breaks
        assert a == Fraction(229, 45)
        assert p_affine(3).evaluate(a, bb) != printed[2]


class TestConsistencyAudit:
    def test_direct_summation_cross_check(self):
        # the standard count at m = 3 against an independent brute force
        assert h0_anti(SplitBundle(EXAMPLE_TWISTS), 3)[2] == brute_force_h0(
            EXAMPLE_TWISTS, 3
        ) == 27132


def printed_example_certificate():
    """The replay of the published selection: printed ranks, dimension-1
    search pinned as printed."""
    source = oracle_source(SplitBundle(EXAMPLE_TWISTS), "paper")
    return solve_oracle(source, dim1_start=PAPER_DIM1_START)


class TestExample1Bound:
    def test_printed_certificate(self):
        printed = printed_example_certificate()
        assert printed.bound == 15
        assert printed.r0 == 3 and printed.r == [3, 4, 5]
        assert verify(printed).ok

    def test_standard_certificate_is_no_worse(self):
        printed = printed_example_certificate()
        standard = solve_oracle(oracle_source(SplitBundle(EXAMPLE_TWISTS), "standard"))
        assert standard.bound <= 15
        assert all(s <= p for s, p in zip(standard.r, printed.r))
        assert verify(standard).ok

    def test_oracle_source_adapter(self):
        src = oracle_source(SplitBundle(EXAMPLE_TWISTS), "paper")
        assert src.d5 == 6250
        assert src.h0(1) == 91
        with pytest.raises(ValueError):
            oracle_source(SplitBundle(EXAMPLE_TWISTS), "bogus")
