"""Split-bundle section counts: both conventions, geometry, the closed
form, and the worked example's certificates."""

import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from fanobound import bundle
from fanobound.hilbert import ChernData, PValue, fit_ab, p_affine, p_eval
from fanobound.bundle import (
    EXAMPLE_TWISTS,
    PAPER_DIM1_START,
    PowerRows,
    SplitBundle,
    UnsupportedConventionError,
    anticanonical_data,
    h0_anti,
    h0_p1,
    is_nef,
    k5_geometric,
    oracle_source,
    paper_closed_form,
    sym_power_twists,
)
from fanobound.bounds import solve_oracle
from fanobound.certs import MAX_TABLE, verify


def rank_printed(k):
    """The published rank count for S^k of the four untwisted summands:
    (k-1)k(k+1)/6, clamped at zero."""
    return max(0, (k - 1) * k * (k + 1) // 6)


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


def moments(mults):
    """(rank, degree) of a multiset of line-bundle degrees: the count and
    the degree sum."""
    return sum(mults.values()), sum(d * c for d, c in mults.items())


def dict_powers(twists, k):
    """The per-degree dictionary pass, a reference for the rows: adding a
    summand of twist e turns row j into row j plus row j - 1 (already
    updated) moved up by e."""
    rows = [{0: 1}] + [{} for _ in range(k)]
    for e in twists:
        for j in range(1, k + 1):
            row = rows[j]
            for d, c in rows[j - 1].items():
                row[d + e] = row.get(d + e, 0) + c
    return rows


def dict_h0_anti(twists, m_max, conv="standard"):
    """h0(-mK) for m = 1..m_max, degree by degree with h0_p1 over
    dict_powers; the printed S^j is the standard S^(j-2)."""
    h = 2 - sum(twists)
    if conv == "standard":
        powers = dict_powers(twists, 5 * m_max)
    else:
        powers = [{}, {}] + dict_powers(twists, 5 * m_max - 2)
    return [
        sum(c * h0_p1(d + m * h) for d, c in powers[5 * m].items())
        for m in range(1, m_max + 1)
    ]


def h0_anti_or_refusal(twists, m_max, conv="standard"):
    """h0_anti's values on a nef bundle, which must equal dict_h0_anti's;
    on any other bundle, checks that h0_anti refuses it and returns None."""
    b = SplitBundle(twists)
    if not is_nef(b):
        with pytest.raises(ValueError, match=r"^-K is not nef") as exc:
            h0_anti(b, m_max, conv)
        assert str(twists) in str(exc.value)
        return None
    values = h0_anti(b, m_max, conv)
    assert values == dict_h0_anti(twists, m_max, conv)
    return values


# every nef split bundle is a shift of one with twists >= 0 summing to at
# most 2: 5 min(e) + 2 - sum(e) >= 0 says exactly that
NEF_OFFSETS = [d for d in product(range(3), repeat=5) if sum(d) <= 2]
# the same up to order: four zeros and 0, 1 or 2, and (0, 0, 0, 1, 1)
NEF_NORMAL_FORMS = sorted({tuple(sorted(d)) for d in NEF_OFFSETS})


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
        mults = brute_force_twists(EXAMPLE_TWISTS, 5)
        assert [mults[d] for d in range(6)] == [56, 35, 20, 10, 4, 1]
        assert got == moments(mults) == (126, 126)

    def test_example_printed_multiplicities(self):
        got = sym_power_twists(SplitBundle(EXAMPLE_TWISTS), 5, "paper")[5]
        # printed rank (k-1)k(k+1)/6 at k = 5..0
        printed = {d: rank_printed(5 - d) for d in range(6)}
        assert [printed[d] for d in range(6)] == [20, 10, 4, 1, 0, 0]
        assert got == moments(printed) == (35, 21)

    def test_trivial_bundle(self):
        got = sym_power_twists(SplitBundle((0, 0, 0, 0, 0)), 2, "standard")[2]
        assert got == (comb(6, 4), 0)

    def test_dp_equals_brute_force_random_twists(self):
        rng = random.Random(20240501)
        for _ in range(40):
            twists = tuple(rng.randint(-2, 3) for _ in range(5))
            k = rng.randint(0, 8)
            assert sym_power_twists(SplitBundle(twists), k)[k] == moments(
                brute_force_twists(twists, k)
            )

    def test_total_rank(self):
        rng = random.Random(20240502)
        for _ in range(20):
            twists = tuple(rng.randint(-2, 3) for _ in range(5))
            k = rng.randint(0, 10)
            rank, _ = sym_power_twists(SplitBundle(twists), k)[k]
            assert rank == comb(k + 4, 4) == sum(brute_force_twists(twists, k).values())

    def test_printed_convention_needs_special_shape(self):
        with pytest.raises(UnsupportedConventionError):
            sym_power_twists(SplitBundle((1, 1, 0, 0, 0)), 5, "paper")
        # any order of four zeros and one e is accepted
        expected = {
            0: rank_printed(3),
            2: rank_printed(2),
            4: rank_printed(1),
            6: rank_printed(0),
        }
        assert sym_power_twists(SplitBundle((0, 2, 0, 0, 0)), 3, "paper")[3] == moments(
            expected
        ) == (5, 2)

    def test_negative_power_refused(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            sym_power_twists(SplitBundle(EXAMPLE_TWISTS), -1)


class TestPowerRow:
    def test_row_equals_brute_force_both_ways(self):
        twists = (-1, 0, 0, 2, 3)
        for k, row in enumerate(sym_power_twists(SplitBundle(twists), 6)):
            expected = moments(brute_force_twists(twists, k))
            assert type(row) is tuple
            assert row == expected and expected == row

    def test_printed_leading_rows_are_empty(self):
        table = sym_power_twists(SplitBundle(EXAMPLE_TWISTS), 3, "paper")
        assert table[0] == table[1] == (0, 0)
        # the standard S^0 and S^1: {0: 1}, and {0: 4, 1: 1}
        assert table[2] == (1, 0) and table[3] == (5, 1)
        assert list(table) == [(0, 0), (0, 0), (1, 0), (5, 1)]
        for j in (-1, 4):
            with pytest.raises(IndexError):
                table[j]

    def test_rows_and_counts_match_the_dict_pass(self):
        rng = random.Random(20261018)
        for _ in range(60):
            twists = tuple(rng.randint(-6, 6) for _ in range(5))
            m_max = rng.randint(1, 6)
            assert list(sym_power_twists(SplitBundle(twists), 5 * m_max)) == [
                moments(row) for row in dict_powers(twists, 5 * m_max)
            ]
            h0_anti_or_refusal(twists, m_max)
            shift = rng.randint(-6, 6)
            nef = tuple(d + shift for d in rng.choice(NEF_OFFSETS))
            assert h0_anti_or_refusal(nef, m_max) is not None


any_twists = st.tuples(*[st.integers(-6, 6)] * 5)
nef_twists = st.builds(
    lambda offset, shift: tuple(d + shift for d in offset),
    st.sampled_from(NEF_OFFSETS),
    st.integers(-6, 6),
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(twists=st.one_of(nef_twists, any_twists), m_max=st.integers(1, 5))
# lowest pushed-down degree 0 (nef, -K on the boundary of the cone), -1
# and -2 from m = 1 on (refused), and far from nef
@example(twists=(0, 0, 0, 1, 1), m_max=5)
@example(twists=(0, 0, 0, 1, 2), m_max=1)
@example(twists=(0, 0, 0, 2, 2), m_max=3)
@example(twists=(-6, -6, 6, 6, 6), m_max=2)
def test_h0_anti_matches_the_dict_pass(twists, m_max):
    h0_anti_or_refusal(twists, m_max)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(e=st.integers(-6, 6), m_max=st.integers(1, 6))
# the printed example, the nef boundary e = 2, and two bundles refused
@example(e=1, m_max=5)
@example(e=2, m_max=6)
@example(e=3, m_max=1)
@example(e=-1, m_max=1)
def test_printed_h0_anti_matches_the_dict_pass(e, m_max):
    values = h0_anti_or_refusal((0, 0, 0, 0, e), m_max, "paper")
    assert (values is not None) == (e in (0, 1, 2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(e=st.integers(-6, 6), others=st.tuples(*[st.integers(-6, 6)] * 4), k=st.integers(0, 40),
       conv=st.sampled_from(["standard", "paper"]))
# a nef bundle, the printed example, and one far from nef
@example(e=1, others=(0, 0, 0, 0), k=40, conv="paper")
@example(e=2, others=(0, 0, 0, 0), k=40, conv="standard")
@example(e=6, others=(-6, -6, 6, 6), k=40, conv="standard")
# the four nef normal forms at the bench's size, S^160 for m = 32, in both
# conventions where the printed one applies
@example(e=0, others=(0, 0, 0, 0), k=160, conv="standard")
@example(e=1, others=(0, 0, 0, 0), k=160, conv="standard")
@example(e=2, others=(0, 0, 0, 0), k=160, conv="standard")
@example(e=1, others=(1, 0, 0, 0), k=160, conv="standard")
@example(e=0, others=(0, 0, 0, 0), k=160, conv="paper")
@example(e=1, others=(0, 0, 0, 0), k=160, conv="paper")
@example(e=2, others=(0, 0, 0, 0), k=160, conv="paper")
def test_rows_match_the_dict_pass_moments(e, others, k, conv):
    # the count and degree sum of each dict_powers row are the brute-force
    # check of rank C(i+4, 4) and degree C(i+4, 5) * sum(e); the printed
    # convention takes four zeros and one e, and its row j is the standard
    # row j - 2
    twists = (e,) + (others if conv == "standard" else (0, 0, 0, 0))
    rows = sym_power_twists(SplitBundle(twists), k, conv)
    assert len(rows) == k + 1
    standard = dict_powers(twists, k)
    assert list(rows) == [
        moments(standard[j - rows.shift]) if j >= rows.shift else (0, 0) for j in range(k + 1)
    ]


class TestMoments:
    def test_trivial_bundle_at_the_rank_guard(self):
        # P^4 x P^1 up to S^145050, whose rank C(145054, 4) is just below
        # 2**64: h0(-mK) = C(5m+4, 4) * (2m + 1)
        values = h0_anti(SplitBundle((0, 0, 0, 0, 0)), 29010)
        assert comb(145054, 4) < 2**64 <= comb(145057, 4)
        assert values[-1] == comb(145054, 4) * 58021
        assert values[::2900] == [comb(5 * m + 4, 4) * (2 * m + 1) for m in range(1, 29011, 2900)]


class TestSlotBudget:
    @pytest.mark.parametrize("twists, conv", [
        pytest.param(offset, conv, id=f"{''.join(map(str, offset))}-{conv}")
        for offset in NEF_NORMAL_FORMS for conv in ("standard", "paper")
        if conv == "standard" or offset[3] == 0
    ])
    def test_nef_counts_build_only_the_rows_read(self, twists, conv, monkeypatch):
        # h0_anti(b, 32) reads rows 5, 10, ..., 160 of the 161 that
        # sym_power_twists(b, 160) returns, each computed when it is read
        read = []
        row = PowerRows.__getitem__

        def recording(rows, j):
            read.append(j)
            return row(rows, j)

        monkeypatch.setattr(PowerRows, "__getitem__", recording)
        values = h0_anti(SplitBundle(twists), 32, conv)
        assert read == list(range(5, 161, 5))
        assert len(values) == 32
        if conv == "standard":
            chern = ChernData(6250, 2750)
            assert values == [p_eval(chern, m) for m in range(1, 33)]


class TestOnePassTables:
    def test_every_power_of_one_pass(self):
        twists = (-1, 0, 0, 2, 3)
        table = sym_power_twists(SplitBundle(twists), 6)
        assert len(table) == 7
        for k, got in enumerate(table):
            assert got == moments(brute_force_twists(twists, k))

    def test_printed_table_matches_printed_rank(self):
        # the paper rows are the standard ones shifted by two; check them
        # against the published rank (k-1)k(k+1)/6 entry by entry
        for e in range(-3, 4):
            b = SplitBundle((0, 0, 0, 0, e))
            table = sym_power_twists(b, 15, "paper")
            for k, got in enumerate(table):
                expected = {}
                for j in range(k + 1):
                    expected[j * e] = expected.get(j * e, 0) + rank_printed(k - j)
                assert got == moments(expected)

    def test_table_is_prefix_stable(self):
        b = SplitBundle((0, 0, 0, 1, 1))
        assert h0_anti(b, 4) == h0_anti(b, 9)[:4]
        assert h0_anti(b, 9) == [h0_anti(b, m)[-1] for m in range(1, 10)]


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


def test_table_at_the_verifier_limit_is_riemann_roch():
    # Kawamata-Viehweg: h0 = chi = P on a nef split bundle, at every
    # multiple the verifier may be asked to recount
    values = h0_anti(SplitBundle((2, 2, 2, 3, 3)), MAX_TABLE)
    chern = ChernData(6250, 2750)
    assert values == [p_eval(chern, m) for m in range(1, MAX_TABLE + 1)]


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

    @pytest.mark.parametrize("twists, conv", [
        ((-2, 0, 0, 0, 0), "standard"),
        ((-2, 0, 0, 0, 1), "standard"),
        ((0, 0, 0, 1, 2), "standard"),
        ((0, 0, 0, 0, 3), "standard"),
        ((0, 0, 0, 0, 3), "paper"),
        ((0, 0, 0, 0, -1), "paper"),
    ])
    def test_non_nef_bundle_refused(self, twists, conv, monkeypatch):
        # before any symmetric power is asked for
        def refuse(*args):
            raise AssertionError("sym_power_twists was called")

        b = SplitBundle(twists)
        assert not is_nef(b)
        monkeypatch.setattr(bundle, "sym_power_twists", refuse)
        with pytest.raises(ValueError, match=r"^-K is not nef") as exc:
            h0_anti(b, 3, conv)
        assert str(twists) in str(exc.value)

    def test_nef_boundary_is_degree_zero(self):
        # 5 min(e) + 2 - sum(e) = 0: the lowest pushed-down degree of -mK is
        # 0, so each summand has h0 = chi; one twist more and it is -1
        for twists in ((0, 0, 0, 0, 2), (0, 0, 0, 1, 1)):
            b = SplitBundle(twists)
            assert is_nef(b) and 5 * min(twists) + 2 - sum(twists) == 0
            assert h0_anti(b, 2) == [brute_force_h0(twists, 1), brute_force_h0(twists, 2)]
        for twists in ((0, 0, 0, 0, 3), (0, 0, 0, 1, 2)):
            assert not is_nef(SplitBundle(twists))
            with pytest.raises(ValueError, match=r"^-K is not nef"):
                h0_anti(SplitBundle(twists), 1)


class TestPaperClosedForm:
    def test_published_values(self):
        assert paper_closed_form(1) == 91
        assert paper_closed_form(4) == 62909
        assert paper_closed_form(5) == 186030

    def test_division_by_24_is_exact_for_every_m(self):
        # an integer polynomial's residue mod 24 has period 24
        residues = [
            m * (5 * m - 1) * (5 * m + 1) * (5 * m + 2) * (10 * m + 3) % 24
            for m in range(24)
        ]
        assert residues == [0] * 24
        with pytest.raises(ValueError, match="m must be >= 1"):
            paper_closed_form(0)

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
