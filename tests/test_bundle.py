"""Split-bundle section counts: both conventions, geometry, the closed
form, and the worked example's certificates."""

import random
import tracemalloc
import warnings
from fractions import Fraction
from itertools import count, product
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from fanobound.hilbert import ChernData, PValue, fit_ab, p_affine, p_eval
from fanobound.bundle import (
    EXAMPLE_TWISTS,
    PAPER_DIM1_START,
    MAX_POWER_SLOTS,
    ChiApproximationWarning,
    PowerRows,
    SplitBundle,
    UnsupportedConventionError,
    anticanonical_data,
    h0_anti,
    h0_p1,
    is_nef,
    k5_geometric,
    _moments,
    oracle_source,
    paper_closed_form,
    power_slots,
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


def dict_powers(twists, k):
    """The per-degree dictionary pass, the reference for the packed rows:
    adding a summand of twist e turns row j into row j plus row j - 1
    (already updated) moved up by e."""
    rows = [{0: 1}] + [{} for _ in range(k)]
    for e in twists:
        for j in range(1, k + 1):
            row = rows[j]
            for d, c in rows[j - 1].items():
                row[d + e] = row.get(d + e, 0) + c
    return rows


def dict_h0_anti(twists, m_max, conv="standard"):
    """h0(-mK) for m = 1..m_max and the chi flag, degree by degree with
    h0_p1 over dict_powers; the printed S^j is the standard S^(j-2)."""
    h = 2 - sum(twists)
    if conv == "standard":
        powers = dict_powers(twists, 5 * m_max)
    else:
        powers = [{}, {}] + dict_powers(twists, 5 * m_max - 2)
    values, below_chi = [], False
    for m in range(1, m_max + 1):
        mults = powers[5 * m]
        below_chi = below_chi or any(d + m * h < -1 for d in mults)
        values.append(sum(c * h0_p1(d + m * h) for d, c in mults.items()))
    return values, below_chi


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

    def test_negative_power_refused(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            sym_power_twists(SplitBundle(EXAMPLE_TWISTS), -1)


class TestPowerRow:
    def test_row_equals_brute_force_both_ways(self):
        twists = (-1, 0, 0, 2, 3)
        for k, row in enumerate(sym_power_twists(SplitBundle(twists), 6)):
            expected = brute_force_twists(twists, k)
            assert type(row) is dict
            assert row == expected and expected == row

    def test_zero_multiplicity_inside_the_span_is_absent(self):
        rows = sym_power_twists(SplitBundle((0, 0, 0, 0, 2)), 3)
        # the packed row holds every slot from degree 0 up, zero or not
        slots = [rows.packed(3) >> (64 * t) & (2**64 - 1) for t in range(7)]
        assert slots == [20, 0, 10, 0, 4, 0, 1]
        row = rows[3]
        assert list(row.keys()) == [0, 2, 4, 6] and len(row) == 4
        for d in (1, 3, 5, -1, 7):
            assert d not in row and row.get(d, 0) == 0
            with pytest.raises(KeyError):
                row[d]

    def test_printed_leading_rows_are_empty(self):
        table = sym_power_twists(SplitBundle(EXAMPLE_TWISTS), 3, "paper")
        for row in (table[0], table[1]):
            assert row == {} and {} == row
            assert list(row.keys()) == [] and len(row) == 0
            assert 0 not in row and row.get(0, 0) == 0
        assert table[2] == {0: 1} and table[3] == {0: 4, 1: 1}

    def test_an_edited_row_leaves_the_table_unchanged(self):
        # each read builds a new dict, so an edit reaches no later read
        rows = sym_power_twists(SplitBundle(EXAMPLE_TWISTS), 2)
        row = rows[2]
        row[0] = 1
        del row[2]
        row[7] = 3
        assert rows[2] == brute_force_twists(EXAMPLE_TWISTS, 2) == {0: 10, 1: 4, 2: 1}

    def test_rows_and_counts_match_the_dict_pass(self):
        rng = random.Random(20261018)
        for _ in range(60):
            twists = tuple(rng.randint(-6, 6) for _ in range(5))
            m_max = rng.randint(1, 6)
            assert list(sym_power_twists(SplitBundle(twists), 5 * m_max)) == dict_powers(
                twists, 5 * m_max
            )
            values, below_chi = dict_h0_anti(twists, m_max)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert h0_anti(SplitBundle(twists), m_max) == values
            assert bool(caught) == below_chi
            assert all(w.category is ChiApproximationWarning for w in caught)


def h0_anti_and_chi_flag(twists, m_max, conv="standard"):
    """h0_anti's values and whether it warned, the shape of dict_h0_anti."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = h0_anti(SplitBundle(twists), m_max, conv)
    assert all(w.category is ChiApproximationWarning for w in caught)
    return values, bool(caught)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(twists=st.tuples(*[st.integers(-6, 6)] * 5), m_max=st.integers(1, 5))
# lowest pushed-down degree exactly -1 (no warning), -2 from m = 1 on
# (slots skipped, a warning), and far from nef
@example(twists=(0, 0, 0, 1, 2), m_max=1)
@example(twists=(0, 0, 0, 2, 2), m_max=3)
@example(twists=(-6, -6, 6, 6, 6), m_max=2)
def test_h0_anti_matches_the_dict_pass(twists, m_max):
    assert h0_anti_and_chi_flag(twists, m_max) == dict_h0_anti(twists, m_max)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(e=st.integers(-6, 6), m_max=st.integers(1, 6))
# the printed example, and a bundle whose lowest degrees are skipped
@example(e=1, m_max=5)
@example(e=6, m_max=2)
def test_printed_h0_anti_matches_the_dict_pass(e, m_max):
    twists = (0, 0, 0, 0, e)
    assert h0_anti_and_chi_flag(twists, m_max, "paper") == dict_h0_anti(twists, m_max, "paper")


def slot_moments(packed):
    """(sum c_i, sum i * c_i) of a packed row, slot by slot."""
    s0 = s1 = 0
    for i in range((packed.bit_length() + 63) // 64):
        c = packed >> (64 * i) & (2**64 - 1)
        s0, s1 = s0 + c, s1 + i * c
    return s0, s1


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
def test_closed_form_moments_match_the_packed_rows(e, others, k, conv):
    # the slot-by-slot moments of the packed rows are the brute-force check
    # of S0 = C(i+4, 4) and S1 = C(i+4, 5) * deg E, the closed forms that
    # h0_anti reads; the printed convention takes four zeros and one e
    twists = (e,) + (others if conv == "standard" else (0, 0, 0, 0))
    deg = sum(twists) - 5 * min(twists)
    rows = sym_power_twists(SplitBundle(twists), k, conv)
    assert len(rows) == k + 1
    for i in range(k + 1 - rows.shift):
        assert (comb(i + 4, 4), deg * comb(i + 4, 5)) == slot_moments(rows.packed(i))


class TestMoments:
    def pack(self, counts):
        return sum(c << (64 * i) for i, c in enumerate(counts))

    def test_largest_rank_the_guard_admits(self):
        # spread 0 holds one slot per row, up to S^145052 of rank C(145056, 4)
        rank = comb(145056, 4)
        assert rank < 2**64 - 1 and comb(145057, 4) >= 2**64
        for counts in ([rank], [0, rank], [rank, 0, 0, 0]):
            packed = self.pack(counts)
            assert _moments(packed) == slot_moments(packed) == (rank, counts.index(rank) * rank)

    def test_largest_weighted_sum_the_slot_budget_admits(self):
        # spread 1 reaches k = 4094 under MAX_POWER_SLOTS; its top row has
        # 4095 slots and rank C(4098, 4), so sum(i * c_i) < 4094 * C(4098, 4)
        assert power_slots(1, 4094) <= MAX_POWER_SLOTS < power_slots(1, 4095)
        rank = comb(4098, 4)
        top = [0] * 4094 + [rank]
        spread = [rank // 4095 + (i < rank % 4095) for i in range(4095)]
        rng = random.Random(22)
        uneven = [0] * 4095
        for _ in range(200):
            uneven[rng.randrange(3000, 4095)] += rank // 200
        for counts in (top, spread, uneven):
            packed = self.pack(counts)
            s0, s1 = slot_moments(packed)
            assert s0 <= rank and 2**54 < s1 <= 4094 * rank < 2**55.5
            assert _moments(packed) == (s0, s1)

    def test_trivial_bundle_at_the_rank_guard(self):
        # P^4 x P^1 up to S^145050: h0(-mK) = C(5m+4, 4) * (2m + 1)
        values = h0_anti(SplitBundle((0, 0, 0, 0, 0)), 29010)
        assert values[-1] == comb(145054, 4) * 58021
        assert values[::2900] == [comb(5 * m + 4, 4) * (2 * m + 1) for m in range(1, 29011, 2900)]


class TestSlotGuard:
    def test_rank_past_64_bits_refused_before_any_row(self):
        first = next(k for k in count() if comb(k + 4, 4) >= 2**64)
        cases = [(first, "standard"), (200_000, "standard"), (first + 2, "paper")]
        for k, conv in cases:
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="64-bit"):
                    sym_power_twists(SplitBundle(EXAMPLE_TWISTS), k, conv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 16


class TestSlotBudget:
    def test_verifier_tables_fit_on_every_nef_normal_form(self):
        # a nef bundle twisted to min(e) = 0 has sum(e) <= 2, so spread <= 2
        for offset in NEF_OFFSETS:
            spread = max(offset) - min(offset)
            assert spread <= 2
            assert power_slots(spread, 5 * MAX_TABLE) <= MAX_POWER_SLOTS
        assert power_slots(2, 5 * MAX_TABLE) == (5 * MAX_TABLE + 1) ** 2

    def test_slots_count_every_row(self):
        for twists in [(0, 0, 0, 0, 0), (0, 0, 0, 1, 1), (-2, 0, 1, 1, 3)]:
            spread = max(twists) - min(twists)
            for k in range(6):
                rows = sym_power_twists(SplitBundle(twists), k)
                # the top slot of each row, degree i * max(e), holds 1
                slots = sum((rows.packed(i).bit_length() + 63) // 64 for i in range(k + 1))
                assert power_slots(spread, k) == slots

    def test_over_budget_refused_before_any_row(self):
        # k = 145,000 passes the 64-bit guard but would need ~84 GB of rows
        k = 145_000
        assert comb(k + 4, 4) < 2**64
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="packed slots"):
                sym_power_twists(SplitBundle(EXAMPLE_TWISTS), k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_unread_rows_stay_packed(self):
        # a call holds no packed row until one is read; the first read
        # builds them all, and a row is unpacked into a dict when it is read
        b = SplitBundle((0, 0, 0, 1, 1))
        packed_bytes = 8 * power_slots(1, 1000)
        tracemalloc.start()
        try:
            rows = sym_power_twists(b, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * packed_bytes
        assert rows[2] == {0: 6, 1: 6, 2: 3}
        assert rows[3] == brute_force_twists((0, 0, 0, 1, 1), 3)

    def test_nef_counts_build_no_packed_row(self):
        # the widest nef bundle at the verifier's largest table: its packed
        # rows would take 8 * 2561**2 bytes, about 52 MB, and h0_anti reads
        # only the closed-form moments
        b = SplitBundle((0, 0, 0, 0, 2))
        assert is_nef(b)
        packed_bytes = 8 * power_slots(2, 5 * MAX_TABLE)
        tracemalloc.start()
        try:
            values = h0_anti(b, MAX_TABLE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < packed_bytes / 10
        chern = ChernData(6250, 2750)
        assert values[::64] == [p_eval(chern, m) for m in range(1, MAX_TABLE + 1, 64)]

    @pytest.mark.parametrize("twists, conv", [
        pytest.param(offset, conv, id=f"{''.join(map(str, offset))}-{conv}")
        for offset in NEF_NORMAL_FORMS for conv in ("standard", "paper")
        if conv == "standard" or offset[3] == 0
    ])
    def test_nef_counts_build_only_the_rows_read(self, twists, conv, monkeypatch):
        # h0_anti(b, 32) counts rows 5, 10, ..., 160 of the 161 that
        # sym_power_twists(b, 160) returns from their closed forms, and
        # reads no packed row, so it builds none
        def refuse(rows, i):
            raise AssertionError("a packed row was read")

        monkeypatch.setattr(PowerRows, "packed", refuse)
        values = h0_anti(SplitBundle(twists), 32, conv)
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

    def test_chi_guard_warns_on_deep_negative_twists(self):
        b = SplitBundle((-2, 0, 0, 0, 1))
        with pytest.warns(ChiApproximationWarning):
            (value,) = h0_anti(b, 1)
        assert value == brute_force_h0((-2, 0, 0, 0, 1), 1)

    @pytest.mark.parametrize(
        "twists, lowest, warns",
        [((0, 0, 0, 1, 2), -1, False), ((0, 0, 0, 2, 2), -2, True)],
    )
    def test_chi_boundary_is_degree_minus_one(self, twists, lowest, warns):
        # the lowest pushed-down degree of -K; h0_p1 counts O(-1) as 0
        # sections with chi = 0, and O(-2) as 0 sections with chi = -1
        b = SplitBundle(twists)
        _, h_coeff = anticanonical_data(b)
        assert min(sym_power_twists(b, 5)[5]) + h_coeff == lowest
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            (value,) = h0_anti(b, 1)
        assert [w.category for w in caught] == [ChiApproximationWarning] * warns
        assert value == brute_force_h0(twists, 1)

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
