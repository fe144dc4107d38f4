"""Dimension rules, searches, certification, and certificate verification."""

import dataclasses
import json
import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fanobound import bundle
from fanobound.exact import Poly, rat_str
from fanobound.hilbert import ChernData, lemma2_threshold, p_affine, p_eval
from fanobound.derive import (
    MonotoneCertificationError,
    ValueTable,
    axiom_system,
    chern_table,
    derive_lower_bound,
    fm_minimize,
    geometry_system,
    merge_branch_facts,
    split_on_p1,
)
from fanobound.bounds import (
    CertificationError,
    OracleSource,
    SearchExhaustedError,
    certify_r0,
    lemma2_slack_form,
    minimal_r,
    oracle_table,
    solve_concrete,
    solve_oracle,
    solve_worst_case,
)
from fanobound.certs import MalformedCertificateError, from_json_bytes, verify

import poly_reference as ref
from poly_reference import poly_eval
from test_hilbert import sample_chern


def geom():
    branches = split_on_p1(axiom_system(), 3)
    merged = merge_branch_facts([derive_lower_bound(br, 3) for br in branches])
    return geometry_system([merged])


def dummy_oracle(values):
    table = dict(values)
    return OracleSource(
        bundle=(0, 0, 0, 0, 1),
        convention="standard",
        h0=lambda m: table[m],
        d5=6250,
    )


def dummy_table(values):
    """Oracle values for m = 1, 2, ... as a value table with no tail model."""
    return ValueTable(tuple(values[m] for m in sorted(values)), 1, 6250, Poly(), "oracle")


def p720(k5, k3c2, m):
    """720 P(m) by the README formula, in integers."""
    return (2 * m + 1) * (m * (m + 1) * ((3 * m * m + 3 * m - 1) * k5 + 5 * k3c2) + 720)


@st.composite
def admissible_chern(draw):
    """(k5, k3c2) as the chern_batch bench draws them: k5 even in
    [2, 20000], k3c2 in [-k5 - 72, 2 k5 + 720] with P integral and
    non-negative (P(0..5) settle both)."""
    k5 = 2 * draw(st.integers(1, 10000))
    residues = {r for r in range(720) if all(p720(k5, r, m) % 720 == 0 for m in range(6))}
    values = [
        c for c in range(-k5 - 72, 2 * k5 + 721)
        if c % 720 in residues and all(p720(k5, c, m) >= 0 for m in range(6))
    ]
    # every even k5 admits some k3c2 in the window
    return ChernData(k5, draw(st.sampled_from(values)))


def pointwise_r0(c):
    """The least r >= 3 with P(r) >= 1 and P(m+1) > P(m) for every m >= r,
    found by evaluating P up to a Cauchy bound on the difference's roots."""
    d = ref.poly_difference(ref.p_polynomial(c.k5, c.k3c2))
    horizon = 2 + int(max(abs(x) for x in d[:-1]) / d[-1])
    last_bad = max((m for m in range(horizon + 1) if p_eval(c, m + 1) <= p_eval(c, m)), default=-1)
    return next(r for r in range(max(3, last_bad + 1), horizon + 3) if p_eval(c, r) >= 1)


class TestRules:
    def test_pencil_needs_two_sections(self):
        # h0 = 1 gives no pencil, h0 = 2 does
        out = minimal_r(dummy_table({1: 1, 2: 2}), 1, m_max=2)
        assert out.m == 2 and out.selected == {"m": 2, "r": None}
        assert out.attempts == ({"m": 1, "r": None},)

    def test_threshold_values(self):
        assert lemma2_threshold(5, 2, 6250) == 156252
        assert lemma2_threshold(1, 0, 1) == 1
        assert lemma2_threshold(4, 1, 6250) == 25001

    @pytest.mark.parametrize("m, r, d5", [(0, 1, 6250), (1, -1, 6250), (1, 1, 0)])
    def test_threshold_outside_its_domain_refused(self, m, r, d5):
        with pytest.raises(ValueError, match="need m >= 1, r >= 0, d5 >= 1"):
            lemma2_threshold(m, r, d5)

    def test_threshold_worst_case_form(self):
        # threshold at (6, 2) in (a, b): 36 * 720a + 2
        slack = lemma2_slack_form(6, 2)
        p6 = p_affine(6)
        assert slack.coeff_a == p6.coeff_a - 36 * 720
        assert slack.coeff_b == p6.coeff_b
        assert slack.const == p6.const - 2

    def test_lemma2_published_values(self):
        # h0(-4K) = 62909 > 25001 and h0(-5K) = 186030 > 156252
        src = dummy_table({1: 1, 2: 1, 3: 1, 4: 62909, 5: 186030})
        assert minimal_r(src, 2, m_max=5).selected == {"m": 4, "r": 1}
        assert minimal_r(src, 3, m_max=5).selected == {"m": 5, "r": 2}

    def test_lemma2_boundary_is_not_a_pass(self):
        t = lemma2_threshold(4, 1, 6250)
        at = dummy_table({1: 1, 2: 1, 3: 1, 4: t})
        with pytest.raises(SearchExhaustedError):
            minimal_r(at, 2, m_max=4)
        above = dummy_table({1: 1, 2: 1, 3: 1, 4: t + 1})
        assert minimal_r(above, 2, m_max=4).selected == {"m": 4, "r": 1}

    def test_lemma2_worstcase_published_chain(self):
        cs = geom()
        res = fm_minimize(cs, lemma2_slack_form(4, 1))
        # slack along b = -35a is 1440a + 8, minimized at a = 1/720
        assert res.status == "minimum" and res.value == 10
        res = fm_minimize(cs, lemma2_slack_form(5, 2))
        assert not (res.status == "minimum" and res.value > 0)
        res = fm_minimize(cs, lemma2_slack_form(6, 2))
        assert res.status == "minimum" and res.value == Fraction(173, 4)

    def test_m5_failure_slack_shape(self):
        # substituting b = -35a into the (5, 2) slack leaves -180a + 9,
        # negative as soon as 720a > 36
        slack = lemma2_slack_form(5, 2)
        assert slack.coeff_a - 35 * slack.coeff_b == -180
        assert slack.const == 9
        a = Fraction(1, 10)  # 720a = 72 > 36
        assert slack.evaluate(a, -35 * a) == -9


class TestMinimalR:
    def test_worst_case_targets(self):
        cs = geom()
        out1 = minimal_r(cs, 1)
        assert out1.m == 3 and out1.selected["raw_min"] == "7"
        # a pencil selection carries its minimum, which A3 rounds up, and a
        # refutation its point
        assert out1.selected.keys() == {"m", "r", "raw_min", "farkas"}
        assert all(a.keys() == {"m", "r", "point", "value"} for a in out1.attempts)
        out2 = minimal_r(cs, 2)
        assert (out2.m, out2.selected["r"]) == (4, 1)
        out3 = minimal_r(cs, 3)
        assert (out3.m, out3.selected["r"]) == (6, 2)

    def test_worst_case_failure_attempts_recorded(self):
        out = minimal_r(geom(), 3)
        pairs = [(a["m"], a["r"]) for a in out.attempts]
        assert (5, 2) in pairs
        assert pairs == [(m, r) for m in range(1, 7) for r in range(2, 5)][: len(pairs)]

    def test_concrete_example(self):
        c = chern_table(ChernData(6250, 2750), 32)
        assert minimal_r(c, 1).m == 1
        out2 = minimal_r(c, 2)
        assert (out2.m, out2.selected["r"]) == (3, 1)
        out3 = minimal_r(c, 3)
        assert (out3.m, out3.selected["r"]) == (5, 2)
        # the verifier reads each value from the table it checked
        assert out3.selected.keys() == {"m", "r"} and out3.attempts
        assert all(a.keys() == {"m", "r"} for a in out3.attempts)

    def test_monotone_budget(self):
        cs = geom()
        for target in (1, 2, 3):
            small = minimal_r(cs, target, m_max=8).m
            large = minimal_r(cs, target, m_max=20).m
            assert large == small

    def test_exhaustion(self):
        with pytest.raises(SearchExhaustedError):
            minimal_r(dummy_table({m: 0 for m in range(1, 5)}), 1, m_max=4)

    def test_unknown_dimension_refused(self):
        for target in (0, 4):
            with pytest.raises(ValueError, match="target dimension must be 1, 2, or 3"):
                minimal_r(geom(), target)

    def test_empty_budget_refused(self):
        with pytest.raises(ValueError, match="m_max must be >= 1"):
            minimal_r(geom(), 1, m_max=0)

    def test_deterministic_tie_break_smallest_r(self):
        # values so large that several exponents pass at the same m
        src = dummy_table({1: 10**9, 2: 10**9})
        out = minimal_r(src, 2, m_max=2)
        assert out.m == 1 and out.selected["r"] == 1


class TestCertifyR0:
    def test_rejects_small_r0(self):
        with pytest.raises(ValueError):
            certify_r0(chern_table(ChernData(6250, 2750), 3), 2)

    def test_concrete_passes(self):
        table = chern_table(ChernData(6250, 2750), 3)
        assert table.at(3) == 27132
        assert certify_r0(table, 3) is None

    def test_no_section_at_r0_refused(self):
        # P(3) = 0 for (2, -26), whose solve moves r0 to 4
        with pytest.raises(CertificationError, match=r"P\(3\) = 0, need >= 1"):
            certify_r0(chern_table(ChernData(2, -26), 32), 3)

    def test_polynomial_falling_from_r0_refused(self):
        # P(3) = 5 passes, but the table's polynomial 10 - t falls by 1 at
        # every step, so no tail holds from 3
        falling = ValueTable((9, 8, 5), 1, 6250, Poly((10, -1)), "oracle")
        with pytest.raises(MonotoneCertificationError, match="no tail certificate from m = 3"):
            certify_r0(falling, 3)

    def test_degenerate_oracle_fails(self):
        zero = dummy_table({m: 0 for m in range(1, 70)})
        with pytest.raises(CertificationError):
            certify_r0(zero, 3)


class TestSolveWorstCase:
    def test_main_bound(self):
        cert = solve_worst_case()
        assert cert.bound == 16
        assert cert.r0 == 3 and cert.r == [3, 4, 6]
        assert cert.mode == "worst_case" and cert.chern is None

    def test_verifies_and_round_trips(self):
        cert = solve_worst_case()
        assert verify(cert).ok
        again = from_json_bytes(cert.to_json_bytes())
        assert verify(again).ok
        assert again.to_json_bytes() == cert.to_json_bytes()

    def test_deterministic(self):
        assert solve_worst_case().to_json_bytes() == solve_worst_case().to_json_bytes()

    def test_tail_starts_at_the_merged_bound(self, monkeypatch):
        # P(3) >= 7 from merge_min is the nonemptiness at r0 = 3; nothing
        # minimises P(3) again over the geometry system
        import fanobound.bounds as bounds
        import fanobound.derive as derive

        calls = count_calls(monkeypatch, bounds.certify_r0)
        calls += count_calls(monkeypatch, derive.derive_lower_bound)
        cert = solve_worst_case()
        assert calls == []
        (merge,) = [s for s in cert.steps if s["rule"] == "merge_min"]
        (tail,) = [s for s in cert.steps if s["rule"] == "monotone_tail"]
        searches = [s for s in cert.steps if s["rule"] == "dim_search"]
        # the merge writes nothing: its bound is the least branch ceiling
        branches = [s for s in cert.steps if s["rule"] == "fm_lower_bound"]
        assert min(math.ceil(Fraction(s["witness"]["raw_min"])) for s in branches) == 7
        assert merge["witness"] == {} and tail["inputs"]["m_start"] == 3
        assert all(
            s["inputs"]["constraints"] == tail["inputs"]["constraints"] for s in searches
        )


@pytest.mark.parametrize("solve", [
    solve_worst_case,
    lambda: solve_concrete(ChernData(6250, 2750)),
    lambda: solve_oracle(bundle.oracle_source(bundle.SplitBundle((0, 0, 0, 0, 1)))),
], ids=["worst_case", "concrete", "oracle"])
def test_each_flavor_rests_on_the_axioms_the_verifier_reads(solve):
    from fanobound.certs import FLAVOR_AXIOMS

    cert = solve()
    assert cert.axioms == FLAVOR_AXIOMS[cert.mode]
    assert verify(cert).ok


class TestSolveConcrete:
    def test_example_chern_data(self):
        cert = solve_concrete(ChernData(6250, 2750))
        assert cert.bound == 12
        assert cert.r0 == 3 and cert.r == [1, 3, 5]
        assert verify(cert).ok

    @settings(
        max_examples=60, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(admissible_chern())
    def test_picks_the_pointwise_r0(self, chern):
        # the ray tail alone certifies monotonicity, so it must start no
        # later than the least r >= 3 with P(r) >= 1 and no later decrease
        cert = solve_concrete(chern)
        assert cert.r0 == pointwise_r0(chern)
        assert verify(cert).ok

    def test_low_k5_without_monotone_hypothesis(self):
        # (2, -26) has P(1) = 2, P(2) = 1, P(3) = 0: vanishing holds but the
        # published per-case hypothesis P(2) >= P(1) fails, so r0 moves to 4
        cert = solve_concrete(ChernData(2, -26))
        assert cert.r0 == 4 and cert.r == [1, 5, 6]
        assert cert.bound == 16
        assert verify(cert).ok

    def test_worst_case_dominance_on_grid(self):
        # every axiom-satisfying concrete 5-fold is at least as good as the
        # universal bound
        import random

        rng = random.Random(20240401)
        tested = 0
        while tested < 25:
            c = sample_chern(rng, k5_span=60, kb_span=4000)
            try:
                values = [p_affine(m).evaluate(c.a, c.b) for m in range(0, 67)]
            except Exception:
                continue
            if any(v < 0 for v in values):
                continue
            if values[2] < values[1]:  # the A5 hypothesis
                continue
            tested += 1
            cert = solve_concrete(c)
            assert cert.bound <= 16, (c, cert.bound)
            assert verify(cert).ok


class TestSolveOracle:
    def test_standard_oracle_matches_chern_route(self):
        import fanobound.bundle as bundle

        src = bundle.oracle_source(bundle.SplitBundle((0, 0, 0, 0, 1)), "standard")
        cert = solve_oracle(src)
        assert cert.bound == 12 and cert.r == [1, 3, 5]
        assert verify(cert).ok

    def test_non_polynomial_oracle_rejected(self):
        # the model is checked on the table, which ends at the search
        # horizon m = 32; beyond it the model is the assumption O2
        values = {m: m**5 + (1 if m == 32 else 0) for m in range(1, 70)}
        with pytest.raises(CertificationError, match="not polynomial at m = 32"):
            solve_oracle(dummy_oracle(values))

    def test_model_bent_between_the_nodes_refused_at_m_6(self):
        # eps * (t-1)...(t-5) vanishes on m = 1..5 and is 120 * eps at 6
        src = bundle.oracle_source(bundle.SplitBundle((0, 0, 0, 0, 1)), "standard")
        doc = json.loads(solve_oracle(src).to_json_bytes())
        (step,) = [s for s in doc["steps"] if s["rule"] == "oracle_model"]
        model = [Fraction(c) for c in step["witness"]["coeffs"]]
        bend = (Fraction(1),)
        for r in range(1, 6):
            bend = ref.poly_mul(bend, (Fraction(-r), Fraction(1)))
        bent = ref.poly_add(model, [Fraction(1, 10**40) * c for c in bend])
        assert [poly_eval(bent, m) for m in range(1, 6)] == [src.h0(m) for m in range(1, 6)]
        assert poly_eval(bent, 6) - src.h0(6) == Fraction(120, 10**40)
        step["witness"]["coeffs"] = [rat_str(c) for c in bent]
        res = verify(from_json_bytes(json.dumps(doc).encode()))
        assert (res.ok, res.step_id, res.reason) == (
            False, step["id"], "model disagrees with values at m = 6"
        )

    def test_table_too_short_for_the_model_rejected(self):
        values = {m: m**5 for m in range(1, 70)}
        with pytest.raises(CertificationError, match="needs 6 values"):
            oracle_table(dummy_oracle(values), 5)

    def test_non_nef_bundle_refused(self):
        values = {m: m**5 for m in range(1, 70)}
        source = dataclasses.replace(dummy_oracle(values), bundle=(-1, 0, 0, 0, 0))
        with pytest.raises(CertificationError, match="not nef"):
            solve_oracle(source)


class TestVerifierRejectsTampering:
    def setup_method(self):
        self.cert = solve_worst_case()

    def _mutate(self, fn):
        doc = json.loads(self.cert.to_json_bytes())
        fn(doc)
        return from_json_bytes(json.dumps(doc).encode())

    def test_bound_edit_caught_at_compose(self):
        bad = self._mutate(lambda d: d.update(bound=15))
        res = verify(bad)
        assert not res.ok
        assert res.step_id == self.cert.steps[-1]["id"]
        assert "composition" in res.reason or "sum" in res.reason

    def test_negated_margin_caught_at_lemma_step(self):
        # the slack minimum is the margin of the Lemma 2 test
        def flip(doc):
            for step in doc["steps"]:
                if step["rule"] == "dim_search" and step["inputs"]["target_dim"] == 2:
                    sel = step["witness"]["selected"]
                    sel["raw_min"] = "-" + sel["raw_min"]
                    return
        bad = self._mutate(flip)
        res = verify(bad)
        assert not res.ok and "farkas" in res.reason.lower()

    def test_boundary_attempts_sit_at_the_limit(self):
        # a refuting point reaches at most the test's limit: 1 for the
        # pencil, 0 for the Lemma 2 slack.  Every form the worst case fails
        # on is either a slack whose minimum is exactly 0 or unbounded below
        # with no ceiling, whose point sits at min(0, sup) = 0
        doc = json.loads(self.cert.to_json_bytes())
        points = {}
        for step in doc["steps"]:
            if step["rule"] != "dim_search":
                continue
            for a in step["witness"]["attempts"]:
                assert a["value"] == "0"
                points[a["m"], a["r"]] = a["point"]
        assert len(points) == 20
        # off the floor a = 1/720 of A1
        assert {k: p for k, p in points.items() if p[0] != "1/720"} == {
            (1, None): ["1/60", "-7/12"],
            (2, None): ["1/108", "-35/108"],
            (1, 1): ["1/450", "-7/90"],
            (2, 1): ["1/495", "-7/99"],
            (3, 1): ["1/360", "-7/72"],
            (5, 2): ["1/20", "-7/4"],
        }

    def test_consistent_point_above_the_limit_rejected(self):
        # raising b keeps the point feasible (both cited constraints grow
        # with b) and lifts P(1) from 0 to 6, above the pencil limit; the
        # value is rewritten to match, so only the limit can refuse the
        # attempt
        def lift(doc):
            search = next(s for s in doc["steps"] if s["rule"] == "dim_search")
            attempt = search["witness"]["attempts"][0]
            assert (attempt["m"], attempt["r"], attempt["value"]) == (1, None, "0")
            a, b = Fraction(attempt["point"][0]), Fraction(attempt["point"][1]) + 1
            attempt["point"][1] = str(b)
            attempt["value"] = str(p_affine(1).evaluate(a, b))
            assert attempt["value"] == "6"
        res = verify(self._mutate(lift))
        assert not res.ok
        assert res.reason == "attempt at m=1, r=None does not fail the test"

    def test_tampered_branch_bound_caught(self):
        # the branch bound is raw_min rounded up, so a weaker bound is a
        # lower raw_min, which its Farkas combination does not reproduce
        def weaken(doc):
            step = doc["steps"][2]
            assert step["rule"] == "fm_lower_bound"
            step["witness"]["raw_min"] = "1"
        res = verify(self._mutate(weaken))
        assert not res.ok and res.step_id == 3
        assert res.reason == "farkas combination does not reproduce the bound"

    def test_tampered_constraint_form_caught(self):
        # the verifier builds each form from kind and params; a written
        # form is a key it does not read
        def bend(doc):
            doc["constraints"][0]["form"] = ["1", "0", "-1/7"]
        bad = self._mutate(bend)
        res = verify(bad)
        assert not res.ok and res.step_id is None
        assert "a constraint declaration must be an object with exactly the keys" in res.reason

    def test_smuggled_hypothesis_caught(self):
        def smuggle(doc):
            for step in doc["steps"]:
                if step["rule"] == "dim_search":
                    # declared for the branch steps, cited outside them
                    step["inputs"]["constraints"].append("H.P1=0.lo")
                    return
        bad = self._mutate(smuggle)
        res = verify(bad)
        assert not res.ok and "hypothesis" in res.reason

    def test_unknown_rule_rejected(self):
        def rename(doc):
            doc["steps"][0]["rule"] = "trust_me"
        res = verify(self._mutate(rename))
        assert not res.ok and "unknown rule" in res.reason

    def test_missing_witness_rejected(self):
        def strip(doc):
            del doc["steps"][2]["witness"]
        res = verify(self._mutate(strip))
        assert not res.ok and "witness" in res.reason

    def test_truncated_json_is_malformed(self):
        from fanobound.certs import MalformedCertificateError

        with pytest.raises(MalformedCertificateError):
            from_json_bytes(self.cert.to_json_bytes()[:40])

    def test_missing_field_is_malformed(self):
        from fanobound.certs import MalformedCertificateError

        doc = json.loads(self.cert.to_json_bytes())
        del doc["axioms"]
        with pytest.raises(MalformedCertificateError):
            from_json_bytes(json.dumps(doc).encode())

    def test_cross_flavor_step_rejected(self):
        concrete = solve_concrete(ChernData(6250, 2750))
        alien = json.loads(concrete.to_json_bytes())["steps"][1]

        def smuggle(doc):
            alien["id"] = doc["steps"][-1]["id"] + 1
            doc["steps"].append(alien)

        res = verify(self._mutate(smuggle))
        assert not res.ok and "does not belong" in res.reason

    @pytest.mark.parametrize("bad", [66.5, 66.0, True, "66"])
    def test_non_integer_oracle_table_length_rejected(self, bad):
        # a table's length is the length of its values; a leftover m_max
        # key is refused whatever its value
        import fanobound.bundle as bundle

        src = bundle.oracle_source(bundle.SplitBundle((0, 0, 0, 0, 1)), "standard")
        doc = json.loads(solve_oracle(src).to_json_bytes())
        (values,) = [s for s in doc["steps"] if s["rule"] == "oracle_values"]
        assert len(values["witness"]["values"]) == 32
        values["inputs"]["m_max"] = bad
        res = verify(from_json_bytes(json.dumps(doc).encode()))
        assert not res.ok and res.step_id == values["id"]
        assert "inputs must be an object with exactly the keys" in res.reason

    @pytest.mark.parametrize("bad", [66.5, True, "66"])
    def test_non_integer_chern_table_length_rejected(self, bad):
        doc = json.loads(solve_concrete(ChernData(6250, 2750)).to_json_bytes())
        (values,) = [s for s in doc["steps"] if s["rule"] == "eval_p"]
        assert values["inputs"] == {}
        values["inputs"] = {"m_max": bad}
        res = verify(from_json_bytes(json.dumps(doc).encode()))
        assert not res.ok and res.step_id == values["id"]
        assert res.reason == "inputs must be an object with exactly the keys []"

    def test_old_version_refused(self):
        res = verify(self._mutate(lambda d: d.update(version=1)))
        assert not res.ok and res.reason == "unsupported version 1"

    def test_string_flag_rejected(self):
        # every declared constraint is closed, so a strict flag, even "no",
        # is a key the verifier does not read
        def flag(doc):
            assert "strict" not in doc["constraints"][0]
            doc["constraints"][0]["strict"] = "no"
        res = verify(self._mutate(flag))
        assert not res.ok and res.step_id is None
        assert "a constraint declaration must be an object with exactly the keys" in res.reason

    def test_decimal_exponent_rejected_quickly(self):
        def inflate(doc):
            step = next(s for s in doc["steps"] if s["rule"] == "fm_lower_bound")
            step["witness"]["raw_min"] = "1e30000000"
        bad = self._mutate(inflate)
        start = time.perf_counter()
        res = verify(bad)
        assert time.perf_counter() - start < 2
        assert not res.ok and "not a rational" in res.reason

    def test_tail_not_starting_at_r0_rejected(self):
        doc = json.loads(solve_concrete(ChernData(6250, 2750)).to_json_bytes())
        (tail,) = [s for s in doc["steps"] if s["rule"] == "monotone_tail"]
        assert tail["inputs"]["m_start"] == doc["r0"] == 3
        # the tail itself holds from 4 on
        certify_r0(chern_table(ChernData(6250, 2750), 32), 4)
        tail["inputs"]["m_start"] = 4
        res = verify(from_json_bytes(json.dumps(doc).encode()))
        assert not res.ok and "does not start at r0" in res.reason

    def test_oracle_table_too_short_for_the_model_rejected(self):
        import fanobound.bundle as bundle

        src = bundle.oracle_source(bundle.SplitBundle((0, 0, 0, 0, 1)), "standard")
        doc = json.loads(solve_oracle(src).to_json_bytes())
        (values,) = [s for s in doc["steps"] if s["rule"] == "oracle_values"]
        values["witness"]["values"] = values["witness"]["values"][:5]
        res = verify(from_json_bytes(json.dumps(doc).encode()))
        assert not res.ok and "too short to pin the polynomial" in res.reason

    def test_non_integer_table_value_rejected(self):
        doc = json.loads(solve_concrete(ChernData(6250, 2750)).to_json_bytes())
        for step in doc["steps"]:
            if step["rule"] == "eval_p":
                step["witness"]["values"][1] = float(step["witness"]["values"][1])
        res = verify(from_json_bytes(json.dumps(doc).encode()))
        assert not res.ok and "must be an integer" in res.reason

    @pytest.mark.parametrize(
        "chern, reason",
        [
            # P(1) = 6251/24 - 2750/24 + 3 is not an integer
            ((6251, 2750), "recorded P(1) differs from evaluation"),
            # P(1) = 24/24 - 240/24 + 3 = -6, recorded as it evaluates
            ((24, -240), "P(1) = -6 < 0 violates vanishing for m >= 0"),
        ],
    )
    def test_table_of_inconsistent_chern_data_rejected(self, chern, reason):
        doc = json.loads(solve_concrete(ChernData(6250, 2750)).to_json_bytes())
        doc["chern"] = {"k5": chern[0], "k3c2": chern[1]}
        (values,) = [s for s in doc["steps"] if s["rule"] == "eval_p"]
        a, b = Fraction(chern[0], 720), Fraction(chern[1], 144)
        values["witness"]["values"] = [
            math.floor(p_affine(m).evaluate(a, b)) for m in range(len(values["witness"]["values"]))
        ]
        res = verify(from_json_bytes(json.dumps(doc).encode()))
        assert not res.ok and res.step_id == values["id"] and res.reason == reason

    def test_tampered_oracle_values_caught(self):
        import fanobound.bundle as bundle

        src = bundle.oracle_source(bundle.SplitBundle((0, 0, 0, 0, 1)), "paper")
        cert = solve_oracle(src, dim1_start=3)
        doc = json.loads(cert.to_json_bytes())
        for step in doc["steps"]:
            if step["rule"] == "oracle_values":
                step["witness"]["values"][0] += 1
                break
        res = verify(from_json_bytes(json.dumps(doc).encode()))
        assert not res.ok and "recomputation" in res.reason

    def test_strengthening_flag_on_an_integral_selection_rejected(self):
        # an integral minimum is its own bound, so a stronger bound is a
        # higher raw_min, which its Farkas combination does not reproduce
        def flag(doc):
            step = next(s for s in doc["steps"] if s["rule"] == "dim_search")
            sel = step["witness"]["selected"]
            assert sel["raw_min"] == "7"
            sel["raw_min"] = "8"

        res = verify(self._mutate(flag))
        assert not res.ok and res.reason == "farkas combination does not reproduce the bound"

    @pytest.mark.parametrize("twists", [[-1, 0, 0, 0, 0], [0, 1, 10, 100, 3000]])
    def test_non_nef_bundle_rejected_before_counting(self, twists):
        # counting sections for the second bundle would take minutes and
        # gigabytes; the nef test refuses it first
        import fanobound.bundle as bundle

        src = bundle.oracle_source(bundle.SplitBundle((0, 0, 0, 0, 1)), "standard")
        doc = json.loads(solve_oracle(src).to_json_bytes())
        (values,) = [s for s in doc["steps"] if s["rule"] == "oracle_values"]
        values["inputs"]["bundle"] = twists
        start = time.perf_counter()
        res = verify(from_json_bytes(json.dumps(doc).encode()))
        assert time.perf_counter() - start < 2
        assert not res.ok and "not nef" in res.reason

    def test_non_object_branch_rejected_without_raising(self):
        # version-3 branch objects in place of the step ids
        def scramble(doc):
            for step in doc["steps"]:
                if step["rule"] == "merge_min":
                    branches = step["inputs"]["branches"]
                    step["inputs"]["branches"] = [
                        {"label": f"P(1)={l}", "step": sid, "bound": "7"}
                        for l, sid in enumerate(branches)
                    ]

        res = verify(self._mutate(scramble))
        assert not res.ok and res.reason == "branch 0 cites no earlier bound step"

    @pytest.mark.parametrize(
        "rule, field, value, reason",
        [
            ("compose", "r0", 3.5, "r0 must be an integer"),
            ("compose", "r", [1.9, 3, 5], "r must be an integer"),
            ("value_at_least", "m", 3.7, "m must be an integer"),
            ("dim_search", "r", 10**6, "exponent must lie in [2, 4]"),
            ("dim_search", "r", 1, "exponent must lie in [2, 4]"),
            ("dim_search", "r", 2.0, "r must be an integer"),
        ],
    )
    def test_non_integer_or_out_of_range_number_rejected(self, rule, field, value, reason):
        doc = json.loads(solve_concrete(ChernData(6250, 2750)).to_json_bytes())
        if rule == "compose":
            # compose reads r0 and r from the header, which the parser checks
            doc[field] = value
            with pytest.raises(MalformedCertificateError, match=f"^{field} must be"):
                from_json_bytes(json.dumps(doc).encode())
            return
        for step in doc["steps"]:
            if step["rule"] != rule:
                continue
            if rule == "dim_search":
                if step["inputs"]["target_dim"] == 3:
                    step["witness"]["selected"][field] = value
            else:
                step["inputs"][field] = value
        res = verify(from_json_bytes(json.dumps(doc).encode()))
        assert not res.ok and reason in res.reason


def count_calls(monkeypatch, fn):
    """Record every call to fn made through any fanobound module binding it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "fanobound" or name.startswith("fanobound."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


class TestCallCounts:
    def test_worst_case_minimizes_each_objective_once(self, monkeypatch):
        import fanobound.derive as derive

        calls = count_calls(monkeypatch, derive.fm_minimize)
        assert solve_worst_case().bound == 16
        assert len(calls) <= 28

    def test_no_minimization_is_reused_across_solves(self, monkeypatch):
        # the dimension searches share their attempts within one solve only
        import fanobound.derive as derive

        calls = count_calls(monkeypatch, derive.fm_minimize)
        for _ in range(2):
            calls.clear()
            assert solve_worst_case().bound == 16
            assert len(calls) == 28

    def test_concrete_evaluates_each_table_entry_once(self, monkeypatch):
        import fanobound.hilbert as hilbert

        calls = count_calls(monkeypatch, hilbert.p_eval)
        assert solve_concrete(ChernData(6250, 2750)).bound == 12
        assert len(calls) <= 33


def coprime_4000_digit_rationals():
    """Six rationals with 4,000-digit numerators and pairwise coprime
    4,000-digit denominators (powers of distinct primes)."""
    out = []
    for i, p in enumerate((2, 3, 5, 7, 11, 13)):
        den = p ** math.ceil(3999 / math.log10(p))
        assert len(str(den)) in (4000, 4001)
        out.append(f"{(-1) ** i * (10**3999 + 2 * i + 1)}/{den}")
    return out


def first_primes(n, limit=90_000):
    """The first n primes, by the sieve of Eratosthenes below limit."""
    composite = bytearray(limit)
    primes = []
    for k in range(2, limit):
        if not composite[k]:
            primes.append(k)
            composite[k * k::k] = b"\x01" * len(range(k * k, limit, k))
    assert len(primes) >= n
    return primes[:n]


class TestVerifierOnHugePolynomialData:
    def oracle_doc(self):
        import fanobound.bundle as bundle

        src = bundle.oracle_source(bundle.SplitBundle((0, 0, 0, 0, 1)), "standard")
        return json.loads(solve_oracle(src).to_json_bytes())

    def check_invalid_in_bounded_time(self, doc, reason):
        cert = from_json_bytes(json.dumps(doc).encode())
        start = time.perf_counter()
        res = verify(cert)
        assert time.perf_counter() - start < 2
        assert not res.ok and reason in res.reason

    def test_huge_model_tail_and_start(self):
        doc = self.oracle_doc()
        huge = coprime_4000_digit_rationals()
        for step in doc["steps"]:
            if step["rule"] == "oracle_model":
                step["witness"]["coeffs"] = huge
            if step["rule"] == "monotone_tail":
                step["inputs"]["m_start"] = 10**4000
        self.check_invalid_in_bounded_time(doc, "model disagrees with values")

    def test_long_model_refused_before_its_common_denominator(self):
        # the lcm of 8,000 distinct primes has about 35,000 digits; the
        # degree is known, and refused, without it
        doc = self.oracle_doc()
        (model,) = [s for s in doc["steps"] if s["rule"] == "oracle_model"]
        model["witness"]["coeffs"] = [f"1/{p}" for p in first_primes(8000)]
        self.check_invalid_in_bounded_time(doc, "model degree exceeds 5")

    def test_huge_tail_start_on_the_true_polynomial(self):
        # the model and q are the prover's, so the tail shift itself runs
        # on a 4,001-digit m_start
        doc = self.oracle_doc()
        (tail,) = [s for s in doc["steps"] if s["rule"] == "monotone_tail"]
        tail["inputs"]["m_start"] = 10**4000
        self.check_invalid_in_bounded_time(doc, "monotone tail does not start at r0")

    def test_huge_tail_polynomial_alone(self):
        # the verifier builds the tail polynomial from the model, so a
        # written one is refused before any arithmetic on it
        doc = self.oracle_doc()
        huge = coprime_4000_digit_rationals()
        (tail,) = [s for s in doc["steps"] if s["rule"] == "monotone_tail"]
        tail["inputs"]["m_start"] = 10**4000
        tail["witness"]["q_poly"] = huge
        self.check_invalid_in_bounded_time(doc, "witness must be an object with exactly the keys []")
