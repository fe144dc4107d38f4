"""Dimension rules, searches, certification, and certificate verification."""

import dataclasses
import json
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fanobound.exact import Poly
from fanobound.hilbert import ChernData, p_affine, p_eval, p_poly
from fanobound.derive import (
    Fact,
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
    DimWitness,
    OracleSource,
    SearchExhaustedError,
    certify_r0,
    compose_bound,
    lemma2_check,
    lemma2_slack_form,
    lemma2_threshold,
    minimal_r,
    nonvanishing_rule,
    solve_concrete,
    solve_oracle,
    solve_worst_case,
)
from fanobound.certs import from_json_bytes, verify

from test_hilbert import sample_chern


def geom():
    branches = split_on_p1(axiom_system(), 3)
    merged = merge_branch_facts([derive_lower_bound(br.system, 3) for br in branches])
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
    d = (p_poly(c).shift(1) - p_poly(c)).coeffs
    horizon = 2 + int(max(abs(x) for x in d[:-1]) / d[-1])
    last_bad = max((m for m in range(horizon + 1) if p_eval(c, m + 1) <= p_eval(c, m)), default=-1)
    return next(r for r in range(max(3, last_bad + 1), horizon + 3) if p_eval(c, r) >= 1)


class TestRules:
    def test_nonvanishing(self):
        assert nonvanishing_rule(Fact(3, Fraction(7))).margin == 6
        assert nonvanishing_rule(Fact(3, Fraction(1))) is None
        w = nonvanishing_rule(Fact(1, Fraction(378)))
        assert w.target_dim == 1 and w.m == 1 and w.margin == 377

    def test_threshold_values(self):
        assert lemma2_threshold(5, 2, 6250) == 156252
        assert lemma2_threshold(1, 0, 1) == 1
        assert lemma2_threshold(4, 1, 6250) == 25001

    def test_threshold_worst_case_form(self):
        # threshold at (6, 2) in (a, b): 36 * 720a + 2
        slack = lemma2_slack_form(6, 2)
        p6 = p_affine(6)
        assert slack.coeff_a == p6.coeff_a - 36 * 720
        assert slack.coeff_b == p6.coeff_b
        assert slack.const == p6.const - 2

    def test_lemma2_check_published_values(self):
        w = lemma2_check(62909, 4, 1, 6250)
        assert w.target_dim == 2 and w.margin == 62909 - 25001
        w = lemma2_check(186030, 5, 2, 6250)
        assert w.target_dim == 3
        assert lemma2_check(1, 1, 1, 1) is None

    def test_lemma2_boundary_is_not_a_pass(self):
        t = lemma2_threshold(4, 1, 6250)
        assert lemma2_check(t, 4, 1, 6250) is None
        assert lemma2_check(t + 1, 4, 1, 6250) is not None

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

    def test_witness_margin_must_be_positive(self):
        with pytest.raises(ValueError):
            DimWitness(2, 4, "lemma2", Fraction(0), r_used=1)

    def test_compose(self):
        assert compose_bound(3, [3, 4, 6]) == 16
        assert compose_bound(3, [3, 4, 5]) == 15
        assert compose_bound(3, [0, 0, 0]) == 3


class TestMinimalR:
    def test_worst_case_targets(self):
        cs = geom()
        assert minimal_r(cs, 1).m == 3
        out2 = minimal_r(cs, 2)
        assert (out2.m, out2.witness.r_used) == (4, 1)
        out3 = minimal_r(cs, 3)
        assert (out3.m, out3.witness.r_used) == (6, 2)

    def test_worst_case_failure_attempts_recorded(self):
        out = minimal_r(geom(), 3)
        pairs = [(a["m"], a["r"]) for a in out.attempts]
        assert (5, 2) in pairs
        assert pairs == [(m, r) for m in range(1, 7) for r in range(2, 5)][: len(pairs)]

    def test_concrete_example(self):
        c = chern_table(ChernData(6250, 2750), 32)
        assert minimal_r(c, 1).m == 1
        out2 = minimal_r(c, 2)
        assert (out2.m, out2.witness.r_used) == (3, 1)
        out3 = minimal_r(c, 3)
        assert (out3.m, out3.witness.r_used) == (5, 2)

    def test_monotone_budget(self):
        cs = geom()
        for target in (1, 2, 3):
            small = minimal_r(cs, target, m_max=8).m
            large = minimal_r(cs, target, m_max=20).m
            assert large == small

    def test_exhaustion(self):
        with pytest.raises(SearchExhaustedError):
            minimal_r(dummy_table({m: 0 for m in range(1, 5)}), 1, m_max=4)

    def test_deterministic_tie_break_smallest_r(self):
        # values so large that several exponents pass at the same m
        src = dummy_table({1: 10**9, 2: 10**9})
        out = minimal_r(src, 2, m_max=2)
        assert out.m == 1 and out.witness.r_used == 1


class TestCertifyR0:
    def test_rejects_small_r0(self):
        with pytest.raises(ValueError):
            certify_r0(geom(), 2)

    def test_worst_case_passes(self):
        cert = certify_r0(geom(), 3)
        assert cert.nonempty_bound == 7
        assert cert.monotone.m_start == 3

    def test_concrete_passes(self):
        cert = certify_r0(chern_table(ChernData(6250, 2750), 3), 3)
        assert cert.nonempty_bound == 27132
        assert cert.monotone.m_start == 3

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
        # horizon m_max; beyond it the model is the assumption O2
        values = {m: m**5 + (1 if m == 40 else 0) for m in range(1, 70)}
        with pytest.raises(CertificationError):
            solve_oracle(dummy_oracle(values), m_max=40)

    def test_table_too_short_for_the_model_rejected(self):
        values = {m: m**5 for m in range(1, 70)}
        with pytest.raises(CertificationError, match="needs 6 values"):
            solve_oracle(dummy_oracle(values), m_max=5)

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
        def flip(doc):
            for step in doc["steps"]:
                if step["rule"] == "dim_search" and step["inputs"][0]["target_dim"] == 2:
                    sel = step["witness"]["selected"]
                    sel["margin"] = "-" + sel["margin"]
                    sel["raw_min"] = "-" + sel["raw_min"]
                    return
        bad = self._mutate(flip)
        res = verify(bad)
        assert not res.ok and "farkas" in res.reason.lower()

    def test_tampered_branch_bound_caught(self):
        def weaken(doc):
            step = doc["steps"][2]
            assert step["rule"] == "fm_lower_bound"
            step["witness"]["bound"] = "1"
            step["claim"] = "P(3) >= 1"
        bad = self._mutate(weaken)
        assert not verify(bad).ok

    def test_tampered_constraint_form_caught(self):
        def bend(doc):
            cons = doc["steps"][2]["inputs"][0]["constraints"]
            cons[0]["form"][2] = "-1/7"
        bad = self._mutate(bend)
        res = verify(bad)
        assert not res.ok and "descriptor" in res.reason

    def test_smuggled_hypothesis_caught(self):
        def smuggle(doc):
            for step in doc["steps"]:
                if step["rule"] == "dim_search":
                    step["inputs"][0]["constraints"].append(
                        {
                            "cid": "H.P1=0.lo",
                            "kind": "p1_eq_lo",
                            "params": [0],
                            "form": ["30", "6", "3"],
                            "strict": False,
                        }
                    )
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
        import fanobound.bundle as bundle

        src = bundle.oracle_source(bundle.SplitBundle((0, 0, 0, 0, 1)), "standard")
        doc = json.loads(solve_oracle(src).to_json_bytes())
        for step in doc["steps"]:
            if step["rule"] == "oracle_values":
                assert step["inputs"][0]["m_max"] == 32
                step["inputs"][0]["m_max"] = bad
        res = verify(from_json_bytes(json.dumps(doc).encode()))
        assert not res.ok and "m_max must be an integer" in res.reason

    @pytest.mark.parametrize("bad", [66.5, True, "66"])
    def test_non_integer_chern_table_length_rejected(self, bad):
        doc = json.loads(solve_concrete(ChernData(6250, 2750)).to_json_bytes())
        for step in doc["steps"]:
            if step["rule"] == "eval_p":
                step["inputs"][0]["m_max"] = bad
        res = verify(from_json_bytes(json.dumps(doc).encode()))
        assert not res.ok and "m_max must be an integer" in res.reason

    def test_old_version_refused(self):
        res = verify(self._mutate(lambda d: d.update(version=1)))
        assert not res.ok and res.reason == "unsupported version 1"

    def test_string_flag_rejected(self):
        # "no" is truthy, so bool() would read it as the true it replaces
        def flag(doc):
            (step,) = [
                s for s in doc["steps"]
                if s["rule"] == "fm_lower_bound" and s["witness"]["strengthened"] is True
            ][:1]
            step["witness"]["strengthened"] = "no"
        res = verify(self._mutate(flag))
        assert not res.ok and "strengthened must be a boolean" in res.reason

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
        assert tail["inputs"][0]["m_start"] == doc["r0"] == 3
        q = Poly(Fraction(c) for c in tail["witness"]["q_poly"])
        tail["inputs"][0]["m_start"] = 4
        tail["witness"]["q_shifted"] = [str(c) for c in q.shift(4).coeffs]
        res = verify(from_json_bytes(json.dumps(doc).encode()))
        assert not res.ok and "does not start at r0" in res.reason

    def test_oracle_table_too_short_for_the_model_rejected(self):
        import fanobound.bundle as bundle

        src = bundle.oracle_source(bundle.SplitBundle((0, 0, 0, 0, 1)), "standard")
        doc = json.loads(solve_oracle(src).to_json_bytes())
        (values,) = [s for s in doc["steps"] if s["rule"] == "oracle_values"]
        values["inputs"][0]["m_max"] = 5
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
        def flag(doc):
            step = next(s for s in doc["steps"] if s["rule"] == "dim_search")
            sel = step["witness"]["selected"]
            assert (sel["raw_min"], sel["bound"], sel["strengthened"]) == ("7", "7", False)
            sel["strengthened"] = True

        res = verify(self._mutate(flag))
        assert not res.ok and "strengthening flag" in res.reason

    @pytest.mark.parametrize("twists", [[-1, 0, 0, 0, 0], [0, 1, 10, 100, 3000]])
    def test_non_nef_bundle_rejected_before_counting(self, twists):
        # counting sections for the second bundle would take minutes and
        # gigabytes; the nef test refuses it first
        import fanobound.bundle as bundle

        src = bundle.oracle_source(bundle.SplitBundle((0, 0, 0, 0, 1)), "standard")
        doc = json.loads(solve_oracle(src).to_json_bytes())
        (values,) = [s for s in doc["steps"] if s["rule"] == "oracle_values"]
        values["inputs"][0]["bundle"] = twists
        start = time.perf_counter()
        res = verify(from_json_bytes(json.dumps(doc).encode()))
        assert time.perf_counter() - start < 2
        assert not res.ok and "not nef" in res.reason

    def test_non_object_branch_rejected_without_raising(self):
        def scramble(doc):
            for step in doc["steps"]:
                if step["rule"] == "merge_min":
                    step["inputs"][0]["branches"] = [1, 2, 3, 4, 5]

        res = verify(self._mutate(scramble))
        assert not res.ok and "malformed" in res.reason

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
        for step in doc["steps"]:
            if step["rule"] != rule:
                continue
            if rule == "dim_search":
                if step["inputs"][0]["target_dim"] == 3:
                    step["witness"]["selected"][field] = value
            else:
                step["inputs"][0][field] = value
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
        assert len(calls) <= 49

    def test_no_minimization_is_reused_across_solves(self, monkeypatch):
        # the dimension searches share their attempts within one solve only
        import fanobound.derive as derive

        calls = count_calls(monkeypatch, derive.fm_minimize)
        for _ in range(2):
            calls.clear()
            assert solve_worst_case().bound == 16
            assert len(calls) == 49

    def test_concrete_evaluates_each_table_entry_once(self, monkeypatch):
        import fanobound.hilbert as hilbert

        calls = count_calls(monkeypatch, hilbert.p_eval)
        assert solve_concrete(ChernData(6250, 2750)).bound == 12
        assert len(calls) <= 33
