"""The verifier's point, value and Farkas checks run on integer rows; here
they are compared with a Fraction reference written apart from the package.
On random declared forms, points with large and negative numerators and
combinations of one to three multipliers, both must accept and reject the
same inputs.  A whole worst-case verify builds no Fraction at all, a
concrete one at most one per value of its table, plus a and b, and a
worst-case solve at most 102."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fanobound.bounds import solve_worst_case
from fanobound.certs import (
    _Fail, _check_farkas, _check_point, _declarations, _evaluates_to, from_json_bytes, verify,
)
from fanobound.derive import axiom_system, geometry_system
from fanobound.exact import rat_str
from fanobound.hilbert import LEMMA2_R_CAP, lemma2_slack_form, p_affine

from test_cert_v3 import DOCS, check

TINY = Fraction(1, 10**40)
RATS = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**12))
POSITIVE = st.builds(Fraction, st.integers(1, 10**30), st.integers(1, 10**12))
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def declare(facts, a1=False):
    """The verifier's declarations of P(m) >= bound, one per (m, bound), and
    of A1 (a >= 1/720) if a1."""
    cons = [{"cid": f"F.P{m}>={q}", "kind": "from_fact", "params": [m, q]} for m, q in facts]
    if a1:
        cons.append({"cid": "A1", "kind": "k5_floor", "params": []})
    return _declarations(sorted(cons, key=lambda c: c["cid"]), ["A1"])


TABLES = st.builds(
    declare,
    st.lists(
        st.tuples(st.integers(-8, 8), st.integers(-(10**30), 10**30)),
        min_size=1, max_size=3, unique_by=lambda f: f,
    ),
    st.booleans(),
)
A1_ONLY = declare([], a1=True)


def form(decl):
    """The declared form (ca, cb, k) / den as three Fractions."""
    *coeffs, den = decl.row
    return [Fraction(c, den) for c in coeffs]


def value_at(decl, a, b):
    ca, cb, k = form(decl)
    return ca * a + cb * b + k


@st.composite
def tables_and_points(draw):
    """A table and a point, random or on a cited row's boundary moved by
    0 or +-1/10**40 in b."""
    table = draw(TABLES)
    a, b = draw(RATS), draw(RATS)
    ca, cb, k = form(table[draw(st.sampled_from(sorted(table)))])
    if cb and draw(st.booleans()):
        b = -(ca * a + k) / cb + draw(st.sampled_from([0, TINY, -TINY]))
    return table, a, b


@SETTINGS
@given(tables_and_points())
@example((A1_ONLY, Fraction(1, 720) - TINY, Fraction(0)))
@example((A1_ONLY, Fraction(1, 720), Fraction(-(10**30), 7)))
def test_point_check_matches_fractions(case):
    table, a, b = case
    want = all(value_at(d, a, b) >= 0 for d in table.values())
    try:
        x, y, d = _check_point([rat_str(a), rat_str(b)], table)
    except _Fail as f:
        assert not want and str(f).startswith("witness point violates constraint")
    else:
        assert want and d > 0 and (Fraction(x, d), Fraction(y, d)) == (a, b)


@SETTINGS
@given(
    st.tuples(st.integers(-(10**20), 10**20), st.integers(-(10**20), 10**20), st.integers()),
    RATS, RATS, st.sampled_from([0, TINY, -1]),
)
def test_value_check_matches_fractions(coeffs, a, b, off):
    ca, cb, k = coeffs
    exact = ca * a + cb * b + k
    point = _check_point([rat_str(a), rat_str(b)], {})
    assert _evaluates_to(coeffs, point, exact + off) == (off == 0)


@st.composite
def combinations(draw):
    """A table, a Farkas list over 1 to 3 of its rows, an integer objective
    and a value.  The multipliers are scaled so that the sum has integer a
    and b coefficients; the objective and the value then match it, or miss
    by an integer in a or by 1/10**40 in the value."""
    table = draw(TABLES)
    cids = sorted(draw(st.lists(st.sampled_from(sorted(table)), min_size=1, max_size=3, unique=True)))
    mults = [draw(POSITIVE) for _ in cids]
    sa, sb, sk = (sum(m * c for m, c in zip(mults, col)) for col in zip(*(form(table[c]) for c in cids)))
    scale = math.lcm(sa.denominator, sb.denominator)
    mults = [m * scale for m in mults]
    k = draw(st.integers(-(10**20), 10**20))
    miss_a, miss_value = draw(st.sampled_from([(0, 0), (0, 0), (1, 0), (0, TINY), (0, -TINY)]))
    objective = (int(sa * scale) + miss_a, int(sb * scale), k)
    value = k - sk * scale + miss_value
    return table, [[c, rat_str(m)] for c, m in zip(cids, mults)], objective, value


def reproduces(farkas, table, objective, value):
    """The combination summed over Fractions equals objective - value."""
    acc = [Fraction(0)] * 3
    for cid, mult in farkas:
        for i, c in enumerate(form(table[cid])):
            acc[i] += Fraction(mult) * c
    ca, cb, k = objective
    return acc == [ca, cb, k - value]


A1_STEP = [["A1", "720"]]  # 720 (a - 1/720) = 720 a - 1


@SETTINGS
@given(combinations())
@example((A1_ONLY, A1_STEP, (720, 0, 5), Fraction(6)))
@example((A1_ONLY, [["A1", rat_str(720 + TINY)]], (720, 0, 5), Fraction(6)))
@example((A1_ONLY, A1_STEP, (720, 0, 5), 6 + TINY))
def test_farkas_check_matches_fractions(case):
    table, farkas, objective, value = case
    want = reproduces(farkas, table, objective, value)
    try:
        _check_farkas(farkas, table, objective, value)
    except _Fail as f:
        assert not want and str(f) == "farkas combination does not reproduce the bound"
    else:
        assert want


def fractions_built(run):
    """What run() returns, and the arguments of every Fraction it builds,
    counted by a wrapper on Fraction.__new__."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fraction, "__new__", counting)
        result = run()
    return result, built


def test_worst_case_verify_builds_no_fraction():
    # the from_fact declaration holds integers only, so the README
    # worst-case certificate verifies on integers alone
    data = solve_worst_case().to_json_bytes()
    res, built = fractions_built(lambda: verify(from_json_bytes(data)))
    assert res.ok and built == []


def test_worst_case_solve_reuses_the_axiom_a1():
    # the geometry system takes A1 from the axiom system, not a fresh
    # Constraint.make, so a solve builds no Fraction for it
    (a1,) = geometry_system().constraints
    assert a1 is axiom_system().constraints[0]
    cert, built = fractions_built(solve_worst_case)
    assert cert.bound == 16 and len(built) <= 102


def test_concrete_verify_builds_one_fraction_per_table_value():
    # the eval_p check evaluates each p_affine(m), whose fields are ints,
    # at the Chern data's a and b: one Fraction per value, plus a and b
    d = DOCS["concrete"]
    (table,) = (s["witness"]["values"] for s in d["steps"] if s["rule"] == "eval_p")
    assert len(table) == 33
    res, built = fractions_built(lambda: check(d))
    assert res.ok and len(built) <= len(table) + 2


def test_p_forms_build_no_fraction():
    _, built = fractions_built(lambda: [
        [p_affine(m)] + [lemma2_slack_form(m, r) for r in range(1, LEMMA2_R_CAP + 1)]
        for m in range(41)
    ])
    assert built == []


@pytest.mark.parametrize("bound, scale", [("14/2", "84"), ("7", "168/2"), ("7/1", "84")])
def test_unreduced_fact_spellings_refused(bound, scale):
    # each spelling names the fact P(3) >= 7, which the merge established,
    # and the cid spells the bound as the descriptor does; but a fact's
    # params are the integers m and bound and nothing more
    cid = f"F.P3>={bound}"
    d = json.loads(json.dumps(DOCS["worst_case"]).replace('"F.P3>=7"', json.dumps(cid)))
    (fact,) = [c for c in d["constraints"] if c["kind"] == "from_fact"]
    fact["params"] = [3, bound, scale]
    res = check(d)
    assert (res.ok, res.step_id) == (False, None)
    assert res.reason.startswith(f"constraint {cid}: too many values to unpack")
    fact["params"] = [3, bound]
    res = check(d)
    assert (res.ok, res.step_id) == (False, None)
    assert res.reason == (
        f"constraint {cid}: invalid literal for int() with base 10: {bound!r}" if "/" in bound
        else f"fact bound of {cid} must be an integer, got {bound!r}"
    )
