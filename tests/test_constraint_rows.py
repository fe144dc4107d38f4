"""Every constraint kind is defined once, as an integer row in hilbert.

hilbert.constraint_row is compared with the Fraction ladder it replaced
(fm_reference.constraint_form_reference): equal forms on every kind, the
same refusals on bad parameters, and one refusal more, vanishing at a
negative multiple, which the verifier now reports at the header.  The cids
Constraint.make writes are the names the prover used to spell by hand."""

import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fanobound.certs import _Fail, _declarations, from_json_dict, verify
from fanobound.derive import (
    Constraint,
    Fact,
    axiom_system,
    constraint_form,
    fact_to_constraint,
    geometry_system,
    split_on_p1,
)
from fanobound.exact import over_common_denominator
from fanobound.hilbert import CONSTRAINT_CIDS, constraint_row, p_affine

from fm_reference import constraint_form_reference, form
from test_cert_v3 import DOCS
from test_cli import run_cli

SETTINGS = settings(max_examples=300, derandomize=True, deadline=None, database=None)



@st.composite
def descriptors(draw):
    """A descriptor every kind accepts: the prover's and the verifier's."""
    kind = draw(st.sampled_from(sorted(CONSTRAINT_CIDS)))
    if kind in ("k5_floor", "mono12"):
        return kind, ()
    if kind == "vanishing":
        return kind, (draw(st.integers(0, 64)),)
    if kind == "from_fact":
        return kind, (draw(st.integers(-8, 8)), draw(st.integers(-(10**12), 10**12)))
    return kind, (draw(st.integers(-20, 20)),)


JUNK = [0, 1, -3, 7, "x", "", None, "0", "1/0", "7/2", "-1/3", 2.5, True, []]
BAD = st.tuples(
    st.sampled_from(sorted(CONSTRAINT_CIDS) + ["nope", "A1", ""]),
    st.lists(st.sampled_from(JUNK), max_size=4).map(tuple),
)


def outcome(build, kind, params):
    """What build returns, or the type and message of what it raises."""
    try:
        return True, build(kind, params)
    except Exception as exc:
        return False, (type(exc), str(exc))


def as_form(row):
    *coeffs, den = row
    return form([Fraction(c, den) for c in coeffs])


@SETTINGS
@given(descriptors())
@example(("from_fact", (3, 7)))
@example(("from_fact", (0, 1)))  # P(0) - 1 is the zero form
def test_row_over_its_denominator_is_the_fraction_form(descriptor):
    kind, params = descriptor
    row = constraint_row(kind, params)
    assert row[3] > 0 and math.gcd(*row) == 1
    assert as_form(row) == constraint_form_reference(kind, params)
    c = Constraint.make(kind, params)
    assert (c.row, c.form) == (row, as_form(row))
    assert constraint_form(row) == as_form(row)


@SETTINGS
@given(st.one_of(descriptors(), BAD))
@example(("from_fact", (3, 7, 84)))
@example(("from_fact", (3, "7/2")))
@example(("vanishing", ()))
@example(("vanishing", ("-1",)))
@example(("mono12", (1,)))
def test_refusals_match_the_fraction_ladder(descriptor):
    kind, params = descriptor
    ok, got = outcome(constraint_row, kind, params)
    ref_ok, want = outcome(constraint_form_reference, kind, params)
    if kind == "vanishing" and ref_ok and int(params[0]) < 0:
        # the one refusal the ladder lacked: A4 speaks of m >= 0 only
        assert not ok and got == (ValueError, f"vanishing holds for m >= 0 only, not m = {params[0]}")
    elif ref_ok:
        assert ok and as_form(got) == want
    else:
        assert not ok and got == want


# the names the prover spelled by hand before make took them from hilbert
OLD_CIDS = {
    "k5_floor": lambda: "A1",
    "vanishing": lambda m: f"A4.{m}",
    "mono12": lambda: "A5",
    "p1_eq_lo": lambda l: f"H.P1={l}.lo",
    "p1_eq_hi": lambda l: f"H.P1={l}.hi",
    "p1_tail": lambda l: f"H.P1>={l}",
    "from_fact": lambda m, bound: f"F.P{m}>={bound}",
}


@SETTINGS
@given(descriptors())
def test_make_names_constraints_as_before(descriptor):
    kind, params = descriptor
    c = Constraint.make(kind, params)
    assert c.cid == OLD_CIDS[kind](*params)
    assert (c.kind, c.params, c.form) == (kind, params, constraint_form_reference(kind, params))


def test_systems_keep_their_cids():
    assert [c.cid for c in axiom_system().constraints] == (
        ["A1"] + [f"A4.{m}" for m in range(9)] + ["A5"]
    )
    branches = split_on_p1(axiom_system(), 1)
    assert [c.cid for c in branches[1].constraints[-2:]] == ["H.P1=1.lo", "H.P1=1.hi"]
    assert branches[-1].constraints[-1].cid == "H.P1>=2"
    assert [c.cid for c in geometry_system([Fact(3, 7)]).constraints] == ["A1", "F.P3>=7"]


@SETTINGS
@given(st.integers(-8, 8), st.integers(-(10**12), 10**12))
@example(0, 1)  # P(0) - 1 is the zero form
def test_fact_scale_is_the_gcd_over_the_denominator(m, bound):
    # the scale a fact's form is divided by is derived, not declared: the
    # gcd of the integer coefficients of P(m) - bound, whose denominator is 1
    base = form(p_affine(m), (0, 0, -bound))
    ints, den = over_common_denominator(base)
    g = math.gcd(*ints)
    c = fact_to_constraint(Fact(m, bound))
    assert den == 1 and c.params == (m, bound) and c.row[3] == 1
    assert c.form == (form((Fraction(den, g), base)) if g else base)


class TestNegativeVanishing:
    """A4 is P(m) >= 0 for m >= 0; at m = -2 it would claim P(1) <= 0."""

    def test_prover_refuses(self):
        with pytest.raises(ValueError, match="^vanishing holds for m >= 0 only, not m = -2$"):
            Constraint.make("vanishing", (-2,))

    @staticmethod
    def forged():
        """The worst case with A4.-2 declared and cited by the tail step,
        which reads only its two bounds: valid but for the declaration."""
        doc = json.loads(json.dumps(DOCS["worst_case"]))
        decl = {"cid": "A4.-2", "kind": "vanishing", "params": [-2]}
        doc["constraints"] = sorted(doc["constraints"] + [decl], key=lambda c: c["cid"])
        tail = next(s for s in doc["steps"] if s["rule"] == "monotone_tail")
        tail["inputs"]["constraints"].append("A4.-2")
        return doc

    def test_verifier_refuses_at_the_header(self):
        res = verify(from_json_dict(self.forged()))
        assert (res.ok, res.step_id) == (False, None)
        assert res.reason == "constraint A4.-2: vanishing holds for m >= 0 only, not m = -2"

    def test_cli_names_the_declaration(self, capsys, tmp_path):
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(self.forged()))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 1 and out == ""
        assert err.startswith("invalid at header: constraint A4.-2: ")


# descriptors whose params are not exactly ints: hilbert.constraint_row
# reads each through int(), but a certificate declares JSON integers only
NOT_INTS = [
    ("vanishing", ("3",), "A4.3", "first parameter of A4.3 must be an integer, got '3'"),
    ("from_fact", (3, 7.0), "F.P3>=7.0", "fact bound of F.P3>=7.0 must be an integer, got 7.0"),
    ("vanishing", (True,), "A4.True", "first parameter of A4.True must be an integer, got True"),
]


@pytest.mark.parametrize("kind, params, cid, reason", NOT_INTS, ids=["str", "float", "bool"])
def test_make_refuses_what_the_verifier_refuses(kind, params, cid, reason):
    bad = next(p for p in params if type(p) is not int)
    with pytest.raises(ValueError, match=re.escape(f"a {kind} param must be an int, got {bad!r}")):
        Constraint.make(kind, params)
    with pytest.raises(_Fail) as refused:
        _declarations([{"cid": cid, "kind": kind, "params": list(params)}], ["A4"])
    assert str(refused.value) == reason
