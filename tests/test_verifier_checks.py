"""Verifier checks that a small edit of a valid certificate must reach.

Each case edits one README certificate, or the concrete certificate of
(-K)^5 = 12, (-K)^3.c2 = -60, the method's limit point, where every
earlier (m, r) of each search is a failed attempt.  It names the step and
the reason the verifier refuses the edit with.  Each reason is raised by
one check, so with that check gone its case fails.
"""

import json
from fractions import Fraction

import pytest

from fanobound.bounds import solve_concrete
from fanobound.hilbert import ChernData

from test_cert_v3 import check, doc, steps

LIMIT = json.loads(solve_concrete(ChernData(12, -60)).to_json_bytes())


def limit():
    return json.loads(json.dumps(LIMIT))


def step(d, rule, i=0):
    return steps(d, rule)[i]


def forged_pencil():
    # r1 = 2 with the attempt at m = 2 dropped and the header rewritten;
    # P(2) = 1 gives no pencil, and only the selection's own test says so
    d = limit()
    search = step(d, "dim_search")
    search["witness"]["attempts"] = search["witness"]["attempts"][:1]
    search["witness"]["selected"] = {"m": 2, "r": None}
    d["r"][0], d["bound"] = 2, 14
    return d, search["id"], "the selection at m=2, r=None does not pass the test"


def raised_merged_bound():
    # the merge writes no bound; a raised one enters the searches as a
    # fact the merge did not establish, refused where it is first cited
    d = json.loads(json.dumps(doc("worst_case")).replace('"F.P3>=7"', '"F.P3>=8"'))
    (fact,) = (c for c in d["constraints"] if c["kind"] == "from_fact")
    fact["params"] = [3, 8]
    return d, step(d, "dim_search")["id"], (
        "constraint F.P3>=8 cites a fact P(3) >= 8 not established by an earlier step"
    )


def r0_below_three():
    d = limit()
    d["r0"], d["bound"] = 2, 14
    return d, step(d, "compose")["id"], "r0 must be >= 3"


def r1_off_its_search():
    d = limit()
    d["r"][0], d["bound"] = 4, 16
    return d, step(d, "compose")["id"], "r1 does not match its witness step"


def tail_removed():
    d = doc("concrete")
    d["steps"].remove(step(d, "monotone_tail"))
    return d, step(d, "compose")["id"], "monotonicity step is missing"


def tail_from_zero():
    # P(1) = P(0) = 1, so the difference of P is 0 at m = 0
    d = limit()
    tail = step(d, "monotone_tail")
    tail["inputs"]["m_start"] = 0
    return d, tail["id"], "shifted tail is not certified positive"


def dim3_search_removed():
    d = doc("worst_case")
    d["steps"].remove(step(d, "dim_search", 2))
    return d, step(d, "compose")["id"], "no dimension-3 witness step"


def value_at_least_removed():
    d = doc("concrete")
    d["steps"].remove(step(d, "value_at_least"))
    return d, step(d, "compose")["id"], "P(3) >= 1 was never established"


def negative_lmax():
    d = doc("worst_case")
    split = step(d, "split_p1")
    split["inputs"]["lmax"] = -1
    return d, split["id"], "split needs lmax >= 0"


def farkas_cites_undeclared():
    d = doc("worst_case")
    branch = step(d, "fm_lower_bound")
    branch["witness"]["farkas"][0][0] = "A9"
    return d, branch["id"], "farkas cites unknown constraint A9"


def undeclared_axiom_constraint():
    # the concrete flavor declares A3 and A4 only, so an A1 constraint rests
    # on nothing, although no step cites it
    d = doc("concrete")
    d["constraints"].append({"cid": "A1", "kind": "k5_floor", "params": []})
    return d, None, "constraint A1 uses undeclared axiom A1"


def attempt_at_a_passing_point():
    # (a, b) = (1/720, 0) meets A1 and P(3) >= 7, and its value, recorded
    # truly, is P(1) = 73/24 > 1: the pencil test is not refuted there
    d = doc("worst_case")
    search = step(d, "dim_search")
    search["witness"]["attempts"][0].update(point=["1/720", "0"], value="73/24")
    return d, search["id"], "attempt at m=1, r=None does not fail the test"


def pencil_from_vanishing():
    # P(3) >= 0 from A4.3 alone is a true bound, but 0 is no pencil; every
    # attempt's point meets A4.3, since it meets P(3) >= 7
    d = doc("worst_case")
    search = step(d, "dim_search")
    search["inputs"]["constraints"] = ["A1", "A4.3"]
    search["witness"]["selected"].update(farkas=[["A4.3", "1"]], raw_min="0")
    return d, search["id"], "a pencil needs P(m) >= 2"


def slack_from_vanishing():
    # 1440 (a - 1/720) + 15/7 P(3) is the slack at (m, r) = (4, 1) minus
    # -5: a true minimum over A1 and A4.3, but not a positive one
    d = doc("worst_case")
    search = step(d, "dim_search", 1)
    search["inputs"]["constraints"] = ["A1", "A4.3"]
    search["witness"]["selected"].update(farkas=[["A1", "1440"], ["A4.3", "15/7"]], raw_min="-5")
    return d, search["id"], "worst-case slack minimum is not positive"


def sextic_model():
    # the model plus (t - 1)...(t - 6) agrees with the counts at m = 1..6,
    # so with the table cut to those six only the degree refuses it
    d = doc("standard")
    step(d, "oracle_values")["witness"]["values"][6:] = []
    model = step(d, "oracle_model")
    bend = [1]
    for i in range(1, 7):
        bend = [hi - i * lo for lo, hi in zip(bend + [0], [0] + bend)]
    coeffs = [Fraction(c) for c in model["witness"]["coeffs"]]
    coeffs += [0] * (len(bend) - len(coeffs))
    model["witness"]["coeffs"] = [str(c + e) for c, e in zip(coeffs, bend)]
    return d, model["id"], "model degree exceeds 5"


def unknown_mode():
    d = doc("worst_case")
    d["mode"] = "foo"
    return d, None, "unknown mode 'foo'"


def split_removed():
    # the branches still rest on their hypotheses, but nothing split P(1)
    d = doc("worst_case")
    d["steps"].remove(step(d, "split_p1"))
    return d, step(d, "merge_min")["id"], "merge without a prior split"


def target_dimension_four():
    d = doc("worst_case")
    search = step(d, "dim_search")
    search["inputs"]["target_dim"] = 4
    return d, search["id"], "target dimension must be 1, 2, or 3"


def search_starts_past_its_selection():
    d = doc("worst_case")
    search = step(d, "dim_search", 2)
    search["inputs"]["m_start"] = 99
    return d, search["id"], "selected multiple is outside the search range"


def tail_cites_an_unrecorded_constraint():
    # A4.3 is declared, but not among the constraints the tail records
    d = doc("worst_case")
    tail = step(d, "monotone_tail")
    tail["inputs"]["b_constraint"] = "A4.3"
    return d, tail["id"], "tail cites constraints outside the recorded system"


def value_past_the_table():
    # the table holds P(0..32); the fact P(40) >= v would need P(40)
    d = doc("concrete")
    fact = step(d, "value_at_least")
    fact["inputs"]["m"] = 40
    return d, fact["id"], "value table has no entry for m = 40"


def empty_value_table():
    d = doc("concrete")
    table = step(d, "eval_p")
    table["witness"]["values"] = []
    return d, table["id"], "a value table holds 1 to 512 values"


def merge_of_another_multiple():
    # every branch bounds P(3); a merge that claims P(4) names none of them
    d = doc("worst_case")
    merge = step(d, "merge_min")
    merge["inputs"]["m"] = 4
    return d, merge["id"], "branch 0 bounds P(3), not P(4)"


def fact_param(value, i):
    """The worst case with parameter i of its from_fact declaration, the
    fact P(3) >= 7, written as value; i = 2 appends a third parameter."""
    d = doc("worst_case")
    (fact,) = (c for c in d["constraints"] if c["kind"] == "from_fact")
    fact["params"][i:i + 1] = [value]
    return d


def too_many(params):
    """What unpacking params into a fact's two parameters raises, in this
    interpreter's words."""
    try:
        _, _ = params
    except ValueError as exc:
        return str(exc)


def fact_bound_as_a_number():
    # 7.0 builds the row of P(3) >= 7, but a bound is a JSON integer
    return fact_param(7.0, 1), None, "fact bound of F.P3>=7 must be an integer, got 7.0"


def fact_bound_as_a_string():
    # version 5 wrote the bound as a rational string
    return fact_param("7", 1), None, "fact bound of F.P3>=7 must be an integer, got '7'"


def fact_bound_infinite():
    # json reads Infinity as a float, which no integer row holds; the
    # verifier answers instead of raising
    return fact_param(float("inf"), 1), None, (
        "constraint F.P3>=7: cannot convert float infinity to integer"
    )


def fact_scale_as_a_number():
    # version 5 wrote the scale 84 the form divides by; the gcd fixes it
    d = fact_param(84, 2)
    return d, None, f"constraint F.P3>=7: {too_many([3, 7, 84])}"


def fact_scale_as_a_list():
    d = fact_param(["84"], 2)
    return d, None, f"constraint F.P3>=7: {too_many([3, 7, ['84']])}"


def recorded_h0_raised():
    # the model and the searches read the table as recorded, so only the
    # verifier's own recount of the bundle refuses a count raised by one
    d = doc("standard")
    values = step(d, "oracle_values")
    values["witness"]["values"][3] += 1
    return d, values["id"], "recorded h0 at m=4 differs from recomputation"


def bundle_of_four_twists():
    d = doc("standard")
    values = step(d, "oracle_values")
    values["inputs"]["bundle"] = [0, 0, 0, 1]
    return d, values["id"], "bad bundle: X must be a 5-fold: exactly five twists"


def raw_min_as_a_number():
    # the branch's minimum 35 as the JSON number, not the string "35"
    d = doc("worst_case")
    branch = step(d, "fm_lower_bound")
    branch["witness"]["raw_min"] = int(branch["witness"]["raw_min"])
    return d, branch["id"], "raw_min must be a rational string, got 35"


def constraints_as_a_string():
    # a bare cid, which iterated would cite "A" and "1"
    d = doc("worst_case")
    branch = step(d, "fm_lower_bound")
    branch["inputs"]["constraints"] = "A1"
    return d, branch["id"], "constraints must be a list of constraint ids"


def farkas_as_an_object():
    # the same multipliers keyed by cid; iterated, it would yield the keys
    d = doc("worst_case")
    branch = step(d, "fm_lower_bound")
    branch["witness"]["farkas"] = dict(branch["witness"]["farkas"])
    return d, branch["id"], "farkas witness must be a list"


def model_as_a_string():
    # "1" iterated is the list ["1"], the constant model 1
    d = doc("standard")
    model = step(d, "oracle_model")
    model["witness"]["coeffs"] = "1"
    return d, model["id"], "model coefficients must be a list of rational strings"


def point_as_a_string():
    # "12" iterated would be the point (1, 2), refused only by a later
    # check, the branch's constraint
    d = doc("worst_case")
    branch = step(d, "fm_lower_bound")
    branch["witness"]["point"] = "12"
    return d, branch["id"], "bad point '12': not a list"


def attempt_point_as_a_string():
    # "00" iterated would be the point (0, 0), refused only by a later
    # check, constraint A1
    d = doc("worst_case")
    search = step(d, "dim_search")
    search["witness"]["attempts"][0]["point"] = "00"
    return d, search["id"], "bad point '00': not a list"


def moved_attempt(search):
    """The worst case with b of the (m=1, r=2) attempt of its dim_search
    step number search moved by -1/10**30: the point still meets A1 and
    P(3) >= 7, but the slack there is no longer the recorded 0."""
    d = doc("worst_case")
    s = step(d, "dim_search", search)
    (a,) = (a for a in s["witness"]["attempts"] if (a["m"], a["r"]) == (1, 2))
    a["point"][1] = str(Fraction(a["point"][1]) - Fraction(1, 10**30))
    return d, s["id"], "attempt at m=1, r=2 does not fail the test"


def moved_dim3_copy():
    # the dimension-3 search repeats the dimension-2 attempt at (1, 2) word
    # for word; a copy that differs is checked again, not taken as checked
    return moved_attempt(2)


def moved_dim2_original():
    return moved_attempt(1)


def table_attempt_that_passes():
    # the dimension-1 search of the limit selects m = 4 after m = 3, where
    # P(3) >= 2 is a pencil: the table says the attempt passes
    d = limit()
    search = step(d, "dim_search")
    search["witness"]["attempts"].append({"m": 3, "r": None})
    search["witness"]["selected"] = {"m": 4, "r": None}
    return d, search["id"], "attempt at m=3, r=None does not fail the test"


def params_not_a_list():
    d = doc("worst_case")
    d["constraints"][0]["params"] = 3
    return d, None, "constraint A1 needs a kind string and a params list"


def kind_not_allowed():
    d = doc("worst_case")
    d["constraints"][0]["kind"] = "bogus"
    return d, None, "constraint kind 'bogus' not allowed in certificates"


def tail_bounds_b_by_a1():
    # A1 is cited and recorded, but it bounds a alone
    d = doc("worst_case")
    tail = step(d, "monotone_tail")
    tail["inputs"]["b_constraint"] = "A1"
    return d, tail["id"], "cited constraint gives no lower bound for b"


CASES = [
    forged_pencil, raised_merged_bound, r0_below_three, r1_off_its_search,
    tail_removed, tail_from_zero, dim3_search_removed, value_at_least_removed,
    negative_lmax, farkas_cites_undeclared, undeclared_axiom_constraint,
    attempt_at_a_passing_point, pencil_from_vanishing, slack_from_vanishing,
    sextic_model, unknown_mode, split_removed, target_dimension_four,
    search_starts_past_its_selection, tail_cites_an_unrecorded_constraint,
    value_past_the_table, empty_value_table, merge_of_another_multiple,
    fact_bound_as_a_number, fact_bound_as_a_string, fact_bound_infinite,
    fact_scale_as_a_number, fact_scale_as_a_list, recorded_h0_raised,
    bundle_of_four_twists, raw_min_as_a_number, constraints_as_a_string,
    farkas_as_an_object, model_as_a_string, moved_dim3_copy, moved_dim2_original,
    table_attempt_that_passes, params_not_a_list, kind_not_allowed, tail_bounds_b_by_a1,
    point_as_a_string, attempt_point_as_a_string,
]


def test_the_limit_certificate_verifies():
    assert (LIMIT["r0"], LIMIT["r"], LIMIT["bound"]) == (3, [3, 4, 5], 15)
    assert check(limit()).ok


@pytest.mark.parametrize("case", CASES, ids=[c.__name__ for c in CASES])
def test_edit_refused_at_its_check(case):
    d, step_id, reason = case()
    res = check(d)
    assert (res.ok, res.step_id, res.reason) == (False, step_id, reason)
