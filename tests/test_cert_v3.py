"""The version-3 certificate layout: constraints declared once at the top
level and cited by id, and no field that the verifier does not check."""

import json
import re
from fractions import Fraction

import pytest

from fanobound import bundle
from fanobound.bounds import solve_concrete, solve_oracle, solve_worst_case
from fanobound.certs import (
    MalformedCertificateError,
    from_json_bytes,
    from_json_dict,
    ser_form,
    verify,
)
from fanobound.derive import constraint_form
from fanobound.hilbert import ChernData

BUNDLE = bundle.SplitBundle((0, 0, 0, 0, 1))


def readme_certificates():
    """The certificates of the four README solves, as JSON documents."""
    certs = {
        "worst_case": solve_worst_case(),
        "concrete": solve_concrete(ChernData(6250, 2750)),
        "standard": solve_oracle(bundle.oracle_source(BUNDLE, bundle.STANDARD)),
        "paper": solve_oracle(
            bundle.oracle_source(BUNDLE, bundle.PAPER), dim1_start=bundle.PAPER_DIM1_START
        ),
    }
    return {name: json.loads(c.to_json_bytes()) for name, c in certs.items()}


DOCS = readme_certificates()


def doc(name="worst_case"):
    return json.loads(json.dumps(DOCS[name]))


def check(d):
    return verify(from_json_bytes(json.dumps(d).encode()))


def steps(d, rule):
    return [s for s in d["steps"] if s["rule"] == rule]


def test_each_constraint_is_declared_once_and_cited_by_id():
    d = doc()
    cids = [c["cid"] for c in d["constraints"]]
    assert cids == sorted(set(cids)) and len(cids) == 21
    (fm, *_), (dim, *_) = steps(d, "fm_lower_bound"), steps(d, "dim_search")
    assert all(isinstance(c, str) for c in fm["inputs"][0]["constraints"])
    assert dim["inputs"][0]["constraints"] == ["A1", "F.P3>=7"]
    assert steps(d, "fact_to_constraint")[0]["witness"] == {"constraint": "F.P3>=7"}
    assert steps(d, "axioms")[0]["inputs"] == []


def test_flavors_are_written_out():
    assert [DOCS[n]["mode"] for n in ("worst_case", "concrete", "standard", "paper")] == [
        "worst_case", "concrete", "oracle", "oracle"
    ]
    assert DOCS["worst_case"]["axioms"] == ["A1", "A3", "A4", "A5"]


def test_duplicate_cid_rejected():
    d = doc()
    d["constraints"].insert(1, d["constraints"][0])
    res = check(d)
    assert not res.ok and res.step_id is None and "unique and in sorted order" in res.reason


def test_unsorted_cids_rejected():
    d = doc()
    d["constraints"][0], d["constraints"][1] = d["constraints"][1], d["constraints"][0]
    res = check(d)
    assert not res.ok and "unique and in sorted order" in res.reason


def test_declaration_no_step_cites_rejected():
    d = doc()
    form, _ = constraint_form("vanishing", (9,))
    d["constraints"].insert(10, {"cid": "A4.9", "kind": "vanishing", "params": [9],
                                 "form": ser_form(form), "strict": False})
    assert [c["cid"] for c in d["constraints"]][9:12] == ["A4.8", "A4.9", "A5"]
    res = check(d)
    assert not res.ok and res.step_id is None
    assert res.reason == "constraint A4.9 is declared but cited by no step"


def test_citation_of_undeclared_cid_rejected():
    d = doc()
    d["constraints"] = [c for c in d["constraints"] if c["cid"] != "A4.0"]
    res = check(d)
    assert not res.ok and res.step_id == 1 and "undeclared constraint 'A4.0'" in res.reason


def test_fact_cited_before_it_is_established_rejected():
    d = doc()
    first_branch = steps(d, "fm_lower_bound")[0]
    first_branch["inputs"][0]["constraints"].append("F.P3>=7")
    res = check(d)
    assert not res.ok and res.step_id == first_branch["id"]
    assert "not established by an earlier step" in res.reason


def test_version_2_refused():
    d = doc()
    d["version"] = 2
    res = check(d)
    assert not res.ok and res.reason == "unsupported version 2"
    # a version-2 document has no top-level constraints at all
    del d["constraints"]
    with pytest.raises(MalformedCertificateError, match="constraints"):
        from_json_bytes(json.dumps(d).encode())


def test_from_fact_with_a_negative_scale_rejected():
    # dividing P(3) - 7 by a negative number turns P(3) >= 7 into P(3) <= 7
    d = doc()
    params = [3, "7", "-84", False]
    form, _ = constraint_form("from_fact", params)
    d["constraints"].append(
        {"cid": "F.P3>=7.neg", "kind": "from_fact", "params": params,
         "form": ser_form(form), "strict": False}
    )
    d["constraints"].sort(key=lambda c: c["cid"])
    steps(d, "dim_search")[0]["inputs"][0]["constraints"].append("F.P3>=7.neg")
    res = check(d)
    assert not res.ok and "positive scale" in res.reason


def test_branch_after_the_merge_rejected():
    # a branch replayed after the merge could cite the merged fact itself
    d = doc()
    late = json.loads(json.dumps(steps(d, "fm_lower_bound")[0]))
    late["id"] = d["steps"][-1]["id"] + 1
    d["steps"].append(late)
    steps(d, "merge_min")[0]["inputs"][0]["branches"][0]["step"] = late["id"]
    res = check(d)
    assert not res.ok and "cites no earlier bound step" in res.reason


def test_branch_resting_on_another_hypothesis_rejected():
    # P(1) = 1 together with P(1) >= 4 covers no case of the split
    d = doc()
    branch = steps(d, "fm_lower_bound")[1]
    branch["inputs"][0]["constraints"].append("H.P1>=4")
    branch["witness"].update(attained=False, point=None)
    res = check(d)
    assert not res.ok and res.step_id == steps(d, "merge_min")[0]["id"]
    assert "does not rest on its own hypothesis" in res.reason


@pytest.mark.parametrize(
    "name, axioms",
    [
        ("worst_case", ["A1", "A2", "A3", "A4", "A5"]),
        ("worst_case", ["A1", "A3", "A4"]),
        ("concrete", ["A3", "A4x"]),
        ("concrete", ["A3x", "A4"]),
        ("standard", ["O1x", "O2"]),
        ("paper", ["O1", "O2x"]),
    ],
)
def test_axiom_list_must_be_the_flavors_exactly(name, axioms):
    d = doc(name)
    d["axioms"] = axioms
    res = check(d)
    assert not res.ok and res.step_id is None and "rests on the axioms" in res.reason


@pytest.mark.parametrize(
    "name, mode, chern",
    [
        ("standard", "concrete", None),
        ("concrete", "oracle", {"k5": 6250, "k3c2": 2750}),
        ("concrete", "concrete", None),
        ("worst_case", "worst_case", {"k5": 6250, "k3c2": 2750}),
    ],
)
def test_chern_data_exactly_in_concrete_mode(name, mode, chern):
    d = doc(name)
    d["mode"], d["chern"] = mode, chern
    res = check(d)
    assert not res.ok and "exactly in concrete mode" in res.reason


@pytest.mark.parametrize("axioms", [True, [3, 4]])
def test_axioms_that_are_not_a_list_of_strings_are_malformed(axioms):
    d = doc("concrete")
    d["axioms"] = axioms
    with pytest.raises(MalformedCertificateError, match="axioms"):
        from_json_bytes(json.dumps(d).encode())


@pytest.mark.parametrize("attempts", ["", {}, None])
def test_empty_attempts_must_still_be_a_list(attempts):
    d = doc("paper")
    search = steps(d, "dim_search")[0]
    assert search["witness"]["attempts"] == []
    search["witness"]["attempts"] = attempts
    res = check(d)
    assert not res.ok and "attempts must be a list" in res.reason


# -- every checked leaf ---------------------------------------------------------

RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, path + (i,))
    else:
        yield path, node


def edited(value):
    """One edit of a scalar that keeps its JSON type where it can: numbers
    and rational strings gain 1, booleans are negated, other strings get a
    suffix, and null becomes 1."""
    if isinstance(value, bool):
        return not value
    if value is None:
        return 1
    if isinstance(value, int):
        return value + 1
    if RATIONAL.fullmatch(value):
        q = Fraction(value) + 1
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    return value + "x"


def still_true(d, path, new):
    """The name of the exception an accepted edit falls under, or None.
    Each of these edits leaves a certificate whose every claim holds."""
    if path[0] != "steps":
        return None
    step = d["steps"][path[1]]
    rule, rest = step["rule"], path[2:]
    if rule == "dim_search" and rest == ("inputs", 0, "m_max"):
        # a longer search range holds the same minimal selection
        return "raised m_max"
    if rest == ("id",) and path[1] == len(d["steps"]) - 1:
        # ids need only increase, and no step cites the last one
        return "raised last id"
    if rule == "value_at_least" and rest == ("witness", "bound"):
        # P(r0) >= new still holds and still gives P(r0) >= 1
        return "raised bound" if new <= step["witness"]["value"] else None
    if rule == "oracle_values" and rest[:3] == ("inputs", 0, "bundle"):
        # the verifier recounts the table for the new bundle; every nef
        # split bundle of rank 5 over the line has the same h0(-mK) under
        # the standard convention
        twists = list(step["inputs"][0]["bundle"])
        twists[rest[3]] = new
        return "nef twist" if bundle.is_nef(bundle.SplitBundle(tuple(twists))) else None
    return None


def test_every_leaf_edit_is_rejected_or_still_true():
    accepted, seen = [], set()
    for name, original in DOCS.items():
        d = doc(name)
        for path, value in list(leaves(original)):
            holder = d
            for key in path[:-1]:
                holder = holder[key]
            holder[path[-1]] = new = edited(value)
            try:
                ok = verify(from_json_dict(d)).ok
            except MalformedCertificateError:
                ok = False
            holder[path[-1]] = value
            if ok:
                reason = still_true(d, path, new)
                if reason is None:
                    accepted.append((name, path, value, new))
                seen.add(reason)
    assert accepted == []
    # every exception is met, so the list holds no dead entry
    assert seen == {"raised m_max", "raised last id", "raised bound", "nef twist"}


# -- every retyped leaf ---------------------------------------------------------

def retyped(value):
    """The retypes of a scalar: an int as a float and as a string, an
    integral rational string as an int, and a boolean as an int."""
    if isinstance(value, bool):
        return [int(value)]
    if isinstance(value, int):
        return [float(value), str(value)]
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return [int(value)]
    return []


def test_every_retyped_leaf_is_rejected():
    # a step reference written 2.0 or a rational written 546 names the
    # same value in Python but is not what the format allows
    accepted, count = [], 0
    for name, original in DOCS.items():
        d = doc(name)
        for path, value in list(leaves(original)):
            holder = d
            for key in path[:-1]:
                holder = holder[key]
            for new in retyped(value):
                holder[path[-1]] = new
                count += 1
                try:
                    cert = from_json_dict(d)
                except MalformedCertificateError:
                    continue
                if verify(cert).ok:
                    accepted.append((name, path, value, new))
            holder[path[-1]] = value
    assert accepted == [] and count > 1000


def test_claim_on_a_rule_that_derives_no_bound_rejected():
    d = doc()
    d["steps"][0]["claim"] = "P(3) >= 7"
    res = check(d)
    assert not res.ok and res.step_id == 1
    assert res.reason == "rule axioms derives no bound, so its step carries no claim"


def test_dimension_1_selection_by_lemma2_rejected():
    d = doc("concrete")
    (search,) = [s for s in steps(d, "dim_search") if s["inputs"][0]["target_dim"] == 1]
    search["witness"]["selected"]["rule"] = "lemma2"
    res = check(d)
    assert not res.ok and res.step_id == search["id"]
    assert res.reason == "a dimension-1 selection is nonvanishing and a higher one lemma2"


def test_reference_to_a_later_value_table_rejected():
    # a step reads only what the verifier has already checked
    d = doc("concrete")
    late = json.loads(json.dumps(steps(d, "eval_p")[0]))
    late["id"] = d["steps"][-1]["id"] + 1
    d["steps"].append(late)
    (at_least,) = steps(d, "value_at_least")
    at_least["inputs"][0]["values_step"] = late["id"]
    res = check(d)
    assert not res.ok and res.step_id == at_least["id"]
    assert res.reason == "values_step cites no earlier value table step"
