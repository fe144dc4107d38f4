"""The certificate layout: constraints declared once at the top level and
cited by id (version 3), each value written once and every object holding
exactly the keys the verifier reads (version 4), nothing written that the
verifier rebuilds, in a language of closed inequalities (version 5), and
nothing written that the verifier derives: no claims, no bounds beside
the minima and merges that determine them, and integer params (version 6)."""

import json
import re
import time
from fractions import Fraction

import pytest

from fanobound import bundle
from fanobound.bounds import solve_concrete, solve_oracle, solve_worst_case
from fanobound.certs import (
    MalformedCertificateError,
    from_json_bytes,
    from_json_dict,
    verify,
)
from fanobound.derive import chern_table
from fanobound.exact import rat_str
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
    assert all(isinstance(c, str) for c in fm["inputs"]["constraints"])
    assert all(c.keys() == {"cid", "kind", "params"} for c in d["constraints"])
    assert dim["inputs"]["constraints"] == ["A1", "F.P3>=7"]
    assert [s["rule"] for s in d["steps"]][:2] == ["split_p1", "fm_lower_bound"]


# the version-6 layout: per rule and flavor, the keys of the inputs object
# and of the witness
SEARCH = {"attempts", "selected"}
LAYOUT = {
    "split_p1": {"worst_case": ({"lmax"}, set())},
    "fm_lower_bound": {"worst_case": ({"m", "constraints"}, {"raw_min", "farkas", "point"})},
    "merge_min": {"worst_case": ({"m", "branches"}, set())},
    "eval_p": {"concrete": (set(), {"values"})},
    "oracle_values": {"oracle": ({"bundle", "convention"}, {"values"})},
    "oracle_model": {"oracle": ({"values_step"}, {"coeffs"})},
    "value_at_least": {f: ({"m", "values_step"}, set()) for f in ("concrete", "oracle")},
    "dim_search": {
        "worst_case": ({"target_dim", "m_start", "constraints"}, SEARCH),
        "concrete": ({"target_dim", "m_start", "values_step"}, SEARCH),
        "oracle": ({"target_dim", "m_start", "values_step"}, SEARCH),
    },
    "monotone_tail": {
        "worst_case": ({"m_start", "constraints", "a_constraint", "b_constraint"}, set()),
        "concrete": ({"m_start"}, set()),
        "oracle": ({"m_start", "model_step"}, set()),
    },
    "compose": {f: (set(), set()) for f in ("worst_case", "concrete", "oracle")},
}


@pytest.mark.parametrize("name", sorted(DOCS))
def test_every_object_has_the_version_6_layout(name):
    d = DOCS[name]
    heads = {
        "worst_case": ["split_p1"] + ["fm_lower_bound"] * 5 + ["merge_min"],
        "concrete": ["eval_p", "value_at_least", "monotone_tail"],
    }
    head = heads.get(name, ["oracle_values", "oracle_model", "value_at_least", "monotone_tail"])
    tail = ["monotone_tail"] if name == "worst_case" else []
    assert d["version"] == 6
    assert [s["rule"] for s in d["steps"]] == head + ["dim_search"] * 3 + tail + ["compose"]
    assert [s["id"] for s in d["steps"]] == list(range(1, len(d["steps"]) + 1))
    for step in d["steps"]:
        rule = step["rule"]
        inputs, witness = LAYOUT[rule][d["mode"]]
        assert set(step) == {"id", "rule", "inputs", "witness"}
        assert type(step["inputs"]) is dict and set(step["inputs"]) == inputs
        assert set(step["witness"]) == witness
        if rule == "dim_search":
            sel, worst = step["witness"]["selected"], d["mode"] == "worst_case"
            assert set(sel) == ({"m", "r", "raw_min", "farkas"} if worst else {"m", "r"})
            for a in step["witness"]["attempts"]:
                assert set(a) == ({"m", "r", "point", "value"} if worst else {"m", "r"})
    for c in d["constraints"]:
        assert all(type(p) is int for p in c["params"])
    if d["mode"] == "worst_case":
        (merge,) = steps(d, "merge_min")
        assert merge["inputs"]["branches"] == [s["id"] for s in steps(d, "fm_lower_bound")]


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
    d["constraints"].insert(10, {"cid": "A4.9", "kind": "vanishing", "params": [9]})
    assert [c["cid"] for c in d["constraints"]][9:12] == ["A4.8", "A4.9", "A5"]
    res = check(d)
    assert not res.ok and res.step_id is None
    assert res.reason == "constraint A4.9 is declared but cited by no step"


def test_citation_of_undeclared_cid_rejected():
    d = doc()
    d["constraints"] = [c for c in d["constraints"] if c["cid"] != "A4.0"]
    res = check(d)
    first_citing = steps(d, "fm_lower_bound")[0]["id"]
    assert not res.ok and res.step_id == first_citing == 2
    assert "undeclared constraint 'A4.0'" in res.reason


def test_fact_cited_before_it_is_established_rejected():
    d = doc()
    first_branch = steps(d, "fm_lower_bound")[0]
    first_branch["inputs"]["constraints"].append("F.P3>=7")
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
    # dividing P(3) - 7 by a negative number would turn P(3) >= 7 into
    # P(3) <= 7; a fact's form is divided by the gcd of its coefficients
    # alone, so a scale is a parameter too many
    d = doc()
    d["constraints"].append(
        {"cid": "F.P3>=7.neg", "kind": "from_fact", "params": [3, 7, -84]}
    )
    d["constraints"].sort(key=lambda c: c["cid"])
    steps(d, "dim_search")[0]["inputs"]["constraints"].append("F.P3>=7.neg")
    res = check(d)
    assert not res.ok and res.step_id is None
    assert res.reason.startswith("constraint F.P3>=7.neg: too many values to unpack")


def test_branch_after_the_merge_rejected():
    # a branch replayed after the merge could cite the merged fact itself
    d = doc()
    late = json.loads(json.dumps(steps(d, "fm_lower_bound")[0]))
    late["id"] = d["steps"][-1]["id"] + 1
    d["steps"].append(late)
    steps(d, "merge_min")[0]["inputs"]["branches"][0] = late["id"]
    res = check(d)
    assert not res.ok and "cites no earlier bound step" in res.reason


def test_branch_resting_on_another_hypothesis_rejected():
    # P(1) = 1 and P(1) >= 0 hold together, so the branch step itself
    # checks out; but a branch rests on its own case of the split alone
    d = doc()
    branch = steps(d, "fm_lower_bound")[1]
    branch["inputs"]["constraints"].append("H.P1=0.lo")
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
    if rest == ("id",) and path[1] == len(d["steps"]) - 1:
        # ids need only increase, and no step cites the last one
        return "raised last id"
    if rule == "oracle_values" and rest[:2] == ("inputs", "bundle"):
        # the verifier recounts the table for the new bundle; every nef
        # split bundle of rank 5 over the line has the same h0(-mK) under
        # the standard convention
        twists = list(step["inputs"]["bundle"])
        twists[rest[2]] = new
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
    assert seen == {"raised last id", "nef twist"}


# -- every retyped leaf ---------------------------------------------------------

def retyped(value):
    """The retypes of a scalar: an int as a float and as a string, an
    integral rational string as an int, any other rational string as a
    float, and a boolean as an int."""
    if isinstance(value, bool):
        return [int(value)]
    if isinstance(value, int):
        return [float(value), str(value)]
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return [int(value)]
    if isinstance(value, str) and RATIONAL.fullmatch(value):
        return [float(Fraction(value))]
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


STEP_KEYS_REASON = "a step must be an object with exactly the keys ['id', 'inputs', 'rule', 'witness']"


def test_claim_on_a_rule_that_derives_no_bound_rejected():
    d = doc()
    assert d["steps"][0]["rule"] == "split_p1"
    d["steps"][0]["claim"] = "P(3) >= 7"
    res = check(d)
    assert not res.ok and res.step_id == 1
    assert res.reason == STEP_KEYS_REASON


def test_dimension_1_selection_by_lemma2_rejected():
    d = doc("concrete")
    (search,) = [s for s in steps(d, "dim_search") if s["inputs"]["target_dim"] == 1]
    assert search["witness"]["selected"]["r"] is None
    search["witness"]["selected"]["r"] = 1
    res = check(d)
    assert not res.ok and res.step_id == search["id"]
    assert res.reason == "a dimension-1 selection has no exponent"


def test_reference_to_a_later_value_table_rejected():
    # a step reads only what the verifier has already checked
    d = doc("concrete")
    late = json.loads(json.dumps(steps(d, "eval_p")[0]))
    late["id"] = d["steps"][-1]["id"] + 1
    d["steps"].append(late)
    (at_least,) = steps(d, "value_at_least")
    at_least["inputs"]["values_step"] = late["id"]
    res = check(d)
    assert not res.ok and res.step_id == at_least["id"]
    assert res.reason == "values_step cites no earlier value table step"


# -- keys the verifier does not read ----------------------------------------


def refused(d):
    """Whether the document is refused: malformed to the parser or invalid
    to the verifier, which must not raise either way."""
    try:
        cert = from_json_dict(d)
    except MalformedCertificateError:
        return True
    return not verify(cert).ok


@pytest.mark.parametrize(
    "name, path, rule, key",
    [
        # a version-3 key left in place
        ("worst_case", ("steps", 1, "witness"), "fm_lower_bound", "strengthened"),
        ("worst_case", ("steps", 8, "witness", "selected"), "dim_search", "margin"),
        ("concrete", ("steps", 4, "witness", "attempts", 0), "dim_search", "threshold"),
        ("concrete", ("steps", 2, "witness"), "monotone_tail", "q_shifted"),
        ("standard", ("steps", 4, "inputs"), "dim_search", "mode"),
        ("worst_case", ("steps", 0, "witness"), "split_p1", "labels"),
        # an unknown key at every level
        ("worst_case", (), None, "extra"),
        ("concrete", ("chern",), None, "extra"),
        ("worst_case", ("constraints", 0), None, "extra"),
        ("paper", ("steps", 0), "oracle_values", "extra"),
        ("worst_case", ("steps", 6, "inputs"), "merge_min", "extra"),
        ("paper", ("steps", 7, "witness"), "compose", "extra"),
        ("worst_case", ("steps", 9, "witness", "selected"), "dim_search", "extra"),
        ("worst_case", ("steps", 9, "witness", "attempts", 0), "dim_search", "extra"),
    ],
)
def test_stale_or_unknown_key_refused(name, path, rule, key):
    d = doc(name)
    holder = d
    for part in path:
        holder = holder[part]
    assert rule is None or d["steps"][path[1]]["rule"] == rule
    assert key not in holder
    holder[key] = True
    assert refused(d)
    if rule is not None:
        assert check(d).step_id == d["steps"][path[1]]["id"]


@pytest.mark.parametrize("cid, params", [("A1", [7]), ("A5", [1, "x"])])
def test_parameters_on_a_kind_that_takes_none_rejected(cid, params):
    d = doc()
    (decl,) = [c for c in d["constraints"] if c["cid"] == cid]
    assert decl["params"] == []
    decl["params"] = params
    res = check(d)
    assert not res.ok and res.step_id is None and "takes no parameters" in res.reason


def test_zero_denominator_is_malformed_step_data():
    d = doc()
    branch = steps(d, "fm_lower_bound")[0]
    branch["witness"]["raw_min"] = "1/0"
    res = check(d)
    assert not res.ok and res.step_id == branch["id"]
    assert res.reason.startswith("malformed step data: ZeroDivisionError")


# -- the version-5 language ---------------------------------------------------
#
# Each of these is what a version-4 certificate wrote, with its true value;
# version 5 refuses it.


@pytest.mark.parametrize("key, value", [("form", ["1", "0", "-1/720"]), ("strict", False)])
def test_declaration_carrying_a_form_or_a_strict_flag_refused(key, value):
    d = doc()
    assert d["constraints"][0]["cid"] == "A1"
    d["constraints"][0][key] = value
    res = check(d)
    assert not res.ok and res.step_id is None
    assert "a constraint declaration must be an object with exactly the keys" in res.reason


def test_from_fact_with_a_strictness_parameter_refused():
    d = doc()
    (fact,) = [c for c in d["constraints"] if c["kind"] == "from_fact"]
    assert fact["params"] == [3, 7]
    fact["params"].append(False)
    res = check(d)
    assert not res.ok and res.step_id is None
    assert res.reason.startswith("constraint F.P3>=7: too many values to unpack")


def test_tail_witness_with_a_polynomial_refused():
    d = doc("concrete")
    (tail,) = steps(d, "monotone_tail")
    table = chern_table(ChernData(6250, 2750), 32)
    tail["witness"]["q_poly"] = [rat_str(c) for c in table.poly.difference().coeffs]
    res = check(d)
    assert not res.ok and res.step_id == tail["id"]
    assert res.reason == "witness must be an object with exactly the keys []"


@pytest.mark.parametrize("name, rule", [
    ("worst_case", "split_p1"), ("concrete", "eval_p"), ("paper", "compose"),
])
def test_inputs_written_as_a_one_element_list_refused(name, rule):
    d = doc(name)
    (step,) = steps(d, rule)
    # version 4 wrote an empty list for a rule that takes no inputs
    step["inputs"] = [step["inputs"]] if step["inputs"] else []
    res = check(d)
    assert not res.ok and res.step_id == step["id"]
    assert res.reason.startswith("inputs must be an object with exactly the keys")


def test_null_minimum_point_refused():
    d = doc()
    branch = steps(d, "fm_lower_bound")[0]
    branch["witness"]["point"] = None
    res = check(d)
    assert not res.ok and res.step_id == branch["id"]
    assert res.reason.startswith("bad point None")


def test_declaration_named_for_another_descriptor_refused():
    # P(1) >= 0 holds and no combination uses A4.0, but a cid names
    # exactly the constraint its kind and params give
    d = doc()
    assert d["constraints"][1] == {"cid": "A4.0", "kind": "vanishing", "params": [0]}
    d["constraints"][1]["params"] = [1]
    res = check(d)
    assert not res.ok and res.step_id is None
    assert res.reason == "constraint A4.0 is not the name of its descriptor"


def test_version_4_refused():
    d = doc()
    d["version"] = 4
    res = check(d)
    assert not res.ok and res.step_id is None and res.reason == "unsupported version 4"


# -- one spelling per Farkas combination ------------------------------------

def reordered(farkas):
    farkas.reverse()


def split(farkas):
    # A4.2's 7 written as 7/2 + 7/2
    assert farkas[0] == ["A4.2", "7"]
    farkas[0:1] = [["A4.2", "7/2"], ["A4.2", "7/2"]]


def zero_appended(farkas):
    farkas.append(["A1", "0"])


@pytest.mark.parametrize("edit, reason", [
    (reordered, "farkas entries must name distinct constraints in cid order"),
    (split, "farkas entries must name distinct constraints in cid order"),
    (zero_appended, "farkas multiplier on A1 is not positive"),
], ids=["reordered", "split", "zero_appended"])
def test_farkas_combination_has_one_spelling(edit, reason):
    # each edit sums to the same form, so only the spelling rule refuses it
    d = doc()
    branch = steps(d, "fm_lower_bound")[0]
    assert branch["witness"]["farkas"] == [["A4.2", "7"], ["H.P1=0.hi", "21"]]
    edit(branch["witness"]["farkas"])
    res = check(d)
    assert not res.ok and res.step_id == branch["id"] and res.reason == reason


def test_long_zero_padding_rejected_at_its_first_entry():
    d = doc()
    branch = steps(d, "fm_lower_bound")[0]
    branch["witness"]["farkas"] += [["A1", "0"]] * 200_000
    cert = from_json_dict(d)
    start = time.perf_counter()
    res = verify(cert)
    assert time.perf_counter() - start < 0.5
    assert not res.ok and res.reason == "farkas multiplier on A1 is not positive"


def test_overlong_attempts_refused_before_any_entry_is_read():
    # the first search's two attempts repeated into 200,000: the length
    # alone refuses them, whatever the entries hold
    d = doc()
    search = steps(d, "dim_search")[0]
    search["witness"]["attempts"] *= 100_000
    assert len(search["witness"]["attempts"]) == 200_000
    cert = from_json_dict(d)
    start = time.perf_counter()
    res = verify(cert)
    assert time.perf_counter() - start < 0.1
    assert not res.ok and res.step_id == search["id"]
    assert res.reason == "failed attempts do not enumerate the search order"


# -- the version-6 language ---------------------------------------------------
#
# Each of these is a value a version-5 certificate wrote and the verifier
# derives; version 6 refuses it, true as it is, at the step that carries it.


def test_claim_on_any_step_rejected():
    # version 5 wrote a claim on fm_lower_bound, merge_min, dim_search and
    # compose; now no step carries one, whatever it says
    count = 0
    for name in DOCS:
        for i, step in enumerate(DOCS[name]["steps"]):
            d = doc(name)
            d["steps"][i]["claim"] = "P(3) >= 7"
            res = check(d)
            assert (res.ok, res.step_id, res.reason) == (False, step["id"], STEP_KEYS_REASON)
            count += 1
    assert count == 35


def test_bound_beside_a_branch_minimum_rejected():
    d = doc()
    branch = steps(d, "fm_lower_bound")[0]
    assert branch["witness"]["raw_min"] == "35"
    branch["witness"]["bound"] = "35"
    res = check(d)
    assert not res.ok and res.step_id == branch["id"]
    assert res.reason == "witness must be an object with exactly the keys ['farkas', 'point', 'raw_min']"


def test_bound_beside_a_pencil_minimum_rejected():
    d = doc()
    search = steps(d, "dim_search")[0]
    sel = search["witness"]["selected"]
    assert (sel["r"], sel["raw_min"]) == (None, "7")
    sel["bound"] = "7"
    res = check(d)
    assert not res.ok and res.step_id == search["id"]
    assert res.reason == "selection must be an object with exactly the keys ['farkas', 'm', 'r', 'raw_min']"


def test_merged_bound_written_out_rejected():
    d = doc()
    (merge,) = steps(d, "merge_min")
    assert merge["witness"] == {}
    merge["witness"]["bound"] = "7"
    res = check(d)
    assert not res.ok and res.step_id == merge["id"]
    assert res.reason == "witness must be an object with exactly the keys []"


def test_version_5_refused():
    d = doc()
    d["version"] = 5
    res = check(d)
    assert not res.ok and res.step_id is None and res.reason == "unsupported version 5"
