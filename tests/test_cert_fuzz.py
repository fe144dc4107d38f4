"""A derandomized fuzzer over the four README certificates: whatever one
mutation does to a certificate, the parser refuses it as malformed or the
verifier answers within 2 s without raising, and it accepts only the true
edits that the README lists."""

import json
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from fanobound import bundle
from fanobound.certs import MalformedCertificateError, from_json_dict, verify

from test_cert_v3 import DOCS, edited, retyped


def nodes(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from nodes(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from nodes(value, path + (i,))


# per certificate: its scalar leaves, its objects and its non-empty lists
NODES = {name: list(nodes(d)) for name, d in DOCS.items()}
LEAVES = {n: [(p, v) for p, v in ns if not isinstance(v, (dict, list))] for n, ns in NODES.items()}
OBJECTS = {n: [p for p, v in ns if isinstance(v, dict)] for n, ns in NODES.items()}
LISTS = {n: [p for p, v in ns if isinstance(v, list) and v] for n, ns in NODES.items()}

NEW_KEYS = ["extra", "strengthened", "margin", "threshold", "q_shifted", "mode", "labels",
            "m_max", "d5", "claim", "label", "value"]
REPLACEMENTS = [0, -1, 10**30, "", "x", "1/0", "-1/3", None, True, [], {}]


def at(d, path):
    for part in path:
        d = d[part]
    return d


@st.composite
def mutations(draw):
    """A certificate name, the mutated document, and the mutation as a
    tuple: its kind, the path it acts on and what it writes there."""
    name = draw(st.sampled_from(sorted(DOCS)))
    d = json.loads(json.dumps(DOCS[name]))
    kind = draw(st.sampled_from(
        ["change", "retype", "delete key", "delete element", "add key", "duplicate", "swap steps"]
    ))
    if kind in ("change", "retype"):
        path, value = draw(st.sampled_from(LEAVES[name]))
        if kind == "change":
            candidates = [edited(value)] + REPLACEMENTS
        else:
            candidates = retyped(value) + [[value], str(value)]
        # a change that writes the same JSON back is no change
        new = draw(st.sampled_from([c for c in candidates if json.dumps(c) != json.dumps(value)]))
        at(d, path[:-1])[path[-1]] = new
        return name, d, (kind, path, new)
    if kind in ("delete key", "add key"):
        path = draw(st.sampled_from(OBJECTS[name]))
        obj = at(d, path)
        if kind == "delete key" and obj:
            key = draw(st.sampled_from(sorted(obj)))
            del obj[key]
            return name, d, (kind, path + (key,), None)
        key = draw(st.sampled_from([k for k in NEW_KEYS if k not in obj]))
        obj[key] = new = draw(st.sampled_from([1, True, "1", None]))
        return name, d, ("add key", path + (key,), new)
    if kind == "swap steps":
        i, j = draw(st.lists(st.integers(0, len(d["steps"]) - 1), min_size=2, max_size=2, unique=True))
        d["steps"][i], d["steps"][j] = d["steps"][j], d["steps"][i]
        return name, d, (kind, ("steps", i, j), None)
    path = draw(st.sampled_from(LISTS[name]))
    items = at(d, path)
    i = draw(st.integers(0, len(items) - 1))
    if kind == "delete element":
        del items[i]
    else:
        items.insert(i + 1, json.loads(json.dumps(items[i])))
    return name, d, (kind, path + (i,), None)


def true_edit(name, mutation):
    """The README's name for a mutation that leaves a true certificate, or
    None."""
    kind, path, new = mutation
    original = DOCS[name]
    last = len(original["steps"]) - 1
    if kind == "change" and path == ("steps", last, "id"):
        # ids need only increase, and no step cites the last one
        return "later last id" if type(new) is int and new > original["steps"][last]["id"] else None
    if kind == "change" and path[2:4] == ("inputs", "bundle"):
        # every nef split bundle of rank 5 over the line has the same h0(-mK)
        twists = list(original["steps"][path[1]]["inputs"]["bundle"])
        twists[path[4]] = new
        nef = all(type(e) is int for e in twists) and bundle.is_nef(bundle.SplitBundle(tuple(twists)))
        return "nef twist" if nef else None
    if kind == "delete element" and path[2:] == ("witness", "values", len(at(original, path[:-1])) - 1):
        # a shorter table still covers every multiple the steps read
        return "last table entry dropped"
    if kind == "delete element" and path[2:-1] == ("inputs", "constraints"):
        # a bound over fewer constraints still holds while the combination
        # that proves it and the step's case hypotheses stay
        step = original["steps"][path[1]]
        cid = step["inputs"]["constraints"][path[-1]]
        w, inp = step["witness"], step["inputs"]
        used = {c for c, _ in w.get("farkas", []) + w.get("selected", {}).get("farkas", [])}
        used |= {inp.get("a_constraint"), inp.get("b_constraint")}
        return None if cid in used or cid.startswith("H.") else "unused citation dropped"
    return None


@settings(max_examples=800, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(mutations())
def test_every_mutation_is_refused_or_a_true_edit(case):
    name, d, mutation = case
    try:
        cert = from_json_dict(d)
    except MalformedCertificateError:
        return
    start = time.perf_counter()
    res = verify(cert)
    assert time.perf_counter() - start < 2
    if res.ok:
        original = DOCS[name]
        assert (cert.r0, cert.r, cert.bound) == (original["r0"], original["r"], original["bound"])
        assert true_edit(name, mutation) is not None, mutation
