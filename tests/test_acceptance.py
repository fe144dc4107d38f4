"""Acceptance gate: the seven exit criteria, exact arithmetic throughout.

Every tolerance is zero: the asserted values are integers and exact
rationals.  Each criterion prints one pass line (run with -s to see them
on success; a failed assertion prints the failing criterion instead).
"""

import json
import random
from fractions import Fraction
from itertools import product

from fanobound.hilbert import PValue, fit_ab, p_affine
from fanobound.derive import (
    axiom_system,
    derive_lower_bound,
    fm_minimize,
    geometry_system,
    merge_branch_facts,
    split_on_p1,
    strengthen_integral,
)
from fanobound import bounds, bundle
from fanobound.audit import build_audit
from fanobound.certs import from_json_bytes, verify
from fanobound.cli import main as cli_main

from fm_reference import form
from test_derive import sample_feasible
from test_hilbert import sample_chern


def _passed(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def merged_geometry():
    branches = split_on_p1(axiom_system(), 3)
    merged = merge_branch_facts([derive_lower_bound(br, 3) for br in branches])
    return geometry_system([merged])


def test_criterion_1_worst_case_main_bound():
    cert = bounds.solve_worst_case()
    assert cert.bound == 16
    assert cert.r0 == 3 and cert.r == [3, 4, 6]
    assert verify(cert).ok

    doc = json.loads(cert.to_json_bytes())
    doc["bound"] = 15
    mutated = from_json_bytes(json.dumps(doc).encode())
    res = verify(mutated)
    assert not res.ok and res.step_id == cert.steps[-1]["id"]
    _passed(1, "worst case certifies 16 with r0=3, r=(3,4,6); mutation rejected")


def test_criterion_2_first_proposition_replay():
    branches = split_on_p1(axiom_system(), 3)
    for l, want in ((0, 35), (1, 21), (2, 7)):
        assert derive_lower_bound(branches[l], 3).bound == want
    assert derive_lower_bound(branches[3], 2).bound == 6

    entries = {e.location: e for e in build_audit().entries}
    v = entries["Proposition 1 (v)"]
    assert v.status == "discrepancy"
    assert "a=1/360" in v.engine_result and "P(3)=14" in v.engine_result
    assert "1/60" in v.paper_claim and "49" in v.paper_claim
    a, b = fit_ab(PValue(1, 3), PValue(2, 6))
    assert (a, b) == (Fraction(1, 360), Fraction(-1, 72))
    assert p_affine(3).evaluate(a, b) == 14 >= 7
    assert p_affine(3).evaluate(Fraction(1, 60), Fraction(-1, 12)) == 49 >= 7
    _passed(2, "P(3) >= 35/21/7 and P(2) >= 6 replayed; case (v) flagged exactly")


def test_criterion_3_second_proposition_replay():
    geom = merged_geometry()
    assert bounds.minimal_r(geom, 1).m == 3
    out2 = bounds.minimal_r(geom, 2)
    assert (out2.m, out2.selected["r"]) == (4, 1)
    out3 = bounds.minimal_r(geom, 3)
    assert (out3.m, out3.selected["r"]) == (6, 2)

    # the m = 5, r = 2 test genuinely fails in the worst case: substituting
    # the binding constraint b = -35a leaves slack -180a + 9, negative as
    # soon as (-K)^5 = 720a exceeds 36
    slack = bounds.lemma2_slack_form(5, 2)
    assert slack.coeff_a - 35 * slack.coeff_b == -180 and slack.const == 9
    res = fm_minimize(geom, slack)
    assert not (res.status == "minimum" and res.value > 0)
    a = Fraction(37, 720)
    assert slack.evaluate(a, -35 * a) == Fraction(-180 * 37, 720) + 9 < 0
    assert (5, 2) in [(x["m"], x["r"]) for x in out3.attempts]
    _passed(3, "worst-case witnesses at m=3,4,6; the m=5, r=2 test fails as it must")


def test_criterion_4_printed_convention_oracle():
    b = bundle.SplitBundle(bundle.EXAMPLE_TWISTS)
    printed = bundle.h0_anti(b, 50, "paper")
    assert printed[0] == 91
    assert printed[3] == 62909
    assert printed[4] == 186030
    for m, value in enumerate(printed, start=1):
        assert value == bundle.paper_closed_form(m)
    source = bundle.oracle_source(b, "paper")
    cert = bounds.solve_oracle(source, dim1_start=bundle.PAPER_DIM1_START)
    assert cert.bound == 15 and cert.r == [3, 4, 5]
    assert verify(cert).ok
    _passed(4, "printed counts 91/62909/186030, closed form to m=50, bound 15")


def test_criterion_5_standard_convention_properties():
    rng = random.Random(20240601)
    for _ in range(30):
        twists = tuple(rng.randint(-2, 3) for _ in range(5))
        k = rng.randint(0, 8)
        got = bundle.sym_power_twists(bundle.SplitBundle(twists), k)[k]
        degrees = [
            sum(x * e for x, e in zip(alpha, twists))
            for alpha in product(range(k + 1), repeat=5)
            if sum(alpha) == k
        ]
        assert got == (len(degrees), sum(degrees))

    b = bundle.SplitBundle(bundle.EXAMPLE_TWISTS)
    values = bundle.h0_anti(b, 10)
    a, bb = fit_ab(PValue(1, values[0]), PValue(2, values[1]))
    for m in range(3, 11):
        assert p_affine(m).evaluate(a, bb) == values[m - 1]
    assert 720 * a == 6250 == bundle.k5_geometric(b)
    _passed(5, "rank and degree equal enumeration; fitted (a,b) reproduces m=3..10; 720a = 6250")


def test_criterion_6_formula_and_engine_invariants():
    zero = form()
    assert p_affine(0) == form((0, 0, 1))
    for m in range(-20, 21):
        assert form(p_affine(m), p_affine(-1 - m)) == zero

    rng = random.Random(20240602)
    systems = [axiom_system(), split_on_p1(axiom_system(), 3)[0], merged_geometry()]
    for cs in systems:
        res = fm_minimize(cs, p_affine(3))
        assert res.status == "minimum"
        count = 0
        while count < 1000:
            point = sample_feasible(cs, rng)
            if point is None:
                continue
            count += 1
            assert p_affine(3).evaluate(*point) >= res.value

    for _ in range(200):
        q = Fraction(rng.randint(-300, 300), rng.randint(1, 48))
        assert strengthen_integral(2, q).bound >= q

    branches = split_on_p1(axiom_system(), 3)
    checked = 0
    while checked < 100:
        c = sample_chern(rng, k5_span=40, kb_span=1200)
        values = [p_affine(m).evaluate(c.a, c.b) for m in range(9)]
        if any(v < 0 for v in values) or values[2] < values[1]:
            continue
        checked += 1
        hits = sum(
            1
            for br in branches
            if all(cc.form.evaluate(c.a, c.b) >= 0 for cc in br.constraints)
        )
        assert hits == 1
    _passed(6, "formula identities, eliminator soundness x1000, rounding, coverage")


def test_criterion_7_cli_determinism(tmp_path, capsys):
    def run(*argv):
        code = 0
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        out = capsys.readouterr()
        return code, out.out

    f1, f2 = tmp_path / "c1.json", tmp_path / "c2.json"
    a1, a2 = tmp_path / "a1.json", tmp_path / "a2.json"
    commands = [
        ("solve", "--worst-case", "--out", str(f1)),
        ("solve", "--k5", "6250", "--k3c2", "2750"),
        ("solve", "--bundle", "0,0,0,0,1", "--convention", "paper"),
        ("table", "--k5", "6250", "--k3c2", "2750", "--max-m", "6"),
        ("table", "--k5", "6250", "--k3c2", "2750", "--max-m", "3", "--format", "json"),
        ("oracle", "--bundle", "0,0,0,0,1", "--m", "5", "--convention", "paper"),
        ("audit", "--out", str(a1)),
        ("verify", str(f1)),
    ]
    first = [run(*argv) for argv in commands]
    bytes1 = (f1.read_bytes(), a1.read_bytes())

    commands[0] = ("solve", "--worst-case", "--out", str(f2))
    commands[6] = ("audit", "--out", str(a2))
    second = [run(*argv) for argv in commands]
    bytes2 = (f2.read_bytes(), a2.read_bytes())

    assert first == second
    assert bytes1 == bytes2
    _passed(7, "every command reproduces byte-identical output on a second run")
