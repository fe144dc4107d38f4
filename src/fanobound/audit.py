"""Replay of every numeric claim in the published derivation.

The audit compares, claim by claim, what the source note states with what
the exact engine derives: the six estimates of the first proposition, the
three dimension statements of the second, the composed main bound, and
each number in the worked example.  Disagreements are reported as data
with status "discrepancy"; places where the engine derives strictly more
than the printed claim get status "stronger".

The numbers are read from four certificates, solved afresh on every
invocation so the report is reproducible from the artifact alone:

  * the worst case: its branch bounds, merge, dimension searches,
    monotone tail and composition answer both propositions and the main
    theorem;
  * the example bundle under the printed convention, once with the
    dimension-1 search pinned as printed and once unpinned (one oracle,
    so one section count between them), and once under the standard
    convention: their value tables and bounds answer the example, and
    the printed closed form is compared on every multiple of the printed
    table (m = 1..32, the search horizon).

One result appears in no certificate and is minimised on its own: P(2)
on the P(1) = 3 branch.  That branch is the worst case's own system,
bounds.worst_case_branches, built once per process and shared with the
solve; the certificates themselves, and every minimisation, are still
solved afresh.  The m = 5, r = 2 test that the worst case fails is the
failed attempt its dimension-3 search already carries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .certs import Certificate
from .hilbert import PValue, fit_ab, lemma2_threshold, p_affine
from . import bounds, bundle
from .derive import Fact, derive_lower_bound, merge_branch_facts, strengthen_integral

CONFIRMED = "confirmed"
STRONGER = "stronger"
DISCREPANCY = "discrepancy"


class AuditEntry(NamedTuple):
    location: str
    paper_claim: str
    engine_result: str
    status: str


class AuditReport(NamedTuple):
    entries: tuple[AuditEntry, ...]

    def to_json_list(self) -> list[dict]:
        return [e._asdict() for e in self.entries]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.entries:
            out[e.status] = out.get(e.status, 0) + 1
        return out


def _steps(cert: Certificate, rule: str) -> list[dict]:
    return [s for s in cert.steps if s["rule"] == rule]


def _lower_bound_status(derived, printed) -> str:
    if derived == printed:
        return CONFIRMED
    return STRONGER if derived > printed else DISCREPANCY


def _branch_facts(cert: Certificate) -> list[Fact]:
    """The fact each branch step of the worst case proves, P(3) >= its
    minimum rounded up by A3, in split order, P(1) = 0 first, as the
    merge lists them."""
    by_id = {s["id"]: s for s in cert.steps}
    merge = _steps(cert, "merge_min")[0]["inputs"]
    return [
        strengthen_integral(merge["m"], Fraction(by_id[sid]["witness"]["raw_min"]))
        for sid in merge["branches"]
    ]


def _prop1_entries(cert: Certificate, facts: list[Fact]) -> list[AuditEntry]:
    entries = []
    for l, printed in ((0, 35), (1, 21), (2, 7)):
        entries.append(
            AuditEntry(
                location=f"Proposition 1 ({'i' * (l + 1)})",
                paper_claim=f"P(1)={l}, P(2)>={l} imply P(3)>={printed}",
                engine_result=facts[l].describe(),
                status=_lower_bound_status(facts[l].bound, printed),
            )
        )

    # the worst case's own P(1) = 3 branch, shared with its solve
    fact_iv = derive_lower_bound(bounds.worst_case_branches()[3], 2)
    entries.append(
        AuditEntry(
            location="Proposition 1 (iv)",
            paper_claim="P(1)=3 implies P(2)>=6",
            engine_result=fact_iv.describe(),
            status=_lower_bound_status(fact_iv.bound, 6),
        )
    )

    a, b = fit_ab(PValue(1, 3), PValue(2, 6))
    p3 = p_affine(3).evaluate(a, b)
    entries.append(
        AuditEntry(
            location="Proposition 1 (v)",
            paper_claim="P(1)=3, P(2)=6 force a=1/60, b=-1/12 and P(3)=49",
            engine_result=(
                f"exact inversion gives a={a}, b={b} and P(3)={p3} (published values "
                "a=1/60, b=-1/12 satisfy P(1)=3 but give P(2)=11, not 6; both value "
                "sets satisfy P(3)>=7, which is all the sequel uses)"
            ),
            status=DISCREPANCY,
        )
    )

    merged = merge_branch_facts(facts).bound
    start = _steps(cert, "monotone_tail")[0]["inputs"]["m_start"]
    entries.append(
        AuditEntry(
            location="Proposition 1 (vi)",
            paper_claim=f"P(m+1) > P(m) for m > 3, and P(3) >= 7 always (merged bound {merged})",
            engine_result=(
                f"P(m+1) > P(m) certified for every m >= {start} (ray tail from "
                f"{start}) (statement says m > 3 while its argument asserts positivity "
                "from m >= 3; the certificate starts at 3 and covers both readings)"
            ),
            status=CONFIRMED if start == 3 else DISCREPANCY,
        )
    )
    return entries


def _prop2_entries(cert: Certificate, facts: list[Fact]) -> list[AuditEntry]:
    merged = merge_branch_facts(facts).bound
    searches = [s["witness"] for s in _steps(cert, "dim_search")]
    w1, w2, w3 = (s["selected"] for s in searches)
    at52 = next(a for a in searches[2]["attempts"] if (a["m"], a["r"]) == (5, 2))
    entries = [
        AuditEntry(
            location="Proposition 2 (i)",
            paper_claim="dim of the image at m is >= 1 for any m >= 3",
            engine_result=(
                f"P(3) >= {merged} >= 2 gives a pencil at m = 3; "
                f"minimal worst-case multiple is {w1['m']}"
            ),
            status=CONFIRMED if w1["m"] == 3 else DISCREPANCY,
        ),
        AuditEntry(
            location="Proposition 2 (ii)",
            paper_claim=(
                "dim >= 2 for any m >= 4, via P(4) >= 180*24a + 9 > 6(-K)^5 + 2"
            ),
            engine_result=(
                f"strict test at m = 4, r = 1: threshold 4(-K)^5 + 1, worst-case "
                f"slack minimum {w2['raw_min']} > 0; the printed "
                "threshold 6(-K)^5 + 2 matches no (m, r) instance of the test"
            ),
            status=CONFIRMED if (w2["m"], w2["r"]) == (4, 1) else DISCREPANCY,
        ),
    ]

    entries.append(
        AuditEntry(
            location="Proposition 2 (iii)",
            paper_claim=(
                "dim >= 3 for any m >= 6, via P(6) >= (13*21/4)(-K)^5 + 13 "
                "> 36(-K)^5 + 3"
            ),
            engine_result=(
                f"strict test at m = 6, r = 2: threshold 36(-K)^5 + 2, worst-case "
                f"slack minimum {w3['raw_min']} > 0; at m = 5, r = 2 the "
                f"slack along b = -35a is -180a + 9, negative once (-K)^5 > 36, so "
                "the worst case genuinely needs m = 6 (the search's failed attempt: "
                f"slack {at52['value']} at (a, b) = ({', '.join(at52['point'])}))"
            ),
            status=CONFIRMED if (w3["m"], w3["r"]) == (6, 2) else DISCREPANCY,
        )
    )
    return entries


def _main_theorem_entry(cert: Certificate) -> AuditEntry:
    r0, rs, bound = cert.r0, cert.r, cert.bound
    ok = bound == 16 and r0 == 3 and rs == [3, 4, 6]
    return AuditEntry(
        location="Main Theorem",
        paper_claim="the map at -mK is birational for every m >= 16",
        engine_result=(
            f"certified bound {bound} with r0 = {r0}, r = {tuple(rs)}; "
            "the printed sum writes the subscripts as r0 + r2 + r3 + r4, a typo "
            "for r0 + r1 + r2 + r3, and checks as 16 either way"
        ),
        status=CONFIRMED if ok else DISCREPANCY,
    )


def _table(cert: Certificate) -> list[int]:
    return _steps(cert, "oracle_values")[0]["witness"]["values"]


def _example_entries() -> list[AuditEntry]:
    b = bundle.SplitBundle(bundle.EXAMPLE_TWISTS)
    paper = bundle.oracle_source(b, bundle.PAPER)
    pinned = bounds.solve_oracle(paper, dim1_start=bundle.PAPER_DIM1_START)
    free = bounds.solve_oracle(paper)
    standard_cert = bounds.solve_oracle(bundle.oracle_source(b, bundle.STANDARD))
    printed = _table(pinned)
    standard = _table(standard_cert)
    entries = []

    lc, hc = bundle.anticanonical_data(b)
    entries.append(
        AuditEntry(
            location="Example 1: anticanonical class",
            paper_claim="K_X = -5L - H",
            engine_result=f"-K = {lc}L + {hc}H",
            status=CONFIRMED if (lc, hc) == (5, 1) else DISCREPANCY,
        )
    )

    k5 = bundle.k5_geometric(b)
    entries.append(
        AuditEntry(
            location="Example 1: top self-intersection",
            paper_claim="(-K)^5 = 2 * 5^5",
            engine_result=f"(-K)^5 = {k5} by L^5 = H.L^4 = 1, H^2 = 0",
            status=CONFIRMED if k5 == 6250 else DISCREPANCY,
        )
    )

    std5 = bundle.sym_power_twists(b, 5, bundle.STANDARD)[5]
    printed5 = bundle.sym_power_twists(b, 5, bundle.PAPER)[5]
    entries.append(
        AuditEntry(
            location="Example 1: symmetric power rank",
            paper_claim="the inner summand has rank (5m-i-1)(5m-i)(5m-i+1)/6",
            engine_result=(
                f"printed rank C(k+1,3) vs standard C(k+3,3); at 5m = 5 the "
                f"multiplicities are {[printed5.get(d, 0) for d in range(6)]} printed vs "
                f"{[std5.get(d, 0) for d in range(6)]} standard; both chains are "
                "reported, authorial intent is not adjudicated"
            ),
            status=DISCREPANCY,
        )
    )

    bad = [
        m for m, value in enumerate(printed, start=1) if value != bundle.paper_closed_form(m)
    ]
    entries.append(
        AuditEntry(
            location="Example 1: closed form identity",
            paper_claim="the summation equals m(5m-1)(5m+1)(5m+2)(10m+3)/24",
            engine_result=(
                f"printed summation equals the printed closed form exactly for m = 1..{len(printed)}"
                if not bad
                else f"identity fails at m = {bad}"
            ),
            status=CONFIRMED if not bad else DISCREPANCY,
        )
    )

    for m, printed_value in ((1, 91), (4, 62909), (5, 186030)):
        got = printed[m - 1]
        std = standard[m - 1]
        entries.append(
            AuditEntry(
                location=f"Example 1: h0(-{m}K)" if m > 1 else "Example 1: h0(-K)",
                paper_claim=f"h0 = {printed_value}",
                engine_result=(
                    f"printed convention gives {got}; standard convention gives {std}"
                ),
                status=CONFIRMED if got == printed_value else DISCREPANCY,
            )
        )

    h4 = printed[3]
    t41 = lemma2_threshold(4, 1, k5)
    entries.append(
        AuditEntry(
            location="Example 1: r2 test",
            paper_claim="62909 > 10(-K)^5 + 2, so r2 = 4",
            engine_result=(
                f"strict test at m = 4, r = 1: {h4} > {t41}, margin {h4 - t41}; the "
                "printed threshold 10(-K)^5 + 2 = 62502 also holds but instantiates "
                "no (m, r) of the test, so the engine's check is the stronger fact"
            ),
            status=STRONGER if h4 > t41 else DISCREPANCY,
        )
    )

    h5 = printed[4]
    t52 = lemma2_threshold(5, 2, k5)
    entries.append(
        AuditEntry(
            location="Example 1: r3 test",
            paper_claim="186030 > 5^2 (-K)^5 + 3, so r3 = 5",
            engine_result=(
                f"strict test at m = 5, r = 2: {h5} > {t52}, margin {h5 - t52}; the "
                "printed additive constant is +3 where the test says +2, an "
                "off-by-one the engine's instantiation strengthens away"
            ),
            status=STRONGER if h5 > t52 else DISCREPANCY,
        )
    )

    entries.append(
        AuditEntry(
            location="Example 1: multiple selection",
            paper_claim="take r0 = r1 = 3, r2 = 4, r3 = 5",
            engine_result=(
                f"replayed selection r0 = {pinned.r0}, r = {tuple(pinned.r)}; "
                f"h0(-K) = {printed[0]} >= 2 already gives a pencil at m = 1, so the "
                "engine finds r1 = 1 admissible and the printed r1 = 3 is not minimal"
            ),
            status=STRONGER,
        )
    )

    entries.append(
        AuditEntry(
            location="Example 1: final bound",
            paper_claim="the map is birational for m >= 15",
            engine_result=(
                f"replaying the printed selection certifies bound {pinned.bound}; "
                f"the unpinned search certifies the stronger bound {free.bound} "
                f"(r = {tuple(free.r)}); standard convention gives {standard_cert.bound}"
            ),
            status=STRONGER if pinned.bound == 15 and free.bound < 15 else (
                CONFIRMED if pinned.bound == 15 else DISCREPANCY
            ),
        )
    )
    return entries


def build_audit() -> AuditReport:
    """One entry per published claim: propositions, main bound, example."""
    worst = bounds.solve_worst_case()
    facts = _branch_facts(worst)
    entries = _prop1_entries(worst, facts) + _prop2_entries(worst, facts)
    entries.append(_main_theorem_entry(worst))
    entries.extend(_example_entries())
    return AuditReport(tuple(entries))
