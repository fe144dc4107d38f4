"""Replay of every numeric claim in the published derivation.

The audit compares, claim by claim, what the source note states with what
the exact engine derives: the six estimates of the first proposition, the
three dimension statements of the second, the composed main bound, and
each number in the worked example.  Disagreements are reported as data
with status "discrepancy"; places where the engine derives strictly more
than the printed claim get status "stronger".

The report is rebuilt from solve runs on every invocation, so it is
reproducible from the artifact alone.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

from .exact import rat_str
from . import bounds, bundle
from .derive import (
    CONFIRMED,
    DISCREPANCY,
    STRONGER,
    geometry_system,
    merge_branch_facts,
    axiom_system,
    derive_lower_bound,
    split_on_p1,
    fm_minimize,
    prop1_replay,
)


@dataclass(frozen=True)
class AuditEntry:
    location: str
    paper_claim: str
    engine_result: str
    status: str


@dataclass(frozen=True)
class AuditReport:
    entries: tuple[AuditEntry, ...]

    def to_json_list(self) -> list[dict]:
        return [asdict(e) for e in self.entries]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.entries:
            out[e.status] = out.get(e.status, 0) + 1
        return out


def _prop2_entries() -> list[AuditEntry]:
    merged = merge_branch_facts(
        [derive_lower_bound(br.system, 3) for br in split_on_p1(axiom_system(), 3)]
    )
    geom = geometry_system([merged])
    entries = []
    tried: dict = {}

    w1 = bounds.minimal_r(geom, 1)
    entries.append(
        AuditEntry(
            location="Proposition 2 (i)",
            paper_claim="dim of the image at m is >= 1 for any m >= 3",
            engine_result=(
                f"P(3) >= {rat_str(merged.bound)} >= 2 gives a pencil at m = 3; "
                f"minimal worst-case multiple is {w1.m}"
            ),
            status=CONFIRMED if w1.m == 3 else DISCREPANCY,
        )
    )

    w2 = bounds.minimal_r(geom, 2, tried=tried)
    entries.append(
        AuditEntry(
            location="Proposition 2 (ii)",
            paper_claim=(
                "dim >= 2 for any m >= 4, via P(4) >= 180*24a + 9 > 6(-K)^5 + 2"
            ),
            engine_result=(
                f"strict test at m = 4, r = 1: threshold 4(-K)^5 + 1, worst-case "
                f"slack minimum {rat_str(w2.witness.margin)} > 0; the printed "
                "threshold 6(-K)^5 + 2 matches no (m, r) instance of the test"
            ),
            status=CONFIRMED if (w2.m, w2.witness.r_used) == (4, 1) else DISCREPANCY,
        )
    )

    w3 = bounds.minimal_r(geom, 3, tried=tried)
    res5 = fm_minimize(geom, bounds.lemma2_slack_form(5, 2))
    entries.append(
        AuditEntry(
            location="Proposition 2 (iii)",
            paper_claim=(
                "dim >= 3 for any m >= 6, via P(6) >= (13*21/4)(-K)^5 + 13 "
                "> 36(-K)^5 + 3"
            ),
            engine_result=(
                f"strict test at m = 6, r = 2: threshold 36(-K)^5 + 2, worst-case "
                f"slack minimum {rat_str(w3.witness.margin)} > 0; at m = 5, r = 2 the "
                f"slack along b = -35a is -180a + 9, negative once (-K)^5 > 36, so "
                f"the worst case genuinely needs m = 6 (engine search: {res5.status})"
            ),
            status=CONFIRMED if (w3.m, w3.witness.r_used) == (6, 2) else DISCREPANCY,
        )
    )
    return entries


def _main_theorem_entry() -> AuditEntry:
    cert = bounds.solve_worst_case()
    ok = cert.bound == 16 and cert.r0 == 3 and cert.r == [3, 4, 6]
    return AuditEntry(
        location="Main Theorem",
        paper_claim="the map at -mK is birational for every m >= 16",
        engine_result=(
            f"certified bound {cert.bound} with r0 = {cert.r0}, r = {tuple(cert.r)}; "
            "the printed sum writes the subscripts as r0 + r2 + r3 + r4, a typo "
            "for r0 + r1 + r2 + r3, and checks as 16 either way"
        ),
        status=CONFIRMED if ok else DISCREPANCY,
    )


def _example_entries() -> list[AuditEntry]:
    b = bundle.SplitBundle(bundle.EXAMPLE_TWISTS)
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

    printed = bundle.h0_anti(b, 50, bundle.PAPER)
    standard = bundle.h0_anti(b, 5, bundle.STANDARD)
    bad = [
        m for m, value in enumerate(printed, start=1) if value != bundle.paper_closed_form(m)
    ]
    entries.append(
        AuditEntry(
            location="Example 1: closed form identity",
            paper_claim="the summation equals m(5m-1)(5m+1)(5m+2)(10m+3)/24",
            engine_result=(
                "printed summation equals the printed closed form exactly for m = 1..50"
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
    t41 = bounds.lemma2_threshold(4, 1, k5)
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
    t52 = bounds.lemma2_threshold(5, 2, k5)
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

    ex = bundle.example1_bound()
    h1 = printed[0]
    entries.append(
        AuditEntry(
            location="Example 1: multiple selection",
            paper_claim="take r0 = r1 = 3, r2 = 4, r3 = 5",
            engine_result=(
                f"replayed selection r0 = {ex.printed.r0}, r = {tuple(ex.printed.r)}; "
                f"h0(-K) = {h1} >= 2 already gives a pencil at m = 1, so the engine "
                "finds r1 = 1 admissible and the printed r1 = 3 is not minimal"
            ),
            status=STRONGER,
        )
    )

    free = bounds.solve_oracle(bundle.oracle_source(b, bundle.PAPER))
    entries.append(
        AuditEntry(
            location="Example 1: final bound",
            paper_claim="the map is birational for m >= 15",
            engine_result=(
                f"replaying the printed selection certifies bound {ex.printed.bound}; "
                f"the unpinned search certifies the stronger bound {free.bound} "
                f"(r = {tuple(free.r)}); standard convention gives {ex.standard.bound}"
            ),
            status=STRONGER if ex.printed.bound == 15 and free.bound < 15 else (
                CONFIRMED if ex.printed.bound == 15 else DISCREPANCY
            ),
        )
    )
    return entries


def build_audit() -> AuditReport:
    """One entry per published claim: propositions, main bound, example."""
    entries: list[AuditEntry] = []
    for r in prop1_replay():
        engine = r.engine if not r.note else f"{r.engine} ({r.note})"
        entries.append(
            AuditEntry(
                location=r.item,
                paper_claim=r.claim,
                engine_result=engine,
                status=r.status,
            )
        )
    entries.extend(_prop2_entries())
    entries.append(_main_theorem_entry())
    entries.extend(_example_entries())
    return AuditReport(tuple(entries))
