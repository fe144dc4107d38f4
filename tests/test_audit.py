"""Audit report: one entry per published claim, statuses as expected."""

import pytest

from fanobound import bounds, bundle, derive
from fanobound.audit import build_audit

from test_bounds import count_calls


@pytest.fixture(scope="module")
def report():
    return build_audit()


def test_every_claim_has_exactly_one_entry(report):
    locations = [e.location for e in report.entries]
    assert len(locations) == len(set(locations))
    for item in ("i", "ii", "iii", "iv", "v", "vi"):
        assert f"Proposition 1 ({item})" in locations
    for item in ("i", "ii", "iii"):
        assert f"Proposition 2 ({item})" in locations
    assert "Main Theorem" in locations
    assert sum(1 for loc in locations if loc.startswith("Example 1")) >= 9


def test_known_statuses(report):
    by_loc = {e.location: e for e in report.entries}
    assert by_loc["Proposition 1 (v)"].status == "discrepancy"
    assert by_loc["Example 1: symmetric power rank"].status == "discrepancy"
    assert by_loc["Main Theorem"].status == "confirmed"
    assert by_loc["Proposition 2 (iii)"].status == "confirmed"
    # the m = 5, r = 2 refutation is the dimension-3 search's failed attempt
    assert by_loc["Proposition 2 (iii)"].engine_result.endswith(
        "(the search's failed attempt: slack 0 at (a, b) = (1/20, -7/4))"
    )
    assert by_loc["Example 1: r3 test"].status == "stronger"
    counts = report.counts()
    assert counts["discrepancy"] == 2
    assert counts["confirmed"] >= 12


def test_entries_have_substance(report):
    for e in report.entries:
        assert e.paper_claim and e.engine_result
        assert e.status in ("confirmed", "stronger", "discrepancy")


def test_serialization_shape(report):
    payload = report.to_json_list()
    assert all(
        set(entry) == {"location", "paper_claim", "engine_result", "status"}
        for entry in payload
    )


def test_audit_reads_four_certificates(monkeypatch):
    # one worst-case solve and three example solves supply every number;
    # only P(2) on the P(1) = 3 branch minimises beyond the worst-case
    # solve's 28, and the two printed-convention solves share one section
    # count
    minimisations = count_calls(monkeypatch, derive.fm_minimize)
    passes = count_calls(monkeypatch, bundle.h0_anti)
    worst = count_calls(monkeypatch, bounds.solve_worst_case)
    oracle = count_calls(monkeypatch, bounds.solve_oracle)
    build_audit()
    assert len(worst) == 1 and len(oracle) == 3
    assert len(minimisations) <= 29
    assert len(passes) == 2
