"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import argparse
import itertools
import json
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import edits
import inputs
import reference
import run
import speed
from tracer import Tracer

import fanobound
from fanobound import bounds, cli, derive
from fanobound.hilbert import ChernData


def take(stream, n):
    return list(itertools.islice(stream, n))


def flat(blocks, n):
    return [inp for block in take(blocks, n) for inp in block]


# -- generators ---------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_generators_are_deterministic(workload):
    gen = inputs.GENERATORS[workload]
    assert take(gen(7), 30) == take(gen(7), 30)
    if workload != "worst_case":
        assert take(gen(7), 30) != take(gen(8), 30)


def test_oracle_draws_are_nef_normal_forms_and_one_in_five_printed():
    drawn = flat(inputs.oracle_bundles(3), 20)
    assert sum(s.kind == "paper_example" for s in drawn) == 40
    for s in drawn:
        if s.kind == "bundle":
            assert reference.nef(s.params)
            low = min(s.params)
            assert tuple(sorted(e - low for e in s.params)) in inputs.NORMAL_FORMS
            assert -inputs.SHIFT <= low <= inputs.SHIFT


def test_chern_draws_are_integral_and_non_negative():
    for s in flat(inputs.chern_batch(5), 60):
        k5, k3c2 = s.params
        assert k5 % 2 == 0 and 2 <= k5 <= 20000
        assert reference.admissible(k5, k3c2)
        assert all(reference.p_value(k5, k3c2, m) >= 0 for m in range(40))


# -- references ---------------------------------------------------------------

def test_reference_formula_matches_readme_example():
    assert reference.p_value(6250, 2750, 1) == (6250 + 2750) // 24 + 3
    assert not reference.admissible(6250, 2751)


def test_difference_polynomial_matches_values():
    d = reference._difference_coeffs(100, -172)
    for m in range(-3, 20):
        assert sum(c * m**i for i, c in enumerate(d)) == (
            reference.p720(100, -172, m + 1) - reference.p720(100, -172, m)
        )


def test_reference_rules_give_16_12_and_15():
    assert reference.expected_solve("worst_case", ())["bound"] == 16
    assert reference.concrete_rules(6250, 2750) == {"r0": 3, "r": [1, 3, 5], "bound": 12}
    assert reference.expected_solve("bundle", (0, 0, 0, 0, 1))["bound"] == 12
    assert reference.expected_solve("paper_example", (0, 0, 0, 0, 1))["bound"] == 15


def test_concrete_rules_agree_with_the_package_on_draws():
    for s in flat(inputs.chern_batch(11), 40):
        cert = bounds.solve_concrete(ChernData(*s.params))
        assert reference.concrete_rules(*s.params) == {
            "r0": cert.r0, "r": cert.r, "bound": cert.bound
        }, s.params


@pytest.mark.parametrize("inp", [
    inputs.WORST_CASE_INPUT,
    inputs.chern_input(6250, 2750),
    inputs.PAPER_INPUT,
], ids=["worst_case", "chern", "paper"])
def test_readme_certificates_pass_the_reference(tmp_path, inp):
    res = run.solve_op(cli, inp, tmp_path, random.Random(0))
    assert res.problems == []
    assert set(res.times) == {"solve", "verify", "reject"}


def test_wrong_expected_value_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(reference, "WORST_CASE", {"bound": 17, "r0": 3, "r": [3, 4, 6]})
    args = argparse.Namespace(workload="worst_case", seed=1, seconds=0.3, trace=0)
    report = run.timed_run(cli, args, tmp_path, {"setup_s": 0.1, "wall_s": 0.1, "bare_s": 0.05, "n": 1})
    assert not report["correct"]
    assert report["failed"] == report["attempted"] >= 2
    assert any("bound is 16, expected 17" in p for p in report["problems"])


# -- reference speed ------------------------------------------------------------

def test_timing_probes_a_long_command_and_restores_the_signal():
    handler = signal.getsignal(signal.SIGALRM)
    meter = speed.Speedometer()
    with meter.timing() as timing:
        end = perf_counter() + 0.2
        while perf_counter() < end:
            pass
    assert timing.probes >= 3
    assert 0.1 < timing.seconds < 0.2  # the probes' own time is taken out
    assert timing.ref_seconds > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_reference_seconds_scale_with_the_loop(monkeypatch):
    meter = speed.Speedometer(probe=False)
    monkeypatch.setattr(speed, "sample", lambda repeats=speed.REPEATS: 2 * speed.REF_LOOP_S)
    meter.resample()
    with meter.timing() as timing:
        pass
    assert timing.probes == 0
    assert timing.ref_seconds == pytest.approx(timing.seconds / 2)


# -- edits --------------------------------------------------------------------

@pytest.mark.parametrize("inp", [inputs.WORST_CASE_INPUT, inputs.chern_input(6250, 2750)],
                         ids=["worst_case", "chern"])
def test_edits_change_one_value_and_are_rejected(tmp_path, inp):
    path = tmp_path / "c.json"
    assert run.call(cli, ["solve", *inp.flags, "--out", str(path)]).rc == 0
    raw = path.read_bytes()
    kinds = edits.locations(json.loads(raw))
    assert "table" in kinds and "header" in kinds
    if inp.kind == "worst_case":
        assert "witness" in kinds
    for i in range(12):
        data, kind, where = edits.edit(raw, random.Random(i))
        before, after = json.loads(raw), json.loads(data)
        for key in where[:-1]:
            before, after = before[key], after[key]
        assert type(before[where[-1]]) is type(after[where[-1]])
        assert before[where[-1]] != after[where[-1]]
        (tmp_path / "e.json").write_bytes(data)
        assert run.call(cli, ["verify", str(tmp_path / "e.json")]).rc == 1, (kind, where)


# -- tracer -------------------------------------------------------------------

def test_wrappers_restore_the_originals(tmp_path):
    original_fm = derive.fm_minimize
    tracer = Tracer()
    tracer.install()
    try:
        assert derive.fm_minimize is not original_fm
        assert bounds.fm_minimize is derive.fm_minimize
        assert fanobound.fm_minimize is derive.fm_minimize
        tracer.begin_op(0)
        res = run.solve_op(cli, inputs.chern_input(6250, 2750), tmp_path, random.Random(0), tracer)
        trace = tracer.end_op()
    finally:
        tracer.restore()
    assert res.problems == []
    assert trace.calls("hilbert.p_eval") > 0 and trace.calls("cli.main") == 3
    assert trace.calls("derive.fm_minimize") == 0
    assert derive.fm_minimize is original_fm
    for holder, attr, original in tracer.originals():
        assert getattr(holder, attr) is original


def test_self_time_excludes_wrapped_children(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        run.solve_op(cli, inputs.WORST_CASE_INPUT, tmp_path, random.Random(0), tracer)
        trace = tracer.end_op()
    finally:
        tracer.restore()
    calls, busy, self_s = trace.layers["cli.main"]
    assert calls == 3 and 0 < self_s < busy
    # the layers' self times partition the command's time, less the
    # tracer's own bookkeeping
    assert 0.5 * busy < sum(row[2] for row in trace.layers.values()) <= busy
    assert {s[5] for s in tracer.spans} == {0}


# -- the command --------------------------------------------------------------

def test_fails_without_the_package(tmp_path):
    """A directory with only the benchmark exits non-zero, printing no result."""
    bench = Path(run.__file__).parent
    shutil.copytree(bench, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "results", "work", "__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "worst_case", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
