"""Benchmark of the fanobound command line: solve, verify and audit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from src/.  One
process and one thread: the inputs are generated from the seed, every
README command is called in-process through fanobound.cli.main, and every
outcome is checked against perfbench/reference.py, which does not use the
package.  Child interpreters are started only to time the import of
fanobound.cli (setup_s).

Workloads.  On worst_case, oracle_bundles and chern_batch one operation is:
solve one input and write its certificate, verify it, and verify a seeded
edited copy that must be rejected.  On audit one operation is
`audit --out`.  Operations run back to back (a closed loop, one client)
until --seconds have passed.

--trace 0 prints the end-to-end metrics, measured with tracing off:
  setup_s        median wall time of a child interpreter importing
                 fanobound.cli, the start-up every CLI command pays;
  produce_per_s  runs per second of the command that writes the
                 workload's file (solve --out, or audit --out), closed
                 loop, one client;
  results_per_s  certificates solved and verified per second of solve
                 plus verify time, or audits per second of audit time;
                 the rejection is left out, as its cost depends on where
                 the drawn edit sits;
  peak_rss_mb    ru_maxrss of this process, which ran only this workload.
These apply to every workload.  The three times are at reference speed
(speed.py): each command's wall time is scaled by the speed of a fixed
loop timed around and during it, because the shared hosts this runs on
change speed by up to a factor of two within seconds.  The rates as
measured are printed above the result line and kept in the record.  They
are rates, not medians, because the oracle workload mixes inputs whose
solves take from 0.02 s to 1.4 s, and the median of such a mix falls
between its groups and jumps from run to run.  The per-command table (solve, verify and reject medians, p90 where
ten samples lie beyond it, certs_per_s, audit_s, fail_ratio) is printed
above them for the workloads it applies to.
--trace 1 runs every input twice, untraced and then traced, and prints the
per-layer metrics: per operation medians of the calls, busy and self time
of the wrapped functions (see tracer.py), and the overhead of tracing.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines above it name every metric with
its unit.  The full record, with the Python version, nproc, the commit and
the seed, is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import warnings
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import edits
import inputs
import reference
from speed import Speedometer
from tracer import ORACLE_H0, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "work"

WORKLOADS = ("worst_case", "oracle_bundles", "chern_batch", "audit")
SETUP_REPEATS = 15
MIN_BEYOND = 10  # samples a percentile needs beyond it

# the files whose bytes later refactors must keep, with their README inputs
README_ARTIFACTS = {
    "worst_case": {"solve_worst_case.json": inputs.WORST_CASE_INPUT},
    "chern_batch": {"solve_k5_6250_k3c2_2750.json": inputs.chern_input(6250, 2750)},
    "oracle_bundles": {
        "solve_bundle_00001_standard.json": inputs.bundle_input(inputs.PAPER_EXAMPLE),
        "solve_bundle_00001_paper.json": inputs.PAPER_INPUT,
    },
    "audit": {"audit.json": None},
}

END_TO_END = {
    "setup_s": "s",
    "produce_per_s": "1/s",
    "results_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# calls counted per command on the README inputs of a traced run
SEED_COUNTED = ("derive.fm_minimize", "bundle.h0_anti", ORACLE_H0, "hilbert.p_eval")

# wrapped functions that must record calls on a workload (the layer table's
# "should move" column); zero calls means a wrapper no longer sees its layer
SHOULD_MOVE = {
    "worst_case": (
        "derive.fm_minimize", "derive.monotone_from", "derive.constraint_form",
        "bounds.minimal_r", "exact.poly_shift", "exact.affine_evaluate",
        "certs.to_json_bytes", "certs.verify",
    ),
    "oracle_bundles": (
        "bundle.sym_power_twists", "bundle.h0_anti", ORACLE_H0,
        "bounds.certify_r0", "certs.verify",
    ),
    "chern_batch": (
        "bounds.certify_r0", "hilbert.p_eval", "exact.poly_shift",
        "exact.affine_evaluate", "certs.to_json_bytes", "certs.from_json_bytes",
        "certs.verify", "cli.main",
    ),
    "audit": ("derive.fm_minimize", "bundle.sym_power_twists", "audit.build_audit"),
}


# ---------------------------------------------------------------------------
# Calling the CLI
# ---------------------------------------------------------------------------

@dataclass
class Call:
    rc: int
    out: str
    err: str
    seconds: float
    ref_seconds: float  # seconds at reference speed (speed.py)


def call(cli, argv: list[str], tracer=None, command: str = "",
         meter: Optional[Speedometer] = None) -> Call:
    """cli.main(argv) with its output captured and its wall time measured;
    with a meter, also brought to reference speed."""
    if tracer is not None:
        tracer.command = command
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if meter is None:
            start = perf_counter()
            rc = _main(cli, argv)
            seconds = ref_seconds = perf_counter() - start
        else:
            with meter.timing() as timing:
                rc = _main(cli, argv)
            seconds, ref_seconds = timing.seconds, timing.ref_seconds
    return Call(rc, out.getvalue(), err.getvalue(), seconds, ref_seconds)


def _main(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


@dataclass
class OpResult:
    times: dict[str, float] = field(default_factory=dict)
    ref_times: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    artifact: bytes = b""
    edit: str = ""

    @property
    def seconds(self) -> float:
        return sum(self.times.values())


def solve_op(cli, inp: inputs.SolveInput, tmp: Path, rng: random.Random, tracer=None,
             meter=None) -> OpResult:
    res = OpResult()
    cert, edited = tmp / "cert.json", tmp / "edited.json"
    solve = call(cli, ["solve", *inp.flags, "--out", str(cert)], tracer, "solve", meter)
    res.times["solve"] = solve.seconds
    res.ref_times["solve"] = solve.ref_seconds
    if solve.rc != 0:
        res.problems.append(f"solve exited {solve.rc}: {solve.err.strip()[-200:]}")
        return res
    res.artifact = cert.read_bytes()
    res.problems += reference.check_solve(inp.kind, inp.params, json.loads(res.artifact), solve.out)

    verify = call(cli, ["verify", str(cert)], tracer, "verify", meter)
    res.times["verify"] = verify.seconds
    res.ref_times["verify"] = verify.ref_seconds
    if verify.rc != 0 or verify.out.strip() != "valid":
        res.problems.append(f"verify exited {verify.rc}: {verify.err.strip()[-200:]}")

    data, kind, path = edits.edit(res.artifact, rng)
    res.edit = f"{kind} {'/'.join(map(str, path))}"
    edited.write_bytes(data)
    reject = call(cli, ["verify", str(edited)], tracer, "reject", meter)
    res.times["reject"] = reject.seconds
    res.ref_times["reject"] = reject.ref_seconds
    if reject.rc != 1:
        res.problems.append(f"{kind} edit at {path} not rejected: exit {reject.rc}")
    return res


def audit_op(cli, tmp: Path, tracer=None, meter=None) -> OpResult:
    res = OpResult()
    out = tmp / "audit.json"
    audit = call(cli, ["audit", "--out", str(out)], tracer, "audit", meter)
    res.times["audit"] = audit.seconds
    res.ref_times["audit"] = audit.ref_seconds
    if audit.rc != 0:
        res.problems.append(f"audit exited {audit.rc}: {audit.err.strip()[-200:]}")
        return res
    res.artifact = out.read_bytes()
    res.problems += reference.check_audit(json.loads(res.artifact), audit.out)
    return res


def run_op(cli, workload: str, inp, tmp: Path, rng_seed: str, tracer=None,
           meter=None) -> OpResult:
    """One operation; an exception from the package fails it, not the run."""
    try:
        if workload == "audit":
            return audit_op(cli, tmp, tracer, meter)
        return solve_op(cli, inp, tmp, random.Random(rng_seed), tracer, meter)
    except Exception as exc:  # noqa: BLE001 - any crash is a failed operation
        return OpResult(problems=[f"raised {exc!r}"])


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

def measure_setup(repeats: int = SETUP_REPEATS) -> dict:
    """Median wall time of fresh interpreters importing fanobound.cli, at
    reference speed and as measured, and of bare ones (for comparison)."""
    env = {k: v for k, v in os.environ.items() if k != "FANOBOUND_MCERT"}
    env["PYTHONPATH"] = str(SRC)
    meter = Speedometer(probe=False)  # a probe would run beside the child

    def child(code: str) -> tuple[float, float]:
        with meter.timing() as timing:
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        return timing.seconds, timing.ref_seconds

    imports = [child("import fanobound.cli") for _ in range(repeats)]
    bare = [child("pass")[0] for _ in range(3)]
    return {
        "setup_s": statistics.median(ref for _, ref in imports),
        "wall_s": statistics.median(wall for wall, _ in imports),
        "bare_s": statistics.median(bare),
        "n": repeats,
    }


def percentile(values: list[float], q: int) -> Optional[float]:
    """The q-th percentile, or None without MIN_BEYOND samples beyond it."""
    if len(values) * (100 - q) / 100 < MIN_BEYOND:
        return None
    return statistics.quantiles(values, n=100)[q - 1]


def named_metrics(workload: str, samples: dict[str, list[float]], setup: dict, rss_mb: float,
                  attempted: int, failed: int) -> list[tuple[str, float, str, int]]:
    """The issue's metric table, for the workloads each metric applies to:
    (name, value, unit, sample count)."""
    rows = [("setup_s", setup["setup_s"], "s", setup["n"])]
    if workload == "audit":
        rows.append(("audit_s", statistics.median(samples["audit"]), "s", len(samples["audit"])))
    elif samples["solve"]:
        for cmd in ("solve", "verify"):
            rows.append((f"{cmd}_p50_s", statistics.median(samples[cmd]), "s", len(samples[cmd])))
            p90 = percentile(samples[cmd], 90)
            if p90 is not None:
                rows.append((f"{cmd}_p90_s", p90, "s", len(samples[cmd])))
        rows.append(("reject_p50_s", statistics.median(samples["reject"]), "s", len(samples["reject"])))
        busy = sum(samples["solve"]) + sum(samples["verify"])
        rows.append(("certs_per_s", len(samples["verify"]) / busy, "1/s", len(samples["verify"])))
    rows.append(("peak_rss_mb", rss_mb, "MB", 1))
    rows.append(("fail_ratio", failed / attempted, "1", attempted))
    return rows


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced run
# ---------------------------------------------------------------------------

PER_LAYER = {
    "derive.fm_minimize.calls": "count",
    "derive.fm_minimize.self_s": "s",
    "derive.fm_minimize.rows_in": "count",
    "derive.fm_minimize.distinct_ratio": "1",
    "derive.monotone_from.self_s": "s",
    "derive.constraint_form.calls": "count",
    "bounds.minimal_r.calls": "count",
    "bounds.minimal_r.self_s": "s",
    "bounds.minimal_r.attempts": "count",
    "bounds.certify_r0.calls": "count",
    "hilbert.p_eval.calls": "count",
    "hilbert.p_eval.self_s": "s",
    "exact.poly_shift.calls": "count",
    "exact.poly_shift.self_s": "s",
    "exact.affine_evaluate.calls": "count",
    "bundle.sym_power_twists.calls": "count",
    "bundle.sym_power_twists.self_s": "s",
    "bundle.sym_power_twists.terms": "count",
    "bundle.h0_anti.calls": "count",
    "bundle.oracle.requests": "count",
    "bundle.oracle.hit_ratio": "1",
    "certs.to_json_bytes.self_s": "s",
    "certs.cert_bytes": "bytes",
    "certs.from_json_bytes.self_s": "s",
    "certs.verify.self_s": "s",
    "certs.verify.recount_s": "s",
    "cli.self_s": "s",
    "audit.build_audit.self_s": "s",
    "audit.solves": "count",
    **{f"{m}.self_s": "s" for m in ("derive", "bounds", "hilbert", "exact", "bundle", "certs", "audit")},
    "trace.op_s": "s",
    "trace.overhead_ratio": "1",
}


MODULE_TOTALS = ("derive", "bounds", "hilbert", "exact", "bundle", "certs", "audit")
COUNTERS = ("bounds.minimal_r.attempts", "bundle.sym_power_twists.terms", "certs.cert_bytes",
            "certs.verify.recount_s", "audit.solves")


def layer_values(t, op_seconds: float) -> dict[str, float]:
    """The per-layer metrics of one traced operation, overhead aside."""
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    v: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            v[name] = t.calls(layer)
        elif stat == "self_s":
            v[name] = t.self_s(layer)
    for module in MODULE_TOTALS:
        v[f"{module}.self_s"] = sum((row[2] for n, row in t.layers.items() if n.startswith(module + ".")), 0.0)
    v["cli.self_s"] = t.self_s("cli.main")
    for key in COUNTERS:
        v[key] = t.counters[key]
    fm_calls = t.calls("derive.fm_minimize")
    v["derive.fm_minimize.rows_in"] = ratio(t.counters["derive.fm_minimize.rows_in"], fm_calls)
    v["derive.fm_minimize.distinct_ratio"] = ratio(len(t.fm_keys), fm_calls)
    requests = t.calls(ORACLE_H0)
    v["bundle.oracle.requests"] = requests
    v["bundle.oracle.hit_ratio"] = 1.0 - ratio(t.counters["bundle.oracle.misses"], requests) if requests else 0.0
    v["trace.op_s"] = op_seconds
    return v


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def commit_id() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    src_files = sorted((SRC / "fanobound").glob("*.py"))
    digest = hashlib.sha256()
    for path in src_files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": commit_id(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def readme_artifacts(cli, workload: str, tmp: Path, tracer=None) -> tuple[dict, list[str], int, dict]:
    """Run the workload's README inputs once, which also warms the caches,
    and hash their output files.  A changed hash is reported, not failed:
    returns the hashes, the problems, the failed count and the traces."""
    expected = json.loads((BENCH / "hashes.json").read_text())
    hashes, problems, failed, traces = {}, [], 0, {}
    for name, inp in README_ARTIFACTS[workload].items():
        if tracer is not None:
            tracer.install()
            tracer.begin_op(-1)
        try:
            res = run_op(cli, workload, inp, tmp, f"readme:{name}", tracer)
        finally:
            if tracer is not None:
                tracer.restore()
                traces[name] = tracer.end_op()
        problems += [f"{name}: {p}" for p in res.problems]
        failed += bool(res.problems)
        digest = hashlib.sha256(res.artifact).hexdigest()
        status = "same" if digest == expected.get(name) else "changed"
        hashes[name] = {"sha256": digest, "status": status}
    return hashes, problems, failed, traces


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fanobound" / "cli.py").is_file():
        print(f"perfbench: no package at {SRC / 'fanobound'}; run from a checkout", file=sys.stderr)
        return 2

    os.environ.pop("FANOBOUND_MCERT", None)  # the default horizon of 64
    setup = None if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("error")  # no drawn input raises a warning
    from fanobound import cli

    env = environment(args)
    RESULTS.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            report = traced_run(cli, args, tmp)
        else:
            report = timed_run(cli, args, tmp, setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for name, h in report["hashes"].items():
        print(f"hash {name} {h['sha256']} {h['status']}")
    for problem in report["problems"][:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"env {json.dumps(env, sort_keys=True)}")
    record = {"env": env, "setup": setup, **report}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }, sort_keys=True))
    return 0


def operations(workload: str, seed: int, seconds: float):
    """(index, input) pairs until the time is up, stopping between blocks;
    the audit workload has no input."""
    blocks = itertools.repeat([None]) if workload == "audit" else inputs.GENERATORS[workload](seed)
    index = itertools.count()
    start = perf_counter()
    for block in blocks:
        if perf_counter() - start >= seconds:
            return
        for inp in block:
            yield next(index), inp


def timed_run(cli, args, tmp: Path, setup: dict) -> dict:
    hashes, problems, failed, _ = readme_artifacts(cli, args.workload, tmp)
    attempted = len(README_ARTIFACTS[args.workload])
    samples: dict[str, list[float]] = defaultdict(list)
    ref_samples: dict[str, list[float]] = defaultdict(list)
    op_log: list[dict] = []
    meter = Speedometer()
    start = perf_counter()
    for i, inp in operations(args.workload, args.seed, args.seconds):
        res = run_op(cli, args.workload, inp, tmp, f"edit:{args.workload}:{args.seed}:{i}", meter=meter)
        attempted += 1
        if res.problems:
            failed += 1
            problems += [f"op {i} {inp.flags if inp else 'audit'}: {p}" for p in res.problems]
            meter.resample()
            continue
        op_log.append({"op": i, "flags": list(inp.flags) if inp else ["audit"], "edit": res.edit,
                       "times": res.times, "ref_times": res.ref_times})
        for cmd, seconds in res.times.items():
            samples[cmd].append(seconds)
            ref_samples[cmd].append(res.ref_times[cmd])
    if not op_log:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {},
                "hashes": hashes, "problems": problems}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    def rates(by_cmd: dict[str, list[float]]) -> tuple[float, float]:
        produce = by_cmd["audit"] if args.workload == "audit" else by_cmd["solve"]
        results = sum(sum(by_cmd[c]) for c in ("solve", "verify", "audit"))
        return len(produce) / sum(produce), len(op_log) / results

    produce_per_s, results_per_s = rates(ref_samples)
    metrics = {
        "setup_s": setup["setup_s"],
        "produce_per_s": produce_per_s,
        "results_per_s": results_per_s,
        "peak_rss_mb": rss_mb,
    }
    wall_produce, wall_results = rates(samples)
    print(f"perfbench {args.workload} seed {args.seed}: {len(op_log)} operations in "
          f"{perf_counter() - start:.1f} s, closed loop, one client")
    print(f"setup: fanobound.cli import {setup['wall_s']:.4f} s, bare interpreter "
          f"{setup['bare_s']:.4f} s (medians of {setup['n']} and 3 children, as measured)")
    print(f"as measured, not at reference speed: produce_per_s {wall_produce:.6g} 1/s, "
          f"results_per_s {wall_results:.6g} 1/s")
    named = named_metrics(args.workload, samples, setup, rss_mb, attempted, failed)
    for name, value, unit, n in named:
        print(f"metric {name} {value:.6g} {unit} (n={n})")
    for name, value in metrics.items():
        print(f"gated {name} {value:.6g} {END_TO_END[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "named": {n: {"value": v, "unit": u, "n": c} for n, v, u, c in named},
        "as_measured": {"produce_per_s": wall_produce, "results_per_s": wall_results,
                        "setup_s": setup["wall_s"]},
        "ops": op_log,
        "hashes": hashes,
        "problems": problems,
    }


def traced_run(cli, args, tmp: Path) -> dict:
    tracer = Tracer()
    hashes, problems, failed, readme_traces = readme_artifacts(cli, args.workload, tmp, tracer)
    attempted = len(README_ARTIFACTS[args.workload])
    per_op: list[dict[str, float]] = []
    plain_times, traced_times = [], []
    totals: dict[str, int] = defaultdict(int)
    by_command: dict[tuple[str, str], list[float]] = defaultdict(list)
    for i, inp in operations(args.workload, args.seed, args.seconds):
        rng_seed = f"edit:{args.workload}:{args.seed}:{i}"
        plain = run_op(cli, args.workload, inp, tmp, rng_seed)
        tracer.install()
        tracer.begin_op(i)
        try:
            traced = run_op(cli, args.workload, inp, tmp, rng_seed, tracer)
        finally:
            tracer.restore()
            t = tracer.end_op()
        attempted += 1
        if plain.problems or traced.problems:
            failed += 1
            problems += [f"op {i}: {p}" for p in plain.problems + traced.problems]
            continue
        plain_times.append(plain.seconds)
        traced_times.append(traced.seconds)
        per_op.append(layer_values(t, traced.seconds))
        for name, row in t.layers.items():
            totals[name] += int(row[0])
        for key, row in t.by_command.items():
            by_command[key].append(row[0])

    missing = [n for n in SHOULD_MOVE[args.workload] if totals.get(n, 0) == 0]
    problems += [f"trace self-check: {n} recorded no calls" for n in missing]
    if not per_op:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {},
                "hashes": hashes, "problems": problems}
    metrics = {name: statistics.median(op[name] for op in per_op)
               for name in PER_LAYER if name != "trace.overhead_ratio"}
    metrics["trace.overhead_ratio"] = statistics.median(traced_times) / statistics.median(plain_times)

    spans_path = RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl"
    tracer.write_spans(spans_path)
    print(f"perfbench {args.workload} seed {args.seed}: {len(per_op)} operations traced; "
          f"{len(tracer.spans)} spans in {spans_path.name} ({tracer.dropped_spans} over budget)")
    readme_counts = {}
    for artifact, t in readme_traces.items():
        for (command, name), row in sorted(t.by_command.items()):
            if name in SEED_COUNTED:
                readme_counts[f"{artifact} {command} {name}.calls"] = int(row[0])
                print(f"readme {artifact} {command} {name}.calls {int(row[0])}")
    for name, value in metrics.items():
        print(f"layer {name} {value:.6g} {PER_LAYER[name]}")
    return {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in metrics.items()},
        "readme_counts": readme_counts,
        "command_calls_median": {f"{c} {n}": statistics.median(v) for (c, n), v in sorted(by_command.items())},
        "hashes": hashes,
        "problems": problems,
    }


if __name__ == "__main__":
    sys.exit(main())
