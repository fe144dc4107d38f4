"""Command-line front end: solve, table, oracle, audit, verify."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from . import bounds, bundle
from .certs import MalformedCertificateError, from_json_bytes, verify
from .hilbert import ChernData, HilbertError, p_eval


# built once per process: a parser holds reference cycles that only the
# cyclic garbage collector frees, so a parser per call lets a long-running
# caller's memory grow between collections
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanobound",
        description=(
            "Certified lower bounds m0 such that the map attached to |-mK| is "
            "birational for all m >= m0, for smooth 5-folds with -K nef and big."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="derive a bound and emit a certificate")
    p_solve.add_argument("--worst-case", action="store_true")
    p_solve.add_argument("--k5", type=int, help="(-K)^5")
    p_solve.add_argument("--k3c2", type=int, help="(-K)^3.c2")
    p_solve.add_argument("--bundle", type=str, help="five twists, e.g. 0,0,0,0,1")
    p_solve.add_argument(
        "--convention", choices=list(bundle.CONVENTIONS), default=bundle.STANDARD
    )
    p_solve.add_argument("--out", type=str, help="write the certificate JSON here")

    p_tab = sub.add_parser("table", help="print the exact values P(0..max-m)")
    p_tab.add_argument("--k5", type=int, required=True)
    p_tab.add_argument("--k3c2", type=int, required=True)
    p_tab.add_argument("--max-m", type=int, required=True)
    p_tab.add_argument("--format", choices=["csv", "json"], default="csv")

    p_oracle = sub.add_parser("oracle", help="query the split-bundle section count")
    p_oracle.add_argument("--bundle", type=str, required=True)
    p_oracle.add_argument("--m", type=int, required=True)
    p_oracle.add_argument(
        "--convention", choices=list(bundle.CONVENTIONS), default=bundle.STANDARD
    )

    p_audit = sub.add_parser("audit", help="replay every published claim")
    p_audit.add_argument("--out", type=str, help="write the audit JSON here")

    p_verify = sub.add_parser("verify", help="independently re-check a certificate")
    p_verify.add_argument("path", type=str)

    return parser


def _cmd_solve(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    sources = [
        bool(args.worst_case),
        args.k5 is not None or args.k3c2 is not None,
        args.bundle is not None,
    ]
    if sum(sources) != 1:
        parser.error("choose exactly one of --worst-case, --k5/--k3c2, --bundle")
    try:
        if args.worst_case:
            cert = bounds.solve_worst_case()
        elif args.bundle is not None:
            b = bundle.SplitBundle.parse(args.bundle)
            dim1_start = bundle.PAPER_DIM1_START if args.convention == bundle.PAPER else 1
            cert = bounds.solve_oracle(
                bundle.oracle_source(b, args.convention), dim1_start=dim1_start
            )
        else:
            if args.k5 is None or args.k3c2 is None:
                parser.error("--k5 and --k3c2 go together")
            cert = bounds.solve_concrete(ChernData(args.k5, args.k3c2))
    except (bounds.CertificationError, HilbertError) as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        parser.error(str(exc))
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(cert.to_json_bytes())
    print(cert.bound)
    return 0


def _cmd_table(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.max_m < 0:
        parser.error("--max-m must be >= 0")
    try:
        chern = ChernData(args.k5, args.k3c2)
        rows = [(m, p_eval(chern, m)) for m in range(args.max_m + 1)]
    except (ValueError, HilbertError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "csv":
        print("m,P(m)")
        for m, v in rows:
            print(f"{m},{v}")
    else:
        print(json.dumps([{"m": m, "P": v} for m, v in rows], sort_keys=True))
    return 0


def _cmd_oracle(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.m < 1:
        parser.error("--m must be >= 1")
    try:
        b = bundle.SplitBundle.parse(args.bundle)
        value = bundle.h0_anti(b, args.m, args.convention)[-1]
    except (ValueError, bundle.UnsupportedConventionError) as exc:
        parser.error(str(exc))
    print(value)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    # the one command that needs the audit loads it; solve and verify do not
    from . import audit

    report = audit.build_audit()
    if args.out:
        payload = json.dumps(report.to_json_list(), sort_keys=True, indent=2) + "\n"
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    counts = report.counts()
    total = len(report.entries)
    print(f"audited {total} claims: " + ", ".join(
        f"{counts.get(s, 0)} {s}" for s in ("confirmed", "stronger", "discrepancy")
    ))
    for e in report.entries:
        if e.status != "confirmed":
            print(f"[{e.status}] {e.location}: {e.engine_result}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.path, "rb") as fh:
            cert = from_json_bytes(fh.read())
    except (OSError, MalformedCertificateError) as exc:
        print(f"malformed certificate: {exc}", file=sys.stderr)
        return 2
    result = verify(cert)
    if result.ok:
        print("valid")
        return 0
    where = f"step {result.step_id}" if result.step_id is not None else "header"
    print(f"invalid at {where}: {result.reason}", file=sys.stderr)
    return 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            code = _cmd_solve(parser, args)
        elif args.command == "table":
            code = _cmd_table(parser, args)
        elif args.command == "oracle":
            code = _cmd_oracle(parser, args)
        elif args.command == "audit":
            code = _cmd_audit(args)
        elif args.command == "verify":
            code = _cmd_verify(args)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command!r}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (e.g. `| head -1`); files written
        # with --out are complete.  Point stdout at devnull so the flush at
        # exit cannot fail again, and exit nonzero without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
