"""Command-line behavior: flag validation, outputs, exit codes,
reproducibility."""

import hashlib
import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fanobound
from fanobound import bundle
from fanobound.cli import main

from test_golden import GOLDEN


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_worst_case_prints_16(self, capsys, tmp_path):
        out_file = tmp_path / "cert.json"
        code, out, _ = run_cli(capsys, "solve", "--worst-case", "--out", str(out_file))
        assert code == 0 and out == "16\n"
        doc = json.loads(out_file.read_text())
        assert doc["bound"] == 16 and doc["r"] == [3, 4, 6] and doc["r0"] == 3

    def test_bundle_paper_prints_15(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--bundle", "0,0,0,0,1", "--convention", "paper"
        )
        assert code == 0 and out == "15\n"

    def test_bundle_standard_prints_12(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--bundle", "0,0,0,0,1")
        assert code == 0 and out == "12\n"

    def test_concrete_prints_12(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--k5", "6250", "--k3c2", "2750")
        assert code == 0 and out == "12\n"

    def test_conflicting_sources_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--worst-case", "--k5", "6250")
        assert code == 2

    def test_no_source_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "solve")
        assert code == 2

    def test_half_chern_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--k5", "6250")
        assert code == 2

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        # exit 1 would read as a failed certification
        path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "solve", "--k5", "6250", "--k3c2", "2750", "--out", str(path))
        assert code == 2 and out == ""
        assert err == f"cannot write {path}: No such file or directory\n"

    # 4,298 and 4,297 digits: the solve succeeds, but its table values pass
    # the interpreter's 4,300-digit limit on int-to-str conversion
    OVERSIZED = ("--k5", str(720 * 10**4295), "--k3c2", str(720 * 10**4294))

    def test_unwritable_certificate_prints_no_bound(self, capsys):
        code, out, err = run_cli(capsys, "solve", *self.OVERSIZED)
        assert code == 2 and out == ""
        assert err.startswith("certificate cannot be written: ")

    def test_unwritable_certificate_writes_no_file(self, capsys, tmp_path):
        out_file = tmp_path / "cert.json"
        code, out, err = run_cli(capsys, "solve", *self.OVERSIZED, "--out", str(out_file))
        assert code == 2 and out == ""
        assert err.startswith("certificate cannot be written: ")
        assert not out_file.exists()

    def test_bad_chern_exits_1(self, capsys):
        # integrality of P fails: not a genuine 5-fold of this class
        code, _, err = run_cli(capsys, "solve", "--k5", "6251", "--k3c2", "2750")
        assert code == 1 and "certification failed" in err

    def test_non_nef_bundle_exits_1(self, capsys, tmp_path):
        # -K = 5L + 3H, and 5*min(e) + 2 - sum(e) = -2 < 0
        out_file = tmp_path / "cert.json"
        code, out, err = run_cli(capsys, "solve", "--bundle=-1,0,0,0,0", "--out", str(out_file))
        assert code == 1 and out == "" and "not nef" in err
        assert not out_file.exists()

    def test_bundle_solve_and_verify_count_once_each(self, capsys, monkeypatch, tmp_path):
        calls = []
        real = bundle.h0_anti

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(bundle, "h0_anti", counting)
        cert_file = tmp_path / "cert.json"
        code, out, _ = run_cli(capsys, "solve", "--bundle", "0,0,0,0,1", "--out", str(cert_file))
        assert code == 0 and out == "12\n"
        assert len(calls) == 1
        calls.clear()
        code, out, _ = run_cli(capsys, "verify", str(cert_file))
        assert code == 0 and out == "valid\n"
        assert len(calls) == 1


class TestTable:
    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--k5", "6250", "--k3c2", "2750", "--max-m", "2"
        )
        assert code == 0
        assert out == "m,P(m)\n0,1\n1,378\n2,5005\n"

    def test_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--k5", "720", "--k3c2", "144", "--max-m", "0"
        )
        assert code == 0 and out == "m,P(m)\n0,1\n"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--k5", "6250", "--k3c2", "2750", "--max-m", "1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == [{"P": 1, "m": 0}, {"P": 378, "m": 1}]

    def test_printed_h0_coincidence_at_m1(self, capsys):
        # (6250, -4138) hits the printed h0(-K) = 91 at m = 1; the table
        # evaluates exactly and leaves cross-checking to the audit
        code, out, _ = run_cli(
            capsys, "table", "--k5", "6250", "--k3c2", "-4138", "--max-m", "1"
        )
        assert code == 0 and out.splitlines()[-1] == "1,91"

    def test_negative_max_m_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "table", "--k5", "6250", "--k3c2", "2750", "--max-m", "-1"
        )
        assert code == 2

    def test_inconsistent_chern_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--k5", "6251", "--k3c2", "2750", "--max-m", "2"
        )
        assert code == 1 and "integer" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_values_past_the_digit_limit_print_nothing(self, capsys, fmt):
        # the first rows fit the 4,300-digit limit on int-to-str conversion
        # and later ones do not; no row is printed before the whole output
        # is formatted
        code, out, err = run_cli(
            capsys, "table", *TestSolve.OVERSIZED, "--max-m", "32", "--format", fmt
        )
        assert code == 1 and out == ""
        assert err.startswith("error: Exceeds the limit (4300 digits)")


class TestOracle:
    def test_printed_convention(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "oracle", "--bundle", "0,0,0,0,1", "--m", "4", "--convention", "paper",
        )
        assert code == 0 and out == "62909\n"

    def test_standard_default(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--bundle", "0,0,0,0,1", "--m", "1")
        assert code == 0 and out == "378\n"

    def test_trivial_bundle(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--bundle", "0,0,0,0,0", "--m", "1")
        assert code == 0 and out == "378\n"

    def test_non_nef_bundle_exit_2(self, capsys):
        # -K = 5L + 3H misses nef by 5 min(e) + 2 - sum(e) = -7: refused,
        # as solve and verify refuse it
        code, out, err = run_cli(capsys, "oracle", "--bundle=-2,0,0,0,0", "--m", "3")
        assert code == 2 and out == ""
        assert "-K is not nef on the bundle with twists (-2, 0, 0, 0, 0)" in err

    def test_m_zero_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "oracle", "--bundle", "0,0,0,0,1", "--m", "0")
        assert code == 2

    @pytest.mark.parametrize("m", [40000, 29000])
    def test_far_multiple_equals_the_table_quickly(self, capsys, m):
        # S^(5m) has a rank past 2**64 at m = 40000; h0 reads its rank and
        # degree, not its summands
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "oracle", "--bundle=0,0,0,0,1", "--m", str(m))
        assert time.perf_counter() - start < 2
        assert (code, err) == (0, "")
        code, table, _ = run_cli(
            capsys, "table", "--k5", "6250", "--k3c2", "2750", "--max-m", str(m)
        )
        assert code == 0 and table.splitlines()[-1] == f"{m},{out.strip()}"

    def test_unsupported_convention_shape_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "oracle", "--bundle", "1,1,0,0,0", "--m", "1", "--convention", "paper",
        )
        assert code == 2


class TestAudit:
    def test_exit_zero_with_discrepancies(self, capsys, tmp_path):
        out_file = tmp_path / "audit.json"
        code, out, _ = run_cli(capsys, "audit", "--out", str(out_file))
        assert code == 0
        assert "discrepancy" in out
        entries = json.loads(out_file.read_text())
        assert {e["location"] for e in entries} >= {
            "Proposition 1 (i)",
            "Proposition 1 (v)",
            "Main Theorem",
            "Example 1: final bound",
        }
        for e in entries:
            assert set(e) == {"location", "paper_claim", "engine_result", "status"}
            assert e["status"] in ("confirmed", "stronger", "discrepancy")


    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "audit", "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err == f"cannot write {tmp_path}: Is a directory\n"


class TestOutFile:
    """--out overwrites an existing file in place and cuts it to length."""

    WORST_CASE = ("solve", "--worst-case")
    CONCRETE = ("solve", "--k5", "6250", "--k3c2", "2750")

    @staticmethod
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_shorter_certificate_leaves_no_old_tail(self, capsys, tmp_path):
        out_file = tmp_path / "cert.json"
        assert run_cli(capsys, *self.WORST_CASE, "--out", str(out_file))[:2] == (0, "16\n")
        assert out_file.stat().st_size == 12789
        inode = out_file.stat().st_ino
        assert run_cli(capsys, *self.CONCRETE, "--out", str(out_file))[:2] == (0, "12\n")
        assert out_file.stat().st_size == 3491 and out_file.stat().st_ino == inode
        assert self.digest(out_file) == GOLDEN["solve_k5_6250_k3c2_2750.json"][1]

    def test_audit_over_a_longer_file(self, capsys, tmp_path):
        out_file = tmp_path / "audit.json"
        run_cli(capsys, *self.WORST_CASE, "--out", str(out_file))
        code, _, _ = run_cli(capsys, "audit", "--out", str(out_file))
        assert code == 0
        assert self.digest(out_file) == GOLDEN["audit.json"][1]

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks")
    def test_symlink_is_written_through(self, capsys, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_bytes(b"x" * 20000)
        link.symlink_to(target)
        assert run_cli(capsys, *self.CONCRETE, "--out", str(link))[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert self.digest(target) == GOLDEN["solve_k5_6250_k3c2_2750.json"][1]

    def test_existing_file_keeps_its_mode(self, capsys, tmp_path):
        out_file = tmp_path / "cert.json"
        out_file.write_bytes(b"x" * 20000)
        out_file.chmod(0o600)
        assert run_cli(capsys, *self.CONCRETE, "--out", str(out_file))[0] == 0
        assert stat.S_IMODE(out_file.stat().st_mode) == 0o600
        assert self.digest(out_file) == GOLDEN["solve_k5_6250_k3c2_2750.json"][1]

    def test_new_file_mode_follows_the_umask(self, capsys, tmp_path):
        out_file = tmp_path / "cert.json"
        old = os.umask(0o027)
        try:
            code, _, _ = run_cli(capsys, *self.CONCRETE, "--out", str(out_file))
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(out_file.stat().st_mode) == 0o666 & ~0o027

    def test_devnull_is_not_cut(self, capsys):
        # a character device has no length; ftruncate would fail on it
        assert run_cli(capsys, *self.WORST_CASE, "--out", os.devnull) == (0, "16\n", "")


class TestClosedStdout:
    def test_audit_into_a_closed_pipe(self, tmp_path):
        # `fanobound audit --out a.json | head -1` with the reader gone
        # before the first line: exit 1, no traceback, the file complete
        out_file = tmp_path / "audit.json"
        env = {**os.environ, "PYTHONPATH": str(Path(fanobound.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "fanobound.cli", "audit", "--out", str(out_file)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert err == b""
        assert len(json.loads(out_file.read_text())) == 21


class TestVerify:
    def test_round_trip(self, capsys, tmp_path):
        cert_file = tmp_path / "cert.json"
        run_cli(capsys, "solve", "--worst-case", "--out", str(cert_file))
        code, out, _ = run_cli(capsys, "verify", str(cert_file))
        assert code == 0 and out == "valid\n"

    def test_round_trip_every_solve_mode(self, capsys, tmp_path):
        modes = [
            ("--k5", "6250", "--k3c2", "2750"),
            ("--bundle", "0,0,0,0,1", "--convention", "paper"),
            ("--bundle", "0,0,0,0,2"),
        ]
        for i, flags in enumerate(modes):
            cert_file = tmp_path / f"cert{i}.json"
            code, _, _ = run_cli(capsys, "solve", *flags, "--out", str(cert_file))
            assert code == 0
            code, out, _ = run_cli(capsys, "verify", str(cert_file))
            assert code == 0 and out == "valid\n"

    def test_tampered_bound_exit_1(self, capsys, tmp_path):
        cert_file = tmp_path / "cert.json"
        run_cli(capsys, "solve", "--worst-case", "--out", str(cert_file))
        doc = json.loads(cert_file.read_text())
        doc["bound"] = 15
        cert_file.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", str(cert_file))
        assert code == 1 and "invalid at step" in err

    def test_bool_model_coefficient_exit_1(self, capsys, tmp_path):
        # JSON true is not the rational 1, though Python's bool is an int
        cert_file = tmp_path / "cert.json"
        run_cli(capsys, "solve", "--bundle", "0,0,0,0,1", "--out", str(cert_file))
        doc = json.loads(cert_file.read_text())
        (model,) = [s for s in doc["steps"] if s["rule"] == "oracle_model"]
        assert model["witness"]["coeffs"][0] == "1"
        model["witness"]["coeffs"][0] = True
        cert_file.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", str(cert_file))
        assert code == 1 and "invalid at step" in err

    def test_truncated_exit_2(self, capsys, tmp_path):
        cert_file = tmp_path / "cert.json"
        run_cli(capsys, "solve", "--worst-case", "--out", str(cert_file))
        cert_file.write_bytes(cert_file.read_bytes()[:100])
        code, _, err = run_cli(capsys, "verify", str(cert_file))
        assert code == 2 and "malformed" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "verify", str(tmp_path / "nope.json"))
        assert code == 2

    def test_integer_past_the_digit_limit_exit_2(self, capsys, tmp_path):
        # json.loads refuses an integer literal longer than
        # sys.get_int_max_str_digits() (4300 by default) with a ValueError
        cert_file = tmp_path / "cert.json"
        run_cli(capsys, "solve", "--worst-case", "--out", str(cert_file))
        text = cert_file.read_text()
        assert '"r0": 3,' in text
        cert_file.write_text(text.replace('"r0": 3,', '"r0": ' + "1" * 5000 + ",", 1))
        code, out, err = run_cli(capsys, "verify", str(cert_file))
        assert code == 2 and out == "" and "malformed certificate" in err

    def test_deeply_nested_exit_2(self, capsys, tmp_path):
        cert_file = tmp_path / "deep.json"
        cert_file.write_bytes(b"[" * 100000 + b"]" * 100000)
        code, _, err = run_cli(capsys, "verify", str(cert_file))
        assert code == 2 and "malformed" in err

    def test_top_level_array_exit_2(self, capsys, tmp_path):
        cert_file = tmp_path / "cert.json"
        cert_file.write_text("[]")
        code, out, err = run_cli(capsys, "verify", str(cert_file))
        assert code == 2 and out == ""
        assert err == "malformed certificate: certificate must be a JSON object\n"

    @pytest.mark.parametrize("key, value", [("constraints", "A1"), ("steps", [1])])
    def test_steps_or_constraints_not_objects_exit_2(self, capsys, tmp_path, key, value):
        cert_file = tmp_path / "cert.json"
        run_cli(capsys, "solve", "--k5", "6250", "--k3c2", "2750", "--out", str(cert_file))
        doc = json.loads(cert_file.read_text())
        doc[key] = value
        cert_file.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(cert_file))
        assert code == 2 and out == ""
        assert err == f"malformed certificate: {key} must be a list of objects\n"

    def test_zero_k5_exit_2(self, capsys, tmp_path):
        cert_file = tmp_path / "cert.json"
        run_cli(capsys, "solve", "--k5", "6250", "--k3c2", "2750", "--out", str(cert_file))
        doc = json.loads(cert_file.read_text())
        doc["chern"]["k5"] = 0
        cert_file.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(cert_file))
        assert code == 2 and out == ""
        assert err == (
            "malformed certificate: bad chern field: (-K)^5 must be >= 1 for -K nef and big\n"
        )


class TestDeterminism:
    def test_solve_outputs_byte_identical(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        _, out1, _ = run_cli(capsys, "solve", "--worst-case", "--out", str(f1))
        _, out2, _ = run_cli(capsys, "solve", "--worst-case", "--out", str(f2))
        assert out1 == out2
        assert f1.read_bytes() == f2.read_bytes()

    def test_console_script_matches_main(self, capsys, tmp_path):
        # one subprocess sanity check that the installed entry point agrees
        proc = subprocess.run(
            [sys.executable, "-m", "fanobound.cli", "oracle", "--bundle",
             "0,0,0,0,1", "--m", "5", "--convention", "paper"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and proc.stdout == "186030\n"


@pytest.mark.parametrize("argv", [
    ["solve", "--worst-case"],
    ["table", "--k5", "1", "--k3c2", "1", "--max-m", "1"],
    ["oracle", "--bundle", "0,0,0,0,1", "--m", "1"],
    ["audit"],
    ["verify", "cert.json"],
], ids=lambda argv: argv[0])
def test_each_command_runs_its_own_handler(argv):
    from fanobound import cli

    args = cli._build_parser().parse_args(argv)
    assert args.run is getattr(cli, f"_cmd_{argv[0]}")


def test_parser_is_built_once(capsys):
    # a parser per command would leave reference cycles to the collector
    from fanobound.cli import _build_parser

    assert _build_parser() is _build_parser()
    # a refused command leaves the shared parser usable
    assert run_cli(capsys, "table", "--k5", "1")[0] == 2
    assert run_cli(capsys, "oracle", "--bundle", "0,0,0,0,1", "--m", "1")[:2] == (0, "378\n")


@pytest.mark.parametrize("argv", [
    ["solve", "--worst-case"],
    ["oracle", "--bundle", "0,0,0,0,1", "--m", "1"],
], ids=lambda argv: argv[0])
def test_convention_flag_offers_the_oracles_conventions(argv):
    # the parser spells the names itself, so that building it loads no
    # bundle; they must stay bundle's, with bundle's default
    from fanobound import cli

    parse = cli._build_parser().parse_args
    assert parse(argv).convention == bundle.STANDARD
    for name in bundle.CONVENTIONS:
        assert parse([*argv, "--convention", name]).convention == name
    assert cli.CONVENTIONS == bundle.CONVENTIONS


def outcome(capsys, parse, argv):
    """The exit code, stdout and stderr of parse(argv), which exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["slove"], ["solve", "-h"], ["solve", "--worst-case", "--bogus"],
    ["solve", "--k5", "x"], ["verify"], ["verify", "a", "b"],
], ids=" ".join)
def test_main_exits_as_the_full_parser(capsys, argv):
    # main parses a named command with that command's parser alone; every
    # exit before a command runs is still the full parser's, byte for byte
    from fanobound import cli

    want = outcome(capsys, cli._build_parser().parse_args, argv)
    assert outcome(capsys, main, argv) == want
    assert want[0] in (0, 2) and (want[1] or want[2])


@pytest.mark.parametrize("argv", [
    ["solve", "--k5", "6250", "--k3c2=2750", "--out", "f"],
    ["solve", "--wor"],
    ["table", "--k5", "12", "--k3c2", "-60", "--max-m", "3", "--format=json"],
    ["verify", "f"],
    ["audit"],
], ids=" ".join)
def test_one_pass_reads_what_the_full_parser_reads(argv):
    from fanobound import cli

    assert cli._parse(argv) == cli._build_parser().parse_args(argv)
