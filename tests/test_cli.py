"""Command-line behavior: flag validation, outputs, exit codes,
reproducibility."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import fanobound
from fanobound import bundle
from fanobound.cli import main


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

    def test_m_zero_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "oracle", "--bundle", "0,0,0,0,1", "--m", "0")
        assert code == 2

    def test_rank_past_64_bit_slots_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--bundle=0,0,0,0,1", "--m", "40000")
        assert code == 2 and out == ""
        assert "64-bit slots" in err and "MemoryError" not in err

    def test_rows_past_the_slot_budget_exit_2_quickly(self, capsys):
        # k = 145,000 fits 64-bit slots, but its rows would need ~84 GB
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "oracle", "--bundle=0,0,0,0,1", "--m", "29000")
        assert time.perf_counter() - start < 2
        assert code == 2 and out == ""
        assert "packed slots" in err and "MemoryError" not in err

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


def test_parser_is_built_once(capsys):
    # a parser per command would leave reference cycles to the collector
    from fanobound.cli import _build_parser

    assert _build_parser() is _build_parser()
    # a refused command leaves the shared parser usable
    assert run_cli(capsys, "table", "--k5", "1")[0] == 2
    assert run_cli(capsys, "oracle", "--bundle", "0,0,0,0,1", "--m", "1")[:2] == (0, "378\n")
