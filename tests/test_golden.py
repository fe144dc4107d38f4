"""The README commands write byte-identical files.

Refactors must keep certificate and audit bytes; a changed digest here is
either a bug or a deliberate format change that updates these constants.
perfbench/hashes.json holds the digests the benchmark compares against and
is refreshed with the benchmark itself, so until then its hash lines read
"changed", which the benchmark reports and does not fail.
"""

import hashlib

import pytest

from fanobound.cli import main

GOLDEN = {
    "solve_worst_case.json": (
        ["solve", "--worst-case"],
        "78416db328b5c3ebdc106a3dc3fce47b646f90af9a0e177d8ce8984d7b1be9e7",
    ),
    "solve_k5_6250_k3c2_2750.json": (
        ["solve", "--k5", "6250", "--k3c2", "2750"],
        "e0825e95acee2752f66305c8cf5ff8740325eecba806b98a3742379554fc920d",
    ),
    "solve_bundle_00001_standard.json": (
        ["solve", "--bundle", "0,0,0,0,1", "--convention", "standard"],
        "4dfea9d1b62ed9af774896a4cd115474a098575a3ba396af58b82271ec17a16e",
    ),
    "solve_bundle_00001_paper.json": (
        ["solve", "--bundle", "0,0,0,0,1", "--convention", "paper"],
        "4d834857620818eccb9c7ba761d7b839d6683c680a06d9ec449765cb12196166",
    ),
    # the method's limit point: every earlier (m, r) of its searches is a
    # failed attempt
    "solve_k5_12_k3c2_-60.json": (
        ["solve", "--k5", "12", "--k3c2=-60"],
        "b113e64a0c6d0a94455f48293c9769facf7641d1864baaefac0a125f71d52717",
    ),
    "audit.json": (
        ["audit"],
        "b708cdabe550586c3c2daf17ad32e94d939164c4395a1f6689cb044f8177741e",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_readme_artifact_bytes(name, tmp_path, capsys):
    argv, digest = GOLDEN[name]
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_worst_case_and_audit_twice_in_one_process(tmp_path, capsys):
    # the axiom system and the P(1) branches are built once per process;
    # a second solve and a second audit must still write the golden bytes
    for argv, name in ((["solve", "--worst-case"], "solve_worst_case.json"),
                       (["audit"], "audit.json")):
        for i in range(2):
            out = tmp_path / f"{i}_{name}"
            assert main(argv + ["--out", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name][1], (name, i)
    capsys.readouterr()
