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
        "ce30fe727663e6415cf5c7266e5d4aa5fa2996aab75b1f64223717d66d16b7bd",
    ),
    "solve_k5_6250_k3c2_2750.json": (
        ["solve", "--k5", "6250", "--k3c2", "2750"],
        "b0c871e79151704254b04a749cfb5446cf308f4803e0c8fd29e624544687e455",
    ),
    "solve_bundle_00001_standard.json": (
        ["solve", "--bundle", "0,0,0,0,1", "--convention", "standard"],
        "12ab278504e964e0aa9453253a905335e2e3fcc6844c406f60996813e213ea08",
    ),
    "solve_bundle_00001_paper.json": (
        ["solve", "--bundle", "0,0,0,0,1", "--convention", "paper"],
        "29250194231b63787e592d04a8416e09eb0dd43f24da1e689a7ad6f11de7b2d1",
    ),
    # the method's limit point: every earlier (m, r) of its searches is a
    # failed attempt
    "solve_k5_12_k3c2_-60.json": (
        ["solve", "--k5", "12", "--k3c2=-60"],
        "9f4f5e1134d3ac45326e58899027509e2a25b13e8cc4c5422a19c7688d041476",
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
