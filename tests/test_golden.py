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
        "5f39ea521ebb81dc589db66febed0a869c84772693c3aa4bef47c01703112a76",
    ),
    "solve_k5_6250_k3c2_2750.json": (
        ["solve", "--k5", "6250", "--k3c2", "2750"],
        "249d207c677822a4e2e7e3a04f6a52f437a010c69a961151e85c8c5848896d14",
    ),
    "solve_bundle_00001_standard.json": (
        ["solve", "--bundle", "0,0,0,0,1", "--convention", "standard"],
        "d92a7d7ad683acc3c4984aa8efbb4c3cd0516c7b592907f7023d9c81de067102",
    ),
    "solve_bundle_00001_paper.json": (
        ["solve", "--bundle", "0,0,0,0,1", "--convention", "paper"],
        "cfd599eba96c62bcccce3c9687774c2ffff54e180255e60aab5371e1c070fffb",
    ),
    "audit.json": (
        ["audit"],
        "d247395f9c61f2304d2ec7889a19f021aa6fe803c1047a4d3453c93737f3ad06",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_readme_artifact_bytes(name, tmp_path, capsys):
    argv, digest = GOLDEN[name]
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
