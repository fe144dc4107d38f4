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
        "dfbe589f412ca8db034d92b846a3849a78835c140bb4591896196a2f1865fc84",
    ),
    "solve_k5_6250_k3c2_2750.json": (
        ["solve", "--k5", "6250", "--k3c2", "2750"],
        "124b0895b3910fe54bf991a917429b883836f8876be32c8549ffda6a0efd4816",
    ),
    "solve_bundle_00001_standard.json": (
        ["solve", "--bundle", "0,0,0,0,1", "--convention", "standard"],
        "a1f58feb662026a8ae63ee4fe53f34405dd16e7bc0e4152893c40c57b4210dbb",
    ),
    "solve_bundle_00001_paper.json": (
        ["solve", "--bundle", "0,0,0,0,1", "--convention", "paper"],
        "a08a5676bfd0d2781da8340a8b7634771c286d3616099979896cf2374ce42a40",
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
