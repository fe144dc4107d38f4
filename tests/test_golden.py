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
        "436ff9315cafbe9220fd859c58728b5451b9fe653d8d0f147e434eb7fa708ab4",
    ),
    "solve_k5_6250_k3c2_2750.json": (
        ["solve", "--k5", "6250", "--k3c2", "2750"],
        "1bb0e4795224ac4266e750290dac7c5d50f1aa6aba1d3ae51b2f591a6b19d9a7",
    ),
    "solve_bundle_00001_standard.json": (
        ["solve", "--bundle", "0,0,0,0,1", "--convention", "standard"],
        "4753184f0f5221362851897eb5946d5b2902512ad5a785db0b737fdd3969b460",
    ),
    "solve_bundle_00001_paper.json": (
        ["solve", "--bundle", "0,0,0,0,1", "--convention", "paper"],
        "ef257cc86370de34bf3f2974b1241511d742394c99f044cf689d1cd6c4a1d9ac",
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
