"""The README commands write byte-identical files.

Refactors must keep certificate and audit bytes; a changed digest here is
either a bug or a deliberate format change that updates these constants
together with perfbench/hashes.json.
"""

import hashlib

import pytest

from fanobound.cli import main

GOLDEN = {
    "solve_worst_case.json": (
        ["solve", "--worst-case"],
        "8ee49b138af6a7daddd82f8dd434131087af0bf8bf9487c376a23fc523a79943",
    ),
    "solve_k5_6250_k3c2_2750.json": (
        ["solve", "--k5", "6250", "--k3c2", "2750"],
        "ad0055d45751d9331dfa8521f77ab5008dd3a5787c49ef23671715706b3e39f0",
    ),
    "solve_bundle_00001_standard.json": (
        ["solve", "--bundle", "0,0,0,0,1", "--convention", "standard"],
        "91b06f7aed2d6d5a103cfe4435e6c62dde5f028eb5e6d69fa5b6b84d726ba0b4",
    ),
    "solve_bundle_00001_paper.json": (
        ["solve", "--bundle", "0,0,0,0,1", "--convention", "paper"],
        "f8af1b9d6373f26fa0ae7dbfb794b744a954b98029914eb8674b0d21e6257789",
    ),
    "audit.json": (
        ["audit"],
        "ad52e75b2aa42d4971c6acb4cb9ad66a688af7f9af1c235855ccf04c8efc1b79",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_readme_artifact_bytes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FANOBOUND_MCERT", raising=False)
    argv, digest = GOLDEN[name]
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
