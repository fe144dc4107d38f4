"""What importing the package costs: which modules load, and the lazy names.

Each import is checked in a fresh interpreter, because the test session
has already loaded every module.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fanobound

SRC = str(Path(fanobound.__file__).parents[1])

MODULES = ("exact", "hilbert", "derive", "bounds", "certs", "bundle", "audit", "cli")

# the names `import fanobound` has always offered, by defining module
REEXPORTS = {
    "exact": ["AffineForm", "Poly"],
    "hilbert": [
        "ChernData", "HilbertError", "NonIntegralValueError", "PValue",
        "VanishingViolationError", "fit_ab", "lemma2_threshold", "p_affine", "p_eval",
    ],
    "derive": [
        "Constraint", "ConstraintSystem", "Fact", "axiom_system", "derive_lower_bound",
        "fact_to_constraint", "fm_minimize", "geometry_system", "monotone_from",
        "split_on_p1", "strengthen_integral",
    ],
    "bounds": [
        "CertificationError", "SearchExhaustedError", "certify_r0", "minimal_r",
        "solve_concrete", "solve_oracle", "solve_worst_case",
    ],
    "certs": ["Certificate", "MalformedCertificateError", "from_json_bytes", "verify"],
    "bundle": [
        "OracleSource", "SplitBundle", "UnsupportedConventionError", "anticanonical_data",
        "h0_anti", "h0_p1", "k5_geometric", "paper_closed_form", "sym_power_twists",
    ],
    "audit": ["AuditEntry", "AuditReport", "build_audit"],
}


def run_fresh(code: str, *args: str) -> tuple[list[str], set[str]]:
    """The lines a fresh interpreter prints while running code, with args
    as sys.argv[1:], and the modules it adds to sys.modules meanwhile;
    what the interpreter loaded before, site included, does not count."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    return out[:-1], set(out[-1].split())


def package_modules(added: set[str]) -> set[str]:
    """The fanobound modules among added, by short name."""
    return {name.removeprefix("fanobound.") for name in added if name.startswith("fanobound.")}


def loaded_after(code: str) -> set[str]:
    """The fanobound modules a fresh interpreter loads running code."""
    return package_modules(run_fresh(code)[1])


PROVER_ORACLE_AUDIT = {"bounds", "derive", "bundle", "audit"}


@pytest.fixture(scope="module")
def cert_files(tmp_path_factory):
    """The README certificates and the limit point's, one file each."""
    from test_cert_v3 import DOCS
    from test_verifier_checks import LIMIT

    root = tmp_path_factory.mktemp("certs")
    paths = {}
    for name, doc in {**DOCS, "limit": LIMIT}.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


def verify_in_fresh_process(path) -> set[str]:
    """The modules cli.main(["verify", path]) adds in a fresh interpreter,
    once it has printed valid."""
    printed, added = run_fresh(
        "from fanobound.cli import main\nmain(['verify', sys.argv[1]])", str(path)
    )
    assert printed == ["valid"], path
    return added


class TestImportGuards:
    def test_package_loads_no_module(self):
        assert loaded_after("import fanobound") == set()

    def test_verifier_loads_no_prover_search_or_audit(self, cert_files):
        # the verifier's trusted base: no bounds, audit or cli, no derive,
        # since the constraint kinds live in hilbert, and no bundle until an
        # oracle certificate asks for it
        assert loaded_after("import fanobound.certs") == {"exact", "hilbert", "certs"}
        for name in ("worst_case", "concrete", "limit"):
            added = verify_in_fresh_process(cert_files[name])
            assert not package_modules(added) & PROVER_ORACLE_AUDIT, name
            assert "dataclasses" not in added, name

    def test_oracle_verify_loads_bundle_and_no_prover(self, cert_files):
        for name in ("standard", "paper"):
            loaded = package_modules(verify_in_fresh_process(cert_files[name]))
            assert loaded & PROVER_ORACLE_AUDIT == {"bundle"}, name

    def test_verifier_accepts_readme_certificates_without_the_prover(self, cert_files):
        # importing derive or bounds, and for the certificates that read no
        # oracle bundle too, raises ImportError in these interpreters
        code = (
            "sys.modules['fanobound.derive'] = sys.modules['fanobound.bounds'] = None\n"
            "if sys.argv[1] == 'no-oracle':\n"
            "    sys.modules['fanobound.bundle'] = None\n"
            "from fanobound.certs import from_json_bytes, verify\n"
            "for path in sys.argv[2:]:\n"
            "    print(verify(from_json_bytes(open(path, 'rb').read())).ok)\n"
        )
        for blocked, names in (("no-oracle", ("worst_case", "concrete", "limit")),
                               ("oracle", ("standard", "paper"))):
            printed, _ = run_fresh(code, blocked, *(str(cert_files[n]) for n in names))
            assert printed == ["True"] * len(names), blocked

    def test_cli_loads_no_audit(self):
        # the front end loads the verifier alone: every command starts
        # without the prover, the oracle, the audit or dataclasses
        added = run_fresh("import fanobound.cli")[1]
        assert package_modules(added) == {"cli", "certs", "hilbert", "exact"}
        assert not added & {"dataclasses", "inspect"}

    def test_solve_loads_the_prover_and_the_oracle(self):
        printed, added = run_fresh(
            "from fanobound.cli import main\nmain(['solve', '--k5', '6250', '--k3c2', '2750'])"
        )
        assert printed == ["12"]
        assert package_modules(added) & PROVER_ORACLE_AUDIT == {"bounds", "derive", "bundle"}

    def test_cli_import_builds_no_constraint_system(self):
        # importing the prover runs both its modules' bodies, and they build
        # no axiom system and no P(1) branches: those are built on first use
        code = (
            "calls = set()\n"
            "def hook(frame, event, arg):\n"
            "    name = frame.f_code.co_filename\n"
            "    if event == 'call' and name.endswith(('derive.py', 'bounds.py')):\n"
            "        calls.add(name.rsplit('/', 1)[-1] + ':' + frame.f_code.co_name)\n"
            "sys.setprofile(hook)\n"
            "import fanobound.bounds\n"
            "sys.setprofile(None)\n"
            "print(' '.join(sorted(calls)))\n"
        )
        printed, _ = run_fresh(code)
        calls = {call.partition(":")[2] for call in printed[0].split()}
        assert {"derive.py:<module>", "bounds.py:<module>"} <= set(printed[0].split())
        built = {"make", "__new__", "axiom_system", "split_on_p1", "worst_case_branches"}
        assert not calls & built

    def test_lazy_module_attribute_resolves_before_import(self):
        code = (
            "import sys, fanobound\n"
            "assert 'fanobound.bundle' not in sys.modules\n"
            "assert fanobound.bundle.oracle_source is sys.modules['fanobound.bundle'].oracle_source"
        )
        assert "bundle" in loaded_after(code)


def test_only_oracle_source_is_a_dataclass():
    found = []
    for short in MODULES:
        mod = importlib.import_module(f"fanobound.{short}")
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                if "__dataclass_fields__" in vars(obj):
                    found.append(f"{short}.{name}")
    assert found == ["bundle.OracleSource"]


class TestLazyNames:
    def test_every_reexport_is_the_defining_modules_object(self):
        names = [name for names in REEXPORTS.values() for name in names]
        assert len(names) == 45
        assert sorted(fanobound.__all__) == sorted(names)
        for short, module_names in REEXPORTS.items():
            mod = importlib.import_module(f"fanobound.{short}")
            for name in module_names:
                assert getattr(fanobound, name) is getattr(mod, name), name

    def test_modules_are_attributes(self):
        for short in MODULES:
            assert getattr(fanobound, short) is importlib.import_module(f"fanobound.{short}")

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            fanobound.no_such_name
        # a private helper of a module is not re-exported
        assert not hasattr(fanobound, "_Replay")

    def test_dir_lists_the_lazy_names(self):
        listed = dir(fanobound)
        assert {"solve_worst_case", "verify", "bundle", "__version__"} <= set(listed)

    def test_star_import_takes_the_reexports(self):
        namespace: dict = {}
        exec("from fanobound import *", namespace)
        assert namespace["verify"] is fanobound.certs.verify
        assert "bundle" not in namespace
