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
        "VanishingViolationError", "fit_ab", "p_affine", "p_eval",
    ],
    "derive": [
        "Constraint", "ConstraintSystem", "Fact", "axiom_system", "derive_lower_bound",
        "fact_to_constraint", "fm_minimize", "geometry_system", "monotone_from",
        "split_on_p1", "strengthen_integral",
    ],
    "bounds": [
        "CertificationError", "SearchExhaustedError", "certify_r0", "lemma2_threshold",
        "minimal_r", "solve_concrete", "solve_oracle", "solve_worst_case",
    ],
    "certs": ["Certificate", "MalformedCertificateError", "from_json_bytes", "verify"],
    "bundle": [
        "OracleSource", "SplitBundle", "UnsupportedConventionError", "anticanonical_data",
        "h0_anti", "h0_p1", "k5_geometric", "paper_closed_form", "sym_power_twists",
    ],
    "audit": ["AuditEntry", "AuditReport", "build_audit"],
}


def loaded_after(code: str) -> set[str]:
    """The fanobound modules a fresh interpreter holds after running code."""
    probe = (
        f"{code}\nimport sys\n"
        "print(' '.join(n for n in sys.modules if n.startswith('fanobound.')))"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    return {name.removeprefix("fanobound.") for name in out.split()}


class TestImportGuards:
    def test_package_loads_no_module(self):
        assert loaded_after("import fanobound") == set()

    def test_verifier_loads_no_prover_search_or_audit(self):
        # the verifier's trusted base: no bounds, audit or cli, and no
        # derive, since the constraint kinds live in hilbert
        assert loaded_after("import fanobound.certs") == {"exact", "hilbert", "bundle", "certs"}

    def test_verifier_accepts_readme_certificates_without_the_prover(self, tmp_path):
        from test_cert_v3 import DOCS

        paths = []
        for name, doc in DOCS.items():
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(doc))
        # importing derive or bounds raises ImportError in this interpreter
        code = (
            "import sys\n"
            "sys.modules['fanobound.derive'] = sys.modules['fanobound.bounds'] = None\n"
            "from fanobound.certs import from_json_bytes, verify\n"
            "for path in sys.argv[1:]:\n"
            "    print(verify(from_json_bytes(open(path, 'rb').read())).ok)\n"
        )
        env = {**os.environ, "PYTHONPATH": SRC}
        out = subprocess.run(
            [sys.executable, "-c", code, *map(str, paths)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.split() == ["True"] * 4

    def test_cli_loads_no_audit(self):
        loaded = loaded_after("import fanobound.cli")
        # solve and verify need these, so the start-up the benchmark times
        # still covers them
        assert {"bounds", "bundle", "certs", "hilbert"} <= loaded
        assert "audit" not in loaded

    def test_cli_import_builds_no_constraint_system(self):
        # the axiom system and the P(1) branches are built on first use,
        # so the start-up the benchmark times does not build them
        code = (
            "import sys\n"
            "calls = set()\n"
            "def hook(frame, event, arg):\n"
            "    if event == 'call' and frame.f_code.co_filename.endswith(('derive.py', 'bounds.py')):\n"
            "        calls.add(frame.f_code.co_name)\n"
            "sys.setprofile(hook)\n"
            "import fanobound.cli\n"
            "sys.setprofile(None)\n"
            "print(' '.join(sorted(calls)))\n"
        )
        env = {**os.environ, "PYTHONPATH": SRC}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        calls = set(out.split())
        assert "<module>" in calls  # the hook saw both modules load
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
