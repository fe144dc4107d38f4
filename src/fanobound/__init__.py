"""Certified birationality bounds for anti-pluricanonical maps of 5-folds.

Exact-arithmetic engine deriving lower bounds m0 such that the rational
map attached to |-mK_X| is birational for all m >= m0 when X is a smooth
5-fold with -K_X nef and big.  Every bound ships as a machine-checkable
certificate with an independent verifier, and the audit command replays
the published derivation this engine mechanizes, claim by claim.

Importing the package loads none of its modules: each name below, and
each module, is imported on first use (PEP 562), so a command pays only
for the modules it runs.
"""

import sys

# module -> the names the package re-exports from it, space-separated
_EXPORTS = {
    "exact": "AffineForm Poly",
    "hilbert": "ChernData HilbertError NonIntegralValueError PValue VanishingViolationError "
    "fit_ab lemma2_threshold p_affine p_eval",
    "derive": "Constraint ConstraintSystem Fact axiom_system derive_lower_bound "
    "fact_to_constraint fm_minimize geometry_system monotone_from split_on_p1 "
    "strengthen_integral",
    "bounds": "CertificationError SearchExhaustedError certify_r0 minimal_r "
    "solve_concrete solve_oracle solve_worst_case",
    "certs": "Certificate MalformedCertificateError from_json_bytes verify",
    "bundle": "OracleSource SplitBundle UnsupportedConventionError anticanonical_data h0_anti "
    "h0_p1 k5_geometric paper_closed_form sym_power_twists",
    "audit": "AuditEntry AuditReport build_audit",
    "cli": "",
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    # nothing is cached here, so a name always reads its module's current
    # binding; __import__, unlike importlib.import_module, keeps each module
    # in -X importtime's report
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    loaded = sys.modules[f"{__name__}.{module}"]
    return loaded if module == name else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
