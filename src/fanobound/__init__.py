"""Certified birationality bounds for anti-pluricanonical maps of 5-folds.

Exact-arithmetic engine deriving lower bounds m0 such that the rational
map attached to |-mK_X| is birational for all m >= m0 when X is a smooth
5-fold with -K_X nef and big.  Every bound ships as a machine-checkable
certificate with an independent verifier, and the audit command replays
the published derivation this engine mechanizes, claim by claim.
"""

from .exact import AffineForm, Poly, Rat, affine_eval, poly_nonneg_on_ray
from .hilbert import (
    ChernData,
    HilbertError,
    NonIntegralValueError,
    PValue,
    VanishingViolationError,
    fit_ab,
    p_affine,
    p_eval,
    p_table,
)
from .derive import (
    Constraint,
    ConstraintSystem,
    Fact,
    axiom_system,
    derive_lower_bound,
    fact_to_constraint,
    fm_minimize,
    geometry_system,
    monotone_from,
    split_on_p1,
    strengthen_integral,
)
from .bounds import (
    CertificationError,
    DimWitness,
    OracleSource,
    SearchExhaustedError,
    certify_r0,
    compose_bound,
    lemma2_check,
    lemma2_threshold,
    minimal_r,
    nonvanishing_rule,
    solve_concrete,
    solve_oracle,
    solve_worst_case,
)
from .certs import Certificate, MalformedCertificateError, from_json_bytes, verify
from .bundle import (
    SplitBundle,
    UnsupportedConventionError,
    anticanonical_data,
    h0_anti,
    h0_p1,
    k5_geometric,
    paper_closed_form,
    sym_power_twists,
)
from .audit import AuditEntry, AuditReport, build_audit

__version__ = "0.1.0"
