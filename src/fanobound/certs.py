"""Certificates of birationality bounds and their independent verifier.

A certificate is a JSON document recording every derivation step with
enough exact witnesses (Farkas multipliers, optimal points, polynomial
shifts, oracle values) that the claimed bound can be re-checked by
substitution and sign tests alone.  The verifier here never calls the
prover's search machinery: it rebuilds each recorded inequality from its
descriptor, replays the arithmetic, and rejects on the first mismatch.

Schema (field names are part of the external interface):

    {"version": 2,
     "mode": "worst_case" | "concrete",
     "chern": {"k5": int, "k3c2": int} | null,
     "axioms": [string, ...],
     "steps": [{"id": int, "rule": string, "inputs": [...],
                "claim": string, "witness": {...}}, ...],
     "r0": int, "r": [int, int, int], "bound": int}

Rationals serialize as "p/q" strings with the sign on the numerator;
integers omit the "/1".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from .exact import AffineForm, Poly, rat_str, to_rat
from .hilbert import (
    ChernData,
    LEMMA2_R_CAP,
    difference_polys,
    lemma2_slack_form,
    lemma2_threshold,
    p_affine,
    p_eval,
)
from . import bundle
from .derive import constraint_form

CERT_VERSION = 2

WORST_CASE = "worst_case"
CONCRETE = "concrete"

# refuse pathological ranges instead of looping on crafted input
MAX_TABLE = 512
# an oracle model is checked on every value of its table; six agreeing
# points pin a degree-5 polynomial, so a shorter table cannot certify the tail
MODEL_POINTS = 6
MAX_SEARCH = 128


class MalformedCertificateError(ValueError):
    """The document is not a structurally valid certificate."""


@dataclass
class Certificate:
    mode: str
    axioms: list[str]
    steps: list[dict]
    r0: int
    r: list[int]
    bound: int
    chern: Optional[ChernData] = None
    version: int = CERT_VERSION

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "mode": self.mode,
            "chern": (
                {"k5": self.chern.k5, "k3c2": self.chern.k3c2}
                if self.chern is not None
                else None
            ),
            "axioms": list(self.axioms),
            "steps": self.steps,
            "r0": self.r0,
            "r": list(self.r),
            "bound": self.bound,
        }

    def to_json_bytes(self) -> bytes:
        return (
            json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"
        ).encode("utf-8")


def _is_int(value: Any) -> bool:
    """A JSON integer; floats, bools and strings do not count."""
    return isinstance(value, int) and not isinstance(value, bool)


def from_json_dict(doc: Any) -> Certificate:
    if not isinstance(doc, dict):
        raise MalformedCertificateError("certificate must be a JSON object")
    required = {"version", "mode", "chern", "axioms", "steps", "r0", "r", "bound"}
    missing = required - set(doc)
    if missing:
        raise MalformedCertificateError(f"missing fields: {sorted(missing)}")
    if not isinstance(doc["steps"], list) or not all(
        isinstance(s, dict) for s in doc["steps"]
    ):
        raise MalformedCertificateError("steps must be a list of objects")
    r = doc["r"]
    if not isinstance(r, list) or len(r) != 3 or not all(_is_int(x) for x in r):
        raise MalformedCertificateError("r must be a list of three integers")
    for key in ("version", "r0", "bound"):
        if not _is_int(doc[key]):
            raise MalformedCertificateError(f"{key} must be an integer")
    chern = None
    if doc["chern"] is not None:
        try:
            k5, k3c2 = doc["chern"]["k5"], doc["chern"]["k3c2"]
            if not (_is_int(k5) and _is_int(k3c2)):
                raise TypeError("k5 and k3c2 must be integers")
            chern = ChernData(k5, k3c2)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedCertificateError(f"bad chern field: {exc}") from exc
    return Certificate(
        mode=doc["mode"],
        axioms=list(doc["axioms"]),
        steps=list(doc["steps"]),
        r0=doc["r0"],
        r=list(r),
        bound=doc["bound"],
        chern=chern,
        version=doc["version"],
    )


def from_json_bytes(data: bytes) -> Certificate:
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        # decoding and syntax errors, and an integer literal longer than
        # sys.get_int_max_str_digits(), all raise ValueError
        raise MalformedCertificateError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedCertificateError("JSON nesting is too deep") from exc
    return from_json_dict(doc)


# ---------------------------------------------------------------------------
# Shared serialization helpers (prover writes, verifier reads)
# ---------------------------------------------------------------------------

def ser_param(p: Any) -> Any:
    if isinstance(p, Fraction):
        return rat_str(p)
    return p


def ser_form(f: AffineForm) -> list[str]:
    return [rat_str(f.coeff_a), rat_str(f.coeff_b), rat_str(f.const)]


def ser_constraint(c) -> dict:
    return {
        "cid": c.cid,
        "kind": c.kind,
        "params": [ser_param(p) for p in c.params],
        "form": ser_form(c.form),
        "strict": c.strict,
    }


def ser_poly(p: Poly) -> list[str]:
    return [rat_str(c) for c in p.coeffs]


def ser_farkas(farkas) -> list[list[str]]:
    return [[cid, rat_str(v)] for cid, v in farkas]


def ser_point(point) -> Optional[list[str]]:
    if point is None:
        return None
    return [rat_str(point[0]), rat_str(point[1])]


def format_form(f: AffineForm) -> str:
    parts = []
    for coeff, name in ((f.coeff_a, "a"), (f.coeff_b, "b")):
        if coeff == 0:
            continue
        if coeff == 1:
            parts.append(name)
        elif coeff == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{rat_str(coeff)}{name}")
    if f.const != 0 or not parts:
        parts.append(rat_str(f.const))
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


# ---------------------------------------------------------------------------
# Verifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    step_id: Optional[int] = None
    reason: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


class _Fail(Exception):
    def __init__(self, step_id: Optional[int], reason: str):
        self.step_id = step_id
        self.reason = reason
        super().__init__(reason)


def _parse_form(data: Any) -> AffineForm:
    try:
        ca, cb, k = data
        return AffineForm.of(to_rat(ca), to_rat(cb), to_rat(k))
    except (TypeError, ValueError) as exc:
        raise _Fail(None, f"bad affine form {data!r}: {exc}")


_AXIOM_KINDS = {"k5_floor": "A1", "vanishing": "A4", "mono12": "A5"}
_BRANCH_KINDS = {"p1_eq_lo", "p1_eq_hi", "p1_tail"}


def _check_constraints(
    step_id: int,
    cons: Any,
    established: dict,
    axioms: list[str],
    branch_ok: bool = False,
) -> tuple[dict, bool]:
    """Validate a serialized constraint list.

    Every form must regenerate from its descriptor; axiom constraints must
    be covered by the certificate's declared axiom set; derived-fact
    constraints must match a fact established by an earlier step; case
    hypotheses on P(1) are legal only where branch_ok says so.  Returns
    (cid -> (form, strict), whether any branch hypothesis is present).
    """
    if not isinstance(cons, list):
        raise _Fail(step_id, "constraints must be a list")
    table: dict[str, tuple[AffineForm, bool]] = {}
    has_hypothesis = False
    for entry in cons:
        try:
            cid = entry["cid"]
            kind = entry["kind"]
            params = tuple(entry["params"])
            recorded = _parse_form(entry["form"])
            strict = _json_bool(step_id, entry["strict"], f"strict flag of {cid}")
        except (KeyError, TypeError) as exc:
            raise _Fail(step_id, f"bad constraint entry: {exc}")
        if kind in _AXIOM_KINDS:
            if _AXIOM_KINDS[kind] not in axioms:
                raise _Fail(
                    step_id, f"constraint {cid} uses undeclared axiom {_AXIOM_KINDS[kind]}"
                )
        elif kind in _BRANCH_KINDS:
            if not branch_ok:
                raise _Fail(step_id, f"case hypothesis {cid} outside a branch step")
            has_hypothesis = True
        elif kind != "from_fact":
            raise _Fail(step_id, f"constraint kind {kind!r} not allowed in certificates")
        if params:
            _json_int(step_id, params[0], f"first parameter of {cid}")
        try:
            rebuilt, rebuilt_strict = constraint_form(kind, params)
        except (ValueError, TypeError) as exc:
            raise _Fail(step_id, f"constraint {cid}: {exc}")
        if rebuilt != recorded or rebuilt_strict != strict:
            raise _Fail(step_id, f"constraint {cid} does not match its descriptor")
        if kind == "from_fact":
            m, bound, _scale, f_strict = params
            key = (m, to_rat(bound), _json_bool(step_id, f_strict, f"fact strictness of {cid}"))
            if key not in established:
                raise _Fail(
                    step_id,
                    f"constraint {cid} cites a fact P({m}) >= {bound} "
                    "not established by an earlier step",
                )
        table[cid] = (recorded, strict)
    return table, has_hypothesis


def _check_farkas(
    step_id: int,
    farkas: Any,
    table: dict,
    objective: AffineForm,
    value: Fraction,
) -> bool:
    """Replay a Farkas combination: nonnegative multipliers over recorded
    constraints summing exactly to objective - value.  Returns whether the
    combination proves a strict bound."""
    if not isinstance(farkas, list):
        raise _Fail(step_id, "farkas witness must be a list")
    acc = AffineForm.constant(0)
    strict = False
    for item in farkas:
        try:
            cid, mult = item
            mult = to_rat(mult)
        except (TypeError, ValueError) as exc:
            raise _Fail(step_id, f"bad farkas entry {item!r}: {exc}")
        if mult < 0:
            raise _Fail(step_id, f"negative farkas multiplier on {cid}")
        if cid not in table:
            raise _Fail(step_id, f"farkas cites unknown constraint {cid}")
        form, c_strict = table[cid]
        acc = acc + form.scale(mult)
        if mult > 0 and c_strict:
            strict = True
    if acc != objective - AffineForm.constant(value):
        raise _Fail(step_id, "farkas combination does not reproduce the bound")
    return strict


def _check_point(step_id: int, point: Any, table: dict) -> tuple[Fraction, Fraction]:
    try:
        a, b = (to_rat(x) for x in point)
    except (TypeError, ValueError) as exc:
        raise _Fail(step_id, f"bad point {point!r}: {exc}")
    for cid, (form, strict) in table.items():
        v = form.evaluate(a, b)
        if v < 0 or (v == 0 and strict):
            raise _Fail(step_id, f"witness point violates constraint {cid}")
    return a, b


def _check_integral_bound(
    step_id: int, w: dict, table: dict, m: int, axioms: list[str]
) -> tuple[Fraction, bool, Fraction]:
    """Replay P(m) >= bound from a recorded minimum: the Farkas combination
    proves raw_min (strictly if raw_strict says so), and bound is raw_min
    rounded up by A3 exactly when strengthened says so.  Returns raw_min,
    whether the combination is strict, and the bound."""
    raw = to_rat(w["raw_min"])
    raw_strict = _json_bool(step_id, w.get("raw_strict"), "raw_strict")
    proved_strict = _check_farkas(step_id, w.get("farkas", []), table, p_affine(m), raw)
    if raw_strict and not proved_strict:
        raise _Fail(step_id, "strict bound claimed without a strict combination")
    bound = to_rat(w["bound"])
    strengthened = _json_bool(step_id, w.get("strengthened"), "strengthened")
    if strengthened != (bound != raw):
        raise _Fail(step_id, "strengthening flag disagrees with the bounds")
    if strengthened:
        if "A3" not in axioms:
            raise _Fail(step_id, "strengthening uses undeclared integrality axiom")
        if bound != (math.floor(raw) + 1 if raw_strict else math.ceil(raw)):
            raise _Fail(step_id, "integral strengthening is wrong")
    return raw, proved_strict, bound


def _single_input(step_id: int, step: dict) -> dict:
    inputs = step.get("inputs")
    if not isinstance(inputs, list) or len(inputs) != 1 or not isinstance(inputs[0], dict):
        raise _Fail(step_id, "inputs must be a one-element list holding an object")
    return inputs[0]


def _json_int(step_id: int, value: Any, what: str) -> int:
    """A JSON integer; floats, bools and strings are rejected, not coerced."""
    if not _is_int(value):
        raise _Fail(step_id, f"{what} must be an integer, got {value!r}")
    return value


def _json_bool(step_id: int, value: Any, what: str) -> bool:
    """A JSON boolean; strings, numbers and null are rejected, not coerced."""
    if not isinstance(value, bool):
        raise _Fail(step_id, f"{what} must be a boolean, got {value!r}")
    return value


def _witness(step_id: int, step: dict) -> dict:
    w = step.get("witness")
    if not isinstance(w, dict):
        raise _Fail(step_id, "missing witness")
    return w


def _model_from_step(step_id: int, steps_by_id: dict, model_step: Any) -> Poly:
    ms = steps_by_id.get(model_step)
    if ms is None or ms.get("rule") != "oracle_model":
        raise _Fail(step_id, "model_step does not reference an oracle_model step")
    coeffs = ms.get("witness", {}).get("coeffs")
    if not isinstance(coeffs, list):
        raise _Fail(step_id, "referenced model has no coefficients")
    return Poly([to_rat(c) for c in coeffs])


def _table_from_step(
    step_id: int, steps_by_id: dict, values_step: Any
) -> tuple[Callable[[int], int], range]:
    """The value table a step cites, as a function of m, and the multiples
    it holds."""
    vs = steps_by_id.get(values_step)
    if vs is None or vs.get("rule") not in ("oracle_values", "eval_p"):
        raise _Fail(step_id, "values_step does not reference a value table step")
    values = vs.get("witness", {}).get("values")
    if not isinstance(values, list):
        raise _Fail(step_id, "referenced value table is missing")
    values = [_json_int(step_id, v, "table value") for v in values]
    # eval_p tables start at m = 0, oracle tables at m = 1
    first = 0 if vs["rule"] == "eval_p" else 1

    def value_at(m: int) -> int:
        if not 0 <= m - first < len(values):
            raise _Fail(step_id, f"value table has no entry for m = {m}")
        return values[m - first]

    return value_at, range(first, first + len(values))


def verify(cert: Certificate) -> VerifyResult:
    """Replay every step of a certificate by arithmetic alone.

    Valid means: all recorded constraints regenerate from their descriptors,
    all Farkas combinations and witness points check out, value tables
    recompute exactly, polynomial tails have the certified sign pattern,
    selections are minimal over their recorded search ranges, and the final
    bound equals the recomposed sum.
    """
    progress: list = [None]
    try:
        _verify_inner(cert, progress)
    except _Fail as f:
        sid = f.step_id if f.step_id is not None else progress[0]
        return VerifyResult(False, sid, f.reason)
    except (
        KeyError, TypeError, ValueError, IndexError, ZeroDivisionError, AttributeError
    ) as exc:
        return VerifyResult(False, progress[0], f"malformed step data: {exc!r}")
    return VerifyResult(True)


# every certificate sticks to one derivation flavor; mixing would let a
# step about an unrelated object justify the composed bound
_FLAVOR_RULES = {
    "worst_case": {
        "axioms", "split_p1", "fm_lower_bound", "merge_min",
        "fact_to_constraint", "dim_search", "monotone_tail", "compose",
    },
    "concrete": {
        "axioms", "eval_p", "value_at_least", "dim_search", "monotone_tail",
        "compose",
    },
    "oracle": {
        "axioms", "oracle_values", "oracle_model", "value_at_least",
        "dim_search", "monotone_tail", "compose",
    },
}


def _verify_inner(cert: Certificate, progress: list) -> None:
    if cert.version != CERT_VERSION:
        raise _Fail(None, f"unsupported version {cert.version}")
    if cert.mode not in (WORST_CASE, CONCRETE):
        raise _Fail(None, f"unknown mode {cert.mode!r}")
    if cert.mode == WORST_CASE:
        flavor = "worst_case"
    elif cert.chern is not None:
        flavor = "concrete"
    else:
        flavor = "oracle"
    allowed_rules = _FLAVOR_RULES[flavor]

    steps_by_id: dict[int, dict] = {}
    last_id = 0
    for step in cert.steps:
        sid = step.get("id")
        if not _is_int(sid) or sid <= last_id:
            raise _Fail(sid if _is_int(sid) else None, "step ids must increase")
        last_id = sid
        steps_by_id[sid] = step

    established: dict = {}  # facts available to later steps
    searches: dict[int, dict] = {}  # target_dim -> selected
    monotone_tail_step: Optional[dict] = None
    compose_step: Optional[dict] = None
    split_labels: Optional[list[str]] = None

    for step in cert.steps:
        sid = step["id"]
        progress[0] = sid
        rule = step.get("rule")
        if rule not in allowed_rules:
            if rule in {r for rules in _FLAVOR_RULES.values() for r in rules}:
                raise _Fail(sid, f"rule {rule!r} does not belong to a {flavor} certificate")
            raise _Fail(sid, f"unknown rule {rule!r}")
        if rule in ("dim_search", "monotone_tail"):
            inner_mode = _single_input(sid, step).get("mode")
            if inner_mode != flavor:
                raise _Fail(sid, f"step mode {inner_mode!r} contradicts the {flavor} flavor")
        if rule == "axioms":
            _witness(sid, step)
            cons = step["witness"].get("constraints", [])
            _check_constraints(sid, cons, established, cert.axioms)

        elif rule == "split_p1":
            inp = _single_input(sid, step)
            w = _witness(sid, step)
            lmax = _json_int(sid, inp.get("lmax"), "lmax")
            if lmax < 0:
                raise _Fail(sid, "split needs lmax >= 0")
            split_labels = [f"P(1)={l}" for l in range(lmax + 1)] + [f"P(1)>={lmax + 1}"]
            if w.get("labels") != split_labels:
                raise _Fail(sid, "branch labels do not cover the split")

        elif rule == "fm_lower_bound":
            inp = _single_input(sid, step)
            w = _witness(sid, step)
            m = _json_int(sid, inp.get("m"), "m")
            table, conditional = _check_constraints(
                sid, inp.get("constraints", []), established, cert.axioms, branch_ok=True
            )
            raw, proved_strict, bound = _check_integral_bound(sid, w, table, m, cert.axioms)
            attained = _json_bool(sid, w.get("attained"), "attained")
            if attained != (w.get("point") is not None):
                raise _Fail(sid, "attainment flag disagrees with the witness point")
            if attained:
                if proved_strict:
                    raise _Fail(sid, "attained minimum proved by a strict combination")
                a, b = _check_point(sid, w.get("point"), table)
                if p_affine(m).evaluate(a, b) != raw:
                    raise _Fail(sid, "witness point does not attain the minimum")
            if step.get("claim") != f"P({m}) >= {rat_str(bound)}":
                raise _Fail(sid, "claim text does not match the witness")
            if not conditional:
                # bounds proved under case hypotheses stay branch-local;
                # only the merge step may promote them
                established[(m, bound, False)] = sid

        elif rule == "merge_min":
            inp = _single_input(sid, step)
            w = _witness(sid, step)
            m = _json_int(sid, inp.get("m"), "m")
            branches = inp.get("branches")
            if not isinstance(branches, list) or not branches:
                raise _Fail(sid, "merge needs branch references")
            if split_labels is None:
                raise _Fail(sid, "merge without a prior split")
            if [br.get("label") for br in branches] != split_labels:
                raise _Fail(sid, "merged branches do not cover the split")
            bounds = []
            for l, br in enumerate(branches):
                ref = steps_by_id.get(br.get("step"))
                if ref is None or ref.get("rule") != "fm_lower_bound":
                    raise _Fail(sid, f"branch {br.get('label')} cites no bound step")
                bound_br = to_rat(br.get("bound"))
                if ref.get("claim") != f"P({m}) >= {rat_str(bound_br)}":
                    raise _Fail(sid, f"branch {br.get('label')} bound mismatch")
                ref_inp = _single_input(sid, ref)
                cids = {c.get("cid") for c in ref_inp.get("constraints", [])}
                # labels follow the split, so branch l is P(1) = l or the tail
                if l == len(split_labels) - 1:
                    hypotheses = {f"H.P1>={l}"}
                else:
                    hypotheses = {f"H.P1={l}.lo", f"H.P1={l}.hi"}
                if not hypotheses <= cids:
                    raise _Fail(sid, f"branch {br['label']} lacks its hypothesis")
                bounds.append(bound_br)
            merged = to_rat(w["bound"])
            if merged != min(bounds):
                raise _Fail(sid, "merged bound is not the branch minimum")
            if step.get("claim") != f"P({m}) >= {rat_str(merged)} on the union of branches":
                raise _Fail(sid, "claim text does not match the witness")
            established[(m, merged, False)] = sid

        elif rule == "fact_to_constraint":
            inp = _single_input(sid, step)
            w = _witness(sid, step)
            m = _json_int(sid, inp.get("m"), "m")
            bound = to_rat(inp["bound"])
            strict = _json_bool(sid, inp.get("strict"), "strict")
            if (m, bound, strict) not in established:
                raise _Fail(sid, f"fact P({m}) >= {bound} was not established")
            entry = w.get("constraint")
            table, _ = _check_constraints(sid, [entry], established, cert.axioms)
            (form, form_strict), = table.values()
            scale = to_rat(w.get("scale", 1))
            if scale <= 0:
                raise _Fail(sid, "scale must be positive")
            if form.scale(scale) != p_affine(m) - AffineForm.constant(bound):
                raise _Fail(sid, "constraint does not rescale to the fact")
            if form_strict != strict:
                raise _Fail(sid, "strictness mismatch")

        elif rule == "eval_p":
            inp = _single_input(sid, step)
            w = _witness(sid, step)
            if cert.chern is None:
                raise _Fail(sid, "eval_p requires chern data")
            m_max = _json_int(sid, inp.get("m_max"), "m_max")
            if not 0 <= m_max <= MAX_TABLE:
                raise _Fail(sid, "value table exceeds verifier limits")
            values = w.get("values")
            if not isinstance(values, list) or len(values) != m_max + 1:
                raise _Fail(sid, "value table has the wrong length")
            for m, v in enumerate(values):
                if p_eval(cert.chern, m) != _json_int(sid, v, f"P({m})"):
                    raise _Fail(sid, f"recorded P({m}) differs from evaluation")

        elif rule == "oracle_values":
            inp = _single_input(sid, step)
            w = _witness(sid, step)
            twists = inp.get("bundle")
            conv = inp.get("convention")
            m_max = _json_int(sid, inp.get("m_max"), "m_max")
            if not 1 <= m_max <= MAX_TABLE:
                raise _Fail(sid, "value table exceeds verifier limits")
            try:
                sb = bundle.SplitBundle(tuple(_json_int(sid, e, "twist") for e in twists))
            except (TypeError, ValueError) as exc:
                raise _Fail(sid, f"bad bundle: {exc}")
            # before any section count: the nef test also bounds the spread
            # of the twists, and with it the symmetric-power pass
            if not bundle.is_nef(sb):
                raise _Fail(sid, "-K is not nef on the bundle, outside the hypotheses")
            values = w.get("values")
            if not isinstance(values, list) or len(values) != m_max:
                raise _Fail(sid, "value table has the wrong length")
            # the verifier's own single pass; it never sees the prover's cache
            recount = bundle.h0_anti(sb, m_max, conv)
            for m, (v, want) in enumerate(zip(values, recount), start=1):
                if _json_int(sid, v, f"h0 at m={m}") != want:
                    raise _Fail(sid, f"recorded h0 at m={m} differs from recomputation")
            if bundle.k5_geometric(sb) != _json_int(sid, inp.get("d5"), "d5"):
                raise _Fail(sid, "recorded (-K)^5 differs from intersection theory")

        elif rule == "oracle_model":
            inp = _single_input(sid, step)
            w = _witness(sid, step)
            value_at, ms = _table_from_step(sid, steps_by_id, inp.get("values_step"))
            model = Poly([to_rat(c) for c in w.get("coeffs", [])])
            if model.degree > 5:
                raise _Fail(sid, "model degree exceeds 5")
            if len(ms) < MODEL_POINTS:
                raise _Fail(sid, "value table too short to pin the polynomial")
            for m in ms:
                if model(m) != value_at(m):
                    raise _Fail(sid, f"model disagrees with values at m = {m}")

        elif rule == "value_at_least":
            inp = _single_input(sid, step)
            w = _witness(sid, step)
            m = _json_int(sid, inp.get("m"), "m")
            value_at, _ = _table_from_step(sid, steps_by_id, inp.get("values_step"))
            value = value_at(m)
            bound = _json_int(sid, w.get("bound"), "bound")
            if _json_int(sid, w.get("value"), "value") != value:
                raise _Fail(sid, "recorded value differs from the table")
            if value < bound:
                raise _Fail(sid, f"P({m}) = {value} is below the claimed bound {bound}")
            established[(m, Fraction(bound), False)] = sid

        elif rule == "dim_search":
            inp = _single_input(sid, step)
            w = _witness(sid, step)
            _verify_dim_search(cert, sid, inp, w, steps_by_id, established, searches)
            # target_dim and the selected m were checked as integers above
            want = f"dim >= {inp['target_dim']} at m = {w['selected']['m']}"
            if step.get("claim") != want:
                raise _Fail(sid, "claim text does not match the selection")

        elif rule == "monotone_tail":
            inp = _single_input(sid, step)
            w = _witness(sid, step)
            monotone_tail_step = step
            _verify_monotone_tail(cert, sid, inp, w, steps_by_id, established)

        elif rule == "compose":
            inp = _single_input(sid, step)
            w = _witness(sid, step)
            compose_step = step
            r0 = _json_int(sid, inp.get("r0"), "r0")
            rs = [_json_int(sid, x, "r") for x in inp["r"]]
            if r0 < 3:
                raise _Fail(sid, "r0 must be >= 3")
            total = r0 + sum(rs)
            if _json_int(sid, w.get("bound"), "bound") != total:
                raise _Fail(sid, "composed bound is not the sum")
            if cert.bound != total or cert.r0 != r0 or cert.r != rs:
                raise _Fail(sid, "certificate header disagrees with composition")
            for target in (1, 2, 3):
                sel = searches.get(target)
                if sel is None:
                    raise _Fail(sid, f"no dimension-{target} witness step")
                if sel["m"] != rs[target - 1]:
                    raise _Fail(sid, f"r{target} does not match its witness step")
            if not any(m == r0 and q >= 1 and not s for (m, q, s) in established):
                raise _Fail(sid, f"P({r0}) >= 1 was never established")
            if monotone_tail_step is None:
                raise _Fail(sid, "monotonicity step is missing")
            # the tail step checked m_start as an integer
            if _single_input(sid, monotone_tail_step)["m_start"] != r0:
                raise _Fail(sid, "monotone tail does not start at r0")
            if step.get("claim") != f"birational for all m >= {total}":
                raise _Fail(sid, "claim text does not match the composition")

        else:
            raise _Fail(sid, f"unknown rule {rule!r}")

    if compose_step is None:
        raise _Fail(None, "certificate has no compose step")


def _verify_dim_search(
    cert: Certificate,
    sid: int,
    inp: dict,
    w: dict,
    steps_by_id: dict,
    established: dict,
    searches: dict,
) -> None:
    target = _json_int(sid, inp.get("target_dim"), "target_dim")
    if target not in (1, 2, 3):
        raise _Fail(sid, "target dimension must be 1, 2, or 3")
    m_max = _json_int(sid, inp.get("m_max"), "m_max")
    if not 1 <= m_max <= MAX_SEARCH:
        raise _Fail(sid, "search range exceeds verifier limits")
    m_start = _json_int(sid, inp.get("m_start", 1), "m_start")
    mode = inp.get("mode")
    sel = w.get("selected")
    if not isinstance(sel, dict):
        raise _Fail(sid, "missing selection")
    sel_m = _json_int(sid, sel.get("m"), "selected m")
    sel_r = sel.get("r")
    if not 1 <= m_start <= sel_m <= m_max:
        raise _Fail(sid, "selected multiple is outside the search range")
    if target >= 2 and (sel.get("rule") != "lemma2" or sel_r is None):
        raise _Fail(sid, "dimension >= 2 needs a lemma2 selection with an exponent")
    # checked before any m**r is computed
    if sel_r is not None and not target - 1 <= _json_int(sid, sel_r, "selected r") <= LEMMA2_R_CAP:
        raise _Fail(sid, f"selected exponent must lie in [{target - 1}, {LEMMA2_R_CAP}]")

    r_options = [None] if target == 1 else list(range(target - 1, LEMMA2_R_CAP + 1))

    # minimality: every (m, r) preceding the selection must appear as a
    # checked failing attempt
    expect: list[tuple[int, Optional[int]]] = []
    for m in range(m_start, sel_m + 1):
        for r in r_options:
            if m == sel_m and (r is None or (sel_r is not None and r >= sel_r)):
                break
            expect.append((m, r))
    attempts = w.get("attempts", [])
    got = [
        (_json_int(sid, a["m"], "attempt m"),
         None if a.get("r") is None else _json_int(sid, a["r"], "attempt r"))
        for a in attempts
    ]
    if got != expect:
        raise _Fail(sid, "failed attempts do not enumerate the search order")

    if mode == "worst_case":
        table, _ = _check_constraints(sid, inp.get("constraints", []), established, cert.axioms)
        for (m, r), a in zip(expect, attempts):
            point = _check_point(sid, a.get("point"), table)
            value = to_rat(a["value"])
            if r is None:
                # P <= 1 at a feasible point caps the derivable integral bound
                form = p_affine(m)
                if form.evaluate(*point) != value or value > 1:
                    raise _Fail(sid, f"attempt at m={m} does not fail nonvanishing")
            else:
                form = lemma2_slack_form(m, r)
                if form.evaluate(*point) != value or value > 0:
                    raise _Fail(sid, f"attempt at m={m}, r={r} does not fail the test")
        if sel.get("rule") == "nonvanishing":
            if target != 1:
                raise _Fail(sid, "nonvanishing only witnesses dimension 1")
            _, _, bound = _check_integral_bound(sid, sel, table, sel_m, cert.axioms)
            if bound < 2:
                raise _Fail(sid, "a pencil needs P(m) >= 2")
            if to_rat(sel["margin"]) != bound - 1:
                raise _Fail(sid, "nonvanishing margin must be bound - 1")
        else:
            raw = to_rat(sel["raw_min"])
            form = lemma2_slack_form(sel_m, sel_r)
            _check_farkas(sid, sel.get("farkas", []), table, form, raw)
            if raw <= 0:
                raise _Fail(sid, "worst-case slack minimum is not positive")
            if to_rat(sel["margin"]) != raw:
                raise _Fail(sid, "margin must equal the slack minimum")
            if sel_r + 1 < target:
                raise _Fail(sid, "lemma instance too weak for the target dimension")
    else:
        value_at, _ = _table_from_step(sid, steps_by_id, inp.get("values_step"))
        d5 = _json_int(sid, inp.get("d5"), "d5")
        if cert.chern is not None:
            if d5 != cert.chern.k5:
                raise _Fail(sid, "d5 differs from the chern data")
        else:
            vs_inp = _single_input(sid, steps_by_id[inp["values_step"]])
            if vs_inp.get("d5") != d5:
                raise _Fail(sid, "d5 differs from the verified value table")
        for (m, r), a in zip(expect, attempts):
            value = value_at(m)
            if _json_int(sid, a["value"], "attempt value") != value:
                raise _Fail(sid, f"attempt value at m={m} differs from the table")
            if r is None:
                if value >= 2:
                    raise _Fail(sid, f"attempt at m={m} does not fail nonvanishing")
            else:
                threshold = lemma2_threshold(m, r, d5)
                if _json_int(sid, a.get("threshold"), "threshold") != threshold or value > threshold:
                    raise _Fail(sid, f"attempt at m={m}, r={r} does not fail the test")
        value = value_at(sel_m)
        if _json_int(sid, sel.get("value"), "selected value") != value:
            raise _Fail(sid, "selected value differs from the table")
        if sel.get("rule") == "nonvanishing":
            if target != 1 or value < 2:
                raise _Fail(sid, "a pencil needs P(m) >= 2")
            if to_rat(sel["margin"]) != value - 1:
                raise _Fail(sid, "nonvanishing margin must be value - 1")
        else:
            threshold = lemma2_threshold(sel_m, sel_r, d5)
            if _json_int(sid, sel.get("threshold"), "selected threshold") != threshold:
                raise _Fail(sid, "selection threshold is wrong")
            if value <= threshold:
                raise _Fail(sid, "value does not clear the threshold strictly")
            if to_rat(sel["margin"]) != value - threshold:
                raise _Fail(sid, "margin must be value - threshold")
            if sel_r + 1 < target:
                raise _Fail(sid, "lemma instance too weak for the target dimension")

    searches[target] = sel


def _verify_monotone_tail(
    cert: Certificate, sid: int, inp: dict, w: dict, steps_by_id: dict, established: dict
) -> None:
    m_start = _json_int(sid, inp.get("m_start"), "m_start")
    mode = inp.get("mode")
    q = Poly([to_rat(c) for c in w.get("q_poly", [])])
    da, db, dk = difference_polys()
    if mode == "worst_case":
        table, _ = _check_constraints(sid, inp.get("constraints", []), established, cert.axioms)
        bcid, acid = inp.get("b_constraint"), inp.get("a_constraint")
        if bcid not in table or acid not in table:
            raise _Fail(sid, "tail cites constraints outside the recorded system")
        bform, bstrict = table[bcid]
        aform, astrict = table[acid]
        if bstrict or astrict:
            raise _Fail(sid, "tail substitution requires non-strict constraints")
        if bform.coeff_b <= 0:
            raise _Fail(sid, "cited constraint gives no lower bound for b")
        if aform.coeff_b != 0 or aform.coeff_a <= 0:
            raise _Fail(sid, "cited constraint gives no lower bound for a")
        if not all(c >= 0 for c in db.shift(m_start).coeffs):
            raise _Fail(sid, "b-substitution is not minimizing on the ray")
        ratio_a = bform.coeff_a / bform.coeff_b
        ratio_k = bform.const / bform.coeff_b
        subst_a = da - db.scale(ratio_a)
        subst_k = dk - db.scale(ratio_k)
        if not all(c >= 0 for c in subst_a.shift(m_start).coeffs):
            raise _Fail(sid, "a-substitution is not minimizing on the ray")
        a_floor = -aform.const / aform.coeff_a
        if q != subst_a.scale(a_floor) + subst_k:
            raise _Fail(sid, "tail polynomial does not match the substitutions")
    elif mode == "concrete":
        if cert.chern is None:
            raise _Fail(sid, "concrete tail requires chern data")
        want = da.scale(cert.chern.a) + db.scale(cert.chern.b) + dk
        if q != want:
            raise _Fail(sid, "tail polynomial does not match the chern data")
    elif mode == "oracle":
        model = _model_from_step(sid, steps_by_id, inp.get("model_step"))
        if q != model.shift(1) - model:
            raise _Fail(sid, "tail polynomial does not match the model difference")
    else:
        raise _Fail(sid, f"unknown tail mode {mode!r}")

    shifted = q.shift(m_start).coeffs
    recorded = [to_rat(c) for c in w.get("q_shifted", [])]
    if list(shifted) != recorded:
        raise _Fail(sid, "recorded shift differs from recomputation")
    if not shifted or any(c < 0 for c in shifted) or shifted[0] <= 0:
        raise _Fail(sid, "shifted tail is not certified positive")
