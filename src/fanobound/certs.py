"""Certificates of birationality bounds and their independent verifier.

A certificate is a JSON document recording every derivation step with
enough exact witnesses (Farkas multipliers, optimal points, polynomial
tails, section counts) that the claimed bound can be re-checked by
substitution and sign tests alone.  The verifier here never calls the
prover's search machinery: it rebuilds each declared inequality from its
descriptor, replays the arithmetic, and rejects on the first mismatch.
A certificate writes each value once; whatever the verifier can derive
from other fields is not written at all.

Schema, version 4 (field names are part of the external interface):

    {"version": 4,
     "mode": "worst_case" | "concrete" | "oracle",
     "chern": {"k5": int, "k3c2": int} | null,
     "axioms": [string, ...],
     "constraints": [{"cid": string, "kind": string, "params": [...],
                      "form": [rational, rational, rational],
                      "strict": bool}, ...],
     "steps": [{"id": int, "rule": string, "inputs": [] | [{...}],
                "witness": {...}, "claim": string}, ...],
     "r0": int, "r": [int, int, int], "bound": int}

Every object holds exactly the keys shown, and a step's input object and
witness exactly the keys that _RULES names for its rule and flavor (the
README tabulates them); any other key is refused.  A rule that takes no
input (eval_p, compose) has "inputs": [].  chern is non-null exactly in
concrete mode.  constraints declares each inequality once, sorted by cid;
steps cite declarations by cid, and earlier steps by their integer id.
Only the steps that derive a bound (fm_lower_bound, merge_min, dim_search
and compose) carry a claim, and the verifier regenerates it.

Rationals serialize as "p/q" strings with the sign on the numerator;
integers omit the "/1".  The verifier reads a rational only as a string.

The verifier is one table, _RULES, from each rule to its checker and its
layout per flavor.  A checker replays one step over the shared _Replay
context, records what it checked (a value table, an oracle model, a branch
bound) for later steps to cite, and returns the claim the step must carry.
It trusts four parts of the package: exact (rationals, polynomials, affine
forms), hilbert (the polynomial P and the Lemma 2 forms), bundle (its own
recount of the section counts, and the nef test) and derive.constraint_form,
which regenerates a declared inequality from its descriptor.
constraint_form still lives beside the prover's search in derive because
the benchmark's trace self-check expects calls under that name; it moves
out together with the next change to the benchmark.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional

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

CERT_VERSION = 4

WORST_CASE = "worst_case"
CONCRETE = "concrete"
ORACLE = "oracle"

# refuse pathological ranges instead of looping on crafted input: the
# length of a value table, and the largest multiple a search may select
MAX_TABLE = 512
# an oracle model is checked on every value of its table; six agreeing
# points pin a degree-5 polynomial, so a shorter table cannot certify the tail
MODEL_POINTS = 6
MAX_SEARCH = 128


class MalformedCertificateError(ValueError):
    """The document is not a structurally valid certificate."""


class Certificate(NamedTuple):
    mode: str
    axioms: list[str]
    constraints: list[dict]
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
            "constraints": self.constraints,
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


_HEADER_KEYS = {"version", "mode", "chern", "axioms", "constraints", "steps", "r0", "r", "bound"}


def from_json_dict(doc: Any) -> Certificate:
    if not isinstance(doc, dict):
        raise MalformedCertificateError("certificate must be a JSON object")
    if doc.keys() != _HEADER_KEYS:
        missing, unknown = _HEADER_KEYS - doc.keys(), doc.keys() - _HEADER_KEYS
        raise MalformedCertificateError(
            f"missing fields {sorted(missing)}, unknown fields {sorted(map(str, unknown))}"
        )
    for key in ("constraints", "steps"):
        if not isinstance(doc[key], list) or not all(isinstance(s, dict) for s in doc[key]):
            raise MalformedCertificateError(f"{key} must be a list of objects")
    axioms = doc["axioms"]
    if not isinstance(axioms, list) or not all(isinstance(a, str) for a in axioms):
        raise MalformedCertificateError("axioms must be a list of strings")
    r = doc["r"]
    if not isinstance(r, list) or len(r) != 3 or not all(_is_int(x) for x in r):
        raise MalformedCertificateError("r must be a list of three integers")
    for key in ("version", "r0", "bound"):
        if not _is_int(doc[key]):
            raise MalformedCertificateError(f"{key} must be an integer")
    chern = doc["chern"]
    if chern is not None:
        if not (
            isinstance(chern, dict)
            and chern.keys() == {"k5", "k3c2"}
            and all(map(_is_int, chern.values()))
        ):
            raise MalformedCertificateError("chern must hold exactly the integers k5 and k3c2")
        try:
            chern = ChernData(chern["k5"], chern["k3c2"])
        except ValueError as exc:
            raise MalformedCertificateError(f"bad chern field: {exc}") from exc
    return Certificate(
        mode=doc["mode"],
        axioms=list(axioms),
        constraints=list(doc["constraints"]),
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


# ---------------------------------------------------------------------------
# Verifier
# ---------------------------------------------------------------------------

class VerifyResult(NamedTuple):
    ok: bool
    step_id: Optional[int] = None
    reason: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


class _Fail(Exception):
    """A failed check; verify reports it at the step being replayed."""


def _json_int(value: Any, what: str) -> int:
    """A JSON integer; floats, bools and strings are rejected, not coerced."""
    if not _is_int(value):
        raise _Fail(f"{what} must be an integer, got {value!r}")
    return value


def _json_bool(value: Any, what: str) -> bool:
    """A JSON boolean; strings, numbers and null are rejected, not coerced."""
    if not isinstance(value, bool):
        raise _Fail(f"{what} must be a boolean, got {value!r}")
    return value


def _exact(obj: Any, keys: frozenset, what: str) -> dict:
    """obj as a JSON object holding exactly keys; any other key is refused."""
    if not isinstance(obj, dict) or obj.keys() != keys:
        raise _Fail(f"{what} must be an object with exactly the keys {sorted(keys)}")
    return obj


def _rat(value: Any, what: str) -> Fraction:
    """A rational written as a "p/q" string; JSON numbers are rejected, not
    coerced."""
    if not isinstance(value, str):
        raise _Fail(f"{what} must be a rational string, got {value!r}")
    try:
        return to_rat(value)
    except ValueError as exc:
        raise _Fail(f"{what}: {exc}")


def _rats(value: Any, what: str) -> list[Fraction]:
    if not isinstance(value, list):
        raise _Fail(f"{what} must be a list of rational strings")
    return [_rat(v, what) for v in value]


def _parse_form(data: Any) -> AffineForm:
    coeffs = _rats(data, "form")
    if len(coeffs) != 3:
        raise _Fail(f"bad affine form {data!r}")
    return AffineForm.of(*coeffs)


_AXIOM_KINDS = {"k5_floor": "A1", "vanishing": "A4", "mono12": "A5"}
_BRANCH_KINDS = {"p1_eq_lo", "p1_eq_hi", "p1_tail"}


class _Decl(NamedTuple):
    """A declared constraint, checked against its descriptor."""

    form: AffineForm
    strict: bool
    kind: str
    params: tuple
    fact: Optional[tuple] = None  # (m, bound, strict) a from_fact constraint rests on


_DECLARATION_KEYS = frozenset({"cid", "kind", "params", "form", "strict"})


def _declarations(cons: list, axioms: list[str]) -> dict[str, _Decl]:
    """Check every constraint declaration once.

    Ids must be unique and sorted; a form must regenerate from its
    descriptor, and an axiom constraint must rest on a declared axiom.
    A from_fact form must be a positive multiple of the fact it cites;
    whether that fact holds depends on the citing step and is checked there.
    """
    decls: dict[str, _Decl] = {}
    last = None
    for entry in cons:
        _exact(entry, _DECLARATION_KEYS, "a constraint declaration")
        cid, kind, params = entry["cid"], entry["kind"], entry["params"]
        if not isinstance(cid, str) or (last is not None and cid <= last):
            raise _Fail(f"constraint id {cid!r} is not unique and in sorted order")
        last = cid
        if not isinstance(kind, str) or not isinstance(params, list):
            raise _Fail(f"constraint {cid} needs a kind string and a params list")
        recorded = _parse_form(entry["form"])
        strict = _json_bool(entry["strict"], f"strict flag of {cid}")
        if kind in _AXIOM_KINDS:
            if _AXIOM_KINDS[kind] not in axioms:
                raise _Fail(f"constraint {cid} uses undeclared axiom {_AXIOM_KINDS[kind]}")
        elif kind not in _BRANCH_KINDS and kind != "from_fact":
            raise _Fail(f"constraint kind {kind!r} not allowed in certificates")
        params = tuple(params)
        if params:
            _json_int(params[0], f"first parameter of {cid}")
        try:
            rebuilt, rebuilt_strict = constraint_form(kind, params)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise _Fail(f"constraint {cid}: {exc}")
        if rebuilt != recorded or rebuilt_strict != strict:
            raise _Fail(f"constraint {cid} does not match its descriptor")
        fact = None
        if kind == "from_fact":
            m, bound, scale, f_strict = params
            if _rat(scale, f"scale of {cid}") <= 0:
                raise _Fail(f"constraint {cid} must divide its fact by a positive scale")
            fact = (
                m,
                _rat(bound, f"fact bound of {cid}"),
                _json_bool(f_strict, f"fact strictness of {cid}"),
            )
        decls[cid] = _Decl(recorded, strict, kind, params, fact)
    return decls


class _Table(NamedTuple):
    """A checked value table: the values at m = first, first + 1, ... of a
    variety with (-K)^5 = d5."""

    values: list[int]
    first: int
    d5: int

    def at(self, m: int) -> int:
        if not 0 <= m - self.first < len(self.values):
            raise _Fail(f"value table has no entry for m = {m}")
        return self.values[m - self.first]


class _Replay:
    """What the verifier knows while it replays the steps in order."""

    def __init__(self, cert: Certificate) -> None:
        self.cert = cert
        self.sid: Optional[int] = None  # the step being replayed; None outside the steps
        self.decls: dict[str, _Decl] = {}
        self.cited: set = set()
        self.established: set = set()  # facts (m, bound, strict) under no case
        self.results: dict = {}  # step id -> (kind, what its check recorded)
        self.split: Optional[int] = None  # lmax of the P(1) case split
        self.searches: dict = {}  # target dimension -> selected m
        self.tail_start: Optional[int] = None
        self.composed = False

    def record(self, kind: str, result: Any) -> None:
        """Keep what the current step checked for later steps to cite."""
        self.results[self.sid] = (kind, result)

    def result(self, ref: Any, kind: str, what: str) -> Any:
        """What an earlier step of this kind recorded; ref is its id, a JSON
        integer."""
        got = self.results.get(ref) if _is_int(ref) else None
        if got is None or got[0] != kind:
            raise _Fail(f"{what} cites no earlier {kind} step")
        return got[1]

    def cite(self, cids: Any, branch_ok: bool = False) -> tuple[dict[str, _Decl], frozenset]:
        """The declarations a step cites, by cid, and the case hypotheses on
        P(1) among them as (kind, params) pairs.

        Hypotheses are legal only where branch_ok says so, and a from_fact
        constraint only once an earlier step established its fact.
        """
        if not isinstance(cids, list):
            raise _Fail("constraints must be a list of constraint ids")
        table: dict[str, _Decl] = {}
        for cid in cids:
            decl = self.decls.get(cid) if isinstance(cid, str) else None
            if decl is None:
                raise _Fail(f"cites undeclared constraint {cid!r}")
            if cid in table:
                raise _Fail(f"cites constraint {cid} twice")
            if decl.kind in _BRANCH_KINDS and not branch_ok:
                raise _Fail(f"case hypothesis {cid} outside a branch step")
            if decl.fact is not None and decl.fact not in self.established:
                m, bound, _ = decl.fact
                raise _Fail(
                    f"constraint {cid} cites a fact P({m}) >= {rat_str(bound)} "
                    "not established by an earlier step"
                )
            table[cid] = decl
        self.cited.update(table)
        hypotheses = frozenset((d.kind, d.params) for d in table.values() if d.kind in _BRANCH_KINDS)
        return table, hypotheses


def _check_farkas(farkas: Any, table: dict, objective: AffineForm, value: Fraction) -> bool:
    """Replay a Farkas combination: nonnegative multipliers over cited
    constraints summing exactly to objective - value.  Returns whether the
    combination proves a strict bound."""
    if not isinstance(farkas, list):
        raise _Fail("farkas witness must be a list")
    acc = AffineForm.constant(0)
    strict = False
    for item in farkas:
        try:
            cid, mult = item
        except (TypeError, ValueError) as exc:
            raise _Fail(f"bad farkas entry {item!r}: {exc}")
        mult = _rat(mult, f"farkas multiplier on {cid}")
        if mult < 0:
            raise _Fail(f"negative farkas multiplier on {cid}")
        if cid not in table:
            raise _Fail(f"farkas cites unknown constraint {cid}")
        decl = table[cid]
        acc = acc + decl.form.scale(mult)
        if mult > 0 and decl.strict:
            strict = True
    if acc != objective - AffineForm.constant(value):
        raise _Fail("farkas combination does not reproduce the bound")
    return strict


def _check_point(point: Any, table: dict) -> tuple[Fraction, Fraction]:
    try:
        a, b = (_rat(x, "point coordinate") for x in point)
    except (TypeError, ValueError) as exc:
        raise _Fail(f"bad point {point!r}: {exc}")
    for cid, decl in table.items():
        v = decl.form.evaluate(a, b)
        if v < 0 or (v == 0 and decl.strict):
            raise _Fail(f"witness point violates constraint {cid}")
    return a, b


def _integral_bound(w: dict, table: dict, m: int) -> tuple[Fraction, bool, Fraction]:
    """Replay P(m) >= bound from a recorded minimum raw_min.  The Farkas
    combination proves raw_min, strictly when it puts weight on a strict
    constraint, and bound must be raw_min rounded up by A3, which every
    worst-case certificate declares: floor + 1 after a strict combination,
    the ceiling otherwise.  Returns raw_min, the strictness and the bound."""
    raw = _rat(w["raw_min"], "raw_min")
    strict = _check_farkas(w["farkas"], table, p_affine(m), raw)
    bound = _rat(w["bound"], "bound")
    if bound != (math.floor(raw) + 1 if strict else math.ceil(raw)):
        raise _Fail("bound is not raw_min rounded up by A3")
    return raw, strict, bound


# -- one checker per rule --------------------------------------------------------
#
# A checker replays one step from its single input object (empty for a rule
# that takes none) and its witness, whose keys _replay has already checked
# against the rule's layout.  It records what later steps may cite and
# returns the claim the step must carry, or None for a rule that derives no
# bound.


def _split_p1(st: _Replay, inp: dict, w: dict) -> None:
    lmax = _json_int(inp["lmax"], "lmax")
    if lmax < 0:
        raise _Fail("split needs lmax >= 0")
    st.split = lmax


def _fm_lower_bound(st: _Replay, inp: dict, w: dict) -> str:
    m = _json_int(inp["m"], "m")
    table, hypotheses = st.cite(inp["constraints"], branch_ok=True)
    raw, strict, bound = _integral_bound(w, table, m)
    # a strict combination shows the minimum is not attained; otherwise the
    # point attains it
    if (w["point"] is None) != strict:
        raise _Fail("the point is null exactly when the minimum is not attained")
    if not strict and p_affine(m).evaluate(*_check_point(w["point"], table)) != raw:
        raise _Fail("witness point does not attain the minimum")
    st.record("bound", (m, bound, hypotheses))
    if not hypotheses:
        # bounds proved under case hypotheses stay branch-local; only the
        # merge step may promote them
        st.established.add((m, bound, False))
    return f"P({m}) >= {rat_str(bound)}"


def _merge_min(st: _Replay, inp: dict, w: dict) -> str:
    m = _json_int(inp["m"], "m")
    branches = inp["branches"]
    if st.split is None:
        raise _Fail("merge without a prior split")
    if not isinstance(branches, list) or len(branches) != st.split + 2:
        raise _Fail("merged branches do not cover the split")
    bounds = []
    for l, ref in enumerate(branches):
        # an earlier step only: a later branch could cite the merged fact
        ref_m, bound, hypotheses = st.result(ref, "bound", f"branch {l}")
        if ref_m != m:
            raise _Fail(f"branch {l} bounds P({ref_m}), not P({m})")
        # branches follow the split: P(1) = l, and last the tail
        if l == len(branches) - 1:
            want = {("p1_tail", (l,))}
        else:
            want = {("p1_eq_lo", (l,)), ("p1_eq_hi", (l,))}
        if hypotheses != want:
            raise _Fail(f"branch {l} does not rest on its own hypothesis")
        bounds.append(bound)
    merged = _rat(w["bound"], "merged bound")
    if merged != min(bounds):
        raise _Fail("merged bound is not the branch minimum")
    st.established.add((m, merged, False))
    return f"P({m}) >= {rat_str(merged)} on the union of branches"


def _table_values(values: Any) -> list:
    if not isinstance(values, list) or not 1 <= len(values) <= MAX_TABLE:
        raise _Fail(f"a value table holds 1 to {MAX_TABLE} values")
    return values


def _eval_p(st: _Replay, inp: dict, w: dict) -> None:
    values = _table_values(w["values"])
    for m, v in enumerate(values):
        if p_eval(st.cert.chern, m) != _json_int(v, f"P({m})"):
            raise _Fail(f"recorded P({m}) differs from evaluation")
    st.record("value table", _Table(values, 0, st.cert.chern.k5))


def _oracle_values(st: _Replay, inp: dict, w: dict) -> None:
    try:
        sb = bundle.SplitBundle(tuple(_json_int(e, "twist") for e in inp["bundle"]))
    except (TypeError, ValueError) as exc:
        raise _Fail(f"bad bundle: {exc}")
    # before any section count: the nef test also bounds the spread of the
    # twists, and with it the symmetric-power pass
    if not bundle.is_nef(sb):
        raise _Fail("-K is not nef on the bundle, outside the hypotheses")
    values = _table_values(w["values"])
    # the verifier's own single pass; it never sees the prover's cache
    recount = bundle.h0_anti(sb, len(values), inp["convention"])
    for m, (v, want) in enumerate(zip(values, recount), start=1):
        if _json_int(v, f"h0 at m={m}") != want:
            raise _Fail(f"recorded h0 at m={m} differs from recomputation")
    st.record("value table", _Table(values, 1, bundle.k5_geometric(sb)))


def _oracle_model(st: _Replay, inp: dict, w: dict) -> None:
    table = st.result(inp["values_step"], "value table", "values_step")
    model = Poly(_rats(w["coeffs"], "model coefficients"))
    if model.degree > 5:
        raise _Fail("model degree exceeds 5")
    if len(table.values) < MODEL_POINTS:
        raise _Fail("value table too short to pin the polynomial")
    for m, value in enumerate(table.values, start=table.first):
        if model(m) != value:
            raise _Fail(f"model disagrees with values at m = {m}")
    st.record("model", model)


def _value_at_least(st: _Replay, inp: dict, w: dict) -> None:
    m = _json_int(inp["m"], "m")
    value = st.result(inp["values_step"], "value table", "values_step").at(m)
    st.established.add((m, Fraction(value), False))


# the keys of a failed attempt and of a selection: a table names only the
# multiple and the exponent, the worst case adds what refutes or proves the test
_TABLE_TEST = frozenset({"m", "r"})
_REFUTED_TEST = _TABLE_TEST | {"point", "value"}
_LEMMA2_SELECTION = _TABLE_TEST | {"raw_min", "farkas"}
_PENCIL_SELECTION = _LEMMA2_SELECTION | {"bound"}


def _passes(table: _Table, m: int, r: Optional[int]) -> bool:
    """Whether the table's value at m passes the pencil test (r is None) or
    the strict Lemma 2 test with exponent r."""
    value = table.at(m)
    return value >= 2 if r is None else value > lemma2_threshold(m, r, table.d5)


def _dim_search(st: _Replay, inp: dict, w: dict) -> str:
    target = _json_int(inp["target_dim"], "target_dim")
    if target not in (1, 2, 3):
        raise _Fail("target dimension must be 1, 2, or 3")
    worst = st.cert.mode == WORST_CASE
    # a pencil (P(m) >= 2) witnesses dimension 1 and Lemma 2 every higher one
    nonvanishing = target == 1
    if worst:
        attempt_keys = _REFUTED_TEST
        sel_keys = _PENCIL_SELECTION if nonvanishing else _LEMMA2_SELECTION
    else:
        attempt_keys = sel_keys = _TABLE_TEST
    sel = _exact(w["selected"], sel_keys, "selection")
    m_start = _json_int(inp["m_start"], "m_start")
    sel_m = _json_int(sel["m"], "selected m")
    sel_r = sel["r"]
    if not 1 <= m_start <= sel_m <= MAX_SEARCH:
        raise _Fail("selected multiple is outside the search range")
    if nonvanishing:
        if sel_r is not None:
            raise _Fail("a dimension-1 selection has no exponent")
    elif not target - 1 <= _json_int(sel_r, "selected r") <= LEMMA2_R_CAP:
        # refused before any m**r is computed
        raise _Fail(f"selected exponent must lie in [{target - 1}, {LEMMA2_R_CAP}]")

    r_options = [None] if nonvanishing else list(range(target - 1, LEMMA2_R_CAP + 1))

    # minimality: every (m, r) preceding the selection must appear as a
    # checked failing attempt
    expect: list[tuple[int, Optional[int]]] = []
    for m in range(m_start, sel_m + 1):
        for r in r_options:
            if m == sel_m and (r is None or r >= sel_r):
                break
            expect.append((m, r))
    attempts = w["attempts"]
    if not isinstance(attempts, list):
        raise _Fail("attempts must be a list")
    got = []
    for a in attempts:
        m, r = _exact(a, attempt_keys, "attempt")["m"], a["r"]
        got.append((_json_int(m, "attempt m"), None if r is None else _json_int(r, "attempt r")))
    if got != expect:
        raise _Fail("failed attempts do not enumerate the search order")

    if worst:
        table, _ = st.cite(inp["constraints"])
        for (m, r), a in zip(expect, attempts):
            point = _check_point(a["point"], table)
            value = _rat(a["value"], "attempt value")
            # P <= 1 at a feasible point caps the derivable integral bound
            form, limit = (p_affine(m), 1) if r is None else (lemma2_slack_form(m, r), 0)
            if form.evaluate(*point) != value or value > limit:
                raise _Fail(f"attempt at m={m}, r={r} does not fail the test")
        if nonvanishing:
            if _integral_bound(sel, table, sel_m)[2] < 2:
                raise _Fail("a pencil needs P(m) >= 2")
        else:
            raw = _rat(sel["raw_min"], "raw_min")
            _check_farkas(sel["farkas"], table, lemma2_slack_form(sel_m, sel_r), raw)
            if raw <= 0:
                raise _Fail("worst-case slack minimum is not positive")
    else:
        table = st.result(inp["values_step"], "value table", "values_step")
        for m, r in expect:
            if _passes(table, m, r):
                raise _Fail(f"attempt at m={m}, r={r} does not fail the test")
        if not _passes(table, sel_m, sel_r):
            raise _Fail(f"the selection at m={sel_m}, r={sel_r} does not pass the test")
    st.searches[target] = sel_m
    return f"dim >= {target} at m = {sel_m}"


def _monotone_tail(st: _Replay, inp: dict, w: dict) -> None:
    m_start = _json_int(inp["m_start"], "m_start")
    q = Poly(_rats(w["q_poly"], "q_poly"))
    mode = st.cert.mode
    if mode == WORST_CASE:
        table, _ = st.cite(inp["constraints"])
        bcid, acid = inp["b_constraint"], inp["a_constraint"]
        if bcid not in table or acid not in table:
            raise _Fail("tail cites constraints outside the recorded system")
        bform, bstrict = table[bcid].form, table[bcid].strict
        aform, astrict = table[acid].form, table[acid].strict
        if bstrict or astrict:
            raise _Fail("tail substitution requires non-strict constraints")
        if bform.coeff_b <= 0:
            raise _Fail("cited constraint gives no lower bound for b")
        if aform.coeff_b != 0 or aform.coeff_a <= 0:
            raise _Fail("cited constraint gives no lower bound for a")
        da, db, dk = difference_polys()
        if not all(c >= 0 for c in db.shift(m_start).coeffs):
            raise _Fail("b-substitution is not minimizing on the ray")
        ratio_a = bform.coeff_a / bform.coeff_b
        ratio_k = bform.const / bform.coeff_b
        subst_a = da - db.scale(ratio_a)
        subst_k = dk - db.scale(ratio_k)
        if not all(c >= 0 for c in subst_a.shift(m_start).coeffs):
            raise _Fail("a-substitution is not minimizing on the ray")
        a_floor = -aform.const / aform.coeff_a
        if q != subst_a.scale(a_floor) + subst_k:
            raise _Fail("tail polynomial does not match the substitutions")
    elif mode == CONCRETE:
        da, db, dk = difference_polys()
        if q != da.scale(st.cert.chern.a) + db.scale(st.cert.chern.b) + dk:
            raise _Fail("tail polynomial does not match the chern data")
    else:
        model = st.result(inp["model_step"], "model", "model_step")
        if q != model.shift(1) - model:
            raise _Fail("tail polynomial does not match the model difference")

    shifted = q.shift(m_start).coeffs
    if not shifted or any(c < 0 for c in shifted) or shifted[0] <= 0:
        raise _Fail("shifted tail is not certified positive")
    st.tail_start = m_start


def _compose(st: _Replay, inp: dict, w: dict) -> str:
    cert = st.cert
    if cert.r0 < 3:
        raise _Fail("r0 must be >= 3")
    if cert.bound != cert.r0 + sum(cert.r):
        raise _Fail("the certificate's bound is not the sum r0 + r1 + r2 + r3")
    for target in (1, 2, 3):
        if target not in st.searches:
            raise _Fail(f"no dimension-{target} witness step")
        if st.searches[target] != cert.r[target - 1]:
            raise _Fail(f"r{target} does not match its witness step")
    if not any(m == cert.r0 and q >= 1 and not s for (m, q, s) in st.established):
        raise _Fail(f"P({cert.r0}) >= 1 was never established")
    if st.tail_start is None:
        raise _Fail("monotonicity step is missing")
    if st.tail_start != cert.r0:
        raise _Fail("monotone tail does not start at r0")
    st.composed = True
    return f"birational for all m >= {cert.bound}"


class _Rule(NamedTuple):
    check: Callable[[_Replay, dict, dict], Optional[str]]
    # flavor -> the exact keys of the step's input object (None for a rule
    # that takes no input) and of its witness.  Every certificate sticks to
    # one derivation flavor; mixing would let a step about an unrelated
    # object justify the composed bound
    layouts: dict[str, tuple[Optional[frozenset], frozenset]]


def _layout(flavors: tuple[str, ...], inputs: Optional[str], witness: str = "") -> dict:
    """The same layout for each flavor; key names are space-separated."""
    keys = (None if inputs is None else frozenset(inputs.split()), frozenset(witness.split()))
    return dict.fromkeys(flavors, keys)


_TABLES = (CONCRETE, ORACLE)

_RULES = {
    "split_p1": _Rule(_split_p1, _layout((WORST_CASE,), "lmax")),
    "fm_lower_bound": _Rule(
        _fm_lower_bound, _layout((WORST_CASE,), "m constraints", "raw_min farkas bound point")
    ),
    "merge_min": _Rule(_merge_min, _layout((WORST_CASE,), "m branches", "bound")),
    "eval_p": _Rule(_eval_p, _layout((CONCRETE,), None, "values")),
    "oracle_values": _Rule(_oracle_values, _layout((ORACLE,), "bundle convention", "values")),
    "oracle_model": _Rule(_oracle_model, _layout((ORACLE,), "values_step", "coeffs")),
    "value_at_least": _Rule(_value_at_least, _layout(_TABLES, "m values_step")),
    "dim_search": _Rule(_dim_search, {
        **_layout((WORST_CASE,), "target_dim m_start constraints", "attempts selected"),
        **_layout(_TABLES, "target_dim m_start values_step", "attempts selected"),
    }),
    "monotone_tail": _Rule(_monotone_tail, {
        **_layout((WORST_CASE,), "m_start constraints a_constraint b_constraint", "q_poly"),
        **_layout((CONCRETE,), "m_start", "q_poly"),
        **_layout((ORACLE,), "m_start model_step", "q_poly"),
    }),
    "compose": _Rule(_compose, _layout((WORST_CASE, *_TABLES), None)),
}

_STEP_KEYS = frozenset({"id", "rule", "inputs", "witness", "claim"})

# the axioms each flavor rests on, exactly; the README documents each
_FLAVOR_AXIOMS = {
    WORST_CASE: ["A1", "A3", "A4", "A5"],
    CONCRETE: ["A3", "A4"],
    ORACLE: ["O1", "O2"],
}


def verify(cert: Certificate) -> VerifyResult:
    """Replay every step of a certificate by arithmetic alone.

    Valid means: every declared constraint regenerates from its descriptor
    and is cited by some step, all Farkas combinations and witness points
    check out, value tables recompute exactly, polynomial tails have the
    certified sign pattern, selections are minimal over their recorded
    search ranges, and the final bound equals the recomposed sum.  A
    failure names the step being replayed, or none outside the steps.
    """
    st = _Replay(cert)
    try:
        _replay(st)
    except _Fail as f:
        return VerifyResult(False, st.sid, str(f))
    except (
        KeyError, TypeError, ValueError, IndexError, ZeroDivisionError, AttributeError
    ) as exc:
        return VerifyResult(False, st.sid, f"malformed step data: {exc!r}")
    return VerifyResult(True)


def _replay(st: _Replay) -> None:
    cert = st.cert
    if cert.version != CERT_VERSION:
        raise _Fail(f"unsupported version {cert.version}")
    flavor = cert.mode
    if flavor not in _FLAVOR_AXIOMS:
        raise _Fail(f"unknown mode {flavor!r}")
    if (cert.chern is not None) != (flavor == CONCRETE):
        raise _Fail("chern data must be given exactly in concrete mode")
    if cert.axioms != _FLAVOR_AXIOMS[flavor]:
        raise _Fail(f"a {flavor} certificate rests on the axioms {_FLAVOR_AXIOMS[flavor]}")
    st.decls = _declarations(cert.constraints, cert.axioms)

    for step in cert.steps:
        last, sid = st.sid or 0, step.get("id")
        st.sid = sid if _is_int(sid) else None
        if st.sid is None or sid <= last:
            raise _Fail("step ids must increase")
        name = step.get("rule")
        rule = _RULES.get(name) if isinstance(name, str) else None
        if rule is None:
            raise _Fail(f"unknown rule {name!r}")
        if flavor not in rule.layouts:
            raise _Fail(f"rule {name!r} does not belong to a {flavor} certificate")
        if not step.keys() <= _STEP_KEYS:
            raise _Fail(f"a step has only the keys {sorted(_STEP_KEYS)}")
        input_keys, witness_keys = rule.layouts[flavor]
        w = _exact(step.get("witness"), witness_keys, "witness")
        inputs = step.get("inputs")
        if input_keys is None:
            if inputs != []:
                raise _Fail(f"rule {name} takes no inputs")
            inp = {}
        elif isinstance(inputs, list) and len(inputs) == 1:
            inp = _exact(inputs[0], input_keys, "input")
        else:
            raise _Fail("inputs must be a one-element list holding an object")
        claim = rule.check(st, inp, w)
        if claim is None:
            if "claim" in step:
                raise _Fail(f"rule {name} derives no bound, so its step carries no claim")
        elif step.get("claim") != claim:
            raise _Fail("claim text does not match the witness")

    st.sid = None
    if not st.composed:
        raise _Fail("certificate has no compose step")
    uncited = sorted(st.decls.keys() - st.cited)
    if uncited:
        raise _Fail(f"constraint {uncited[0]} is declared but cited by no step")
