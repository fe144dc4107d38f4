"""Certificates of birationality bounds and their independent verifier.

A certificate is a JSON document recording every derivation step with
enough exact witnesses (Farkas multipliers, optimal points, section
counts) that the bound it states can be re-checked by substitution and
sign tests alone.  The verifier here never calls the prover's search
machinery: it rebuilds each declared inequality from its descriptor,
replays the arithmetic, and rejects on the first mismatch.  A certificate
writes each value once; whatever the verifier can derive from other fields
is not written at all: no step states what it proves, and no bound that a
minimum or a merge determines is written beside it.

Schema, version 6 (field names are part of the external interface):

    {"version": 6,
     "mode": "worst_case" | "concrete" | "oracle",
     "chern": {"k5": int, "k3c2": int} | null,
     "axioms": [string, ...],
     "constraints": [{"cid": string, "kind": string, "params": [int, ...]}, ...],
     "steps": [{"id": int, "rule": string, "inputs": {...}, "witness": {...}}, ...],
     "r0": int, "r": [int, int, int], "bound": int}

Every object holds exactly the keys shown, and a step's inputs and witness
exactly the keys that _RULES names for its rule and flavor (the README
tabulates them); any other key is refused.  A rule that takes no input
(eval_p, compose) has "inputs": {}.  chern is non-null exactly in concrete
mode.  constraints declares each inequality once, sorted by cid; the
verifier builds its form from kind and params, which are JSON integers
(from_fact's are m and the bound of the fact P(m) >= bound it cites).
Steps cite declarations by cid, and earlier steps by their integer id.

Every declared inequality is closed, form >= 0, and so is every fact a
step establishes, P(m) >= bound with bound an integer: A3 (integrality)
lets the verifier round a proved minimum up to its ceiling, and a merge
establishes the least of its branches' bounds.

Each layer holds one rational type.  The prover writes each rational
once, with exact.rat_str, where it builds the step: "p/q" with the sign on
the numerator, and "/1" omitted.  The verifier reads a rational only as a
string, parsed once by exact.parse_rat into an integer pair: every
worst-case check, of Farkas multipliers, points, minima and attempt
values, cross-multiplies integers.  A certificate's bytes are
json.dumps(doc, sort_keys=True, indent=2) + "\n", as written by _json_bytes.

The verifier is one table, _RULES, from each rule to its checker and its
layout per flavor.  A checker replays one step over the shared _Replay
context and records what it checked (a value table, an oracle model, a
branch bound) for later steps to cite.
It trusts three parts of the package and no prover code: exact (the
rational parser, rationals, polynomials and their difference
p(t + 1) - p(t), affine forms and the positivity test on a ray), hilbert
(P(m) and the Lemma 2 slack as the integer triples p_coeffs and
lemma2_slack_coeffs, on which the point, Farkas and attempt checks run,
p_affine for eval_p, p_poly for the concrete tail, constraint_row and
CONSTRAINT_CIDS, the integer row and the name of each declared kind, the
dimension tests and their search order, and ray_tail, the worst-case tail
built from the integer rows of two cited bounds; the prover calls each of
these too) and bundle (its own recount of the section counts, from the
closed-form moments C(j+4, 4) and C(j+4, 5) * deg E of each row it reads,
a packed row being built only for a degree below -1, and the nef test).  bundle is loaded only by the oracle
rule, oracle_values, so verifying a worst-case or concrete certificate
loads neither bundle nor the dataclasses it uses.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, NamedTuple, Optional

from .exact import Poly, RatPair, over_common_denominator, parse_rat, poly_positive_on_ray
from .hilbert import (
    CONSTRAINT_CIDS,
    ChernData,
    LEMMA2_R_CAP,
    constraint_row,
    lemma2_slack_coeffs,
    p_affine,
    p_coeffs,
    p_poly,
    passes_dimension_test,
    ray_tail,
    search_order,
)

CERT_VERSION = 6

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


def _json_bytes(doc: Any) -> bytes:
    """The bytes of json.dumps(doc, sort_keys=True, indent=2) + "\n", the
    format of every artifact.  indent sends json to its pure-Python encoder,
    so the layout is written here and only strings go to json's C escaper.
    Only dicts with str keys, lists, str, int, bool and None are written;
    anything else, a float or a tuple included, raises TypeError."""
    out: list[str] = []
    _emit(doc, "\n", out.append)
    out.append("\n")
    return "".join(out).encode("ascii")


def _emit(o: Any, nl: str, put: Callable[[str], Any]) -> None:
    t = type(o)
    if t is str:
        put(_quote(o))
    elif t is int:
        put(int.__repr__(o))
    elif o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif t is dict:
        if not o:
            put("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(o):
            if type(k) is not str:
                raise TypeError(f"JSON keys must be str, not {type(k).__name__}")
            put(sep + _quote(k) + ": ")
            _emit(o[k], inner, put)
            sep = "," + inner
        put(nl + "}")
    elif t is list:
        if not o:
            put("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            put(sep)
            _emit(v, inner, put)
            sep = "," + inner
        put(nl + "]")
    else:
        raise TypeError(f"{t.__name__} is not written to JSON")


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
        return _json_bytes(self.to_json_dict())


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
# Verifier
# ---------------------------------------------------------------------------

class VerifyResult(NamedTuple):
    ok: bool
    step_id: Optional[int] = None
    reason: str = ""


class _Fail(Exception):
    """A failed check; verify reports it at the step being replayed."""


def _json_int(value: Any, what: str) -> int:
    """A JSON integer; floats, bools and strings are rejected, not coerced."""
    if not _is_int(value):
        raise _Fail(f"{what} must be an integer, got {value!r}")
    return value


def _exact(obj: Any, keys: frozenset, what: str) -> dict:
    """obj as a JSON object holding exactly keys; any other key is refused."""
    if not isinstance(obj, dict) or obj.keys() != keys:
        raise _Fail(f"{what} must be an object with exactly the keys {sorted(keys)}")
    return obj


def _rat(value: Any, what: str) -> RatPair:
    """A rational written as a "p/q" string, as its integer pair; JSON
    numbers are rejected, not coerced."""
    if not isinstance(value, str):
        raise _Fail(f"{what} must be a rational string, got {value!r}")
    try:
        return parse_rat(value)
    except ValueError as exc:
        raise _Fail(f"{what}: {exc}")


_AXIOM_KINDS = {"k5_floor": "A1", "vanishing": "A4", "mono12": "A5"}
_BRANCH_KINDS = {"p1_eq_lo", "p1_eq_hi", "p1_tail"}


class _Decl(NamedTuple):
    """A declared constraint form >= 0, built from its descriptor."""

    row: tuple[int, int, int, int]  # (ca, cb, k, den): form = (ca, cb, k) / den, den > 0
    kind: str
    params: tuple
    # the fact (m, bound) a from_fact constraint rests on, two ints
    fact: Optional[tuple[int, int]] = None


_DECLARATION_KEYS = frozenset({"cid", "kind", "params"})


def _declarations(cons: list, axioms: list[str]) -> dict[str, _Decl]:
    """Check every constraint declaration once and build its form.

    Ids must be unique, sorted and the names their descriptors give, and an
    axiom constraint must rest on a declared axiom.  A from_fact form is
    its fact P(m) >= bound over the gcd of its coefficients, for an integer
    bound; whether that fact holds depends on the citing step and is
    checked there.
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
        if kind not in CONSTRAINT_CIDS:
            raise _Fail(f"constraint kind {kind!r} not allowed in certificates")
        if kind in _AXIOM_KINDS and _AXIOM_KINDS[kind] not in axioms:
            raise _Fail(f"constraint {cid} uses undeclared axiom {_AXIOM_KINDS[kind]}")
        params = tuple(params)
        if params:
            _json_int(params[0], f"first parameter of {cid}")
        try:
            row = constraint_row(kind, params)
        except (ValueError, TypeError, OverflowError) as exc:
            raise _Fail(f"constraint {cid}: {exc}")
        fact = None
        if kind == "from_fact":
            _json_int(params[1], f"fact bound of {cid}")
            fact = params
        if cid != CONSTRAINT_CIDS[kind].format(*params):
            raise _Fail(f"constraint {cid} is not the name of its descriptor")
        decls[cid] = _Decl(row, kind, params, fact)
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
        self.established: set = set()  # facts (m, bound) under no case
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
                m, bound = decl.fact
                raise _Fail(
                    f"constraint {cid} cites a fact P({m}) >= {bound} "
                    "not established by an earlier step"
                )
            table[cid] = decl
        self.cited.update(table)
        hypotheses = frozenset((d.kind, d.params) for d in table.values() if d.kind in _BRANCH_KINDS)
        return table, hypotheses


def _check_farkas(farkas: Any, table: dict, objective: tuple, value: RatPair) -> None:
    """Replay a Farkas combination: positive multipliers over cited
    constraints summing exactly to objective - value, which proves
    objective >= value, for objective an integer triple (ca, cb, k) from
    hilbert and value a RatPair.  A combination has one spelling: each
    constraint appears once, in cid order.  The sum runs on the integer
    rows and the multipliers' integer pairs."""
    if not isinstance(farkas, list):
        raise _Fail("farkas witness must be a list")
    scale, sa, sb, sk = 1, 0, 0, 0
    prev = None
    for item in farkas:
        try:
            cid, mult = item
        except (TypeError, ValueError) as exc:
            raise _Fail(f"bad farkas entry {item!r}: {exc}")
        mult = _rat(mult, f"farkas multiplier on {cid}")
        if mult.numerator <= 0:
            raise _Fail(f"farkas multiplier on {cid} is not positive")
        if cid not in table:
            raise _Fail(f"farkas cites unknown constraint {cid}")
        if prev is not None and cid <= prev:
            raise _Fail("farkas entries must name distinct constraints in cid order")
        prev = cid
        # (sa, sb, sk) / scale is the sum so far
        ca, cb, k, den = table[cid].row
        new = math.lcm(scale, mult.denominator * den)
        f, g = mult.numerator * new // (mult.denominator * den), new // scale
        sa, sb, sk, scale = sa * g + f * ca, sb * g + f * cb, sk * g + f * k, new
    # (sa, sb, sk) / scale == objective - vn / vd, times scale * vd
    (ca, cb, k), vn, vd = objective, value.numerator, value.denominator
    if sa != scale * ca or sb != scale * cb or sk * vd != scale * (k * vd - vn):
        raise _Fail("farkas combination does not reproduce the bound")


def _check_point(point: Any, table: dict) -> tuple[int, int, int]:
    """The point (a, b) = (x / d, y / d) as integers (x, y, d), d > 0, once
    every cited row (ca, cb, k, den) has ca * x + cb * y + k * d >= 0."""
    try:
        a, b = (_rat(x, "point coordinate") for x in point)
    except (TypeError, ValueError) as exc:
        raise _Fail(f"bad point {point!r}: {exc}")
    ad, bd = a.denominator, b.denominator
    x, y, d = a.numerator * bd, b.numerator * ad, ad * bd
    for cid, decl in table.items():
        ca, cb, k, _ = decl.row
        if ca * x + cb * y + k * d < 0:
            raise _Fail(f"witness point violates constraint {cid}")
    return x, y, d


def _evaluates_to(coeffs: tuple, point: tuple[int, int, int], value: RatPair) -> bool:
    """Whether ca * a + cb * b + k equals value, a RatPair, at a point from
    _check_point."""
    (ca, cb, k), (x, y, d) = coeffs, point
    return (ca * x + cb * y + k * d) * value.denominator == value.numerator * d


# -- one checker per rule --------------------------------------------------------
#
# A checker replays one step from its single input object (empty for a rule
# that takes none) and its witness, whose keys _replay has already checked
# against the rule's layout.  It records what later steps may cite.


def _split_p1(st: _Replay, inp: dict, w: dict) -> None:
    lmax = _json_int(inp["lmax"], "lmax")
    if lmax < 0:
        raise _Fail("split needs lmax >= 0")
    st.split = lmax


def _fm_lower_bound(st: _Replay, inp: dict, w: dict) -> None:
    """P(m) >= raw_min by the Farkas combination, attained at the point;
    A3, which every worst-case certificate declares, makes P(m) an integer,
    so the step proves P(m) >= ceil(raw_min)."""
    m = _json_int(inp["m"], "m")
    table, hypotheses = st.cite(inp["constraints"], branch_ok=True)
    raw = _rat(w["raw_min"], "raw_min")
    _check_farkas(w["farkas"], table, p_coeffs(m), raw)
    if not _evaluates_to(p_coeffs(m), _check_point(w["point"], table), raw):
        raise _Fail("witness point does not attain the minimum")
    bound = -(-raw.numerator // raw.denominator)
    st.record("bound", (m, bound, hypotheses))
    if not hypotheses:
        # bounds proved under case hypotheses stay branch-local; only the
        # merge step may promote them
        st.established.add((m, bound))


def _merge_min(st: _Replay, inp: dict, w: dict) -> None:
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
    st.established.add((m, min(bounds)))


def _table_values(values: Any) -> list:
    if not isinstance(values, list) or not 1 <= len(values) <= MAX_TABLE:
        raise _Fail(f"a value table holds 1 to {MAX_TABLE} values")
    return values


def _eval_p(st: _Replay, inp: dict, w: dict) -> None:
    values = _table_values(w["values"])
    # P(m) as an affine form in rational (a, b): a route apart from the
    # prover's integer p_eval
    a, b = st.cert.chern.a, st.cert.chern.b
    for m, v in enumerate(values):
        if p_affine(m).evaluate(a, b) != _json_int(v, f"P({m})"):
            raise _Fail(f"recorded P({m}) differs from evaluation")
        if v < 0:
            raise _Fail(f"P({m}) = {v} < 0 violates vanishing for m >= 0")
    st.record("value table", _Table(values, 0, st.cert.chern.k5))


def _oracle_values(st: _Replay, inp: dict, w: dict) -> None:
    # the one rule that reads the oracle loads it, so a worst-case or
    # concrete certificate verifies without bundle or dataclasses
    from . import bundle

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
    if not isinstance(w["coeffs"], list):
        raise _Fail("model coefficients must be a list of rational strings")
    coeffs = [_rat(v, "model coefficients") for v in w["coeffs"]]
    while coeffs and not coeffs[-1].numerator:
        coeffs.pop()
    # before the common denominator, whose lcm grows with every coefficient
    if len(coeffs) > MODEL_POINTS:
        raise _Fail(f"model degree exceeds {MODEL_POINTS - 1}")
    model = Poly(*over_common_denominator(coeffs))
    if len(table.values) < MODEL_POINTS:
        raise _Fail("value table too short to pin the polynomial")
    if (m := model.first_mismatch(table.values, table.first)) is not None:
        raise _Fail(f"model disagrees with values at m = {m}")
    st.record("model", model)


def _value_at_least(st: _Replay, inp: dict, w: dict) -> None:
    m = _json_int(inp["m"], "m")
    value = st.result(inp["values_step"], "value table", "values_step").at(m)
    st.established.add((m, value))


# the keys of a failed attempt and of a selection: a table names only the
# multiple and the exponent, the worst case adds what refutes or proves the test
_TABLE_TEST = frozenset({"m", "r"})
_REFUTED_TEST = _TABLE_TEST | {"point", "value"}
_PROVED_TEST = _TABLE_TEST | {"raw_min", "farkas"}


def _worst_case_test(m: int, r: Optional[int]) -> tuple[tuple[int, int, int], int]:
    """The form a worst-case test minimises, as an integer triple, and the
    limit its minimum must exceed to pass: P(m) above 1 for the pencil, so
    that A3 gives P(m) >= 2, and the Lemma 2 slack above 0."""
    return (p_coeffs(m), 1) if r is None else (lemma2_slack_coeffs(m, r), 0)


def _dim_search(st: _Replay, inp: dict, w: dict) -> None:
    target = _json_int(inp["target_dim"], "target_dim")
    if target not in (1, 2, 3):
        raise _Fail("target dimension must be 1, 2, or 3")
    worst = st.cert.mode == WORST_CASE
    # a pencil (P(m) >= 2) witnesses dimension 1 and Lemma 2 every higher one
    nonvanishing = target == 1
    attempt_keys, sel_keys = (_REFUTED_TEST, _PROVED_TEST) if worst else (_TABLE_TEST,) * 2
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

    # minimality: every (m, r) preceding the selection must appear as a
    # checked failing attempt
    order = list(search_order(target, m_start, sel_m))
    expect = order[:order.index((sel_m, sel_r))]
    attempts = w["attempts"]
    if not isinstance(attempts, list):
        raise _Fail("attempts must be a list")
    if len(attempts) != len(expect):  # before any entry is read
        raise _Fail("failed attempts do not enumerate the search order")
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
            coeffs, limit = _worst_case_test(m, r)
            vn, vd = value
            if not _evaluates_to(coeffs, point, value) or vn > limit * vd:
                raise _Fail(f"attempt at m={m}, r={r} does not fail the test")
        coeffs, limit = _worst_case_test(sel_m, sel_r)
        raw = _rat(sel["raw_min"], "raw_min")
        _check_farkas(sel["farkas"], table, coeffs, raw)
        if raw.numerator <= limit * raw.denominator:
            raise _Fail("a pencil needs P(m) >= 2" if nonvanishing
                        else "worst-case slack minimum is not positive")
    else:
        table = st.result(inp["values_step"], "value table", "values_step")
        for m, r in expect:
            if passes_dimension_test(table.at(m), m, r, table.d5):
                raise _Fail(f"attempt at m={m}, r={r} does not fail the test")
        if not passes_dimension_test(table.at(sel_m), sel_m, sel_r, table.d5):
            raise _Fail(f"the selection at m={sel_m}, r={sel_r} does not pass the test")
    st.searches[target] = sel_m


def _monotone_tail(st: _Replay, inp: dict, w: dict) -> None:
    """P(m + 1) - P(m) >= q(m), with q built per flavor, and q(m_start + x)
    has nonnegative coefficients and a positive constant term."""
    m_start = _json_int(inp["m_start"], "m_start")
    mode = st.cert.mode
    if mode == WORST_CASE:
        # the b_constraint's lower bound on b, then the a_constraint's on a,
        # substituted into the difference
        table, _ = st.cite(inp["constraints"])
        bcid, acid = inp["b_constraint"], inp["a_constraint"]
        if bcid not in table or acid not in table:
            raise _Fail("tail cites constraints outside the recorded system")
        try:
            q = ray_tail(table[bcid].row[:3], table[acid].row[:3], m_start)
        except ValueError as exc:
            raise _Fail(str(exc))
    else:
        # the difference of a value table's polynomial: P, or the checked model
        poly = p_poly(st.cert.chern) if mode == CONCRETE else st.result(
            inp["model_step"], "model", "model_step")
        q = poly.difference()

    if not poly_positive_on_ray(q, m_start):
        raise _Fail("shifted tail is not certified positive")
    st.tail_start = m_start


def _compose(st: _Replay, inp: dict, w: dict) -> None:
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
    if not any(m == cert.r0 and q >= 1 for (m, q) in st.established):
        raise _Fail(f"P({cert.r0}) >= 1 was never established")
    if st.tail_start is None:
        raise _Fail("monotonicity step is missing")
    if st.tail_start != cert.r0:
        raise _Fail("monotone tail does not start at r0")
    st.composed = True


class _Rule(NamedTuple):
    check: Callable[[_Replay, dict, dict], None]
    # flavor -> the exact keys of the step's inputs and of its witness.
    # Every certificate sticks to one derivation flavor; mixing would let a
    # step about an unrelated object justify the composed bound
    layouts: dict[str, tuple[frozenset, frozenset]]


def _layout(flavors: tuple[str, ...], inputs: str = "", witness: str = "") -> dict:
    """The same layout for each flavor; key names are space-separated."""
    return dict.fromkeys(flavors, (frozenset(inputs.split()), frozenset(witness.split())))


_TABLES = (CONCRETE, ORACLE)

_RULES = {
    "split_p1": _Rule(_split_p1, _layout((WORST_CASE,), "lmax")),
    "fm_lower_bound": _Rule(
        _fm_lower_bound, _layout((WORST_CASE,), "m constraints", "raw_min farkas point")
    ),
    "merge_min": _Rule(_merge_min, _layout((WORST_CASE,), "m branches")),
    "eval_p": _Rule(_eval_p, _layout((CONCRETE,), "", "values")),
    "oracle_values": _Rule(_oracle_values, _layout((ORACLE,), "bundle convention", "values")),
    "oracle_model": _Rule(_oracle_model, _layout((ORACLE,), "values_step", "coeffs")),
    "value_at_least": _Rule(_value_at_least, _layout(_TABLES, "m values_step")),
    "dim_search": _Rule(_dim_search, {
        **_layout((WORST_CASE,), "target_dim m_start constraints", "attempts selected"),
        **_layout(_TABLES, "target_dim m_start values_step", "attempts selected"),
    }),
    "monotone_tail": _Rule(_monotone_tail, {
        **_layout((WORST_CASE,), "m_start constraints a_constraint b_constraint"),
        **_layout((CONCRETE,), "m_start"),
        **_layout((ORACLE,), "m_start model_step"),
    }),
    "compose": _Rule(_compose, _layout((WORST_CASE, *_TABLES))),
}

_STEP_KEYS = frozenset({"id", "rule", "inputs", "witness"})

# the axioms each flavor rests on, exactly; the prover writes them from here
# and the README documents each
FLAVOR_AXIOMS = {
    WORST_CASE: ["A1", "A3", "A4", "A5"],
    CONCRETE: ["A3", "A4"],
    ORACLE: ["O1", "O2"],
}


def verify(cert: Certificate) -> VerifyResult:
    """Replay every step of a certificate by arithmetic alone.

    Valid means: every declared constraint builds from its descriptor and
    is cited by some step, all Farkas combinations and witness points
    check out, value tables recompute exactly, the rebuilt polynomial tails
    have the certified sign pattern, selections are minimal over their recorded
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
    if flavor not in FLAVOR_AXIOMS:
        raise _Fail(f"unknown mode {flavor!r}")
    if (cert.chern is not None) != (flavor == CONCRETE):
        raise _Fail("chern data must be given exactly in concrete mode")
    if cert.axioms != FLAVOR_AXIOMS[flavor]:
        raise _Fail(f"a {flavor} certificate rests on the axioms {FLAVOR_AXIOMS[flavor]}")
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
        _exact(step, _STEP_KEYS, "a step")
        input_keys, witness_keys = rule.layouts[flavor]
        w = _exact(step["witness"], witness_keys, "witness")
        inp = _exact(step["inputs"], input_keys, "inputs")
        rule.check(st, inp, w)

    st.sid = None
    if not st.composed:
        raise _Fail("certificate has no compose step")
    uncited = sorted(st.decls.keys() - st.cited)
    if uncited:
        raise _Fail(f"constraint {uncited[0]} is declared but cited by no step")
