"""Dimension rules, minimal-multiple searches, and bound composition.

Two rules produce dimension witnesses for the image of the map attached
to |-mK|:

  * nonvanishing: h0(-mK) >= 2 gives a nonconstant map, so dim >= 1;
  * the Matsusaka-Maehara test: h0(-mK) > m^r (-K)^5 + r gives dim > r.

The composition rule then says: if |-rK| is nonempty for every r >= r0
(with r0 >= 3) and dim >= i is witnessed at r_i for i = 1, 2, 3, the map
is birational for all m >= r0 + r1 + r2 + r3.

Searches read one of two sources: a constraint system in (a, b) for the
worst case, or a table of exact values.  Concrete Chern data and an h0
oracle both become value tables; Chern data brings its known polynomial,
an oracle's is interpolated and checked once per solve.  Every solve
produces a Certificate whose steps the independent verifier in certs can
replay.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .exact import rat_str
from .hilbert import ChernData, LEMMA2_R_CAP, lemma2_slack_form, lemma2_threshold, p_affine
from . import certs
from .bundle import OracleSource, SplitBundle, is_nef
from .derive import (
    Constraint,
    ConstraintSystem,
    Fact,
    InfeasibleSystemError,
    MinimizeResult,
    MonotoneCertificationError,
    TailCertificate,
    ValueTable,
    axiom_system,
    chern_table,
    derive_lower_bound,
    fm_minimize,
    geometry_system,
    interpolate_model,
    merge_branch_facts,
    monotone_from,
    point_with_value_below,
    split_on_p1,
    strengthen_integral,
    table_monotone,
)

DEFAULT_M_MAX = 32
DEFAULT_LMAX = 3


class CertificationError(Exception):
    """A solve step failed; the message names the failing step."""


class SearchExhaustedError(CertificationError):
    """No witness within the search budget m_max."""


class DimWitness(NamedTuple("DimWitness", [
    ("target_dim", int), ("m", int), ("rule", str), ("margin", Fraction),
    ("r_used", Optional[int]),
])):
    """Evidence that the image of the map at multiple m has dimension at
    least target_dim, with the exact positive margin of the inequality.
    rule is "nonvanishing" or "lemma2"."""

    __slots__ = ()
    # _replace builds through _make, so a replaced field is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(
        cls, target_dim: int, m: int, rule: str, margin: Fraction,
        r_used: Optional[int] = None,
    ) -> "DimWitness":
        if margin <= 0:
            raise ValueError("a witness needs a positive margin")
        if rule == "nonvanishing" and target_dim != 1:
            raise ValueError("nonvanishing only witnesses dimension 1")
        return super().__new__(cls, target_dim, m, rule, margin, r_used)


def nonvanishing_rule(fact: Fact) -> Optional[DimWitness]:
    """A pencil rule: P(m) >= 2 means the map at m is nonconstant."""
    bound = fact.bound if not fact.strict else fact.bound + 1
    if bound >= 2:
        return DimWitness(1, fact.m, "nonvanishing", bound - 1)
    return None


def lemma2_check(h0: int, m: int, r: int, d5: int) -> Optional[DimWitness]:
    """Strict dimension test on exact values: h0 > threshold gives
    dim >= r + 1; the boundary is not a pass."""
    t = lemma2_threshold(m, r, d5)
    if h0 > t:
        return DimWitness(r + 1, m, "lemma2", Fraction(h0 - t), r_used=r)
    return None


def compose_bound(r0: int, rs: Sequence[int]) -> int:
    """The composition rule's bound r0 + r1 + r2 + r3."""
    if len(rs) != 3:
        raise ValueError("need the three dimension multiples r1, r2, r3")
    return r0 + sum(rs)


# ---------------------------------------------------------------------------
# Search sources
# ---------------------------------------------------------------------------

def oracle_table(source: OracleSource, m_max: int) -> ValueTable:
    """The oracle's values for m = 1..m_max and the polynomial through its
    first six, checked against every value of the table so that the
    polynomial's difference certifies the monotone tail."""
    if m_max < certs.MODEL_POINTS:
        raise CertificationError(
            f"an oracle model needs {certs.MODEL_POINTS} values, the table has {m_max}"
        )
    # largest multiple first: a table-filling oracle then counts once
    values = [source.h0(m) for m in range(m_max, 0, -1)][::-1]
    model = interpolate_model(source.h0, list(range(1, certs.MODEL_POINTS + 1)))
    for m, value in enumerate(values, start=1):
        if model(m) != value:
            raise CertificationError(
                f"oracle is not polynomial at m = {m}; the tail cannot be certified"
            )
    return ValueTable(tuple(values), 1, source.d5, model, "oracle")


Source = Union[ConstraintSystem, ValueTable]


def _integral_bound(m: int, res: MinimizeResult) -> tuple[Fact, dict]:
    """P(m) >= the minimum of res, rounded up by A3, and the record of both
    bounds that the verifier replays."""
    fact = strengthen_integral(Fact(m, res.value, res.strict))
    return fact, {
        "raw_min": rat_str(res.value),
        "farkas": certs.ser_farkas(res.farkas),
        "bound": rat_str(fact.bound),
    }


class SearchOutcome(NamedTuple):
    m: int
    witness: DimWitness
    selected: dict
    attempts: tuple[dict, ...]


def _worst_case_attempt(
    cs: ConstraintSystem, m: int, r: Optional[int]
) -> tuple[Optional[DimWitness], dict]:
    """The test at (m, r) over cs, minimized once: its witness and the
    selection record on a pass, or None and a failed attempt carrying a
    feasible point that refutes the test.

    r = None is the pencil test.  A point with P(m) <= 1 refutes it: the
    strongest derivable integral bound is then at most 1.
    """
    form = p_affine(m) if r is None else lemma2_slack_form(m, r)
    res = fm_minimize(cs, form)
    if res.status == "infeasible":
        raise InfeasibleSystemError("search system is contradictory")
    if res.status == "minimum":
        if r is None:
            fact, record = _integral_bound(m, res)
            witness = nonvanishing_rule(fact)
            if witness is not None:
                return witness, {"m": m, "r": None, **record}
        elif res.value > 0:
            return DimWitness(r + 1, m, "lemma2", res.value, r_used=r), {
                "m": m,
                "r": r,
                "raw_min": rat_str(res.value),
                "farkas": certs.ser_farkas(res.farkas),
            }
    limit = Fraction(1 if r is None else 0)
    if res.status == "minimum" and res.attained and res.value <= limit:
        point = res.point
    else:
        point = point_with_value_below(cs, form, limit)
    if point is None:
        raise CertificationError(
            f"test at m={m}, r={r} is inconclusive (boundary infimum)"
        )
    return None, {
        "m": m,
        "r": r,
        "point": certs.ser_point(point),
        "value": rat_str(form.evaluate(*point)),
    }


def _table_attempt(
    table: ValueTable, m: int, r: Optional[int]
) -> tuple[Optional[DimWitness], dict]:
    """The test at (m, r) on the table's value: its witness or None, and the
    record of the selection or the failed attempt, which names only m and r
    since the verifier reads the value from the table it checked."""
    value = table.at(m)
    if r is None:
        witness = nonvanishing_rule(Fact(m, Fraction(value)))
    else:
        witness = lemma2_check(value, m, r, table.d5)
    return witness, {"m": m, "r": r}


def minimal_r(
    source: Source,
    target_dim: int,
    m_max: int = DEFAULT_M_MAX,
    m_start: int = 1,
    tried: Optional[dict] = None,
) -> SearchOutcome:
    """Smallest m <= m_max carrying a dimension witness for target_dim.

    Dimension 1 uses the pencil rule; dimensions 2 and 3 try the strict
    test for every exponent r in [target_dim - 1, 4] and keep any pass.
    Deterministic tie-break: smallest m, then smallest r.

    tried maps (m, r) to the (witness, record) of an attempt already made on
    the same source; searches that share it run each test once.
    """
    if target_dim not in (1, 2, 3):
        raise ValueError("target dimension must be 1, 2, or 3")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    attempt = _worst_case_attempt if isinstance(source, ConstraintSystem) else _table_attempt
    attempts: list[dict] = []
    r_options = [None] if target_dim == 1 else list(range(target_dim - 1, LEMMA2_R_CAP + 1))
    if tried is None:
        tried = {}
    for m in range(m_start, m_max + 1):
        for r in r_options:
            if (m, r) not in tried:
                tried[m, r] = attempt(source, m, r)
            witness, record = tried[m, r]
            if witness is not None:
                return SearchOutcome(m, witness, record, tuple(attempts))
            attempts.append(record)
    raise SearchExhaustedError(
        f"no dimension-{target_dim} witness up to m = {m_max}"
    )


# ---------------------------------------------------------------------------
# Nonemptiness of |-rK| for all r >= r0
# ---------------------------------------------------------------------------

class R0Certification(NamedTuple):
    r0: int
    nonempty_bound: Fraction
    monotone: TailCertificate


def certify_r0(source: Source, r0: int) -> R0Certification:
    """Certify h0(-rK) >= 1 for every r >= r0: a bound at r0 itself plus
    strictly increasing values from r0 on, by the ray tail.

    The composition rule requires r0 >= 3; smaller values are rejected.
    A tail that does not hold from r0 raises MonotoneCertificationError.
    """
    if r0 < 3:
        raise ValueError("the composition rule needs r0 >= 3")
    if isinstance(source, ConstraintSystem):
        bound, monotone = derive_lower_bound(source, r0).bound, monotone_from
    else:
        bound, monotone = Fraction(source.at(r0)), table_monotone
    if bound < 1:
        raise CertificationError(
            f"certify_r0: only P({r0}) >= {rat_str(bound)} is certified, need >= 1"
        )
    return R0Certification(r0, bound, monotone(source, r0))


# ---------------------------------------------------------------------------
# Certificate assembly
# ---------------------------------------------------------------------------

class _StepWriter:
    """The steps of one certificate and the constraints they cite, each
    declared once."""

    def __init__(self) -> None:
        self.steps: list[dict] = []
        self._next = 1
        self._constraints: dict[str, Constraint] = {}

    def add(self, rule: str, inputs: list, witness: dict, claim: Optional[str] = None) -> int:
        """Append a step; only the steps that derive a bound carry a claim."""
        sid = self._next
        self._next += 1
        step = {"id": sid, "rule": rule, "inputs": inputs, "witness": witness}
        if claim is not None:
            step["claim"] = claim
        self.steps.append(step)
        return sid

    def cite(self, cs: ConstraintSystem) -> list[str]:
        """The ids of the constraints of cs, which the certificate declares."""
        for c in cs.constraints:
            self._constraints.setdefault(c.cid, c)
        return [c.cid for c in cs.constraints]

    def compose(
        self, mode: str, axioms: list[str], r0: int, rs: list[int],
        chern: Optional[ChernData] = None,
    ) -> certs.Certificate:
        """The composition step, and the certificate it closes."""
        bound = compose_bound(r0, rs)
        self.add("compose", [], {}, f"birational for all m >= {bound}")
        return certs.Certificate(
            mode=mode,
            axioms=list(axioms),
            constraints=[certs.ser_constraint(self._constraints[cid])
                         for cid in sorted(self._constraints)],
            steps=self.steps,
            r0=r0,
            r=rs,
            bound=bound,
            chern=chern,
        )


def _fm_bound_step(
    w: _StepWriter, cs: ConstraintSystem, m: int, res: MinimizeResult
) -> tuple[int, Fact]:
    fact, record = _integral_bound(m, res)
    sid = w.add(
        "fm_lower_bound",
        [{"m": m, "constraints": w.cite(cs)}],
        {**record, "point": certs.ser_point(res.point)},
        f"P({m}) >= {rat_str(fact.bound)}",
    )
    return sid, fact


def _monotone_tail_step(
    w: _StepWriter,
    tail: TailCertificate,
    cs: Optional[ConstraintSystem] = None,
    model_step: Optional[int] = None,
) -> None:
    inputs: dict = {"m_start": tail.m_start}
    if tail.mode == certs.WORST_CASE:
        inputs["b_constraint"] = tail.b_constraint
        inputs["a_constraint"] = tail.a_constraint
        inputs["constraints"] = w.cite(cs)
    elif tail.mode == certs.ORACLE:
        inputs["model_step"] = model_step
    w.add("monotone_tail", [inputs], {"q_poly": certs.ser_poly(tail.q_poly)})


def _dim_search_steps(
    w: _StepWriter,
    source: Source,
    m_max: int,
    values_step: Optional[int] = None,
    dim1_start: int = 1,
) -> list[int]:
    rs = []
    tried: dict = {}
    for target in (1, 2, 3):
        m_start = dim1_start if target == 1 else 1
        outcome = minimal_r(source, target, m_max, m_start=m_start, tried=tried)
        inputs: dict = {"target_dim": target, "m_start": m_start}
        if isinstance(source, ConstraintSystem):
            inputs["constraints"] = w.cite(source)
        else:
            inputs["values_step"] = values_step
        w.add(
            "dim_search",
            [inputs],
            {"attempts": list(outcome.attempts), "selected": outcome.selected},
            f"dim >= {target} at m = {outcome.m}",
        )
        rs.append(outcome.m)
    return rs


WORST_CASE_AXIOMS = ["A1", "A3", "A4", "A5"]
CONCRETE_AXIOMS = ["A3", "A4"]
ORACLE_AXIOMS = ["O1", "O2"]


def solve_worst_case() -> certs.Certificate:
    """Derive the bound valid for every 5-fold with -K nef and big.

    The chain: case split on P(1), per-branch lower bounds for P(3), merge,
    search minimal multiples for dimensions 1..3 over the merged bound as an
    affine constraint, certify nonemptiness from r0, compose.
    """
    w = _StepWriter()
    branches = split_on_p1(axiom_system(), DEFAULT_LMAX)
    w.add("split_p1", [{"lmax": DEFAULT_LMAX}], {})
    branch_steps = []
    branch_facts = []
    for br in branches:
        res = fm_minimize(br.system, p_affine(3))
        if res.status != "minimum":
            raise CertificationError(f"branch {br.label}: no finite bound for P(3)")
        sid, fact = _fm_bound_step(w, br.system, 3, res)
        branch_steps.append(sid)
        branch_facts.append(fact)
    merged = merge_branch_facts(branch_facts)
    w.add(
        "merge_min",
        [{"m": 3, "branches": branch_steps}],
        {"bound": rat_str(merged.bound)},
        f"P(3) >= {rat_str(merged.bound)} on the union of branches",
    )
    geom = geometry_system([merged])
    rs = _dim_search_steps(w, geom, DEFAULT_M_MAX)
    r0cert = certify_r0(geom, 3)
    _monotone_tail_step(w, r0cert.monotone, cs=geom)
    return w.compose(certs.WORST_CASE, WORST_CASE_AXIOMS, 3, rs)


def _solve_table(
    w: _StepWriter,
    table: ValueTable,
    values_step: int,
    axioms: list[str],
    m_max: int,
    dim1_start: int = 1,
    model_step: Optional[int] = None,
    chern: Optional[ChernData] = None,
) -> certs.Certificate:
    """The chain both value sources share once their value steps are
    written: the least r0 with P(r0) >= 1 and the ray tail from r0, the
    dimension searches and the composition."""
    r0cert = None
    last_err: Optional[Exception] = None
    for r0 in range(3, m_max + 1):
        try:
            r0cert = certify_r0(table, r0)
            break
        except (CertificationError, MonotoneCertificationError) as exc:
            last_err = exc
    if r0cert is None:
        raise CertificationError(f"certify_r0 failed up to m_max: {last_err}")
    r0 = r0cert.r0
    w.add("value_at_least", [{"m": r0, "values_step": values_step}], {})
    _monotone_tail_step(w, r0cert.monotone, model_step=model_step)
    rs = _dim_search_steps(w, table, m_max, values_step, dim1_start=dim1_start)
    return w.compose(table.mode, axioms, r0, rs, chern)


def solve_concrete(chern: ChernData) -> certs.Certificate:
    """Bound for one concrete 5-fold given its Chern intersection numbers."""
    table = chern_table(chern, DEFAULT_M_MAX)
    w = _StepWriter()
    values_step = w.add("eval_p", [], {"values": list(table.values)})
    return _solve_table(w, table, values_step, CONCRETE_AXIOMS, DEFAULT_M_MAX, chern=chern)


def solve_oracle(
    source: OracleSource,
    m_max: int = DEFAULT_M_MAX,
    dim1_start: int = 1,
) -> certs.Certificate:
    """Bound from an exact section-count oracle.

    dim1_start pins where the dimension-1 search begins; the faithful
    replay of the published example starts it at bundle.PAPER_DIM1_START
    to reproduce the printed multiple selection.  A bundle outside the
    theorem's hypotheses, where -K is not nef, is refused.
    """
    if not is_nef(SplitBundle(source.bundle)):
        raise CertificationError(f"-K is not nef on P(E) for the twists {source.bundle}")
    table = oracle_table(source, m_max)
    w = _StepWriter()
    values_step = w.add(
        "oracle_values",
        [{"bundle": list(source.bundle), "convention": source.convention}],
        {"values": list(table.values)},
    )
    model_step = w.add(
        "oracle_model",
        [{"values_step": values_step}],
        {"coeffs": certs.ser_poly(table.poly)},
    )
    return _solve_table(w, table, values_step, ORACLE_AXIOMS, m_max, dim1_start, model_step)
