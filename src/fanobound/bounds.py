"""Dimension tests, minimal-multiple searches, and the composed bound.

Two tests bound the dimension of the image of the map attached to |-mK|:

  * the pencil test: h0(-mK) >= 2 gives a nonconstant map, so dim >= 1;
  * the strict Lemma 2 test: h0(-mK) > m^r (-K)^5 + r gives dim > r.

The composition rule then says: if |-rK| is nonempty for every r >= r0
(with r0 >= 3) and dim >= i is witnessed at r_i for i = 1, 2, 3, the map
is birational for all m >= r0 + r1 + r2 + r3.

Searches read one of two sources: a constraint system in (a, b) for the
worst case, or a table of exact values.  Concrete Chern data and an h0
oracle both become value tables; Chern data brings its known polynomial,
an oracle's is interpolated and checked once per solve.  An attempt at a
test yields whether it passed and the record the certificate carries;
the searches keep nothing else.  Every solve produces a Certificate whose
steps the independent verifier in certs can replay.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple, Optional, Union

from .exact import poly_positive_on_ray, rat_str
from .hilbert import ChernData, lemma2_slack_form, p_affine
from .hilbert import passes_dimension_test, search_order
from . import certs
from .bundle import OracleSource, SplitBundle, is_nef
from .derive import (
    Constraint,
    ConstraintSystem,
    Fact,
    InfeasibleSystemError,
    MinimizeResult,
    MonotoneCertificationError,
    ValueTable,
    axiom_system,
    chern_table,
    fm_minimize,
    geometry_system,
    interpolate_model,
    merge_branch_facts,
    monotone_from,
    split_on_p1,
    strengthen_integral,
)

DEFAULT_M_MAX = 32
DEFAULT_LMAX = 3


class CertificationError(Exception):
    """A solve step failed; the message names the failing step."""


class SearchExhaustedError(CertificationError):
    """No witness within the search budget m_max."""


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
    if (m := model.first_mismatch(values)) is not None:
        raise CertificationError(
            f"oracle is not polynomial at m = {m}; the tail cannot be certified"
        )
    return ValueTable(tuple(values), 1, source.d5, model, "oracle")


Source = Union[ConstraintSystem, ValueTable]


def _minimum(res: MinimizeResult) -> dict:
    """The record of a minimum that the verifier replays: the value and its
    Farkas combination.  The verifier rounds the value up by A3 itself."""
    return {
        "raw_min": rat_str(res.value),
        "farkas": [[cid, rat_str(v)] for cid, v in res.farkas],
    }


class SearchOutcome(NamedTuple):
    m: int
    selected: dict
    attempts: tuple[dict, ...]


def _worst_case_attempt(cs: ConstraintSystem, m: int, r: Optional[int]) -> tuple[bool, dict]:
    """The test at (m, r) over cs, minimized once: whether it passed, and the
    selection record on a pass or a failed attempt carrying a feasible point
    that refutes the test.

    r = None is the pencil test, which passes when the integral bound on
    P(m) is at least 2, that is when the minimum of P(m) exceeds 1; a point
    with P(m) <= 1 refutes it.  The strict test passes when the slack's
    minimum is positive.
    """
    form = p_affine(m) if r is None else lemma2_slack_form(m, r)
    res = fm_minimize(cs, form)
    if res.status == "infeasible":
        raise InfeasibleSystemError("search system is contradictory")
    if res.status == "minimum" and res.value > (1 if r is None else 0):
        return True, {"m": m, "r": r, **_minimum(res)}
    # a failed minimum sits at or below the limit, and an unbounded form's
    # point at or below 0
    return False, {
        "m": m,
        "r": r,
        "point": [rat_str(x) for x in res.point],
        "value": rat_str(form.evaluate(*res.point)),
    }


def _table_attempt(table: ValueTable, m: int, r: Optional[int]) -> tuple[bool, dict]:
    """The test at (m, r) on the table's value: the pencil test passes at
    h0 >= 2, the strict test above its threshold (the boundary is not a
    pass).  The record names only m and r, since the verifier reads the
    value from the table it checked."""
    return passes_dimension_test(table.at(m), m, r, table.d5), {"m": m, "r": r}


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

    tried maps (m, r) to the (passed, record) of an attempt already made on
    the same source; searches that share it run each test once.
    """
    if target_dim not in (1, 2, 3):
        raise ValueError("target dimension must be 1, 2, or 3")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    attempt = _worst_case_attempt if isinstance(source, ConstraintSystem) else _table_attempt
    attempts: list[dict] = []
    if tried is None:
        tried = {}
    for m, r in search_order(target_dim, m_start, m_max):
        if (m, r) not in tried:
            tried[m, r] = attempt(source, m, r)
        passed, record = tried[m, r]
        if passed:
            return SearchOutcome(m, record, tuple(attempts))
        attempts.append(record)
    raise SearchExhaustedError(
        f"no dimension-{target_dim} witness up to m = {m_max}"
    )


# ---------------------------------------------------------------------------
# Nonemptiness of |-rK| for all r >= r0
# ---------------------------------------------------------------------------

def certify_r0(table: ValueTable, r0: int) -> None:
    """Certify h0(-rK) >= 1 for every r >= r0 on a value table: the value at
    r0 itself plus strictly increasing values from r0 on, by the difference
    of the table's polynomial.

    The composition rule requires r0 >= 3; smaller values are rejected.
    A tail that does not hold from r0 raises MonotoneCertificationError.
    """
    if r0 < 3:
        raise ValueError("the composition rule needs r0 >= 3")
    value = table.at(r0)
    if value < 1:
        raise CertificationError(f"certify_r0: P({r0}) = {value}, need >= 1")
    if not poly_positive_on_ray(table.poly.difference(), r0):
        raise MonotoneCertificationError(f"no tail certificate from m = {r0}")


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

    def add(self, rule: str, inputs: dict, witness: dict) -> int:
        """Append a step and return its id."""
        sid = self._next
        self._next += 1
        self.steps.append({"id": sid, "rule": rule, "inputs": inputs, "witness": witness})
        return sid

    def cite(self, cs: ConstraintSystem) -> list[str]:
        """The ids of the constraints of cs, which the certificate declares."""
        for c in cs.constraints:
            self._constraints.setdefault(c.cid, c)
        return [c.cid for c in cs.constraints]

    def compose(
        self, mode: str, r0: int, rs: list[int], chern: Optional[ChernData] = None
    ) -> certs.Certificate:
        """The composition step, and the certificate it closes."""
        self.add("compose", {}, {})
        return certs.Certificate(
            mode=mode,
            axioms=list(certs.FLAVOR_AXIOMS[mode]),
            constraints=[{"cid": c.cid, "kind": c.kind, "params": list(c.params)}
                         for _, c in sorted(self._constraints.items())],
            steps=self.steps,
            r0=r0,
            r=rs,
            bound=r0 + sum(rs),
            chern=chern,
        )


def _fm_bound_step(
    w: _StepWriter, cs: ConstraintSystem, m: int, res: MinimizeResult
) -> tuple[int, Fact]:
    sid = w.add(
        "fm_lower_bound",
        {"m": m, "constraints": w.cite(cs)},
        {**_minimum(res), "point": [rat_str(x) for x in res.point]},
    )
    return sid, strengthen_integral(m, res.value)


def _dim_search_steps(
    w: _StepWriter, source: Source, cited: dict, dim1_start: int = 1
) -> list[int]:
    """The three dimension searches over source, each citing what it reads:
    {"constraints": ids} for a constraint system, {"values_step": id} for a
    value table."""
    rs = []
    tried: dict = {}
    for target in (1, 2, 3):
        m_start = dim1_start if target == 1 else 1
        outcome = minimal_r(source, target, m_start=m_start, tried=tried)
        w.add(
            "dim_search",
            {"target_dim": target, "m_start": m_start, **cited},
            {"attempts": list(outcome.attempts), "selected": outcome.selected},
        )
        rs.append(outcome.m)
    return rs


@cache
def worst_case_branches() -> tuple[ConstraintSystem, ...]:
    """split_on_p1(axiom_system(), DEFAULT_LMAX), the P(1) branches of the
    worst case, built on the first call and shared by every later one: the
    worst-case solve and the audit read the same systems."""
    return split_on_p1(axiom_system(), DEFAULT_LMAX)


def solve_worst_case() -> certs.Certificate:
    """Derive the bound valid for every 5-fold with -K nef and big.

    The chain: case split on P(1), per-branch lower bounds for P(3), merge,
    search minimal multiples for dimensions 1..3 over the merged bound as an
    affine constraint, the ray tail from r0 = 3, where the merged bound
    already gives P(3) >= 1, and compose.  The branch systems are built once
    per process (worst_case_branches); every minimisation runs afresh.
    """
    w = _StepWriter()
    w.add("split_p1", {"lmax": DEFAULT_LMAX}, {})
    branch_steps = []
    branch_facts = []
    for branch in worst_case_branches():
        res = fm_minimize(branch, p_affine(3))
        if res.status != "minimum":
            raise CertificationError(f"branch {branch.label}: no finite bound for P(3)")
        sid, fact = _fm_bound_step(w, branch, 3, res)
        branch_steps.append(sid)
        branch_facts.append(fact)
    merged = merge_branch_facts(branch_facts)
    w.add("merge_min", {"m": 3, "branches": branch_steps}, {})
    if merged.bound < 1:
        raise CertificationError(f"only P(3) >= {merged.bound} is certified, need >= 1")
    geom = geometry_system([merged])
    cited = {"constraints": w.cite(geom)}
    rs = _dim_search_steps(w, geom, cited)
    tail = monotone_from(geom, 3)
    w.add(
        "monotone_tail",
        {"m_start": 3, "b_constraint": tail.b_constraint,
         "a_constraint": tail.a_constraint, **cited},
        {},
    )
    return w.compose(certs.WORST_CASE, 3, rs)


def _solve_table(
    w: _StepWriter,
    table: ValueTable,
    values_step: int,
    tail_inputs: dict,
    dim1_start: int = 1,
    chern: Optional[ChernData] = None,
) -> certs.Certificate:
    """The chain both value sources share once their value steps are
    written: the least r0 with P(r0) >= 1 and the ray tail from r0, the
    dimension searches and the composition.  tail_inputs holds what the
    source's monotone_tail step cites beyond its start."""
    for r0 in range(3, DEFAULT_M_MAX + 1):
        try:
            certify_r0(table, r0)
            break
        except (CertificationError, MonotoneCertificationError) as exc:
            last_err = exc
    else:
        raise CertificationError(f"certify_r0 failed up to m_max: {last_err}")
    w.add("value_at_least", {"m": r0, "values_step": values_step}, {})
    w.add("monotone_tail", {"m_start": r0, **tail_inputs}, {})
    rs = _dim_search_steps(w, table, {"values_step": values_step}, dim1_start)
    return w.compose(table.mode, r0, rs, chern)


def solve_concrete(chern: ChernData) -> certs.Certificate:
    """Bound for one concrete 5-fold given its Chern intersection numbers."""
    table = chern_table(chern, DEFAULT_M_MAX)
    w = _StepWriter()
    values_step = w.add("eval_p", {}, {"values": list(table.values)})
    return _solve_table(w, table, values_step, {}, chern=chern)


def solve_oracle(source: OracleSource, dim1_start: int = 1) -> certs.Certificate:
    """Bound from an exact section-count oracle.

    dim1_start pins where the dimension-1 search begins; the faithful
    replay of the published example starts it at bundle.PAPER_DIM1_START
    to reproduce the printed multiple selection.  A bundle outside the
    theorem's hypotheses, where -K is not nef, is refused.
    """
    if not is_nef(SplitBundle(source.bundle)):
        raise CertificationError(f"-K is not nef on P(E) for the twists {source.bundle}")
    table = oracle_table(source, DEFAULT_M_MAX)
    w = _StepWriter()
    values_step = w.add(
        "oracle_values",
        {"bundle": list(source.bundle), "convention": source.convention},
        {"values": list(table.values)},
    )
    model_step = w.add(
        "oracle_model",
        {"values_step": values_step},
        {"coeffs": [rat_str(c) for c in table.poly.coeffs]},
    )
    return _solve_table(w, table, values_step, {"model_step": model_step}, dim1_start)
