"""The package's records are immutable values: fields cannot be assigned,
the checked records refuse bad input, and equal values hash equal."""

import copy
import pickle
from fractions import Fraction

import pytest

from fanobound.audit import AuditEntry, AuditReport
from fanobound.bounds import DimWitness, R0Certification, SearchOutcome
from fanobound.bundle import SplitBundle
from fanobound.certs import Certificate, VerifyResult
from fanobound.derive import (
    Branch,
    Constraint,
    ConstraintSystem,
    Fact,
    MinimizeResult,
    TailCertificate,
    ValueTable,
    axiom_system,
    fact_to_constraint,
)
from fanobound.exact import AffineForm, Poly
from fanobound.hilbert import ChernData, PValue


def _records():
    tail = TailCertificate(3, Poly([1]), "concrete")
    witness = DimWitness(1, 3, "nonvanishing", Fraction(1))
    return [
        AffineForm.of(1, "1/2", 3),
        MinimizeResult("unbounded"),
        Fact(3, Fraction(7)),
        Branch("P(1)=0", axiom_system()),
        tail,
        ValueTable((1, 2), 0, 1, Poly([1]), "concrete"),
        axiom_system(),
        SearchOutcome(3, witness, {"m": 3, "r": None}, ()),
        R0Certification(3, Fraction(1), tail),
        Certificate(
            mode="concrete", axioms=[], constraints=[], steps=[], r0=3, r=[3, 4, 6], bound=16
        ),
        VerifyResult(True),
        AuditEntry("Main Theorem", "m >= 16", "16", "confirmed"),
        AuditReport(()),
        ChernData(6250, 2750),
        PValue(1, 3),
        SplitBundle((0, 0, 0, 0, 1)),
        witness,
        Constraint.make("A4.3", "vanishing", (3,)),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    field = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_copy_and_pickle_keep_the_value(record):
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record


@pytest.mark.parametrize("build, message", [
    (lambda: ChernData(0, 1), r"\(-K\)\^5 must be >= 1 for -K nef and big"),
    (lambda: PValue(-1, 0), "P values are recorded for m >= 0 only"),
    (lambda: SplitBundle((0, 0, 0, 1)), "X must be a 5-fold: exactly five twists"),
    (lambda: DimWitness(1, 3, "nonvanishing", Fraction(0)), "a witness needs a positive margin"),
    (lambda: DimWitness(2, 3, "lemma2", Fraction(-1), r_used=1), "a witness needs a positive margin"),
    (lambda: DimWitness(2, 3, "nonvanishing", Fraction(1)), "nonvanishing only witnesses dimension 1"),
    # _replace runs the same check
    (lambda: ChernData(6250, 2750)._replace(k5=0), r"\(-K\)\^5 must be >= 1 for -K nef and big"),
    (lambda: PValue(1, 3)._replace(m=-1), "P values are recorded for m >= 0 only"),
    (
        lambda: SplitBundle((0, 0, 0, 0, 1))._replace(twists=(0, 1)),
        "X must be a 5-fold: exactly five twists",
    ),
    (
        lambda: DimWitness(1, 3, "nonvanishing", Fraction(1))._replace(target_dim=2),
        "nonvanishing only witnesses dimension 1",
    ),
])
def test_checked_records_refuse_bad_input(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("left, right", [
    (AffineForm.of(1, "1/2", 3), AffineForm(Fraction(1), Fraction(2, 4), Fraction(3))),
    (Constraint.make("A4.3", "vanishing", (3,)), Constraint.make("A4.3", "vanishing", [3])),
    (fact_to_constraint(Fact(3, Fraction(7))), fact_to_constraint(Fact(3, Fraction(14, 2)))),
    (Fact(3, Fraction(7)), Fact(3, Fraction(7), False)),
    (ChernData(6250, 2750), ChernData(k5=6250, k3c2=2750)),
], ids=["AffineForm", "Constraint", "from_fact", "Fact", "ChernData"])
def test_equal_values_hash_equal(left, right):
    # the verifier and the minimizer keep these in sets and as dict keys
    assert left is not right
    assert left == right and hash(left) == hash(right)
    assert len({left, right}) == 1


def test_constraint_row_follows_the_other_fields():
    c = Constraint.make("A4.3", "vanishing", (3,))
    assert Constraint("A4.3", "vanishing", (3,), c.form, c.strict).row == c.row
    renamed = c._replace(cid="A4.x")
    assert renamed == Constraint("A4.x", "vanishing", (3,), c.form, c.strict)
    assert renamed.row.combo == (("A4.x", 1),)
