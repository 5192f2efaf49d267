"""The value records of the kernel: how they compare, hash, print,
destructure and refuse bad input.

Every record class of ``terms``, ``proofs``, ``semantics``,
``propositional`` and ``checks`` is listed in ``RECORDS`` with one
example and the exact text of its repr.  Equality is by class and
fields, so two records of different classes with the same fields differ
and no record equals a tuple.  Every record but ``Structure`` is
immutable and hashable; a ``Structure`` may be assigned to and is
unhashable.  The report records in ``SHARED`` are built by ``Record``'s
shared constructor; every other record writes its own ``__init__``.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from clonelogic import checks, proofs, propositional, semantics, terms
from clonelogic.errors import BoundExceeded
from clonelogic.formulas import Atom, Language, PredicateType
from clonelogic.terms import App, FunctionType, Shift, Var

P = Atom("r", (Var(1),))
C = App("c", ())
SUB = terms.Substitution((C,), Shift(0))
SPEC = proofs.AxiomInstanceSpec("A5", p=P, subst=SUB)
LANG = Language(FunctionType({"c": 0, "g": 1}), PredicateType({"r": 1, "e": 2}, equality="e"))


def structure() -> semantics.Structure:
    return semantics.Structure(LANG, 2, {"c": (0,), "g": (1, 0)}, {"r": (1, 0)})


def law_report() -> semantics.LawReport:
    return semantics.LawReport("Q2", False, 3, semantics.LawFailure(P, None, semantics.Env((1,), 0), 1, 0))


def witness() -> semantics.WitnessEntry:
    return semantics.WitnessEntry(P, "universal", True, C)


def verdict() -> checks.AlgebraVerdict:
    return checks.AlgebraVerdict(4, False, 3, 2, True, True)


def cell() -> checks.QACell:
    return checks.QACell(2, 1, 16, True, False, "Q3")


R_1 = "Atom(symbol='r', args=(Var(index=1),))"
C_ = "App(symbol='c', args=())"
SUB_ = f"Substitution(prefix=({C_},), tail=Shift(offset=0))"
SPEC_ = (
    f"AxiomInstanceSpec(axiom='A5', p={R_1}, q=None, r=None, subst={SUB_}, "
    "var_index=None, gen_count=0)"
)
LANG_ = "Language(FunctionType({'c': 0, 'g': 1}), PredicateType({'r': 1, 'e': 2}, equality='e'))"
STRUCTURE_ = (
    f"Structure(language={LANG_}, size=2, fn_tables={{'c': (0,), 'g': (1, 0)}}, "
    "rel_tables={'r': (1, 0), 'e': (1, 0, 0, 1)}, eq_identity=True, truth_bits=1)"
)
LAW_REPORT_ = (
    f"LawReport(law='Q2', ok=False, checked=3, failure=LawFailure(p={R_1}, q=None, "
    "env=Env(prefix=(1,), default=0), left=1, right=0))"
)
WITNESS_ = f"WitnessEntry(formula={R_1}, category='universal', ok=True, witness={C_}, inconclusive=False)"
VERDICT_ = (
    "AlgebraVerdict(carrier=4, boolean=False, filters=3, valuations=2, "
    "filters_are_intersections=True, maximal_filters_match_valuations=True)"
)
CELL_ = "QACell(size=2, atom_bits=1, structures=16, exhaustive=True, ok=False, failing_law='Q3')"

# (make one example, its repr); each call makes a new, equal record.
RECORDS = [
    (lambda: terms.Shift(-1), "Shift(offset=-1)"),
    (lambda: terms.Const(C), f"Const(term={C_})"),
    (lambda: terms.Substitution((C, Var(2)), Shift(0)), SUB_),
    (lambda: proofs.AxiomInstanceSpec("A5", p=P, subst=SUB), SPEC_),
    (lambda: proofs.ByAxiom(SPEC), f"ByAxiom(spec={SPEC_})"),
    (lambda: proofs.ByHyp(1), "ByHyp(index=1)"),
    (lambda: proofs.ByMP(0, 2), "ByMP(premise=0, implication=2)"),
    (lambda: proofs.BySubst(0, SUB), f"BySubst(source=0, subst={SUB_})"),
    (lambda: proofs.ByGen(1), "ByGen(source=1)"),
    (lambda: proofs.ProofStep(P, proofs.ByHyp(0)), f"ProofStep(formula={R_1}, by=ByHyp(index=0))"),
    (
        lambda: proofs.Proof("global", [proofs.ProofStep(P, proofs.ByGen(0))]),
        f"Proof(kind='global', steps=(ProofStep(formula={R_1}, by=ByGen(source=0)),))",
    ),
    (lambda: proofs.CheckResult(False, 2, "why"), "CheckResult(ok=False, step=2, reason='why')"),
    (lambda: semantics.Env((1, 2), 0), "Env(prefix=(1, 2), default=0)"),
    (lambda: semantics.FiniteBooleanAlg(2), "FiniteBooleanAlg(atom_count=2)"),
    (structure, STRUCTURE_),
    (lambda: law_report().failure, LAW_REPORT_[LAW_REPORT_.index("LawFailure"):-1]),
    (law_report, LAW_REPORT_),
    (lambda: semantics.QAReport((law_report(),)), f"QAReport(laws=({LAW_REPORT_},))"),
    (witness, WITNESS_),
    (lambda: semantics.PerfectReport((witness(),)), f"PerfectReport(entries=({WITNESS_},))"),
    (
        lambda: propositional.FinitePropAlgebra([1, 0], [[0, 0], [0, 1]]),
        "FinitePropAlgebra(not_table=(1, 0), and_table=((0, 0), (0, 1)))",
    ),
    (
        lambda: checks.SoundnessFailure("A1", P, structure(), (0,)),
        f"SoundnessFailure(axiom='A1', instance={R_1}, structure={STRUCTURE_}, env_prefix=(0,))",
    ),
    (
        lambda: checks.SoundnessReport((("A1", 3),), 2, ()),
        "SoundnessReport(per_axiom=(('A1', 3),), structures_checked=2, failures=())",
    ),
    (verdict, VERDICT_),
    (lambda: checks.CompletenessReport((verdict(),)), f"CompletenessReport(verdicts=({VERDICT_},))"),
    (cell, CELL_),
    (lambda: checks.QASurveyReport((cell(),)), f"QASurveyReport(cells=({CELL_},))"),
]
IDS = [text[: text.index("(")] for _, text in RECORDS]
FROZEN = [record for record, name in zip(RECORDS, IDS) if name != "Structure"]
# Records that hold a Structure cannot be hashed.
UNHASHABLE = {"Structure", "SoundnessFailure"}


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in record.__match_args__)


MODULES = (terms, proofs, semantics, propositional, checks)
# The report records, built by Record's shared constructor; every other
# record writes its own __init__.
SHARED = {
    "LawFailure", "LawReport", "QAReport", "WitnessEntry", "PerfectReport", "CheckResult",
    "SoundnessFailure", "SoundnessReport", "AlgebraVerdict", "CompletenessReport", "QACell",
    "QASurveyReport",
}
CLASSES = [
    cls for cls in terms.Record.__subclasses__()
    if cls.__module__ in {module.__name__ for module in MODULES}
]


def test_every_record_class_is_listed() -> None:
    assert len(set(IDS)) == len(RECORDS)
    assert sorted(cls.__name__ for cls in CLASSES) == sorted(IDS)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_slots_are_the_match_args(cls) -> None:
    assert cls.__slots__ == cls.__match_args__


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_only_the_report_records_use_the_shared_constructor(cls) -> None:
    assert ("__init__" in vars(cls)) is (cls.__name__ not in SHARED)


SHARED_REFUSALS = [
    (lambda: checks.QACell(2, 1, 16), "QACell() missing field 'exhaustive'"),
    (lambda: checks.QACell(2, 1, 16, True, ok=False, law="Q3"), "QACell() got unexpected fields 'law'"),
    (lambda: checks.QACell(2, 1, 16, True, False, "Q3", 0), "QACell() takes 6 values, got 7"),
    (lambda: checks.QACell(2, 1, 16, True, False, size=2), "QACell() got unexpected fields 'size'"),
    (lambda: proofs.CheckResult(step=1), "CheckResult() missing field 'ok'"),
]


@pytest.mark.parametrize(("build", "message"), SHARED_REFUSALS)
def test_shared_constructor_refuses_bad_arguments(build, message) -> None:
    with pytest.raises(TypeError) as caught:
        build()
    assert str(caught.value) == message


def test_shared_constructor_fills_keywords_then_defaults() -> None:
    assert checks.QACell(2, 1, exhaustive=True, ok=False, structures=16, failing_law="Q3") == cell()
    assert proofs.CheckResult(reason="why", ok=False) == proofs.CheckResult(False, None, "why")
    assert semantics.WitnessEntry(P, "universal", True, inconclusive=True).witness is None


@pytest.mark.parametrize(("make", "text"), RECORDS, ids=IDS)
def test_repr_names_the_class_and_every_field(make, text) -> None:
    assert repr(make()) == text


@pytest.mark.parametrize(("make", "text"), RECORDS, ids=IDS)
def test_equal_fields_make_equal_records(make, text) -> None:
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    if type(first).__name__ not in UNHASHABLE:
        assert hash(first) == hash(second)


@pytest.mark.parametrize(("make", "text"), RECORDS, ids=IDS)
def test_records_are_built_by_position_or_keyword(make, text) -> None:
    record = make()
    values = _values(record)
    assert type(record)(*values) == record
    assert type(record)(**dict(zip(record.__match_args__, values))) == record


@pytest.mark.parametrize(("make", "text"), RECORDS, ids=IDS)
def test_no_record_equals_a_tuple_or_another_class(make, text) -> None:
    record = make()
    assert record != _values(record)
    assert _values(record) != record
    assert record != object()


@pytest.mark.parametrize(("make", "text"), RECORDS, ids=IDS)
def test_copies_and_pickles_are_equal(make, text) -> None:
    record = make()
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize(("make", "text"), FROZEN, ids=[name for name in IDS if name != "Structure"])
def test_fields_refuse_assignment(make, text) -> None:
    record = make()
    for name in record.__match_args__:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


def test_justifications_compare_by_class() -> None:
    assert proofs.ByHyp(1) != proofs.ByGen(1)
    assert proofs.ByGen(1) != proofs.ByHyp(1)
    assert proofs.ByMP(0, 1) == proofs.ByMP(0, 1)
    assert proofs.ProofStep(P, proofs.ByHyp(0)) != proofs.ProofStep(P, proofs.ByGen(0))
    assert len({proofs.ByHyp(1), proofs.ByGen(1), proofs.ByHyp(1)}) == 2
    assert terms.Shift(0) != terms.Const(0)


def test_match_destructures_by_position() -> None:
    match proofs.ProofStep(P, proofs.ByMP(3, 4)):
        case proofs.ProofStep(formula, proofs.ByMP(premise, implication)):
            assert (formula, premise, implication) == (P, 3, 4)
        case _:
            pytest.fail("ProofStep(ByMP) did not match")
    match proofs.ByAxiom(SPEC):
        case proofs.ByAxiom(proofs.AxiomInstanceSpec(axiom, p, q, r, subst, var_index, gen_count)):
            assert (axiom, p, q, r, subst, var_index, gen_count) == ("A5", P, None, None, SUB, None, 0)
        case _:
            pytest.fail("ByAxiom did not match")
    match SUB:
        case terms.Substitution(prefix, terms.Shift(offset)):
            assert (prefix, offset) == ((C,), 0)
        case _:
            pytest.fail("Substitution did not match")
    match semantics.Env((1,), 2):
        case semantics.Env(prefix, default):
            assert (prefix, default) == ((1,), 2)
        case _:
            pytest.fail("Env did not match")
    match proofs.ByHyp(1):
        case proofs.ByGen(_):
            pytest.fail("ByHyp matched ByGen")
        case proofs.ByHyp(index=1):
            pass
        case _:
            pytest.fail("ByHyp did not match")


def test_match_args_list_the_fields_in_order() -> None:
    assert terms.Substitution.__match_args__ == ("prefix", "tail")
    assert proofs.AxiomInstanceSpec.__match_args__ == (
        "axiom", "p", "q", "r", "subst", "var_index", "gen_count"
    )
    assert proofs.ProofStep.__match_args__ == ("formula", "by")
    assert semantics.Structure.__match_args__ == (
        "language", "size", "fn_tables", "rel_tables", "eq_identity", "truth_bits"
    )
    assert checks.QACell.__match_args__ == (
        "size", "atom_bits", "structures", "exhaustive", "ok", "failing_law"
    )


def test_defaults() -> None:
    assert proofs.AxiomInstanceSpec("A1") == proofs.AxiomInstanceSpec("A1", None, None, None, None, None, 0)
    assert proofs.CheckResult(True) == proofs.CheckResult(True, None, None)
    assert semantics.Env() == semantics.Env((), 0)
    assert semantics.LawReport("Q1", True, 1).failure is None
    assert witness().inconclusive is False
    assert semantics.WitnessEntry(P, "universal", True).witness is None
    assert checks.QACell(1, 1, 1, True, True).failing_law is None
    first = semantics.Structure(Language(FunctionType({}), PredicateType({})), 1)
    second = semantics.Structure(Language(FunctionType({}), PredicateType({})), 1)
    assert (first.fn_tables, first.rel_tables, first.eq_identity, first.truth_bits) == ({}, {}, True, 1)
    first.fn_tables["k"] = ()
    assert second.fn_tables == {}


def test_structures_are_mutable_and_unhashable() -> None:
    loaded = structure()
    with pytest.raises(TypeError, match="unhashable type: 'Structure'"):
        hash(loaded)
    loaded.size = 3
    assert loaded.size == 3
    assert loaded != structure()
    with pytest.raises(TypeError):
        hash(checks.SoundnessFailure("A1", P, structure(), (0,)))


def test_constructors_canonicalize() -> None:
    assert terms.Substitution((Var(1), Var(2)), Shift(0)) == terms.IDENTITY
    assert terms.Substitution((Var(1), Var(2)), Shift(0)).prefix == ()
    assert terms.Substitution((C, C), terms.Const(C)).prefix == ()
    assert terms.Substitution([C], Shift(0)).prefix == (C,)
    assert semantics.Env([1, 2]) == semantics.Env((1, 2))
    assert hash(semantics.Env([1, 2])) == hash(semantics.Env((1, 2)))
    assert repr(semantics.Env([1, 2])) == "Env(prefix=(1, 2), default=0)"
    assert proofs.Proof("local", []).steps == ()
    algebra = propositional.FinitePropAlgebra([1, 0], [[0, 0], [0, 1]])
    assert algebra.not_table == (1, 0) and algebra.and_table == ((0, 0), (0, 1))
    assert structure().rel_tables["e"] == (1, 0, 0, 1)


E1 = Language(FunctionType({}), PredicateType({"e": 2}, equality="e"))
REFUSALS = [
    (lambda: terms.Substitution((C,), Shift(-2)), ValueError,
     "shift tail -2 under prefix of length 1 would produce variable indices below 1"),
    (lambda: proofs.Proof("other", ()), ValueError, "proof kind must be 'local' or 'global', got 'other'"),
    (lambda: semantics.Env((1, -1)), ValueError, "environment entries must be >= 0, got -1"),
    (lambda: semantics.Env((), 0.5), ValueError, "environment entries must be >= 0, got 0.5"),
    (lambda: semantics.FiniteBooleanAlg(0), ValueError, "atom_count must be between 1 and 16"),
    (lambda: semantics.FiniteBooleanAlg(17), ValueError, "atom_count must be between 1 and 16"),
    (lambda: semantics.Structure(LANG, 0), ValueError, "domain size must be >= 1"),
    (lambda: semantics.Structure(LANG, 1, truth_bits=0), ValueError, "truth_bits must be >= 1"),
    (lambda: semantics.Structure(E1, 1025), BoundExceeded,
     "the equality table needs 1025^2 entries, over the cap of 1048576"),
    (lambda: semantics.Structure(LANG, 2, {"c": (0,)}, {"r": (1, 0)}), ValueError,
     "missing function table for 'g'"),
    (lambda: semantics.Structure(LANG, 2, {"c": (0,), "g": (1, 0), "h": ()}, {"r": (1, 0)}), ValueError,
     "table for undeclared function symbol 'h'"),
    (lambda: semantics.Structure(LANG, 2, {"c": (0,), "g": (1, 0)}, {"r": (1, 2)}), ValueError,
     "relation table for 'r' holds 2, outside 0..1"),
    (lambda: semantics.Structure(LANG, 2, {"c": (0,), "g": (1,)}, {"r": (1, 0)}), ValueError,
     "function table for 'g' has 1 entries, expected 2"),
    (lambda: semantics.Structure(LANG, 2, {"c": (0,), "g": (1, 0)}, {"r": (1, 0), "e": (1, 1, 0, 1)}),
     ValueError,
     "structure is flagged equality-preserving but the equality table is not the identity relation"),
    (lambda: propositional.FinitePropAlgebra((), ()), ValueError, "carrier must be nonempty"),
    (lambda: propositional.FinitePropAlgebra((1, 0), ((0, 0),)), ValueError,
     "conjunction table must be n x n"),
    (lambda: propositional.FinitePropAlgebra((1, 2), ((0, 0), (0, 1))), ValueError,
     "negation table entry out of range"),
    (lambda: propositional.FinitePropAlgebra((1, 0), ((0, 0), (0,))), ValueError,
     "conjunction table row has 1 entries, expected 2"),
]


@pytest.mark.parametrize(("build", "kind", "message"), REFUSALS)
def test_validating_constructors_refuse_bad_input(build, kind, message) -> None:
    with pytest.raises(kind) as caught:
        build()
    assert type(caught.value) is kind
    assert str(caught.value) == message
