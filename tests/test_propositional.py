"""Proposition algebras: valuations, filters, quotients, proof checking."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from clonelogic import checks, propositional
from clonelogic.checks import completeness_survey
from clonelogic.errors import BoundExceeded
from clonelogic.formulas import Atom, FAnd, FNot, f_iff, f_imp, f_or
from clonelogic.proofs import (
    AxiomInstanceSpec,
    ByAxiom,
    ByHyp,
    ByMP,
    CheckResult,
    Proof,
    ProofStep,
    build_prime_axiom,
)
from clonelogic.propositional import (
    FinitePropAlgebra,
    algebra_two,
    axiom_elements,
    bitmask_algebra,
    boolean_filter_criterion,
    check_prop_proof,
    ded_closure,
    elements_of,
    enumerate_filters,
    enumerate_valuations,
    free_boolean_algebra,
    free_boolean_classes,
    is_boolean,
    is_filter,
    is_maximal_filter,
    lindenbaum,
    mask_of,
    tautology,
    val_set,
)

from oracle import oracle_consequence

a, b, c = Atom("a", ()), Atom("b", ()), Atom("c", ())


def prop_terms(names=("a", "b", "c"), max_leaves=8):
    return st.recursive(
        st.sampled_from([Atom(n, ()) for n in names]),
        lambda inner: st.one_of(inner.map(FNot), st.builds(FAnd, inner, inner)),
        max_leaves=max_leaves,
    )


def consequence(hypotheses, term) -> bool:
    """Semantic consequence as a tautology: the hypotheses' conjunction implies the term."""
    if not hypotheses:
        return tautology(term)
    premise = hypotheses[0]
    for h in hypotheses[1:]:
        premise = FAnd(premise, h)
    return tautology(f_imp(premise, term))


ONE_ELEMENT = FinitePropAlgebra((0,), ((0,),))
# three-element chain 0 < 1 < 2 with intuitionistic-style negation: not Boolean
GODEL3 = FinitePropAlgebra(
    (2, 0, 0),
    ((0, 0, 0), (0, 1, 1), (0, 1, 2)),
)


def random_algebra(seed: int, size: int) -> FinitePropAlgebra:
    rng = random.Random(seed)
    return FinitePropAlgebra(
        tuple(rng.randrange(size) for _ in range(size)),
        tuple(tuple(rng.randrange(size) for _ in range(size)) for _ in range(size)),
    )


CORPUS = [
    algebra_two(),
    ONE_ELEMENT,
    GODEL3,
    free_boolean_algebra(1),
    bitmask_algebra(3),
    random_algebra(7, 3),
    random_algebra(8, 4),
    random_algebra(9, 5),
]


# ------------- truth tables and tautologies -------------

def test_sugar_expansion_matches_spelled_out_form() -> None:
    assert f_or(a, b) == FNot(FAnd(FNot(a), FNot(b)))
    assert f_imp(a, a) == FNot(FAnd(FNot(FNot(a)), FNot(a)))
    assert f_iff(a, b) == FAnd(f_imp(a, b), f_imp(b, a))


def test_axiom_shapes_are_tautologies() -> None:
    assert tautology(f_imp(a, FAnd(a, a)))
    assert tautology(f_imp(FAnd(a, b), a))
    assert tautology(f_imp(f_imp(a, b), f_imp(FNot(FAnd(b, c)), FNot(FAnd(c, a)))))
    assert tautology(f_or(a, FNot(a)))
    assert not tautology(FAnd(a, FNot(a)))
    assert not tautology(a)


def test_semantic_consequence_basics() -> None:
    assert consequence([a], FAnd(a, a))
    assert consequence([f_imp(a, b), a], b)
    assert not consequence([], a)
    assert not consequence([b], a)


@given(st.lists(prop_terms(), max_size=3), prop_terms())
def test_semantic_consequence_agrees_with_truth_table_route(hyps, term) -> None:
    assert consequence(hyps, term) == oracle_consequence(hyps, term)


@given(prop_terms(names=("a", "b", "c", "d", "e", "forall"), max_leaves=16))
def test_tautology_is_consequence_of_nothing(term) -> None:
    # The countermodel search at size 1 against the truth-table oracle.
    assert tautology(term) == oracle_consequence((), term)
    assert tautology(f_or(term, FNot(term)))
    assert not tautology(FAnd(term, FNot(term)))


def test_tautology_budget() -> None:
    letters = [Atom(f"a{i}", ()) for i in range(21)]
    wide = letters[0]
    for letter in letters[1:]:
        wide = FAnd(wide, letter)
    # 2^21 rows of a truth table: over the search's candidate cap.
    with pytest.raises(BoundExceeded):
        tautology(wide)
    wide = letters[1]
    for letter in letters[2:]:
        wide = FAnd(wide, letter)
    assert not tautology(wide)


# ------------- algebras: frozen small facts -------------

def test_algebra_two_tables() -> None:
    two = algebra_two()
    assert two.size == 2
    assert two.neg(0) == 1 and two.neg(1) == 0
    assert two.imp(0, 0) == 1 and two.imp(1, 0) == 0 and two.imp(1, 1) == 1


def test_algebra_validation() -> None:
    with pytest.raises(ValueError):
        FinitePropAlgebra((), ())
    with pytest.raises(ValueError):
        FinitePropAlgebra((0, 2), ((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        FinitePropAlgebra((0, 1), ((0, 0),))


def test_axiom_elements_of_two_is_top() -> None:
    assert axiom_elements(algebra_two()) == mask_of([1])


def test_ded_closure_frozen_values() -> None:
    two = algebra_two()
    assert ded_closure(two, 0) == mask_of([1])
    assert ded_closure(two, mask_of([0])) == mask_of([0, 1])


def test_valuations_of_two() -> None:
    assert enumerate_valuations(algebra_two()) == [mask_of([1])]
    assert val_set(algebra_two()) == mask_of([1])


def test_one_element_algebra_has_no_valuations() -> None:
    assert enumerate_valuations(ONE_ELEMENT) == []
    assert val_set(ONE_ELEMENT) == mask_of([0])
    assert is_boolean(ONE_ELEMENT)


def test_enumeration_bound_is_enforced() -> None:
    # 32 elements, over the bound of 16: refused before any subset is
    # enumerated.
    with pytest.raises(BoundExceeded, match="carrier of size 32 exceeds enumeration bound 16"):
        enumerate_valuations(bitmask_algebra(5))


def test_boolean_recognition() -> None:
    assert is_boolean(algebra_two())
    assert is_boolean(free_boolean_algebra(1))
    assert is_boolean(bitmask_algebra(3))
    assert not is_boolean(GODEL3)
    flipped = FinitePropAlgebra((0, 1), ((0, 0), (0, 1)))  # negation is identity
    assert not is_boolean(flipped)


def test_mask_helpers_round_trip() -> None:
    assert elements_of(mask_of([0, 3, 5])) == (0, 3, 5)
    assert mask_of(()) == 0


# ------------- filters against valuations, across the corpus -------------

@pytest.mark.parametrize("algebra", CORPUS, ids=lambda A: f"n{A.size}")
def test_top_elements_lie_in_val_set(algebra) -> None:
    vs = val_set(algebra)
    for p in range(algebra.size):
        assert vs >> algebra.disj(p, algebra.neg(p)) & 1


@pytest.mark.parametrize("algebra", CORPUS, ids=lambda A: f"n{A.size}")
def test_every_filter_is_an_intersection_of_valuations(algebra) -> None:
    full = (1 << algebra.size) - 1
    valuations = enumerate_valuations(algebra)
    for f in enumerate_filters(algebra):
        meet = full
        for v in valuations:
            if f & ~v == 0:
                meet &= v
        assert meet == f


@pytest.mark.parametrize("algebra", CORPUS, ids=lambda A: f"n{A.size}")
def test_maximal_filters_are_exactly_the_valuations(algebra) -> None:
    filters = enumerate_filters(algebra)
    maximal = [f for f in filters if is_maximal_filter(algebra, f, filters)]
    assert maximal == enumerate_valuations(algebra)


@pytest.mark.parametrize("algebra", CORPUS, ids=lambda A: f"n{A.size}")
def test_valuations_are_filters(algebra) -> None:
    for v in enumerate_valuations(algebra):
        assert is_filter(algebra, v)


@pytest.mark.parametrize("algebra", CORPUS, ids=lambda A: f"n{A.size}")
def test_ded_closure_is_the_least_containing_filter(algebra) -> None:
    rng = random.Random(algebra.size * 1001)
    subsets = [0, (1 << algebra.size) - 1] + [
        rng.randrange(1 << algebra.size) for _ in range(6)
    ]
    filters = enumerate_filters(algebra)
    for t in subsets:
        closed = ded_closure(algebra, t)
        assert is_filter(algebra, closed)
        assert t & ~closed == 0
        for f in filters:
            if t & ~f == 0:
                assert closed & ~f == 0


def chain(n: int) -> FinitePropAlgebra:
    """The n-element chain: conjunction is min, negation reverses."""
    return FinitePropAlgebra(
        tuple(n - 1 - i for i in range(n)),
        tuple(tuple(min(i, j) for j in range(n)) for i in range(n)),
    )


def test_enumerate_filters_computes_the_axiom_elements_once(monkeypatch) -> None:
    # The axiom elements are an O(n^3) walk; computed once per subset,
    # they were nearly all of the enumeration's time.
    calls = []

    def spy(algebra):
        calls.append(algebra)
        return axiom_elements(algebra)

    monkeypatch.setattr(propositional, "axiom_elements", spy)
    small = chain(6)
    assert enumerate_filters(small) == [f for f in range(1 << 6) if is_filter(small, f)]
    calls.clear()
    for algebra in (chain(10), bitmask_algebra(3), GODEL3):
        enumerate_filters(algebra)
    assert len(calls) == 3


def test_completeness_survey_computes_the_axiom_elements_once_per_algebra(monkeypatch) -> None:
    # The maximal-filter pass tests every filter; computing the axiom
    # elements for each of them was most of the survey on 16 elements.
    corpus = [chain(6), bitmask_algebra(3), GODEL3, algebra_two()]
    expected = completeness_survey(corpus)
    calls = []

    def spy(algebra):
        calls.append(algebra)
        return axiom_elements(algebra)

    monkeypatch.setattr(propositional, "axiom_elements", spy)
    monkeypatch.setattr(checks, "axiom_elements", spy)
    assert completeness_survey(corpus) == expected
    assert calls == corpus


@pytest.mark.parametrize(
    "algebra", [algebra_two(), free_boolean_algebra(1), bitmask_algebra(2), bitmask_algebra(3)],
    ids=lambda A: f"n{A.size}",
)
def test_filters_match_the_order_theoretic_criterion_on_boolean_carriers(algebra) -> None:
    for subset in range(1 << algebra.size):
        assert is_filter(algebra, subset) == boolean_filter_criterion(algebra, subset)


# ------------- quotients -------------

def test_lindenbaum_of_two_by_its_top_filter_is_two() -> None:
    quotient, projection = lindenbaum(algebra_two(), mask_of([1]))
    assert quotient.size == 2
    assert projection == (0, 1)


def test_lindenbaum_collapses_the_full_carrier() -> None:
    full = (1 << algebra_two().size) - 1
    quotient, projection = lindenbaum(algebra_two(), full)
    assert quotient.size == 1
    assert projection == (0, 0)


@pytest.mark.parametrize("algebra", CORPUS, ids=lambda A: f"n{A.size}")
def test_every_filter_quotient_is_boolean(algebra) -> None:
    for f in enumerate_filters(algebra):
        quotient, projection = lindenbaum(algebra, f)
        assert is_boolean(quotient)
        assert len(projection) == algebra.size


# ------------- truth-table classes of the free fragment -------------

def test_free_fragment_class_counts() -> None:
    assert len(free_boolean_classes(1, 3)) == 4
    assert len(free_boolean_classes(2, 6)) == 16
    # depth 2 is one negation short of completing the lattice on one variable
    assert len(free_boolean_classes(1, 2)) == 3


def test_free_algebra_sizes_match_class_counts() -> None:
    assert free_boolean_algebra(1).size == len(free_boolean_classes(1, 8))
    assert free_boolean_algebra(2).size == len(free_boolean_classes(2, 8))


# ------------- proof checking -------------

def local(*steps: ProofStep) -> Proof:
    return Proof("local", steps)


def axiom(number: int, p=None, q=None, r=None) -> ByAxiom:
    return ByAxiom(AxiomInstanceSpec(f"A{number}", p, q, r))


def proof_of_and_from_hypothesis() -> list[ProofStep]:
    return [
        ProofStep(a, ByHyp(0)),
        ProofStep(build_prime_axiom(axiom(1, a).spec), axiom(1, a)),
        ProofStep(FAnd(a, a), ByMP(0, 1)),
    ]


def test_accepts_modus_ponens_proof() -> None:
    result = check_prop_proof(local(*proof_of_and_from_hypothesis()), [a])
    assert result.ok


def test_rejects_swapped_modus_ponens_indices() -> None:
    steps = proof_of_and_from_hypothesis()
    steps[2] = ProofStep(FAnd(a, a), ByMP(1, 0))
    result = check_prop_proof(local(*steps), [a])
    assert not result.ok and result.step == 2


def test_rejects_wrong_axiom_instance() -> None:
    result = check_prop_proof(local(ProofStep(f_imp(a, FAnd(a, b)), axiom(1, a))))
    assert not result.ok and result.step == 0


def test_rejects_out_of_range_hypothesis() -> None:
    result = check_prop_proof(local(ProofStep(a, ByHyp(3))), [a])
    assert not result.ok and "out of range" in result.reason


def test_rejects_forward_reference() -> None:
    result = check_prop_proof(local(ProofStep(a, ByMP(0, 1))), [a])
    assert not result.ok and result.step == 0


def test_axiom_builder_shapes() -> None:
    assert build_prime_axiom(axiom(1, a).spec) == f_imp(a, FAnd(a, a))
    assert build_prime_axiom(axiom(2, a, b).spec) == f_imp(FAnd(a, b), a)
    assert build_prime_axiom(axiom(3, a, b, c).spec) == f_imp(
        f_imp(a, b), f_imp(FNot(FAnd(b, c)), FNot(FAnd(c, a)))
    )
    with pytest.raises(ValueError):
        build_prime_axiom(axiom(2, a).spec)
    # Recipes the propositional file format cannot write; missing
    # parameters are covered through the command line in test_cli.
    reasons = {
        "no propositional axiom 4": axiom(4, a, a),
        "propositional axioms take no binders": ByAxiom(AxiomInstanceSpec("A1", a, gen_count=1)),
    }
    for reason, by in reasons.items():
        step = ProofStep(f_imp(a, FAnd(a, a)), by)
        assert check_prop_proof(local(step)) == CheckResult(False, 0, reason)


@given(prop_terms())
def test_axiom_instances_are_tautologies(p) -> None:
    assert tautology(build_prime_axiom(axiom(1, p).spec))
