"""Formula algebra: binder laws, rank lemmas, arithmetic schemata."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, strategies as st

from clonelogic.errors import ArityMismatch, BoundExceeded, UndeclaredSymbol
from clonelogic.formulas import (
    Atom,
    FAnd,
    FNot,
    Forall,
    Language,
    PredicateType,
    check_formula,
    close_off,
    enumerate_formulas,
    equality_atom,
    exists,
    exists_xi,
    f_iff,
    f_imp,
    f_or,
    forall_xi,
    fminus,
    fplus,
    frank,
    fstar,
    fsubst,
    is_sentence,
    peano_core,
    peano_induction,
    plus,
    succ,
    times,
    zero,
)
from clonelogic.terms import (
    IDENTITY,
    MAX_BINDER_INDEX,
    SHIFT_UP,
    App,
    FunctionType,
    Var,
    compose,
    lift,
    subst_from_list,
    touch_subst,
)

from oracle import oracle_check_formula, oracle_fsubst
from strategies import LANG, formulas, substitutions, terms

x1, x2, x3 = Var(1), Var(2), Var(3)


def r(t):
    return Atom("r", (t,))


def s(t, u):
    return Atom("s", (t, u))


def f(t):
    return App("f", (t,))


# ------------- frank: fixpoint oracle via the substitution definition -------------

def frank_oracle(formula) -> int:
    if fsubst(formula, SHIFT_UP) == formula:
        return 0
    n = 1
    while True:
        probe = subst_from_list(tuple(Var(i) for i in range(1, n + 1)))
        if fsubst(formula, probe) == formula:
            return n
        n += 1


# ------------- signatures -------------

def test_language_rejects_overlapping_names() -> None:
    with pytest.raises(ValueError):
        Language(FunctionType({"f": 1}), PredicateType({"f": 2}))


def test_equality_must_be_a_declared_binary_predicate() -> None:
    with pytest.raises(ValueError):
        PredicateType({"r": 1}, equality="e")
    with pytest.raises(ValueError):
        PredicateType({"e": 3}, equality="e")
    assert PredicateType({"e": 2}, equality="e").equality == "e"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FunctionType({"": 0}), "empty symbol name"),
        (lambda: FunctionType({"x1": 0}), "symbol name 'x1' would collide with a variable"),
        (lambda: FunctionType([("f", 1), ("f", 2)]), "duplicate symbol 'f'"),
        (lambda: FunctionType({"f": -1}), "negative arity for 'f'"),
        (lambda: PredicateType({"x12": 0}), "symbol name 'x12' would collide with a variable"),
        (lambda: PredicateType([("r", 1), ("r", 1)]), "duplicate symbol 'r'"),
        (lambda: PredicateType({"r": -2}), "negative arity for 'r'"),
        (lambda: PredicateType({"r": 1}, equality="e"), "equality symbol 'e' is not declared"),
        (lambda: PredicateType({"e": 3}, equality="e"), "equality symbol 'e' must be binary"),
        (
            lambda: Language(FunctionType({"g": 0, "f": 1}), PredicateType({"f": 2, "g": 1})),
            "symbols declared twice: ['f', 'g']",
        ),
    ],
)
def test_signature_validation_messages(build, message) -> None:
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == message


def test_function_and_predicate_signatures_never_compare_equal() -> None:
    functions, predicates = FunctionType({"r": 1}), PredicateType({"r": 1})
    assert functions != predicates and predicates != functions
    assert not functions == predicates and not predicates == functions
    assert functions == FunctionType({"r": 1}) and predicates == PredicateType({"r": 1})
    both = {"e": 2, "f": 2}
    assert PredicateType(both, equality="e") != PredicateType(both, equality="f")
    assert PredicateType(both, equality="e") != PredicateType(both)
    assert PredicateType(both, equality="e") == PredicateType(both, equality="e")
    assert Language(FunctionType(), PredicateType(both, equality="e")) != Language(
        FunctionType(), PredicateType(both, equality="f")
    )


def test_signature_reprs() -> None:
    functions = FunctionType({"c": 0, "f": 1})
    predicates = PredicateType({"r": 1, "e": 2}, equality="e")
    assert repr(functions) == "FunctionType({'c': 0, 'f': 1})"
    assert repr(predicates) == "PredicateType({'r': 1, 'e': 2}, equality='e')"
    assert repr(PredicateType({"r": 1})) == "PredicateType({'r': 1}, equality=None)"
    assert repr(Language(functions, predicates)) == (
        "Language(FunctionType({'c': 0, 'f': 1}), PredicateType({'r': 1, 'e': 2}, equality='e'))"
    )


def test_predicate_signature_lookups() -> None:
    predicates = PredicateType({"r": 1, "e": 2}, equality="e")
    assert predicates.arity("e") == 2 and len(predicates) == 2
    assert "r" in predicates and "f" not in predicates
    assert list(predicates) == ["r", "e"]
    assert list(predicates.items()) == [("r", 1), ("e", 2)]
    with pytest.raises(UndeclaredSymbol, match="undeclared symbol: 'q'"):
        predicates.arity("q")
    with pytest.raises(UndeclaredSymbol, match="undeclared symbol: 'q'"):
        LANG.predicates.arity("q")


def test_check_formula_flags_bad_atoms() -> None:
    check_formula(r(f(x1)), LANG)
    with pytest.raises(UndeclaredSymbol):
        check_formula(Atom("q", ()), LANG)
    with pytest.raises(ArityMismatch):
        check_formula(Atom("r", (x1, x2)), LANG)


# Symbols outside LANG (h, q) and arities that LANG does not declare.
_loose_terms = st.recursive(
    st.integers(1, 3).map(Var) | st.sampled_from(["c", "h"]).map(lambda n: App(n, ())),
    lambda inner: st.builds(
        lambda name, args: App(name, tuple(args)),
        st.sampled_from(["c", "f", "g", "h"]),
        st.lists(inner, max_size=3),
    ),
    max_leaves=6,
)
_loose_atoms = st.builds(
    lambda name, args: Atom(name, tuple(args)),
    st.sampled_from(["r", "s", "e", "q"]),
    st.lists(_loose_terms, max_size=3),
) | st.builds(lambda t: Atom("s", (t, t)), _loose_terms)
_loose_formulas = st.recursive(
    _loose_atoms,
    lambda inner: st.one_of(
        inner.map(FNot),
        inner.map(Forall),
        st.builds(FAnd, inner, inner),
        inner.map(lambda p: FAnd(p, FNot(p))),  # one subformula object, twice
    ),
    max_leaves=8,
)


def _raised(check, formula):
    try:
        check(formula, LANG)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@given(_loose_formulas)
def test_check_formula_matches_recursive_oracle(p) -> None:
    assert _raised(check_formula, p) == _raised(oracle_check_formula, p)


def test_check_formula_does_not_recurse() -> None:
    deep = r(x1)
    for _ in range(5000):
        deep = FNot(deep)
    check_formula(deep, LANG)
    bad = Atom("q", ())
    for _ in range(5000):
        bad = Forall(bad)
    with pytest.raises(UndeclaredSymbol):
        check_formula(bad, LANG)
    term = x1
    for _ in range(5000):
        term = App("f", (term,))
    check_formula(s(term, App("g", (term, x2))), LANG)


def test_check_formula_visits_shared_nodes_once() -> None:
    """Twenty doublings share one atom 2^20 times over; the walk sees 21
    distinct nodes, and the first error is still found."""
    shared = s(App("f", (x1,)), App("f", (x1,)))
    bad = FAnd(shared, r(App("h", ())))
    for _ in range(20):
        shared = FAnd(shared, shared)
        bad = FAnd(bad, bad)
    check_formula(shared, LANG)
    with pytest.raises(UndeclaredSymbol, match="'h'"):
        check_formula(bad, LANG)


def test_close_off_over_binder_cap_raises() -> None:
    with pytest.raises(BoundExceeded):
        close_off(r(Var(MAX_BINDER_INDEX + 1)))
    assert frank(close_off(s(x1, Var(50)))) == 0


# ------------- substitution action -------------

def test_fsubst_pushes_under_the_binder() -> None:
    got = fsubst(Forall(s(x1, x2)), subst_from_list([f(x1)]))
    assert got == Forall(s(x1, f(x2)))


def test_fsubst_on_atom() -> None:
    assert fsubst(r(x2), subst_from_list([f(x1), x1])) == r(x1)


@given(formulas(), substitutions(), substitutions())
def test_fsubst_respects_composition(p, first, second) -> None:
    assert fsubst(fsubst(p, first), second) == fsubst(p, compose(first, second))


@given(st.lists(formulas(max_index=7), min_size=1, max_size=4), substitutions(max_index=7))
def test_fsubst_agrees_with_lifting_oracle(ps, sub) -> None:
    # One images dict serves every formula, twice over, so the images
    # memoized for one formula are read back for the next and the repeat.
    expected = [oracle_fsubst(p, sub) for p in ps]
    assert [fsubst(p, sub) for p in ps] == expected
    images = {}
    for _ in range(2):
        for p, image in zip(ps, expected):
            assert fsubst(p, sub, images) is image


def test_named_binder_chain_costs_quadratic_time() -> None:
    # Each named binder substitutes into the chain below it; reading the
    # lifted rotation per variable keeps each step linear in the body.
    start = time.perf_counter()
    formula = r(x1)
    for _ in range(300):
        formula = exists_xi(1, formula)
    assert time.perf_counter() - start < 2.0
    assert frank(formula) == 0


@given(formulas())
def test_fsubst_identity_is_noop(p) -> None:
    assert fsubst(p, IDENTITY) == p


@given(formulas(), substitutions())
def test_binder_law(p, sub) -> None:
    assert fsubst(Forall(p), sub) == Forall(fsubst(p, lift(sub)))


@given(formulas())
def test_plus_then_minus_recovers_formula(p) -> None:
    assert fminus(fplus(p)) == p


@given(formulas())
def test_minus_then_plus_is_star(p) -> None:
    assert fplus(fminus(p)) == fstar(p)


def test_fstar_on_equality_atom() -> None:
    assert fstar(Atom("e", (x1, x2))) == Atom("e", (x2, x2))


# ------------- named binders -------------

def test_forall_xi_rotates_coordinates() -> None:
    assert forall_xi(2, s(x2, x1)) == Forall(s(x1, x2))
    assert forall_xi(1, r(x1)) == Forall(r(x1))


@given(formulas())
def test_forall_x1_is_plus_of_binder(p) -> None:
    assert forall_xi(1, p) == fplus(Forall(p))


@given(formulas())
def test_minus_of_forall_x1_recovers_binder(p) -> None:
    assert fminus(forall_xi(1, p)) == Forall(p)


def test_exists_is_negated_universal() -> None:
    p = r(x1)
    assert exists(p) == FNot(Forall(FNot(p)))
    assert exists_xi(2, s(x2, x1)) == FNot(Forall(FNot(s(x1, x2))))


# ------------- rank -------------

def test_frank_frozen_values() -> None:
    assert frank(r(x1)) == 1
    assert frank(Forall(s(x1, x2))) == 1
    assert frank(Forall(r(x1))) == 0
    assert frank(FAnd(r(x3), Forall(r(x1)))) == 3
    assert frank(forall_xi(2, s(x2, x1))) == 1


@given(formulas())
def test_frank_matches_substitution_oracle(p) -> None:
    assert frank(p) == frank_oracle(p)


@given(formulas(), substitutions())
def test_sentences_are_substitution_invariant(p, sub) -> None:
    # rank lemma, closed case: sentences absorb every substitution
    q = close_off(p)
    assert fsubst(q, sub) == q


@given(formulas())
def test_binder_drops_rank_by_one(p) -> None:
    n = frank(p)
    if n > 0:
        assert frank(Forall(p)) == n - 1


@given(formulas())
def test_iterated_binder_closes(p) -> None:
    out = p
    for _ in range(frank(p)):
        out = Forall(out)
    assert frank(out) == 0


@given(formulas())
def test_collapse_to_first_coordinate_then_bind_is_closed(p) -> None:
    assert frank(Forall(fsubst(p, subst_from_list([x1])))) == 0


@given(formulas(), st.integers(min_value=1, max_value=5), terms())
def test_named_binder_ignores_its_own_coordinate(p, i, t) -> None:
    bound = forall_xi(i, p)
    assert fsubst(bound, touch_subst(i, t)) == bound


@given(formulas())
def test_close_off_yields_sentence(p) -> None:
    assert is_sentence(close_off(p))


def test_close_off_frozen_example() -> None:
    assert close_off(r(x1)) == Forall(r(x1))
    assert close_off(s(x1, x2)) == Forall(Forall(s(x2, x1)))


# ------------- connective sugar -------------

def test_sugar_expansion_shapes() -> None:
    p, q = r(x1), r(x2)
    assert f_or(p, q) == FNot(FAnd(FNot(p), FNot(q)))
    assert f_imp(p, q) == FNot(FAnd(FNot(FNot(p)), FNot(q)))
    assert f_iff(p, q) == FAnd(f_imp(p, q), f_imp(q, p))


# ------------- arithmetic -------------

def test_peano_core_shapes() -> None:
    s1, s2, s3, s4, s5, s6 = peano_core()
    e = lambda t, u: Atom("e", (t, u))
    assert s1 == FNot(e(zero(), succ(x1)))
    assert s2 == f_imp(e(succ(x1), succ(x2)), e(x1, x2))
    assert s3 == e(plus(x1, zero()), x1)
    assert s4 == e(plus(x1, succ(x2)), succ(plus(x1, x2)))
    assert s5 == e(times(x1, zero()), zero())
    assert s6 == e(times(x1, succ(x2)), plus(times(x1, x2), x1))


def test_peano_core_ranks_are_small() -> None:
    assert [frank(p) for p in peano_core()] == [1, 2, 1, 2, 1, 2]


def test_induction_instance_shape() -> None:
    e = lambda t, u: Atom("e", (t, u))
    p = e(x1, x1)
    got = peano_induction(p)
    base = e(zero(), zero())
    step = Forall(f_imp(e(x1, x1), e(succ(x1), succ(x1))))
    assert got == f_imp(FAnd(base, step), Forall(e(x1, x1)))
    assert is_sentence(got)


def test_induction_rejects_foreign_symbols() -> None:
    with pytest.raises(UndeclaredSymbol):
        peano_induction(r(x1))


def test_equality_atom_requires_designated_symbol() -> None:
    assert equality_atom(LANG) == Atom("e", (x1, x2))
    no_eq = Language(FunctionType(), PredicateType({"r": 1}))
    with pytest.raises(ValueError):
        equality_atom(no_eq)


# ------------- exhaustive fragments -------------

def test_enumerate_formulas_small_count() -> None:
    out = enumerate_formulas([r(x1)], connectives=2)
    assert len(out) == len(set(out)) == 16
    assert out[0] == r(x1)
    assert FNot(r(x1)) in out and Forall(Forall(r(x1))) in out


def test_enumerate_formulas_deterministic() -> None:
    a = enumerate_formulas([r(x1), r(x2)], connectives=2)
    b = enumerate_formulas([r(x1), r(x2)], connectives=2)
    assert a == b


def test_enumerate_formulas_rejects_negative_budget() -> None:
    with pytest.raises(ValueError, match="connectives must be >= 0"):
        enumerate_formulas([r(x1)], connectives=-1)
    assert enumerate_formulas([r(x1), r(x1)], connectives=0) == [r(x1)]


def test_enumerate_formulas_cap(monkeypatch) -> None:
    from clonelogic import formulas

    # Exactly at the cap the output is returned; one formula over raises.
    monkeypatch.setattr(formulas, "_MAX_ENUMERATED", 16)
    assert len(enumerate_formulas([r(x1)], connectives=2)) == 16
    monkeypatch.setattr(formulas, "_MAX_ENUMERATED", 15)
    with pytest.raises(BoundExceeded, match="at most 2 connectives pass the cap of 15"):
        enumerate_formulas([r(x1)], connectives=2)


def test_enumerate_formulas_stops_at_the_real_cap() -> None:
    atoms = [s(Var(i), Var(j)) for i in (1, 2) for j in (1, 2)]
    assert [len(enumerate_formulas(atoms, k)) for k in (2, 3, 4)] == [268, 3244, 44524]
    with pytest.raises(BoundExceeded, match="pass the cap of 65536"):
        enumerate_formulas(atoms, 5)


def test_enumerate_formulas_refuses_more_atoms_than_the_cap() -> None:
    # The atoms count towards the cap: one atom over it refuses before a
    # single conjunction of the 2^32 pairs is built, at budget 0 too.
    atoms = [r(Var(i)) for i in range(1, (1 << 16) + 2)]
    start = time.perf_counter()
    for budget in (1, 0):
        with pytest.raises(BoundExceeded, match=f"at most {budget} connectives pass the cap"):
            enumerate_formulas(atoms, budget)
    assert time.perf_counter() - start < 2.0
    assert len(enumerate_formulas(atoms[:-1], 0)) == 1 << 16
