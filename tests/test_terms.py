"""Substitution kernel: frozen values, coordinatewise oracles, algebra laws."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from clonelogic.errors import ArityMismatch, UndeclaredSymbol
from clonelogic.formulas import Atom
from clonelogic.syntax import format_term
from clonelogic.terms import (
    IDENTITY,
    MINUS,
    SHIFT_UP,
    STAR,
    App,
    Const,
    FunctionType,
    Shift,
    Substitution,
    Var,
    apply,
    check_term,
    compose,
    cons_subst,
    drop_first,
    dup_second,
    enumerate_terms,
    forall_rotation,
    is_closed,
    lift,
    rank,
    sigma_at,
    subst_from_list,
    touch_subst,
)

from strategies import FUNCS, substitutions, terms

x1, x2, x3, x4 = Var(1), Var(2), Var(3), Var(4)


def f(t):
    return App("f", (t,))


def g(t, u):
    return App("g", (t, u))


c = App("c", ())


# ------------- rank: brute-force oracle via the substitution definition -------------

def rank_oracle(term) -> int:
    """Least n such that the term is fixed by [x1..xn]; 0 when shift-invariant."""
    if apply(term, SHIFT_UP) == term:
        return 0
    n = 1
    while True:
        probe = subst_from_list(tuple(Var(i) for i in range(1, n + 1)))
        if apply(term, probe) == term:
            return n
        n += 1


# ------------- construction and validation -------------

def test_variable_indices_are_one_based() -> None:
    with pytest.raises(ValueError):
        Var(0)
    with pytest.raises(ValueError):
        Var(-3)


def test_shift_guard_rejects_negative_coordinates() -> None:
    with pytest.raises(ValueError):
        Substitution((), Shift(-1))
    with pytest.raises(ValueError):
        Substitution((x1,), Shift(-2))
    # boundary case is fine: [t, x1, x2, ...]
    Substitution((x1,), Shift(-1))


def test_prefix_normalization_drops_redundant_entries() -> None:
    assert Substitution((x1,), Shift(0)) == IDENTITY
    assert Substitution((x1, x2, x3), Shift(0)) == IDENTITY
    assert Substitution((x2,), Shift(1)) == SHIFT_UP
    assert Substitution((f(x1), f(x1)), Const(f(x1))) == Substitution((), Const(f(x1)))
    # a non-redundant trailing entry survives
    assert Substitution((x2, x1), Shift(1)).prefix == (x2, x1)


def test_function_type_validation() -> None:
    ft = FunctionType({"c": 0, "f": 1})
    assert ft.arity("f") == 1
    with pytest.raises(UndeclaredSymbol):
        ft.arity("h")
    with pytest.raises(ValueError):
        FunctionType({"x1": 0})
    with pytest.raises(ValueError):
        FunctionType({"f": -1})


def test_check_term_flags_bad_symbols() -> None:
    ft = FunctionType({"f": 1})
    check_term(f(x1), ft)
    with pytest.raises(UndeclaredSymbol):
        check_term(App("h", ()), ft)
    with pytest.raises(ArityMismatch):
        check_term(App("f", (x1, x2)), ft)


# ------------- frozen coordinate values -------------

def test_sigma_at_of_minus() -> None:
    # minus = [x1, x1, x2, x3, ...]
    assert sigma_at(MINUS, 1) == x1
    assert sigma_at(MINUS, 2) == x1
    assert sigma_at(MINUS, 3) == x2
    assert sigma_at(MINUS, 4) == x3


def test_sigma_at_of_star() -> None:
    # star = [x2, x2, x3, x4, ...]
    assert sigma_at(STAR, 1) == x2
    assert sigma_at(STAR, 2) == x2
    assert sigma_at(STAR, 3) == x3


def test_apply_with_constant_tail() -> None:
    sub = subst_from_list([g(x2, x2)])
    assert apply(f(x1), sub) == f(g(x2, x2))
    assert apply(f(x3), sub) == f(g(x2, x2))


def test_apply_rebuilds_applications() -> None:
    sub = Substitution((f(x1),), Shift(0))
    assert apply(g(x1, x2), sub) == g(f(x1), x2)
    assert apply(c, sub) == c


def test_apply_rejects_a_non_term() -> None:
    atom = Atom("r", (x1,))
    for bad in (atom, "x1", f(App("f", (atom,)))):
        with pytest.raises(TypeError, match="not a term"):
            apply(bad, IDENTITY)


@given(terms(), substitutions(), st.integers(min_value=0, max_value=3))
def test_apply_under_binders_reads_the_lifted_substitution(t, sub, depth) -> None:
    lifted = sub
    for _ in range(depth):
        lifted = lift(lifted)
    assert apply(t, sub, depth) == apply(t, lifted)


def test_repeated_applies_at_one_depth_build_no_substitution(monkeypatch) -> None:
    # Under a binder each variable's image is shifted by the depth; that
    # shift is built once per depth, not once per call.
    built = []
    post_init = Substitution.__post_init__

    def spy(sub):
        built.append(sub)
        post_init(sub)

    t = App("g", (Var(5), App("f", (Var(4),))))
    sub = Substitution((App("f", (Var(1),)), Var(3)), Shift(1))
    expected = [apply(t, sub, depth) for depth in (1, 2, 3)]
    monkeypatch.setattr(Substitution, "__post_init__", spy)
    for _ in range(50):
        assert [apply(t, sub, depth) for depth in (1, 2, 3)] == expected
    assert built == []


# ------------- composition: frozen identities and coordinatewise oracle -------------

def test_shift_up_then_minus_is_identity() -> None:
    assert compose(SHIFT_UP, MINUS) == IDENTITY


def test_minus_then_shift_up_is_star() -> None:
    assert compose(MINUS, SHIFT_UP) == STAR


@given(substitutions(), substitutions(), st.integers(min_value=1, max_value=12))
def test_compose_coordinatewise(first, second, j) -> None:
    assert sigma_at(compose(first, second), j) == apply(sigma_at(first, j), second)


@given(terms(), substitutions(), substitutions())
def test_apply_respects_composition(t, first, second) -> None:
    assert apply(t, compose(first, second)) == apply(apply(t, first), second)


@given(terms())
def test_apply_identity_is_noop(t) -> None:
    assert apply(t, IDENTITY) == t


@given(substitutions(), substitutions(), substitutions())
def test_compose_is_associative(a, b, sub) -> None:
    assert compose(compose(a, b), sub) == compose(a, compose(b, sub))


@given(substitutions())
def test_identity_is_neutral(sub) -> None:
    assert compose(sub, IDENTITY) == sub
    assert compose(IDENTITY, sub) == sub


@given(substitutions(), st.integers(min_value=1, max_value=4))
def test_normalization_gives_canonical_form(sub, extend_by) -> None:
    # Re-adding entries the tail already covers yields the same structure.
    n = len(sub.prefix)
    extra = tuple(sigma_at(sub, n + k) for k in range(1, extend_by + 1))
    assert Substitution(sub.prefix + extra, sub.tail) == sub


@given(terms())
def test_plus_then_minus_recovers_the_term(t) -> None:
    assert apply(apply(t, SHIFT_UP), MINUS) == t


@given(terms())
def test_minus_then_plus_is_star_action(t) -> None:
    assert apply(apply(t, MINUS), SHIFT_UP) == apply(t, STAR)


# ------------- lift -------------

def test_lift_frozen_values() -> None:
    assert sigma_at(lift(SHIFT_UP), 1) == x1
    assert sigma_at(lift(SHIFT_UP), 3) == x4
    assert sigma_at(lift(subst_from_list([f(x1)])), 2) == f(x2)


def test_lift_of_identity_is_identity() -> None:
    assert lift(IDENTITY) == IDENTITY


@given(substitutions(), st.integers(min_value=1, max_value=10))
def test_lift_coordinatewise(sub, j) -> None:
    lifted = lift(sub)
    assert sigma_at(lifted, 1) == x1
    assert sigma_at(lifted, j + 1) == apply(sigma_at(sub, j), SHIFT_UP)


@given(substitutions(), substitutions())
def test_lift_is_multiplicative(first, second) -> None:
    assert lift(compose(first, second)) == compose(lift(first), lift(second))


# ------------- derived substitutions -------------

def test_subst_from_list_normal_form() -> None:
    assert subst_from_list([x1]) == Substitution((), Const(x1))
    assert subst_from_list([x1, x2, f(x3)]) == Substitution((x1, x2), Const(f(x3)))
    with pytest.raises(ValueError):
        subst_from_list([])


@given(substitutions(), st.integers(min_value=1, max_value=10))
def test_drop_first_coordinatewise(sub, j) -> None:
    assert sigma_at(drop_first(sub), j) == sigma_at(sub, j + 1)


@given(substitutions(), st.integers(min_value=1, max_value=10))
def test_dup_second_coordinatewise(sub, j) -> None:
    expected = sigma_at(sub, 2) if j <= 2 else sigma_at(sub, j)
    assert sigma_at(dup_second(sub), j) == expected


@given(terms(), st.integers(min_value=1, max_value=10))
def test_cons_subst_coordinatewise(t, j) -> None:
    sub = cons_subst(t)
    assert sigma_at(sub, 1) == t
    assert sigma_at(sub, j + 1) == Var(j)


@given(st.integers(min_value=1, max_value=6), terms(), st.integers(min_value=1, max_value=10))
def test_touch_subst_coordinatewise(i, t, j) -> None:
    sub = touch_subst(i, t)
    assert sigma_at(sub, i) == t
    if j != i:
        assert sigma_at(sub, j) == Var(j)


def test_forall_rotation_frozen_values() -> None:
    assert forall_rotation(1) == Substitution((x1,), Shift(1))
    assert sigma_at(forall_rotation(2), 1) == x2
    assert sigma_at(forall_rotation(2), 2) == x1
    assert sigma_at(forall_rotation(2), 3) == x4


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=12))
def test_forall_rotation_coordinatewise(i, j) -> None:
    sub = forall_rotation(i)
    if j == i:
        assert sigma_at(sub, j) == x1
    else:
        assert sigma_at(sub, j) == Var(j + 1)


# ------------- rank -------------

def test_rank_frozen_values() -> None:
    assert rank(x3) == 3
    assert rank(c) == 0
    assert rank(f(g(x1, App("g", (x4, x1))))) == 4


@given(terms())
def test_rank_matches_substitution_oracle(t) -> None:
    assert rank(t) == rank_oracle(t)


@given(terms())
def test_rank_fixpoint(t) -> None:
    n = rank(t)
    if n >= 1:
        probe = subst_from_list(tuple(Var(i) for i in range(1, n + 1)))
        assert apply(t, probe) == t
    assert is_closed(t) == (n == 0)


# ------------- term enumeration -------------

def test_enumeration_over_empty_signature_is_variables_only() -> None:
    out = enumerate_terms(FunctionType(), depth=5, max_var=3)
    assert out == [Var(1), Var(2), Var(3)]
    assert all(rank(t) >= 1 for t in out)


# Every term of depth <= 2 over x1, x2 and FUNCS, in enumeration order:
# each layer lists c, then f and g applied to the earlier terms, with
# argument tuples in lexicographic order.
FUNCS_DEPTH_2 = """
x1 x2 c f(x1) f(x2) g(x1,x1) g(x1,x2) g(x2,x1) g(x2,x2)
f(c) f(f(x1)) f(f(x2)) f(g(x1,x1)) f(g(x1,x2)) f(g(x2,x1)) f(g(x2,x2))
g(x1,c) g(x1,f(x1)) g(x1,f(x2)) g(x1,g(x1,x1)) g(x1,g(x1,x2)) g(x1,g(x2,x1)) g(x1,g(x2,x2))
g(x2,c) g(x2,f(x1)) g(x2,f(x2)) g(x2,g(x1,x1)) g(x2,g(x1,x2)) g(x2,g(x2,x1)) g(x2,g(x2,x2))
g(c,x1) g(c,x2) g(c,c) g(c,f(x1)) g(c,f(x2))
g(c,g(x1,x1)) g(c,g(x1,x2)) g(c,g(x2,x1)) g(c,g(x2,x2))
g(f(x1),x1) g(f(x1),x2) g(f(x1),c) g(f(x1),f(x1)) g(f(x1),f(x2))
g(f(x1),g(x1,x1)) g(f(x1),g(x1,x2)) g(f(x1),g(x2,x1)) g(f(x1),g(x2,x2))
g(f(x2),x1) g(f(x2),x2) g(f(x2),c) g(f(x2),f(x1)) g(f(x2),f(x2))
g(f(x2),g(x1,x1)) g(f(x2),g(x1,x2)) g(f(x2),g(x2,x1)) g(f(x2),g(x2,x2))
g(g(x1,x1),x1) g(g(x1,x1),x2) g(g(x1,x1),c) g(g(x1,x1),f(x1)) g(g(x1,x1),f(x2))
g(g(x1,x1),g(x1,x1)) g(g(x1,x1),g(x1,x2)) g(g(x1,x1),g(x2,x1)) g(g(x1,x1),g(x2,x2))
g(g(x1,x2),x1) g(g(x1,x2),x2) g(g(x1,x2),c) g(g(x1,x2),f(x1)) g(g(x1,x2),f(x2))
g(g(x1,x2),g(x1,x1)) g(g(x1,x2),g(x1,x2)) g(g(x1,x2),g(x2,x1)) g(g(x1,x2),g(x2,x2))
g(g(x2,x1),x1) g(g(x2,x1),x2) g(g(x2,x1),c) g(g(x2,x1),f(x1)) g(g(x2,x1),f(x2))
g(g(x2,x1),g(x1,x1)) g(g(x2,x1),g(x1,x2)) g(g(x2,x1),g(x2,x1)) g(g(x2,x1),g(x2,x2))
g(g(x2,x2),x1) g(g(x2,x2),x2) g(g(x2,x2),c) g(g(x2,x2),f(x1)) g(g(x2,x2),f(x2))
g(g(x2,x2),g(x1,x1)) g(g(x2,x2),g(x1,x2)) g(g(x2,x2),g(x2,x1)) g(g(x2,x2),g(x2,x2))
"""


def test_enumeration_order_is_pinned() -> None:
    out = enumerate_terms(FUNCS, depth=2, max_var=2)
    assert [format_term(t).replace(" ", "") for t in out] == FUNCS_DEPTH_2.split()


def test_enumeration_is_deterministic_and_deduplicated() -> None:
    a = enumerate_terms(FUNCS, depth=2, max_var=2)
    b = enumerate_terms(FUNCS, depth=2, max_var=2)
    assert a == b
    assert len(a) == len(set(a))
    assert c in a and f(f(x1)) in a
