"""Interned kernel nodes: equality is identity, and it agrees with the
field-by-field structural equality of ``oracle.structurally_equal``."""

from __future__ import annotations

import copy
import gc
import pickle

import pytest
from hypothesis import example, given, strategies as st

from clonelogic import formulas, terms
from clonelogic.formulas import Atom, FAnd, FNot, Forall, fsubst
from clonelogic.syntax import format_formula, parse_formula
from clonelogic.terms import IDENTITY, App, Var
from oracle import rebuild, structurally_equal
from strategies import LANG, formulas as formula_strategy, terms as term_strategy


@st.composite
def formula_pairs(draw):
    """Two formulas: independent, or the second made again from the first
    by printing and parsing, by the identity substitution, or with one
    subformula negated."""
    p = draw(formula_strategy(max_index=3))
    how = draw(st.sampled_from(["independent", "reparsed", "identity", "negated"]))
    if how == "independent":
        return p, draw(formula_strategy(max_index=3))
    if how == "reparsed":
        return p, parse_formula(format_formula(p), LANG)
    if how == "identity":
        return p, fsubst(p, IDENTITY)
    return p, FNot(p) if draw(st.booleans()) else FAnd(p, FNot(p))


@given(formula_pairs())
@example((Atom("r", (Var(1),)), Atom("r", (Var(2),))))
@example((FAnd(Atom("r", (Var(1),)), Atom("r", (Var(1),))), FAnd(Atom("r", (Var(1),)), Atom("r", (Var(1),)))))
@example((Forall(Atom("r", (Var(1),))), FNot(Atom("r", (Var(1),)))))
def test_equality_is_structural_equality(pair) -> None:
    p, q = pair
    same = structurally_equal(p, q)
    assert (p == q) is same
    assert (p != q) is not same
    assert (p is q) is same
    if same:
        assert hash(p) == hash(q)


@given(term_strategy(max_index=4), term_strategy(max_index=4))
def test_term_equality_is_structural_equality(t, u) -> None:
    assert (t == u) is structurally_equal(t, u) is (t is u)


@given(formula_strategy(max_index=4))
def test_rebuilt_nodes_are_the_same_object(p) -> None:
    assert rebuild(p) is p
    assert parse_formula(format_formula(p), LANG) is p


def test_independently_built_nodes_are_one_object() -> None:
    a = FAnd(Forall(Atom("s", [Var(1), App("f", [Var(2)])])), FNot(Atom("r", (App("c", ()),))))
    b = FAnd(Forall(Atom("s", (Var(1), App("f", (Var(2),))))), FNot(Atom("r", [App("c", [])])))
    assert a is b
    assert type(a.left.body.args) is tuple
    assert Var(3) is Var(3) and App("c", ()) is App("c", [])
    assert Atom("r", (Var(1),)) is not App("r", (Var(1),))
    assert FNot(Atom("r", (Var(1),))) is not Forall(Atom("r", (Var(1),)))


def test_nodes_are_immutable_and_validated() -> None:
    p = Atom("r", (Var(1),))
    with pytest.raises(AttributeError):
        p.symbol = "s"
    with pytest.raises(AttributeError):
        del p.args
    with pytest.raises(AttributeError):
        Var(1).index = 2
    with pytest.raises(AttributeError):
        p.rank = 0
    with pytest.raises(ValueError):
        Var(0)
    with pytest.raises(ValueError):
        Var(-4)
    assert repr(FNot(p)) == "FNot(body=Atom(symbol='r', args=(Var(index=1),)))"


def test_copies_and_pickles_are_the_canonical_node() -> None:
    p = Forall(FAnd(Atom("s", (Var(1), App("f", (Var(2),)))), FNot(Atom("r", (Var(3),)))))
    assert copy.copy(p) is p
    assert copy.deepcopy(p) is p
    assert copy.deepcopy([p, p])[0] is p
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(p, protocol)) is p
        assert pickle.loads(pickle.dumps(Var(7), protocol)) is Var(7)


def test_intern_tables_forget_dropped_nodes() -> None:
    tables = (terms._VARS, terms._APPS, formulas._ATOMS, formulas._NOTS,
              formulas._ANDS, formulas._FORALLS)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        baseline = [len(table) for table in tables]
        p = Atom("interning_probe", (App("probe_fn", (Var(987654),)),))
        for _ in range(100_000):
            p = FAnd(Forall(FNot(p)), p)
        assert [len(t) - b for t, b in zip(tables, baseline)] == [1, 1, 1, 100_000, 100_000, 100_000]
        del p
        assert [len(table) for table in tables] == baseline
    finally:
        if enabled:
            gc.enable()


def test_match_patterns_bind() -> None:
    a = Atom("s", (Var(1), App("f", (Var(2),))))
    match FAnd(Forall(a), FNot(a)):
        case FAnd(Forall(Atom(symbol, (Var(i), App(fn, (Var(j),))))), FNot(body)):
            assert (symbol, i, fn, j, body) == ("s", 1, "f", 2, a)
        case _:
            pytest.fail("positional patterns did not bind")
    match a:
        case Atom(symbol="s", args=(first, _)):
            assert first is Var(1)
        case _:
            pytest.fail("keyword patterns did not bind")
    match Var(5):
        case Var(index) if index > 4:
            assert index == 5
        case _:
            pytest.fail("guarded pattern did not bind")
