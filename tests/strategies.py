"""Shared hypothesis strategies over a small fixed test signature."""

from __future__ import annotations

from hypothesis import strategies as st

from clonelogic.terms import App, Const, Shift, Substitution, Var, FunctionType
from clonelogic.formulas import Atom, FAnd, FNot, Forall, Language, PredicateType

# One constant, one unary and one binary function symbol.
FUNCS = FunctionType({"c": 0, "f": 1, "g": 2})
# One unary and one binary predicate, plus a designated equality.
LANG = Language(FUNCS, PredicateType({"r": 1, "s": 2, "e": 2}, equality="e"))


def variables(max_index: int = 5):
    return st.integers(min_value=1, max_value=max_index).map(Var)


def terms(max_index: int = 5, binary: bool = True):
    """Terms over c, f and, unless binary is off, g."""
    extend = [lambda inner: st.builds(lambda a: App("f", (a,)), inner)]
    if binary:
        extend.append(lambda inner: st.builds(lambda a, b: App("g", (a, b)), inner, inner))
    return st.recursive(
        variables(max_index) | st.just(App("c", ())),
        lambda inner: st.one_of(*(build(inner) for build in extend)),
        max_leaves=6,
    )


@st.composite
def substitutions(draw, max_index: int = 5):
    prefix = tuple(draw(st.lists(terms(max_index), max_size=4)))
    if draw(st.booleans()):
        offset = draw(st.integers(min_value=-len(prefix), max_value=3))
        return Substitution(prefix, Shift(offset))
    return Substitution(prefix, Const(draw(terms(max_index))))


def atoms(max_index: int = 4, binary: bool = True):
    t = terms(max_index, binary)
    return st.one_of(
        st.builds(lambda a: Atom("r", (a,)), t),
        st.builds(lambda a, b: Atom("s", (a, b)), t, t),
        st.builds(lambda a, b: Atom("e", (a, b)), t, t),
    )


def formulas(max_index: int = 4, binary: bool = True):
    return st.recursive(
        atoms(max_index, binary),
        lambda inner: st.one_of(
            inner.map(FNot),
            st.builds(FAnd, inner, inner),
            inner.map(Forall),
        ),
        max_leaves=8,
    )
