"""Formulas with negation, conjunction, and a positional universal binder.

The binder carries no variable name: ``Forall(p)`` binds coordinate 1 of
``p``, and substitution pushes under it by keeping coordinate 1 fixed and
shifting everything else up (see :func:`clonelogic.terms.lift`).  Binding a
named variable ``forall xi. p`` is sugar: rotate coordinate i into position
1, then bind.

Disjunction, implication and equivalence are not node types; they expand
into the negation/conjunction core at construction time.

Formula nodes are interned like terms (see :class:`clonelogic.terms.Interned`):
structurally equal formulas are one object, so ``==`` is ``is``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Union

from .errors import ArityMismatch, BoundExceeded
from . import terms
from .terms import (
    App,
    FunctionType,
    Interned,
    Substitution,
    Term,
    Var,
    _new,
    _set,
    check_term,
    intern_table,
    interned,
)

__all__ = [
    "Atom",
    "FNot",
    "FAnd",
    "Forall",
    "Formula",
    "PredicateType",
    "Language",
    "f_or",
    "f_imp",
    "f_iff",
    "fsubst",
    "fplus",
    "fminus",
    "fstar",
    "forall_xi",
    "exists",
    "exists_xi",
    "frank",
    "is_sentence",
    "close_off",
    "check_formula",
    "equality_atom",
    "arithmetic_language",
    "zero",
    "succ",
    "plus",
    "times",
    "peano_core",
    "peano_induction",
    "enumerate_formulas",
]


_ATOMS, _drop_atom = intern_table()
_NOTS, _drop_not = intern_table()
_ANDS, _drop_and = intern_table()
_FORALLS, _drop_forall = intern_table()


class Atom(Interned):
    """A predicate symbol applied to argument terms."""

    __slots__ = ("symbol", "args", "rank")
    __match_args__ = ("symbol", "args")

    def __new__(cls, symbol: str, args: tuple[Term, ...]):
        if type(args) is not tuple:
            args = tuple(args)
        key = (symbol, args)
        ref = _ATOMS.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        rank = 0
        for arg in args:
            if arg.rank > rank:
                rank = arg.rank
        node = _new(cls)
        _set(node, "symbol", symbol)
        _set(node, "args", args)
        _set(node, "rank", rank)
        return interned(_ATOMS, _drop_atom, node, key)


class FNot(Interned):
    __slots__ = ("body", "rank")
    __match_args__ = ("body",)

    def __new__(cls, body: "Formula"):
        ref = _NOTS.get(body)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(cls)
        _set(node, "body", body)
        _set(node, "rank", body.rank)
        return interned(_NOTS, _drop_not, node, body)


class FAnd(Interned):
    __slots__ = ("left", "right", "rank")
    __match_args__ = ("left", "right")

    def __new__(cls, left: "Formula", right: "Formula"):
        key = (left, right)
        ref = _ANDS.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(cls)
        _set(node, "left", left)
        _set(node, "right", right)
        _set(node, "rank", max(left.rank, right.rank))
        return interned(_ANDS, _drop_and, node, key)


class Forall(Interned):
    """Binds coordinate 1 of its body: free coordinates of the body appear
    shifted down by one outside it."""

    __slots__ = ("body", "rank")
    __match_args__ = ("body",)

    def __new__(cls, body: "Formula"):
        ref = _FORALLS.get(body)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(cls)
        _set(node, "body", body)
        _set(node, "rank", max(body.rank - 1, 0))
        return interned(_FORALLS, _drop_forall, node, body)


Formula = Union[Atom, FNot, FAnd, Forall]


class PredicateType(FunctionType):
    """Predicate signature: a function signature that may designate one
    binary symbol as equality.  It never equals a ``FunctionType``."""

    __slots__ = ("equality",)

    def __init__(
        self,
        symbols: Mapping[str, int] | Iterable[tuple[str, int]] = (),
        equality: str | None = None,
    ):
        super().__init__(symbols)
        if equality is not None:
            if equality not in self:
                raise ValueError(f"equality symbol {equality!r} is not declared")
            if self.arity(equality) != 2:
                raise ValueError(f"equality symbol {equality!r} must be binary")
        self.equality = equality

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PredicateType)
            and self._arities == other._arities
            and self.equality == other.equality
        )

    def __repr__(self) -> str:
        return f"PredicateType({self._arities!r}, equality={self.equality!r})"


class Language:
    """A function signature and a predicate signature with disjoint names."""

    __slots__ = ("functions", "predicates")

    def __init__(self, functions: FunctionType, predicates: PredicateType):
        overlap = set(functions) & set(predicates)
        if overlap:
            raise ValueError(f"symbols declared twice: {sorted(overlap)}")
        self.functions = functions
        self.predicates = predicates

    @property
    def equality(self) -> str | None:
        return self.predicates.equality

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Language)
            and self.functions == other.functions
            and self.predicates == other.predicates
        )

    def __repr__(self) -> str:
        return f"Language({self.functions!r}, {self.predicates!r})"


def check_formula(
    formula: Formula, language: Language, seen: set[Interned] | None = None
) -> None:
    """Raise if the formula uses undeclared symbols or wrong arities.

    An explicit-stack walk, depth first and left to right, so the first
    error raised is the one a recursive walk meets first.  Nodes are
    interned and immutable, so a subformula or term shared several times
    over, as axiom instances share their parameters, is checked once.
    ``seen`` holds the nodes already checked; a caller may share it
    across calls, as ``check_proof`` does across the steps of a proof.
    """
    predicates, functions = language.predicates, language.functions
    if seen is None:
        seen = set()
    stack = [formula]
    push = stack.append
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if isinstance(node, FAnd):
            push(node.right)
            push(node.left)
        elif isinstance(node, (FNot, Forall)):
            push(node.body)
        elif isinstance(node, Atom):
            symbol, args = node.symbol, node.args
            expected = predicates.arity(symbol)
            if len(args) != expected:
                raise ArityMismatch(symbol, expected, len(args))
            for t in args:
                check_term(t, functions, seen)


# ------------------------------------------------------------------
# connective sugar (expanded immediately; only ~, & and forall exist)
# ------------------------------------------------------------------

def f_or(p: Formula, q: Formula) -> Formula:
    return FNot(FAnd(FNot(p), FNot(q)))


def f_imp(p: Formula, q: Formula) -> Formula:
    return f_or(FNot(p), q)


def f_iff(p: Formula, q: Formula) -> Formula:
    return FAnd(f_imp(p, q), f_imp(q, p))


# ------------------------------------------------------------------
# substitution action
# ------------------------------------------------------------------

def fsubst(
    formula: Formula,
    sub: Substitution,
    images: dict[tuple[Formula, int], Formula] | None = None,
) -> Formula:
    """Apply a substitution to every free coordinate of the formula.

    An explicit-stack walk over (node, depth) pairs.  Under ``depth``
    binders the substitution acts as its ``depth``-fold lift, which
    :func:`~clonelogic.terms.apply` reads per variable without building
    it, so the cost is linear in the size of the formula.  A node of rank
    at most ``depth`` is its own image and is not walked.

    ``images`` maps each pair already visited to its image under ``sub``,
    so a subformula shared several times over is mapped once.  A caller
    applying one substitution to many formulas may share it across calls,
    as ``semantics._Tables.value`` does for every formula it evaluates
    under one environment's substitution, and ``semantics._compile_laws``
    for the shift and the collapse of every formula of a law sample.
    """
    if images is None:
        images = {}
    stack = [(formula, 0)]
    while stack:
        key = stack[-1]
        if key in images:
            stack.pop()
            continue
        node, depth = key
        kind = type(node)
        if node.rank <= depth:
            image = node
        elif kind is Atom:
            image = Atom(node.symbol, tuple([terms.apply(t, sub, depth) for t in node.args]))
        elif kind is FAnd:
            left, right = (node.left, depth), (node.right, depth)
            if left not in images or right not in images:
                stack += (right, left)
                continue
            image = FAnd(images[left], images[right])
        else:  # FNot, or Forall, whose body lies one binder deeper
            inner = (node.body, depth if kind is FNot else depth + 1)
            if inner not in images:
                stack.append(inner)
                continue
            image = kind(images[inner])
        images[key] = image
        stack.pop()
    return images[formula, 0]


def fplus(formula: Formula) -> Formula:
    """Shift every free coordinate up by one."""
    return fsubst(formula, terms.SHIFT_UP)


def fminus(formula: Formula) -> Formula:
    """Inverse of :func:`fplus` on formulas not using coordinate 1."""
    return fsubst(formula, terms.MINUS)


def fstar(formula: Formula) -> Formula:
    """Collapse coordinate 1 onto coordinate 2."""
    return fsubst(formula, terms.STAR)


# ------------------------------------------------------------------
# binders
# ------------------------------------------------------------------

def forall_xi(i: int, formula: Formula) -> Formula:
    """Bind the named coordinate i: rotate it into position 1, then bind."""
    return Forall(fsubst(formula, terms.forall_rotation(i)))


def exists(formula: Formula) -> Formula:
    return FNot(Forall(FNot(formula)))


def exists_xi(i: int, formula: Formula) -> Formula:
    return exists(fsubst(formula, terms.forall_rotation(i)))


# ------------------------------------------------------------------
# rank
# ------------------------------------------------------------------

def frank(formula: Formula) -> int:
    """Largest free coordinate, 0 for sentences; the rank the formula
    stored when it was built."""
    return formula.rank


def is_sentence(formula: Formula) -> bool:
    return formula.rank == 0


def close_off(formula: Formula) -> Formula:
    """Universally bind every free coordinate, highest binder innermost."""
    out = formula
    for i in range(frank(formula), 0, -1):
        out = forall_xi(i, out)
    return out


def equality_atom(language: Language) -> Atom:
    """The atom e(x1, x2) for the language's designated equality symbol."""
    name = language.equality
    if name is None:
        raise ValueError("language has no designated equality symbol")
    return Atom(name, (Var(1), Var(2)))


# ------------------------------------------------------------------
# arithmetic
# ------------------------------------------------------------------

def arithmetic_language() -> Language:
    """Zero, successor, addition, multiplication, and equality."""
    return Language(
        FunctionType({"0": 0, "S": 1, "add": 2, "mul": 2}),
        PredicateType({"e": 2}, equality="e"),
    )


def zero() -> Term:
    return App("0", ())


def succ(t: Term) -> Term:
    return App("S", (t,))


def plus(t: Term, u: Term) -> Term:
    return App("add", (t, u))


def times(t: Term, u: Term) -> Term:
    return App("mul", (t, u))


def _eq(t: Term, u: Term) -> Formula:
    return Atom("e", (t, u))


def peano_core() -> tuple[Formula, ...]:
    """The six quantifier-free arithmetic schemata.

    Zero is no successor; successor is injective; addition and
    multiplication recurse on their second argument.
    """
    x1, x2 = Var(1), Var(2)
    return (
        FNot(_eq(zero(), succ(x1))),
        f_imp(_eq(succ(x1), succ(x2)), _eq(x1, x2)),
        _eq(plus(x1, zero()), x1),
        _eq(plus(x1, succ(x2)), succ(plus(x1, x2))),
        _eq(times(x1, zero()), zero()),
        _eq(times(x1, succ(x2)), plus(times(x1, x2), x1)),
    )


def peano_induction(p: Formula) -> Formula:
    """Induction instance for ``p``: from p at 0 and p preserved by successor,
    conclude p everywhere (in coordinate 1)."""
    check_formula(p, arithmetic_language())
    x1 = Var(1)
    at_zero = fsubst(p, terms.subst_from_list([zero()]))
    at_x = fsubst(p, terms.subst_from_list([x1]))
    at_sx = fsubst(p, terms.subst_from_list([succ(x1)]))
    return f_imp(FAnd(at_zero, Forall(f_imp(at_x, at_sx))), Forall(at_x))


# ------------------------------------------------------------------
# exhaustive fragments
# ------------------------------------------------------------------

# Formulas one enumeration may return.  Each connective more in the
# budget makes the output over ten times larger: four atoms give 268,
# 3,244 and 44,524 formulas at budgets 2, 3 and 4.
_MAX_ENUMERATED = 1 << 16


def enumerate_formulas(atoms: Sequence[Formula], connectives: int) -> list[Formula]:
    """All formulas built from ``atoms`` with at most ``connectives`` nodes
    of negation, conjunction, or the binder.

    Deterministic order: by connective count, negations first, then binders,
    then conjunctions (left operand count ascending, operands in list order).
    Grows fast in the budget; meant for small exhaustive oracles.  Raises
    BoundExceeded as soon as the output would hold more than 2^16 formulas.
    """
    if connectives < 0:
        raise ValueError("connectives must be >= 0")
    by_count: list[list[Formula]] = [list(dict.fromkeys(atoms))]
    seen: set[Formula] = set(by_count[0])

    def refuse() -> None:
        raise BoundExceeded(
            f"formulas with at most {connectives} connectives "
            f"pass the cap of {_MAX_ENUMERATED}"
        )

    if len(seen) > _MAX_ENUMERATED:
        refuse()
    for budget in range(1, connectives + 1):
        layer: list[Formula] = []

        def emit(candidate: Formula) -> None:
            if candidate not in seen:
                if len(seen) >= _MAX_ENUMERATED:
                    refuse()
                seen.add(candidate)
                layer.append(candidate)

        for p in by_count[budget - 1]:
            emit(FNot(p))
        for p in by_count[budget - 1]:
            emit(Forall(p))
        for left_count in range(budget):
            right_count = budget - 1 - left_count
            for p in by_count[left_count]:
                for q in by_count[right_count]:
                    emit(FAnd(p, q))
        by_count.append(layer)
    out: list[Formula] = []
    for layer in by_count:
        out.extend(layer)
    return out
