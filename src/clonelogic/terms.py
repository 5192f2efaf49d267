"""Terms and substitutions.

Terms over a signature of function symbols form the carrier of the term
kernel: variables ``x1, x2, ...`` (1-based) act as projections, and every
term can be hit with a substitution, an infinite sequence of terms given
in a finite normal form.

A substitution stores an explicit prefix of terms for its first ``n``
coordinates plus a tail rule for the rest: either ``Shift(d)`` (coordinate
``j`` maps to the variable ``x(j+d)``) or ``Const(t)`` (every remaining
coordinate maps to ``t``).  The constructor canonicalizes the prefix, so
two substitutions are structurally equal exactly when they agree at every
coordinate.

Terms are interned: building a ``Var`` or ``App`` returns the one live
node with those fields, so structurally equal terms are the same object,
``==`` is ``is`` and hashing is the identity hash.  The formula nodes of
:mod:`clonelogic.formulas` are interned the same way.
"""

from __future__ import annotations

import itertools
import re
import weakref
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import ArityMismatch, BoundExceeded, UndeclaredSymbol

__all__ = [
    "Var",
    "App",
    "Term",
    "Shift",
    "Const",
    "Substitution",
    "FunctionType",
    "check_symbol",
    "IDENTITY",
    "SHIFT_UP",
    "MINUS",
    "STAR",
    "sigma_at",
    "apply",
    "compose",
    "lift",
    "subst_from_list",
    "cons_subst",
    "drop_first",
    "dup_second",
    "touch_subst",
    "rank",
    "is_closed",
    "forall_rotation",
    "MAX_BINDER_INDEX",
    "check_term",
    "enumerate_terms",
]


class _Ref(weakref.ref):
    """A weak reference to an interned node that remembers its table key."""

    __slots__ = ("key",)


def intern_table():
    """An empty intern table (key -> ``_Ref`` of the live node) and the one
    callback its references share, which drops the entry of a dead node."""
    table: dict = {}

    def drop(ref, table=table):
        if table.get(ref.key) is ref:
            del table[ref.key]

    return table, drop


def interned(table: dict, drop, node, key):
    """Enter a new node in its table under ``key``; returns the node."""
    ref = table[key] = _Ref(node, drop)
    ref.key = key
    return node


_new = object.__new__
_set = object.__setattr__


class Interned:
    """Base of the kernel's interned nodes.

    A subclass lists its fields in ``__match_args__`` and builds in
    ``__new__``: it looks its fields up in its own weak intern table and
    makes a node only on a miss.  Children are interned before their
    parents, so a table key hashes and compares by identity in C, and the
    table forgets a node once the last reference to it is dropped.
    Equality and hashing are object identity; nodes are immutable, and
    copying or pickling returns the canonical node.

    Every subclass also sets a ``rank`` slot on a miss: the largest free
    coordinate, read from the children's ranks.  It is derived from the
    fields, so it is left out of ``__match_args__``.
    """

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class Record:
    """Base of the kernel's value records: substitutions, proof steps,
    environments, structures and the reports built from them.

    A subclass names its fields in ``__slots__`` and ``__match_args__``
    and sets them in its own ``__init__`` with ``object.__setattr__``.
    Two records are equal when they are of one class with equal fields,
    and a record hashes by its fields.  Records are immutable, except
    that ``Structure`` allows assignment and is unhashable.  As for
    interned nodes, the repr names each field, and copying or pickling
    builds the record again through its constructor.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    __setattr__ = Interned.__setattr__
    __delattr__ = Interned.__delattr__
    __reduce__ = Interned.__reduce__
    __repr__ = Interned.__repr__


_VARS, _drop_var = intern_table()
_APPS, _drop_app = intern_table()


class Var(Interned):
    """Variable with 1-based index."""

    __slots__ = ("index", "rank")
    __match_args__ = ("index",)

    def __new__(cls, index: int):
        ref = _VARS.get(index)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if index < 1:
            raise ValueError(f"variable index must be >= 1, got {index}")
        node = _new(cls)
        _set(node, "index", index)
        _set(node, "rank", index)
        return interned(_VARS, _drop_var, node, index)


class App(Interned):
    """Application of a function symbol to argument terms."""

    __slots__ = ("symbol", "args", "rank")
    __match_args__ = ("symbol", "args")

    def __new__(cls, symbol: str, args: tuple["Term", ...]):
        if type(args) is not tuple:
            args = tuple(args)
        key = (symbol, args)
        ref = _APPS.get(key)
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
        return interned(_APPS, _drop_app, node, key)


Term = Union[Var, App]

_VARIABLE_SHAPE = re.compile(r"^x[1-9][0-9]*$")


def check_symbol(name: str, arity: int = 0) -> None:
    """Raise ValueError unless ``name`` can name a symbol of ``arity`` arguments."""
    if not name:
        raise ValueError("empty symbol name")
    if _VARIABLE_SHAPE.match(name):
        raise ValueError(f"symbol name {name!r} would collide with a variable")
    if arity < 0:
        raise ValueError(f"negative arity for {name!r}")


class FunctionType:
    """Function signature: a finite map from symbol names to arities."""

    __slots__ = ("_arities",)

    def __init__(self, symbols: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        arities: dict[str, int] = {}
        pairs = symbols.items() if isinstance(symbols, Mapping) else symbols
        for name, arity in pairs:
            # A repeated name passed the check when it was first declared.
            if name in arities:
                raise ValueError(f"duplicate symbol {name!r}")
            check_symbol(name, arity)
            arities[name] = arity
        self._arities = arities

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise UndeclaredSymbol(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._arities

    def __iter__(self) -> Iterator[str]:
        return iter(self._arities)

    def items(self):
        return self._arities.items()

    def __len__(self) -> int:
        return len(self._arities)

    def __eq__(self, other) -> bool:
        return isinstance(other, FunctionType) and self._arities == other._arities

    def __repr__(self) -> str:
        return f"FunctionType({self._arities!r})"


def check_term(
    term: Term, functions: FunctionType, seen: set[Interned] | None = None
) -> None:
    """Raise if ``term`` uses a symbol not declared in ``functions``.

    An explicit-stack walk, depth first and left to right, so the first
    error raised is the one a recursive walk meets first.  ``seen`` holds
    the applications already checked, which are skipped; a caller
    checking many terms of one formula shares it across calls.
    """
    if seen is None:
        seen = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, App) and node not in seen:
            seen.add(node)
            symbol, args = node.symbol, node.args
            expected = functions.arity(symbol)
            if len(args) != expected:
                raise ArityMismatch(symbol, expected, len(args))
            stack.extend(reversed(args))


class Shift(Record):
    """Tail rule: coordinate j maps to the variable x(j + offset)."""

    __slots__ = __match_args__ = ("offset",)

    def __init__(self, offset: int):
        _set(self, "offset", offset)


class Const(Record):
    """Tail rule: every remaining coordinate maps to one fixed term."""

    __slots__ = __match_args__ = ("term",)

    def __init__(self, term: Term):
        _set(self, "term", term)


class Substitution(Record):
    """Finitely represented infinite sequence of terms.

    Coordinate ``j`` (1-based) reads ``prefix[j-1]`` when ``j <= len(prefix)``
    and otherwise follows the tail rule.  The prefix is canonical: no
    trailing entry duplicates what the tail rule would produce.
    """

    __slots__ = __match_args__ = ("prefix", "tail")

    def __init__(self, prefix: Sequence[Term], tail: Shift | Const):
        prefix = tuple(prefix)
        if isinstance(tail, Shift) and len(prefix) + tail.offset < 0:
            raise ValueError(
                f"shift tail {tail.offset} under prefix of length {len(prefix)} "
                "would produce variable indices below 1"
            )
        # Canonicalize: drop trailing prefix entries the tail already covers.
        while prefix:
            last = prefix[-1]
            if isinstance(tail, Shift):
                index = len(prefix) + tail.offset
                if index < 1 or last != Var(index):
                    break
            else:
                if last != tail.term:
                    break
            prefix = prefix[:-1]
        _set(self, "prefix", prefix)
        _set(self, "tail", tail)


# [x1, x2, ...]; [x2, x3, ...] behind p+; and the collapses behind p-
# and p*, [x1, x1, x2, ...] and [x2, x2, x3, ...].
IDENTITY = Substitution((), Shift(0))
SHIFT_UP = Substitution((), Shift(1))
MINUS = Substitution((Var(1), Var(1)), Shift(-1))
STAR = Substitution((Var(2), Var(2)), Shift(0))


def sigma_at(sub: Substitution, j: int) -> Term:
    """The term at coordinate ``j`` (1-based) of ``sub``."""
    if j < 1:
        raise ValueError(f"coordinate must be >= 1, got {j}")
    if j <= len(sub.prefix):
        return sub.prefix[j - 1]
    tail = sub.tail
    if isinstance(tail, Shift):
        return Var(j + tail.offset)
    return tail.term


# The shift by each depth ``apply`` has been asked to work under, made
# once: building a Substitution runs its canonicalization.
_SHIFTS: dict[int, Substitution] = {}


def _shift(depth: int) -> Substitution:
    """The substitution [x(1 + depth), x(2 + depth), ...]."""
    shift = _SHIFTS.get(depth)
    if shift is None:
        shift = _SHIFTS[depth] = Substitution((), Shift(depth))
    return shift


def apply(term: Term, sub: Substitution, depth: int = 0) -> Term:
    """Substitute: replace each variable xj in ``term`` by coordinate j of
    ``sub``, or under ``depth`` binders by coordinate j of its
    ``depth``-fold :func:`lift`: xj stays for j <= depth, and above it
    reads coordinate j - depth of ``sub`` shifted up by ``depth``.
    An explicit-stack walk; a subterm of rank at most ``depth`` is its
    own image and is not walked, and a shared subterm is mapped once."""
    if type(term) is Var and not depth:
        return sigma_at(sub, term.index)
    shift = _shift(depth) if depth else None
    images: dict[Term, Term] = {}
    stack = [term]
    while stack:
        node = stack[-1]
        kind = type(node)
        if kind is not Var and kind is not App:
            raise TypeError(f"not a term: {node!r}")
        if node.rank <= depth:
            images[node] = node
        elif kind is Var:
            image = sigma_at(sub, node.index - depth)
            images[node] = image if shift is None else apply(image, shift)
        else:
            pending = [arg for arg in node.args if arg not in images]
            if pending:
                stack += pending
                continue
            images[node] = App(node.symbol, tuple([images[arg] for arg in node.args]))
        stack.pop()
    return images[term]


def compose(first: Substitution, second: Substitution) -> Substitution:
    """Sequencing of substitutions: apply ``first``, then ``second``.

    Satisfies apply(t, compose(f, s)) == apply(apply(t, f), s) coordinatewise,
    hence structurally.
    """
    mapped = tuple(apply(t, second) for t in first.prefix)
    n1 = len(first.prefix)
    tail1 = first.tail
    if isinstance(tail1, Const):
        return Substitution(mapped, Const(apply(tail1.term, second)))
    d1 = tail1.offset
    tail2 = second.tail
    n2 = len(second.prefix)
    upto = max(n1, n2 - d1)
    extra = tuple(sigma_at(second, j + d1) for j in range(n1 + 1, upto + 1))
    if isinstance(tail2, Const):
        return Substitution(mapped + extra, Const(tail2.term))
    return Substitution(mapped + extra, Shift(d1 + tail2.offset))


def lift(sub: Substitution) -> Substitution:
    """Push a substitution under one binder.

    Coordinate 1 is kept fixed at x1; coordinate j+1 becomes coordinate j of
    ``sub`` with every variable shifted up.
    """
    mapped = (Var(1),) + tuple(apply(t, SHIFT_UP) for t in sub.prefix)
    tail = sub.tail
    if isinstance(tail, Shift):
        return Substitution(mapped, tail)
    return Substitution(mapped, Const(apply(tail.term, SHIFT_UP)))


def subst_from_list(terms: Sequence[Term]) -> Substitution:
    """Eventually-constant substitution [t1, ..., tn, tn, tn, ...]."""
    terms = tuple(terms)
    if not terms:
        raise ValueError("eventually-constant substitution needs at least one term")
    return Substitution(terms[:-1], Const(terms[-1]))


def cons_subst(term: Term) -> Substitution:
    """[t, x1, x2, ...]: prepend one term, shifting everything else down."""
    return Substitution((term,), Shift(-1))


def drop_first(sub: Substitution) -> Substitution:
    """Coordinate j of the result is coordinate j+1 of ``sub``."""
    return compose(SHIFT_UP, sub)


def dup_second(sub: Substitution) -> Substitution:
    """[s2, s2, s3, s4, ...] where sj is coordinate j of ``sub``."""
    return compose(STAR, sub)


def touch_subst(i: int, term: Term) -> Substitution:
    """Identity everywhere except coordinate ``i``, which maps to ``term``."""
    if i < 1:
        raise ValueError(f"coordinate must be >= 1, got {i}")
    prefix = tuple(Var(j) for j in range(1, i)) + (term,)
    return Substitution(prefix, Shift(0))


def rank(term: Term) -> int:
    """Largest variable index occurring in the term, 0 when closed; the
    rank the term stored when it was built."""
    return term.rank


def is_closed(term: Term) -> bool:
    return term.rank == 0


# Largest coordinate the library's forall_xi, exists_xi and close_off bind:
# a rotation holds one prefix entry per coordinate.  The parser builds none.
MAX_BINDER_INDEX = 1 << 20


def forall_rotation(i: int) -> Substitution:
    """The reindexing that moves coordinate ``i`` into binding position.

    Coordinate i maps to x1, every other coordinate j maps to x(j+1).
    """
    if i < 1:
        raise ValueError(f"binder coordinate must be >= 1, got {i}")
    if i > MAX_BINDER_INDEX:
        raise BoundExceeded(
            f"binder coordinate {i} is over the cap of {MAX_BINDER_INDEX}"
        )
    prefix = tuple(Var(j + 1) for j in range(1, i)) + (Var(1),)
    return Substitution(prefix, Shift(1))


def enumerate_terms(functions: FunctionType, depth: int, max_var: int) -> list[Term]:
    """All terms of nesting depth <= ``depth`` over variables x1..x(max_var).

    Deterministic order: by depth layer, then variables before symbol
    applications, symbols in declaration order, argument tuples
    lexicographically by enumeration order of the previous layer.
    """
    layer: list[Term] = [Var(i) for i in range(1, max_var + 1)]
    seen: set[Term] = set(layer)
    out: list[Term] = list(layer)
    for _ in range(depth):
        new: list[Term] = []
        for name, arity in functions.items():
            for args in itertools.product(out, repeat=arity):
                candidate: Term = App(name, args)
                if candidate not in seen:
                    seen.add(candidate)
                    new.append(candidate)
        if not new:
            break
        out.extend(new)
    return out
