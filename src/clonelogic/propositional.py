"""Propositions and finite proposition algebras.

A proposition is a quantifier-free formula whose atoms are letters:
``Atom(letter, ())``, a nullary predicate symbol.  So propositions share
the formula type, its connectives and its evaluator, and a tautology is
a formula true in every one-element structure over its letters.

A proposition algebra is any set with a unary operation (negation) and a
binary operation (conjunction); no equations are assumed.  Everything else
here is brute force over small carriers: valuations, filters generated by
three implication axioms plus modus ponens, deduction closures, Boolean
recognition, and quotients by a filter.

Subsets of a finite carrier are passed around as int bitmasks, so the
natural ascending order of masks doubles as the deterministic enumeration
order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import BoundExceeded, LogicError
from .formulas import Atom, FAnd, Formula, FunctionType, Language, PredicateType, f_imp
from .proofs import (
    AxiomInstanceSpec,
    ByAxiom,
    ByHyp,
    ByMP,
    CheckResult,
    Proof,
    build_prime_axiom,
)
from .semantics import countermodel_search
from .terms import Record, _set

__all__ = [
    "tautology",
    "FinitePropAlgebra",
    "algebra_two",
    "bitmask_algebra",
    "free_boolean_algebra",
    "mask_of",
    "elements_of",
    "is_valuation",
    "enumerate_valuations",
    "val_set",
    "axiom_elements",
    "ded_closure",
    "is_filter",
    "enumerate_filters",
    "is_maximal_filter",
    "boolean_filter_criterion",
    "is_boolean",
    "lindenbaum",
    "free_boolean_classes",
    "check_prop_proof",
]


def tautology(formula: Formula) -> bool:
    """True when no one-element structure over the formula's letters, read
    as nullary predicate symbols, falsifies it: the countermodel search at
    size 1, whose candidates are the rows of the truth table."""
    letters: dict[str, int] = {}
    seen: set[Formula] = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if isinstance(node, Atom):
            letters[node.symbol] = 0
        elif isinstance(node, FAnd):
            stack += (node.left, node.right)
        else:
            stack.append(node.body)
    language = Language(FunctionType(), PredicateType(letters))
    return countermodel_search(language, formula, 1) is None


# ------------------------------------------------------------------
# finite proposition algebras
# ------------------------------------------------------------------

def check_row(table: str, row: tuple[int, ...], n: int) -> None:
    """Refuse a row of the negation or conjunction ``table`` of an algebra
    of ``n`` elements: a row of another length, or an entry outside 0..n-1."""
    if len(row) != n:
        raise ValueError(f"{table} table row has {len(row)} entries, expected {n}")
    if any(not 0 <= v < n for v in row):
        raise ValueError(f"{table} table entry out of range")


class FinitePropAlgebra(Record):
    """Operation tables over the carrier {0, ..., size-1}."""

    __slots__ = __match_args__ = ("not_table", "and_table")

    def __init__(self, not_table: Sequence[int], and_table: Sequence[Sequence[int]]):
        not_table = tuple(not_table)
        and_table = tuple(tuple(row) for row in and_table)
        n = len(not_table)
        if n == 0:
            raise ValueError("carrier must be nonempty")
        if len(and_table) != n:
            raise ValueError("conjunction table must be n x n")
        check_row("negation", not_table, n)
        for row in and_table:
            check_row("conjunction", row, n)
        _set(self, "not_table", not_table)
        _set(self, "and_table", and_table)

    @property
    def size(self) -> int:
        return len(self.not_table)

    def neg(self, a: int) -> int:
        return self.not_table[a]

    def conj(self, a: int, b: int) -> int:
        return self.and_table[a][b]

    def disj(self, a: int, b: int) -> int:
        return self.neg(self.conj(self.neg(a), self.neg(b)))

    def imp(self, a: int, b: int) -> int:
        # (not a) or b, with the disjunction itself expanded
        return self.disj(self.neg(a), b)

    def iff(self, a: int, b: int) -> int:
        return self.conj(self.imp(a, b), self.imp(b, a))


def algebra_two() -> FinitePropAlgebra:
    """The two-element Boolean algebra: 0 false, 1 true."""
    return FinitePropAlgebra((1, 0), ((0, 0), (0, 1)))


def bitmask_algebra(bits: int) -> FinitePropAlgebra:
    """Boolean algebra of subsets of ``bits`` points, elements as bitmasks."""
    if bits < 0:
        raise ValueError("bits must be >= 0")
    size = 1 << bits
    full = size - 1
    return FinitePropAlgebra(
        tuple(full ^ a for a in range(size)),
        tuple(tuple(a & b for b in range(size)) for a in range(size)),
    )


def free_boolean_algebra(generators: int) -> FinitePropAlgebra:
    """Free Boolean algebra on the given number of generators."""
    return bitmask_algebra(1 << generators)


def mask_of(elements: Iterable[int]) -> int:
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


def elements_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _full(algebra: FinitePropAlgebra) -> int:
    return (1 << algebra.size) - 1


def is_valuation(algebra: FinitePropAlgebra, subset: int) -> bool:
    """Membership flips under negation and distributes over conjunction."""
    n = algebra.size
    for p in range(n):
        if bool(subset >> p & 1) == bool(subset >> algebra.neg(p) & 1):
            return False
    for p in range(n):
        for q in range(n):
            both = (subset >> p & 1) and (subset >> q & 1)
            if bool(subset >> algebra.conj(p, q) & 1) != bool(both):
                return False
    return True


# Largest carrier whose subsets are enumerated for valuations and filters.
ENUMERATION_BOUND = 16


def _check_bound(algebra: FinitePropAlgebra) -> None:
    if algebra.size > ENUMERATION_BOUND:
        raise BoundExceeded(
            f"carrier of size {algebra.size} exceeds enumeration bound {ENUMERATION_BOUND}"
        )


def enumerate_valuations(algebra: FinitePropAlgebra) -> list[int]:
    """All valuation subsets, ascending as bitmasks."""
    _check_bound(algebra)
    return [v for v in range(1 << algebra.size) if is_valuation(algebra, v)]


def val_set(algebra: FinitePropAlgebra) -> int:
    """Intersection of all valuations; the whole carrier when there are none."""
    valuations = enumerate_valuations(algebra)
    if not valuations:
        return _full(algebra)
    out = _full(algebra)
    for v in valuations:
        out &= v
    return out


def _a1(algebra: FinitePropAlgebra, p: int) -> int:
    return algebra.imp(p, algebra.conj(p, p))


def _a2(algebra: FinitePropAlgebra, p: int, q: int) -> int:
    return algebra.imp(algebra.conj(p, q), p)


def _a3(algebra: FinitePropAlgebra, p: int, q: int, r: int) -> int:
    return algebra.imp(
        algebra.imp(p, q),
        algebra.imp(algebra.neg(algebra.conj(q, r)), algebra.neg(algebra.conj(r, p))),
    )


def axiom_elements(algebra: FinitePropAlgebra) -> int:
    """Mask of all values the three axiom schemata take on the carrier."""
    n = algebra.size
    mask = 0
    for p in range(n):
        mask |= 1 << _a1(algebra, p)
        for q in range(n):
            mask |= 1 << _a2(algebra, p, q)
            for r in range(n):
                mask |= 1 << _a3(algebra, p, q, r)
    return mask


def ded_closure(algebra: FinitePropAlgebra, subset: int) -> int:
    """Least filter containing the subset: axioms plus modus ponens, iterated."""
    n = algebra.size
    closed = subset | axiom_elements(algebra)
    changed = True
    while changed:
        changed = False
        for p in range(n):
            if not (closed >> p & 1):
                continue
            for q in range(n):
                if closed >> q & 1:
                    continue
                if closed >> algebra.imp(p, q) & 1:
                    closed |= 1 << q
                    changed = True
    return closed


def is_filter(algebra: FinitePropAlgebra, subset: int) -> bool:
    """Contains every axiom element and is closed under modus ponens."""
    return _is_closed(algebra, subset, axiom_elements(algebra))


def _is_closed(algebra: FinitePropAlgebra, subset: int, axioms: int) -> bool:
    """``is_filter`` given the mask of axiom elements."""
    if axioms & ~subset:
        return False
    n = algebra.size
    for p in range(n):
        if not (subset >> p & 1):
            continue
        for q in range(n):
            if (subset >> algebra.imp(p, q) & 1) and not (subset >> q & 1):
                return False
    return True


def enumerate_filters(algebra: FinitePropAlgebra, axioms: int | None = None) -> list[int]:
    """All filter subsets, ascending as bitmasks.  The axiom elements
    are computed once, not once per subset; ``axioms``, if given, is
    their mask, ``axiom_elements(algebra)``."""
    _check_bound(algebra)
    if axioms is None:
        axioms = axiom_elements(algebra)
    return [f for f in range(1 << algebra.size) if _is_closed(algebra, f, axioms)]


def is_maximal_filter(
    algebra: FinitePropAlgebra,
    subset: int,
    filters: Sequence[int] | None = None,
    axioms: int | None = None,
) -> bool:
    """Proper filter contained in no strictly larger proper filter.

    Computed from the definition over the enumerated filters, then
    cross-checked against the negation criterion (p in F iff not-p outside F);
    the two must agree.  ``axioms``, if given, is the mask
    ``axiom_elements(algebra)``, so a caller testing many subsets of one
    algebra computes it once.
    """
    if axioms is None:
        axioms = axiom_elements(algebra)
    if filters is None:
        filters = enumerate_filters(algebra, axioms)
    full = _full(algebra)
    closed = _is_closed(algebra, subset, axioms)
    by_definition = (
        subset != full
        and closed
        and not any(
            f != full and f != subset and (subset & ~f) == 0 for f in filters
        )
    )
    by_negation = closed and all(
        bool(subset >> p & 1) != bool(subset >> algebra.neg(p) & 1)
        for p in range(algebra.size)
    )
    if by_definition != by_negation:
        raise LogicError(
            "maximality routes disagree on subset "
            f"{elements_of(subset)} of a {algebra.size}-element algebra"
        )
    return by_definition


def boolean_filter_criterion(algebra: FinitePropAlgebra, subset: int) -> bool:
    """Order-theoretic filter test for Boolean carriers.

    Closed under conjunction, upward closed under disjunction, and
    containing the top element p or not-p.
    """
    n = algebra.size
    top = algebra.disj(0, algebra.neg(0))
    if not (subset >> top & 1):
        return False
    for p in range(n):
        if not (subset >> p & 1):
            continue
        for q in range(n):
            if (subset >> q & 1) and not (subset >> algebra.conj(p, q) & 1):
                return False
            if not (subset >> algebra.disj(p, q) & 1):
                return False
    return True


def is_boolean(algebra: FinitePropAlgebra) -> bool:
    """Equational recognition of Boolean algebras in (and, not).

    Conjunction is associative and commutative; p and not-q equals the
    (necessarily unique) bottom exactly when p and q equals p.
    """
    n = algebra.size
    for p in range(n):
        for q in range(n):
            if algebra.conj(p, q) != algebra.conj(q, p):
                return False
            for r in range(n):
                if algebra.conj(algebra.conj(p, q), r) != algebra.conj(p, algebra.conj(q, r)):
                    return False
                bottom = algebra.conj(r, algebra.neg(r))
                if algebra.conj(p, algebra.neg(q)) == bottom:
                    if algebra.conj(p, q) != p:
                        return False
                if algebra.conj(p, q) == p:
                    if algebra.conj(p, algebra.neg(q)) != bottom:
                        return False
    return True


def lindenbaum(
    algebra: FinitePropAlgebra, filter_subset: int
) -> tuple[FinitePropAlgebra, tuple[int, ...]]:
    """Quotient by the congruence p ~ q iff (p iff q) lies in the filter.

    Returns the quotient algebra and the projection from carrier indices to
    class indices.  Raises when the relation fails to be a congruence.
    """
    n = algebra.size

    def related(p: int, q: int) -> bool:
        return bool(filter_subset >> algebra.iff(p, q) & 1)

    for p in range(n):
        if not related(p, p):
            raise LogicError(f"filter does not relate {p} to itself")
        for q in range(n):
            if related(p, q) != related(q, p):
                raise LogicError("filter relation is not symmetric")
            for r in range(n):
                if related(p, q) and related(q, r) and not related(p, r):
                    raise LogicError("filter relation is not transitive")

    # congruence with respect to both operations
    for p in range(n):
        for q in range(n):
            if not related(p, q):
                continue
            if not related(algebra.neg(p), algebra.neg(q)):
                raise LogicError("filter relation does not respect negation")
            for r in range(n):
                if not related(algebra.conj(p, r), algebra.conj(q, r)):
                    raise LogicError("filter relation does not respect conjunction")
                if not related(algebra.conj(r, p), algebra.conj(r, q)):
                    raise LogicError("filter relation does not respect conjunction")

    representatives: list[int] = []
    projection: list[int] = []
    for p in range(n):
        for idx, rep in enumerate(representatives):
            if related(p, rep):
                projection.append(idx)
                break
        else:
            projection.append(len(representatives))
            representatives.append(p)

    m = len(representatives)
    not_table = tuple(projection[algebra.neg(rep)] for rep in representatives)
    and_table = tuple(
        tuple(projection[algebra.conj(a, b)] for b in representatives)
        for a in representatives
    )
    return FinitePropAlgebra(not_table, and_table), tuple(projection)


def free_boolean_classes(num_vars: int, depth: int) -> frozenset[int]:
    """Truth-table classes reachable from the variables in ``depth`` rounds
    of closing under negation and conjunction."""
    rows = 1 << num_vars
    full = (1 << rows) - 1
    # Row r gives variable i the value (r >> i) & 1.
    current: frozenset[int] = frozenset(
        sum(1 << row for row in range(rows) if row >> i & 1) for i in range(num_vars)
    )
    for _ in range(depth):
        step = set(current)
        step.update(full ^ t for t in current)
        step.update(a & b for a in current for b in current)
        if len(step) == len(current):
            break
        current = frozenset(step)
    return current


# ------------------------------------------------------------------
# propositional proofs
# ------------------------------------------------------------------

def _prop_axiom_gap(spec: AxiomInstanceSpec) -> str | None:
    """Why the spec names no propositional axiom instance, or None."""
    number = spec.axiom[1:]
    if spec.axiom not in ("A1", "A2", "A3"):
        return f"no propositional axiom {number}"
    if spec.p is None:
        return f"axiom {number} needs p"
    if number == "2" and spec.q is None:
        return "axiom 2 needs q"
    if number == "3" and (spec.q is None or spec.r is None):
        return "axiom 3 needs q and r"
    if spec.gen_count:
        return "propositional axioms take no binders"
    return None


def check_prop_proof(proof: Proof, hypotheses: Sequence[Formula] = ()) -> CheckResult:
    """Certificate check of a proof from A1..A3, hypotheses and modus ponens.

    Every step must be exactly what its justification builds, with the
    schemata of ``proofs``.  Unlike ``check_proof`` there is no language
    to check the formulas against: any atom is a letter.
    """
    steps = proof.steps
    for i, step in enumerate(steps):
        by = step.by
        match by:
            case ByAxiom(spec):
                gap = _prop_axiom_gap(spec)
                if gap is not None:
                    return CheckResult(False, i, gap)
                if build_prime_axiom(spec) != step.formula:
                    return CheckResult(False, i, "formula is not that axiom instance")
            case ByHyp(index):
                if not 0 <= index < len(hypotheses):
                    return CheckResult(False, i, f"hypothesis {index} out of range")
                if hypotheses[index] != step.formula:
                    return CheckResult(False, i, f"formula is not hypothesis {index}")
            case ByMP(premise, implication):
                if not (0 <= premise < i and 0 <= implication < i):
                    return CheckResult(False, i, "modus ponens must cite earlier steps")
                if steps[implication].formula != f_imp(steps[premise].formula, step.formula):
                    return CheckResult(False, i, "cited implication does not match")
            case _:
                return CheckResult(False, i, f"unknown justification {by!r}")
    return CheckResult(True)
