"""Hilbert-style proof checking over the formula algebra.

Eight prime axiom schemata cover the propositional connectives, the
binder, and equality; an axiom of the system is any prime instance under
finitely many outer binders.  Local proofs use axioms, hypotheses, and
modus ponens; global proofs may additionally substitute into or
generalize an earlier step.

The checker is a certificate verifier: each step carries the formula it
claims plus the exact recipe for it, and the checker rebuilds the recipe
and compares for structural equality, which on interned formulas is
identity.  It never searches and never pattern-matches a formula
against a schema.
"""

from __future__ import annotations

from typing import Sequence, Union

from .errors import BoundExceeded, LogicError
from . import terms
from .formulas import (
    Atom,
    FAnd,
    FNot,
    Forall,
    Formula,
    Language,
    check_formula,
    f_imp,
    fsubst,
)
from .terms import Interned, Record, Substitution, Var, _set

__all__ = [
    "AXIOM_IDS",
    "AxiomInstanceSpec",
    "build_prime_axiom",
    "instantiate_prime_axiom",
    "instantiate_axiom",
    "Theory",
    "ByAxiom",
    "ByHyp",
    "ByMP",
    "BySubst",
    "ByGen",
    "ProofStep",
    "Proof",
    "CheckResult",
    "check_proof",
    "derives",
    "inconsistency_witness",
]

AXIOM_IDS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8")


class AxiomInstanceSpec(Record):
    """Recipe for one axiom instance.

    ``axiom`` names the schema; ``p``/``q``/``r`` are its formula
    parameters, ``subst`` feeds the instantiation schemata (A5, A8;
    identity when omitted), ``var_index`` picks the variable for the
    reflexivity schema (A7), and ``gen_count`` wraps the prime instance
    in that many outer binders.
    """

    __slots__ = __match_args__ = ("axiom", "p", "q", "r", "subst", "var_index", "gen_count")

    def __init__(
        self,
        axiom: str,
        p: Formula | None = None,
        q: Formula | None = None,
        r: Formula | None = None,
        subst: Substitution | None = None,
        var_index: int | None = None,
        gen_count: int = 0,
    ):
        _set(self, "axiom", axiom)
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "r", r)
        _set(self, "subst", subst)
        _set(self, "var_index", var_index)
        _set(self, "gen_count", gen_count)


def _need(spec: AxiomInstanceSpec, *names: str):
    values = []
    for name in names:
        value = getattr(spec, name)
        if value is None:
            raise ValueError(f"axiom {spec.axiom} needs parameter {name}")
        values.append(value)
    return values


def _equality_symbol(language: Language, axiom: str) -> str:
    name = language.equality
    if name is None:
        raise ValueError(f"axiom {axiom} needs a language with equality")
    return name


def build_prime_axiom(spec: AxiomInstanceSpec, language: Language | None = None) -> Formula:
    """The prime (binder-free at the top) instance of the schema, not
    checked against a language.  Only A7 and A8 read the language, for
    its equality symbol, so A1..A6 build without one."""
    axiom = spec.axiom
    if axiom == "A1":
        (p,) = _need(spec, "p")
        out: Formula = f_imp(p, FAnd(p, p))
    elif axiom == "A2":
        p, q = _need(spec, "p", "q")
        out = f_imp(FAnd(p, q), p)
    elif axiom == "A3":
        p, q, r = _need(spec, "p", "q", "r")
        out = f_imp(
            f_imp(p, q),
            f_imp(FNot(FAnd(q, r)), FNot(FAnd(r, p))),
        )
    elif axiom == "A4":
        p, q = _need(spec, "p", "q")
        out = f_imp(Forall(f_imp(p, q)), f_imp(Forall(p), Forall(q)))
    elif axiom == "A5":
        (p,) = _need(spec, "p")
        sub = spec.subst if spec.subst is not None else terms.IDENTITY
        out = f_imp(fsubst(Forall(p), terms.drop_first(sub)), fsubst(p, sub))
    elif axiom == "A6":
        (p,) = _need(spec, "p")
        out = f_imp(p, Forall(fsubst(p, terms.SHIFT_UP)))
    elif axiom == "A7":
        (i,) = _need(spec, "var_index")
        e = _equality_symbol(language, axiom)
        out = Atom(e, (Var(i), Var(i)))
    elif axiom == "A8":
        (p,) = _need(spec, "p")
        sub = spec.subst if spec.subst is not None else terms.IDENTITY
        e = _equality_symbol(language, axiom)
        head = Atom(e, (terms.sigma_at(sub, 1), terms.sigma_at(sub, 2)))
        out = f_imp(FAnd(head, fsubst(p, sub)), fsubst(p, terms.dup_second(sub)))
    else:
        raise ValueError(f"unknown axiom {axiom!r}")
    return out


def instantiate_prime_axiom(
    spec: AxiomInstanceSpec, language: Language, seen: set[Interned] | None = None
) -> Formula:
    """Build the prime instance of the schema and check it against the
    language; ``seen`` is passed on to ``check_formula``."""
    out = build_prime_axiom(spec, language)
    check_formula(out, language, seen)
    return out


def _check_gen_count(spec: AxiomInstanceSpec) -> None:
    if spec.gen_count < 0:
        raise ValueError("generalization count must be >= 0")


def instantiate_axiom(spec: AxiomInstanceSpec, language: Language) -> Formula:
    """The prime instance wrapped in ``gen_count`` outer binders.  A count
    over ``terms.MAX_BINDER_INDEX`` raises BoundExceeded before any binder
    is built."""
    _check_gen_count(spec)
    out = instantiate_prime_axiom(spec, language)
    if spec.gen_count > terms.MAX_BINDER_INDEX:
        raise BoundExceeded(
            f"generalization count {spec.gen_count} is over the cap of "
            f"{terms.MAX_BINDER_INDEX}"
        )
    for _ in range(spec.gen_count):
        out = Forall(out)
    return out


class Theory:
    """A named, ordered list of hypothesis formulas over one language."""

    __slots__ = ("name", "language", "formulas")

    def __init__(self, name: str, language: Language, formulas: Sequence[Formula] = ()):
        self.name = name
        self.language = language
        self.formulas = tuple(formulas)
        for f in self.formulas:
            check_formula(f, language)

    def __repr__(self) -> str:
        return f"Theory({self.name!r}, {len(self.formulas)} formulas)"


class ByAxiom(Record):
    __slots__ = __match_args__ = ("spec",)

    def __init__(self, spec: AxiomInstanceSpec):
        _set(self, "spec", spec)


class ByHyp(Record):
    __slots__ = __match_args__ = ("index",)

    def __init__(self, index: int):
        _set(self, "index", index)


class ByMP(Record):
    __slots__ = __match_args__ = ("premise", "implication")

    def __init__(self, premise: int, implication: int):
        _set(self, "premise", premise)
        _set(self, "implication", implication)


class BySubst(Record):
    __slots__ = __match_args__ = ("source", "subst")

    def __init__(self, source: int, subst: Substitution):
        _set(self, "source", source)
        _set(self, "subst", subst)


class ByGen(Record):
    __slots__ = __match_args__ = ("source",)

    def __init__(self, source: int):
        _set(self, "source", source)


Justification = Union[ByAxiom, ByHyp, ByMP, BySubst, ByGen]


class ProofStep(Record):
    __slots__ = __match_args__ = ("formula", "by")

    def __init__(self, formula: Formula, by: Justification):
        _set(self, "formula", formula)
        _set(self, "by", by)


class Proof(Record):
    __slots__ = __match_args__ = ("kind", "steps")  # kind: "local" or "global"

    def __init__(self, kind: str, steps: Sequence[ProofStep]):
        if kind not in ("local", "global"):
            raise ValueError(f"proof kind must be 'local' or 'global', got {kind!r}")
        _set(self, "kind", kind)
        _set(self, "steps", tuple(steps))


class CheckResult(Record):
    """Outcome of a proof check; ``step`` is the 0-based first failure."""

    __slots__ = __match_args__ = ("ok", "step", "reason")

    def __init__(self, ok: bool, step: int | None = None, reason: str | None = None):
        _set(self, "ok", ok)
        _set(self, "step", step)
        _set(self, "reason", reason)


def check_proof(proof: Proof, theory: Theory) -> CheckResult:
    """Verify every step; reports the first failing 0-based step and why.

    Formulas are interned, so each comparison of a rebuilt formula with
    a step is one identity test.  One ``check_formula`` seen-set serves
    every step and the axiom instances, so a subformula restated on many
    steps is checked once.  An axiom step's outer binders are peeled off
    the step rather than built, so the work is bounded by the step
    whatever its recipe's ``gen_count``.
    """
    language = theory.language
    steps = proof.steps
    seen: set[Interned] = set()
    for i, step in enumerate(steps):
        try:
            check_formula(step.formula, language, seen)
        except LogicError as exc:
            return CheckResult(False, i, f"ill-formed formula: {exc}")
        by = step.by
        match by:
            case ByAxiom(spec):
                try:
                    _check_gen_count(spec)
                    expected = instantiate_prime_axiom(spec, language, seen)
                except (ValueError, LogicError) as exc:
                    return CheckResult(False, i, f"bad axiom recipe: {exc}")
                body = step.formula
                for _ in range(spec.gen_count):
                    if type(body) is not Forall:
                        return CheckResult(False, i, "formula is not that axiom instance")
                    body = body.body
                if body is not expected:
                    return CheckResult(False, i, "formula is not that axiom instance")
            case ByHyp(index):
                if not 0 <= index < len(theory.formulas):
                    return CheckResult(False, i, f"hypothesis {index} out of range")
                if theory.formulas[index] is not step.formula:
                    return CheckResult(False, i, f"formula is not hypothesis {index}")
            case ByMP(premise, implication):
                if not (0 <= premise < i and 0 <= implication < i):
                    return CheckResult(False, i, "modus ponens must cite earlier steps")
                expected = f_imp(steps[premise].formula, step.formula)
                if steps[implication].formula is not expected:
                    return CheckResult(False, i, "cited implication does not match")
            case BySubst(source, sub):
                if proof.kind != "global":
                    return CheckResult(False, i, "substitution step in a local proof")
                if not 0 <= source < i:
                    return CheckResult(False, i, "substitution must cite an earlier step")
                if fsubst(steps[source].formula, sub) is not step.formula:
                    return CheckResult(False, i, "formula is not that substitution instance")
            case ByGen(source):
                if proof.kind != "global":
                    return CheckResult(False, i, "generalization step in a local proof")
                if not 0 <= source < i:
                    return CheckResult(False, i, "generalization must cite an earlier step")
                if Forall(steps[source].formula) is not step.formula:
                    return CheckResult(False, i, "formula is not the cited step generalized")
            case _:
                return CheckResult(False, i, f"unknown justification {by!r}")
    return CheckResult(True)


def derives(theory: Theory, formula: Formula, proof: Proof) -> bool:
    """True when the proof checks and ends in exactly this formula."""
    if not proof.steps:
        return False
    return check_proof(proof, theory).ok and proof.steps[-1].formula == formula


def inconsistency_witness(theory: Theory, first: Proof, second: Proof) -> bool:
    """Two accepted proofs whose conclusions are a formula and its negation."""
    if not (first.steps and second.steps):
        return False
    if not (check_proof(first, theory).ok and check_proof(second, theory).ok):
        return False
    p = first.steps[-1].formula
    q = second.steps[-1].formula
    return q == FNot(p) or p == FNot(q)
