"""Hilbert-style proof checking over the formula algebra.

Eight prime axiom schemata cover the propositional connectives, the
binder, and equality; an axiom of the system is any prime instance under
finitely many outer binders.  Local proofs use axioms, hypotheses, and
modus ponens; global proofs may additionally substitute into or
generalize an earlier step.

The checker is a certificate verifier: each step carries the formula it
claims plus the exact recipe for it, and the checker rebuilds the recipe
and compares for structural equality.  It never searches and never
pattern-matches a formula against a schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .errors import LogicError
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
from .terms import Substitution, Var

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


@dataclass(frozen=True)
class AxiomInstanceSpec:
    """Recipe for one axiom instance.

    ``axiom`` names the schema; ``p``/``q``/``r`` are its formula
    parameters, ``subst`` feeds the instantiation schemata (A5, A8;
    identity when omitted), ``var_index`` picks the variable for the
    reflexivity schema (A7), and ``gen_count`` wraps the prime instance
    in that many outer binders.
    """

    axiom: str
    p: Formula | None = None
    q: Formula | None = None
    r: Formula | None = None
    subst: Substitution | None = None
    var_index: int | None = None
    gen_count: int = 0


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


def instantiate_prime_axiom(spec: AxiomInstanceSpec, language: Language) -> Formula:
    """Build the prime instance of the schema and check it against the language."""
    out = build_prime_axiom(spec, language)
    check_formula(out, language)
    return out


def instantiate_axiom(spec: AxiomInstanceSpec, language: Language) -> Formula:
    """The prime instance wrapped in ``gen_count`` outer binders."""
    if spec.gen_count < 0:
        raise ValueError("generalization count must be >= 0")
    out = instantiate_prime_axiom(spec, language)
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


@dataclass(frozen=True)
class ByAxiom:
    spec: AxiomInstanceSpec


@dataclass(frozen=True)
class ByHyp:
    index: int


@dataclass(frozen=True)
class ByMP:
    premise: int
    implication: int


@dataclass(frozen=True)
class BySubst:
    source: int
    subst: Substitution


@dataclass(frozen=True)
class ByGen:
    source: int


Justification = Union[ByAxiom, ByHyp, ByMP, BySubst, ByGen]


@dataclass(frozen=True)
class ProofStep:
    formula: Formula
    by: Justification


@dataclass(frozen=True)
class Proof:
    kind: str  # "local" or "global"
    steps: tuple[ProofStep, ...]

    def __post_init__(self):
        if self.kind not in ("local", "global"):
            raise ValueError(f"proof kind must be 'local' or 'global', got {self.kind!r}")
        object.__setattr__(self, "steps", tuple(self.steps))


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a proof check; ``step`` is the 0-based first failure."""

    ok: bool
    step: int | None = None
    reason: str | None = None


def check_proof(proof: Proof, theory: Theory) -> CheckResult:
    """Verify every step; reports the first failing 0-based step and why."""
    language = theory.language
    steps = proof.steps
    for i, step in enumerate(steps):
        try:
            check_formula(step.formula, language)
        except LogicError as exc:
            return CheckResult(False, i, f"ill-formed formula: {exc}")
        by = step.by
        match by:
            case ByAxiom(spec):
                try:
                    expected = instantiate_axiom(spec, language)
                except (ValueError, LogicError) as exc:
                    return CheckResult(False, i, f"bad axiom recipe: {exc}")
                if expected != step.formula:
                    return CheckResult(False, i, "formula is not that axiom instance")
            case ByHyp(index):
                if not 0 <= index < len(theory.formulas):
                    return CheckResult(False, i, f"hypothesis {index} out of range")
                if theory.formulas[index] != step.formula:
                    return CheckResult(False, i, f"formula is not hypothesis {index}")
            case ByMP(premise, implication):
                if not (0 <= premise < i and 0 <= implication < i):
                    return CheckResult(False, i, "modus ponens must cite earlier steps")
                expected = f_imp(steps[premise].formula, step.formula)
                if steps[implication].formula != expected:
                    return CheckResult(False, i, "cited implication does not match")
            case BySubst(source, sub):
                if proof.kind != "global":
                    return CheckResult(False, i, "substitution step in a local proof")
                if not 0 <= source < i:
                    return CheckResult(False, i, "substitution must cite an earlier step")
                if fsubst(steps[source].formula, sub) != step.formula:
                    return CheckResult(False, i, "formula is not that substitution instance")
            case ByGen(source):
                if proof.kind != "global":
                    return CheckResult(False, i, "generalization step in a local proof")
                if not 0 <= source < i:
                    return CheckResult(False, i, "generalization must cite an earlier step")
                if Forall(steps[source].formula) != step.formula:
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
