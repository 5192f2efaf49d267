"""Hand-written proof files plus single-edit mutant generators.

The corpus proofs are stored in the on-disk file format and loaded
through the real loaders, so they double as format examples.  Every
mutant differs from its parent in exactly one component of one step
(or, for predicate proofs, in the proof kind) and is built so the
edited component no longer rebuilds the step formula; the guards skip
edits that would accidentally produce another valid proof.
"""

from clonelogic.formulas import FAnd, FNot, Forall
from clonelogic.proofs import (
    AxiomInstanceSpec,
    ByAxiom,
    ByGen,
    ByHyp,
    ByMP,
    BySubst,
    Proof,
    ProofStep,
    Theory,
)
from clonelogic.syntax import load_proof, load_prop_proof, load_signature, load_theory
from clonelogic.terms import SHIFT_UP

SIGNATURE = """\
fn f/1
fn c/0
rel r/1
rel s/2
rel e/2 equality
"""

MONADIC = """\
theory monadic
r(x1)
"""

MONIC = """\
theory monic
s(x1, x2)
(s(x1, x2) -> r(x1))
"""

# name, proof text, theory text or None
PREDICATE_PROOFS = [
    (
        "local reflexivity axiom",
        """\
local
1. e(x1, x1) by axiom A7(i=1)
""",
        None,
    ),
    (
        "local modus ponens from a theory",
        """\
local
theory monic
1. s(x1, x2) by hyp 1
2. (s(x1, x2) -> r(x1)) by hyp 2
3. r(x1) by mp 1 2
""",
        MONIC,
    ),
    (
        "local instantiation with doubling",
        """\
local
1. (forall r(x1) -> r(x1)) by axiom A5(p=r(x1))
2. ((forall r(x1) -> r(x1)) -> ((forall r(x1) -> r(x1)) & (forall r(x1) -> r(x1)))) by axiom A1(p=(forall r(x1) -> r(x1)))
3. ((forall r(x1) -> r(x1)) & (forall r(x1) -> r(x1))) by mp 1 2
""",
        None,
    ),
    (
        "local quantifier distribution axiom",
        """\
local
1. (forall (r(x1) -> s(x1, x2)) -> (forall r(x1) -> forall s(x1, x2))) by axiom A4(p=r(x1), q=s(x1, x2))
""",
        None,
    ),
    (
        "global generalization",
        """\
global
theory monadic
1. r(x1) by hyp 1
2. forall r(x1) by gen 1
""",
        MONADIC,
    ),
    (
        "global substitution instance",
        """\
global
theory monadic
1. r(x1) by hyp 1
2. r(f(x1)) by subst 1 [f(x1)]
""",
        MONADIC,
    ),
    (
        "global closed generalization",
        """\
global
theory monadic
1. r(x1) by hyp 1
2. r(c) by subst 1 [c]
3. forall r(c) by gen 2
""",
        MONADIC,
    ),
    (
        "global reflexivity round trip",
        """\
global
1. e(x1, x1) by axiom A7(i=1)
2. forall e(x1, x1) by gen 1
3. (forall e(x1, x1) -> e(x1, x1)) by axiom A5(p=e(x1, x1))
4. e(x1, x1) by mp 2 3
5. e(f(x1), f(x1)) by subst 1 [f(x1)]
""",
        None,
    ),
    (
        "global vacuous binder introduction",
        """\
global
theory monadic
1. r(x1) by hyp 1
2. (r(x1) -> forall r(x2)) by axiom A6(p=r(x1))
3. forall r(x2) by mp 1 2
""",
        MONADIC,
    ),
]

# name, proof text, hypothesis texts
PROPOSITIONAL_PROOFS = [
    (
        "doubling from a hypothesis",
        """\
1. (a -> (a & a)) by A1(p=a)
2. a by hyp 1
3. (a & a) by mp 2 1
""",
        ("a",),
    ),
    (
        "projection axiom alone",
        """\
1. ((a & b) -> a) by A2(p=a, q=b)
""",
        (),
    ),
    (
        "transposition chain",
        """\
1. (a -> (a & a)) by A1(p=a)
2. ((a -> (a & a)) -> (~((a & a) & b) -> ~(b & a))) by A3(p=a, q=(a & a), r=b)
3. (~((a & a) & b) -> ~(b & a)) by mp 1 2
""",
        (),
    ),
    (
        "detachment from two hypotheses",
        """\
1. a by hyp 1
2. (a -> b) by hyp 2
3. b by mp 1 2
""",
        ("a", "(a -> b)"),
    ),
]


def corpus_language():
    return load_signature(SIGNATURE)


def load_predicate_corpus():
    """List of (name, proof, theory) with real objects."""
    language = corpus_language()
    out = []
    for name, proof_text, theory_text in PREDICATE_PROOFS:
        proof, theory_name = load_proof(proof_text, language)
        if theory_text is None:
            theory = Theory("empty", language)
            assert theory_name is None
        else:
            theory = load_theory(theory_text, language)
            assert theory_name == theory.name
        out.append((name, proof, theory))
    return out


def load_propositional_corpus():
    """List of (name, proof, hypotheses) with real objects."""
    from clonelogic.syntax import parse_prop

    out = []
    for name, text, hyp_texts in PROPOSITIONAL_PROOFS:
        proof = load_prop_proof(text)
        hypotheses = tuple(parse_prop(h) for h in hyp_texts)
        out.append((name, proof, hypotheses))
    return out


def _with_step(proof, index, step):
    steps = list(proof.steps)
    steps[index] = step
    return Proof(proof.kind, tuple(steps))


def _respec(spec, **changes):
    """A copy of the axiom recipe ``spec`` with ``changes`` to its fields."""
    return AxiomInstanceSpec(
        *[changes.get(name, getattr(spec, name)) for name in spec.__match_args__]
    )


def predicate_mutants(proof, theory):
    """Yield (description, broken proof) pairs, one edit each."""
    steps = proof.steps
    for i, step in enumerate(steps):
        label = f"step {i + 1}"
        yield (
            f"{label} formula negated",
            _with_step(proof, i, ProofStep(FNot(step.formula), step.by)),
        )
        yield (
            f"{label} formula wrapped in a binder",
            _with_step(proof, i, ProofStep(Forall(step.formula), step.by)),
        )

        def rejust(by, note):
            return (f"{label} {note}", _with_step(proof, i, ProofStep(step.formula, by)))

        by = step.by
        if isinstance(by, ByAxiom):
            spec = by.spec
            if spec.p is not None:
                yield rejust(ByAxiom(_respec(spec, p=FNot(spec.p))), "axiom parameter negated")
            if spec.var_index is not None:
                yield rejust(
                    ByAxiom(_respec(spec, var_index=spec.var_index + 1)),
                    "axiom variable shifted",
                )
            yield rejust(
                ByAxiom(_respec(spec, gen_count=spec.gen_count + 1)),
                "axiom recipe over-generalized",
            )
        elif isinstance(by, ByHyp):
            yield rejust(ByHyp(len(theory.formulas)), "hypothesis index out of range")
            for j, candidate in enumerate(theory.formulas):
                if j != by.index and candidate != theory.formulas[by.index]:
                    yield rejust(ByHyp(j), f"hypothesis retargeted to {j + 1}")
        elif isinstance(by, ByMP):
            yield rejust(ByMP(i, by.implication), "premise references itself")
            yield rejust(ByMP(by.premise, len(steps)), "implication references past the end")
            for j in range(i):
                if j != by.premise and steps[j].formula != steps[by.premise].formula:
                    yield rejust(ByMP(j, by.implication), f"premise retargeted to {j + 1}")
                if j != by.implication and steps[j].formula != steps[by.implication].formula:
                    yield rejust(ByMP(by.premise, j), f"implication retargeted to {j + 1}")
        elif isinstance(by, BySubst):
            from clonelogic.formulas import fsubst

            if fsubst(steps[by.source].formula, SHIFT_UP) != step.formula:
                yield rejust(BySubst(by.source, SHIFT_UP), "substitution replaced by a shift")
            yield rejust(BySubst(i, by.subst), "substitution source references itself")
        elif isinstance(by, ByGen):
            yield rejust(ByGen(i), "generalization source references itself")
            for j in range(i):
                if j != by.source and Forall(steps[j].formula) != step.formula:
                    yield rejust(ByGen(j), f"generalization retargeted to {j + 1}")
    if proof.kind == "global" and any(
        isinstance(s.by, (BySubst, ByGen)) for s in steps
    ):
        yield "kind demoted to local", Proof("local", steps)


def propositional_mutants(proof, hypotheses):
    """Yield (description, broken proof) pairs, one edit each."""
    steps = proof.steps

    def with_step(index, step):
        return _with_step(proof, index, step)

    for i, step in enumerate(steps):
        label = f"step {i + 1}"
        yield (
            f"{label} formula negated",
            with_step(i, ProofStep(FNot(step.formula), step.by)),
        )
        yield (
            f"{label} formula self-conjoined",
            with_step(i, ProofStep(FAnd(step.formula, step.formula), step.by)),
        )

        def rejust(by, note):
            return (f"{label} {note}", with_step(i, ProofStep(step.formula, by)))

        by = step.by
        if isinstance(by, ByAxiom):
            spec = by.spec
            renumbered = f"A{int(spec.axiom[1]) % 3 + 1}"
            yield rejust(ByAxiom(_respec(spec, p=FNot(spec.p))), "axiom parameter negated")
            yield rejust(ByAxiom(_respec(spec, axiom=renumbered)), "axiom renumbered")
        elif isinstance(by, ByHyp):
            yield rejust(ByHyp(len(hypotheses)), "hypothesis index out of range")
            for j, candidate in enumerate(hypotheses):
                if j != by.index and candidate != hypotheses[by.index]:
                    yield rejust(ByHyp(j), f"hypothesis retargeted to {j + 1}")
        elif isinstance(by, ByMP):
            yield rejust(ByMP(i, by.implication), "premise references itself")
            yield rejust(ByMP(by.premise, len(steps)), "implication references past the end")
            for j in range(i):
                if j != by.premise and steps[j].formula != steps[by.premise].formula:
                    yield rejust(ByMP(j, by.implication), f"premise retargeted to {j + 1}")
                if j != by.implication and steps[j].formula != steps[by.implication].formula:
                    yield rejust(ByMP(by.premise, j), f"implication retargeted to {j + 1}")
