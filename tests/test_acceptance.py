"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Each test measures exactly what its criterion states (corpus sizes,
tolerances, runtime budgets) and prints a single summary line even when
output capture is active, so a plain pytest run shows the verdicts.
"""

import random
import time

from proof_corpus import (
    load_predicate_corpus,
    load_propositional_corpus,
    predicate_mutants,
    propositional_mutants,
)

from clonelogic.checks import (
    completeness_survey,
    countermodel_language,
    prop_corpus,
    qa_survey,
    soundness_language,
    soundness_survey,
    standard_countermodel_suite,
)
from clonelogic.cli import main
from clonelogic.formulas import (
    Atom,
    FAnd,
    Forall,
    close_off,
    enumerate_formulas,
    fminus,
    forall_xi,
    fplus,
    frank,
    fstar,
    fsubst,
    is_sentence,
    peano_core,
)
from clonelogic.proofs import BySubst, ByGen, check_proof
from clonelogic.propositional import (
    check_prop_proof,
    free_boolean_algebra,
    free_boolean_classes,
    is_boolean,
)
from clonelogic.sampling import random_formula, random_subst, random_term
from clonelogic.semantics import Env, counterexample_env, countermodel_search, zmod_structure
from clonelogic.terms import (
    App,
    IDENTITY,
    Var,
    compose,
    lift,
    subst_from_list,
    touch_subst,
)

IDENTITY_RUNS = 500

EXPECTED_SCHEMATA = (
    "~e(0, S(x1))\n"
    "~(~~e(S(x1), S(x2)) & ~e(x1, x2))\n"
    "e(add(x1, 0), x1)\n"
    "e(add(x1, S(x2)), S(add(x1, x2)))\n"
    "e(mul(x1, 0), 0)\n"
    "e(mul(x1, S(x2)), add(mul(x1, x2), x1))\n"
    "~(~~(e(0, 0) & forall ~(~~e(x1, x1) & ~e(S(x1), S(x1)))) & ~forall e(x1, x1))\n"
)


def _report(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_finite_propositional_completeness(capsys):
    start = time.monotonic()
    corpus = prop_corpus()
    non_boolean = sum(1 for algebra in corpus if not is_boolean(algebra))
    report = completeness_survey(corpus)
    elapsed = time.monotonic() - start
    ok = (
        len(corpus) >= 20
        and all(algebra.size <= 8 for algebra in corpus)
        and corpus[0].size == 2
        and corpus[1].size == 4
        and non_boolean >= 5
        and report.ok
        and elapsed < 30.0
    )
    _report(
        capsys,
        1,
        ok,
        f"{len(corpus)} algebras ({non_boolean} non-Boolean): filters are "
        f"valuation intersections and maximal filters are valuations, {elapsed:.1f}s",
    )


def test_criterion_2_axiom_soundness(capsys):
    start = time.monotonic()
    report = soundness_survey(seed=0, per_schema=200)
    elapsed = time.monotonic() - start
    instances = sum(count for _, count in report.per_axiom)
    ok = instances == 1600 and report.ok and elapsed < 120.0
    _report(
        capsys,
        2,
        ok,
        f"{instances} axiom instances valid over {report.structures_checked} "
        f"structure checks, {len(report.failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_3_clone_binding_identities(capsys):
    language = soundness_language()
    rng = random.Random(3)
    failures: dict[str, int] = {}
    checked = 0
    for _ in range(IDENTITY_RUNS):
        p = random_formula(rng, language)
        sub = random_subst(rng, language.functions)
        tau = random_subst(rng, language.functions)
        t = random_term(rng, language.functions)
        i = rng.randint(1, 4)
        sentence = close_off(p)
        positive = FAnd(p, Atom("r", (Var(1),)))
        iterated = p
        for _ in range(frank(p)):
            iterated = Forall(iterated)
        cases = (
            ("plus then minus restores", fminus(fplus(p)) == p),
            ("minus then plus is star", fplus(fminus(p)) == fstar(p)),
            ("first-coordinate binder is plus of binder", forall_xi(1, p) == fplus(Forall(p))),
            ("minus of first-coordinate binder is binder", fminus(forall_xi(1, p)) == Forall(p)),
            (
                "substitution composition",
                fsubst(fsubst(p, sub), tau) == fsubst(p, compose(sub, tau)),
            ),
            ("identity substitution fixes", fsubst(p, IDENTITY) == p),
            (
                "binder commutes through lift",
                fsubst(Forall(p), sub) == Forall(fsubst(p, lift(sub))),
            ),
            ("binding a sentence stays closed", is_sentence(Forall(sentence))),
            (
                "binding drops positive rank by one",
                frank(Forall(positive)) == frank(positive) - 1,
            ),
            ("iterated binding closes", frank(iterated) == 0),
            (
                "collapsing to the first coordinate then binding closes",
                frank(Forall(fsubst(p, subst_from_list([Var(1)])))) == 0,
            ),
            (
                "positional binder ignores its own coordinate",
                fsubst(forall_xi(i, p), touch_subst(i, t)) == forall_xi(i, p),
            ),
            ("sentences absorb every substitution", fsubst(sentence, sub) == sentence),
        )
        for name, holds in cases:
            checked += 1
            if not holds:
                failures[name] = failures.get(name, 0) + 1
    ok = not failures
    _report(
        capsys,
        3,
        ok,
        f"{len(cases)} identities x {IDENTITY_RUNS} random formulas "
        f"({checked} structural equalities), failing: {sorted(failures) or 'none'}",
    )


def frank_oracle(formula) -> int:
    from clonelogic.terms import SHIFT_UP

    if fsubst(formula, SHIFT_UP) == formula:
        return 0
    n = 1
    while True:
        probe = subst_from_list(tuple(Var(i) for i in range(1, n + 1)))
        if fsubst(formula, probe) == formula:
            return n
        n += 1


def test_criterion_4_rank_matches_fixpoint_oracle(capsys):
    atoms = [
        Atom("r", (t,))
        for t in (Var(1), Var(2), App("f", (Var(1),)), App("f", (Var(2),)))
    ]
    sample = enumerate_formulas(atoms, 4)
    mismatches = sum(1 for p in sample if frank(p) != frank_oracle(p))
    ok = mismatches == 0 and len(sample) > 1000
    _report(
        capsys,
        4,
        ok,
        f"{len(sample)} formulas (connective count <= 4 over one unary function "
        f"and one unary predicate), {mismatches} rank mismatches",
    )


def test_criterion_5_quantifier_algebra_laws(capsys):
    report = qa_survey()
    cells = ", ".join(
        f"size {cell.size}/{1 << cell.atom_bits}-valued"
        + ("" if cell.ok else f" FAILS {cell.failing_law}")
        for cell in report.cells
    )
    ok = report.ok and len(report.cells) == 6
    _report(capsys, 5, ok, f"Q1-Q5 over {cells}; zero failures" if ok else cells)


def test_criterion_6_proof_checker_corpus_and_mutants(capsys):
    predicate = load_predicate_corpus()
    propositional = load_propositional_corpus()
    local = sum(1 for _, proof, _ in predicate if proof.kind == "local")
    global_proofs = [proof for _, proof, _ in predicate if proof.kind == "global"]
    has_subst = any(
        isinstance(step.by, BySubst) for proof in global_proofs for step in proof.steps
    )
    has_gen = any(
        isinstance(step.by, ByGen) for proof in global_proofs for step in proof.steps
    )
    accepted = all(
        check_proof(proof, theory).ok for _, proof, theory in predicate
    ) and all(
        check_prop_proof(proof, hyps).ok for _, proof, hyps in propositional
    )
    mutants = 0
    rejected = 0
    for _, proof, theory in predicate:
        for _, mutant in predicate_mutants(proof, theory):
            mutants += 1
            rejected += not check_proof(mutant, theory).ok
    for _, proof, hyps in propositional:
        for _, mutant in propositional_mutants(proof, hyps):
            mutants += 1
            rejected += not check_prop_proof(mutant, hyps).ok
    total = len(predicate) + len(propositional)
    ok = (
        total >= 10
        and local >= 3
        and len(global_proofs) >= 4
        and has_subst
        and has_gen
        and len(propositional) >= 3
        and accepted
        and mutants >= 100
        and rejected == mutants
    )
    _report(
        capsys,
        6,
        ok,
        f"{total} proofs accepted ({local} local, {len(global_proofs)} global "
        f"with substitution and generalization steps, {len(propositional)} "
        f"propositional); {rejected}/{mutants} single-edit mutants rejected",
    )


def test_criterion_7_peano_desk_checks(capsys):
    structure = zmod_structure(5)
    core = peano_core()
    s1_counterexample = counterexample_env(structure, core[0])
    rest_valid = all(counterexample_env(structure, f) is None for f in core[1:])
    code = main(["peano", "--emit"])
    emitted = capsys.readouterr().out
    ok = (
        s1_counterexample == Env((4,), 0)
        and rest_valid
        and code == 0
        and emitted == EXPECTED_SCHEMATA
    )
    _report(
        capsys,
        7,
        ok,
        "S1 fails in zmod5 exactly at x1=4, S2-S6 valid, seven schemata "
        "emitted byte-identically",
    )


def test_criterion_8_free_boolean_algebra_sizes(capsys):
    classes_one = free_boolean_classes(1, 3)
    classes_two = free_boolean_classes(2, 6)
    ok = (
        len(classes_one) == 4
        and len(classes_two) == 16
        and free_boolean_algebra(1).size == 4
        and free_boolean_algebra(2).size == 16
    )
    _report(
        capsys,
        8,
        ok,
        f"truth-table classes: 1 generator -> {len(classes_one)}, "
        f"2 generators -> {len(classes_two)}",
    )


def test_criterion_9_countermodel_determinism(capsys):
    language = countermodel_language()
    suite = standard_countermodel_suite()
    baseline = [countermodel_search(language, f, 3) for f in suite]
    stable = all(
        [countermodel_search(language, f, 3) for f in suite] == baseline
        for _ in range(2)
    )
    found = sum(1 for s in baseline if s is not None)
    ok = len(suite) == 10 and stable
    _report(capsys, 9, ok, f"10 formulas, {found} countermodels, identical across 3 runs")
