"""Command line frontend.

Every operation in the package is reachable from a subcommand, with
plain-text output that is one result per line and byte-identical for
identical inputs.  Exit codes: 0 for success or a passing check, 1 for
a failed check or a found counterexample, 2 for malformed or
over-budget input.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import re
import sys

from .checks import completeness_survey, prop_corpus, qa_survey, soundness_survey
from .errors import BoundExceeded, LogicError
from .formulas import (
    Atom,
    Language,
    arithmetic_language,
    enumerate_formulas,
    frank,
    fsubst,
    is_sentence,
    peano_core,
    peano_induction,
)
from .proofs import AXIOM_IDS, Theory, check_proof, instantiate_axiom
from .propositional import check_prop_proof, tautology
from .semantics import (
    _MAX_LAW_SAMPLE,
    DEFAULT_CELLS_CAP,
    Env,
    FiniteBooleanAlg,
    counterexample_env,
    countermodel_search,
    qa_law_check,
    zmod_structure,
)
from .syntax import (
    format_env,
    format_formula,
    format_structure,
    format_term,
    load_proof,
    load_prop_algebra,
    load_prop_proof,
    load_signature,
    load_structure,
    load_theory,
    parse_axiom_spec,
    parse_env,
    parse_formula,
    parse_prop,
    parse_subst,
    parse_term,
)
from .terms import Var, apply, is_closed, rank

_ZMOD = re.compile(r"zmod([0-9]+)")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _language(args) -> Language:
    if args.signature is None:
        raise ValueError("this command needs --signature")
    return load_signature(_read(args.signature))


def _structure(args):
    """Structure from --structure: either a file path or a builtin
    ``zmod<m>`` generator name.  Returns (structure, language)."""
    spec = args.structure
    match = _ZMOD.fullmatch(spec)
    if match:
        structure = zmod_structure(int(match.group(1)))
        return structure, structure.language
    language = _language(args)
    return load_structure(_read(spec), language), language


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_parse(args) -> int:
    language = _language(args)
    if args.kind == "term":
        term = parse_term(args.text, language)
        print(format_term(term))
        print(f"rank {rank(term)}")
        print(f"sentence {_yes_no(is_closed(term))}")
    else:
        formula = parse_formula(args.text, language)
        print(format_formula(formula))
        print(f"rank {frank(formula)}")
        print(f"sentence {_yes_no(is_sentence(formula))}")
    return 0


def cmd_subst(args) -> int:
    language = _language(args)
    sub = parse_subst(args.subst, language)
    if args.kind == "term":
        result = apply(parse_term(args.text, language), sub)
        print(format_term(result))
        print(f"rank {rank(result)}")
    else:
        result = fsubst(parse_formula(args.text, language), sub)
        print(format_formula(result))
        print(f"rank {frank(result)}")
    return 0


def cmd_taut(args) -> int:
    if tautology(parse_prop(args.text)):
        print("TAUTOLOGY")
        return 0
    print("NOT A TAUTOLOGY")
    return 1


def _print_verdict(verdict) -> None:
    print(f"size {verdict.carrier}")
    print(f"boolean {_yes_no(verdict.boolean)}")
    print(f"valuations {verdict.valuations}")
    print(f"filters {verdict.filters}")
    print(f"filters are intersections of valuations: {_yes_no(verdict.filters_are_intersections)}")
    print(f"maximal filters match valuations: {_yes_no(verdict.maximal_filters_match_valuations)}")


def cmd_propalg(args) -> int:
    algebra = load_prop_algebra(_read(args.algebra))
    verdict = completeness_survey([algebra]).verdicts[0]
    _print_verdict(verdict)
    return 0 if verdict.ok else 1


def cmd_completeness(args) -> int:
    report = completeness_survey(prop_corpus(seed=args.seed, total=args.total))
    for index, verdict in enumerate(report.verdicts):
        print(f"algebra {index}")
        _print_verdict(verdict)
    print(f"all ok: {_yes_no(report.ok)}")
    return 0 if report.ok else 1


def cmd_eval(args) -> int:
    structure, language = _structure(args)
    formula = parse_formula(args.formula, language)
    base = Env() if args.env is None else parse_env(args.env)
    structure.check_env(base)
    bad = counterexample_env(structure, formula, base)
    if bad is None:
        print("VALID")
        return 0
    print(f"COUNTEREXAMPLE {format_env(bad)}")
    return 1


def cmd_axiom(args) -> int:
    language = _language(args)
    spec = parse_axiom_spec(args.spec, language)
    instance = instantiate_axiom(spec, language)
    print(format_formula(instance))
    print(f"rank {frank(instance)}")
    return 0


def cmd_check_proof(args) -> int:
    if args.prop:
        proof = load_prop_proof(_read(args.proof))
        hypotheses = tuple(parse_prop(text) for text in args.hyp)
        result = check_prop_proof(proof, hypotheses)
    else:
        language = _language(args)
        proof, theory_name = load_proof(_read(args.proof), language)
        if args.theory is not None:
            theory = load_theory(_read(args.theory), language)
            if theory_name is not None and theory.name != theory_name:
                raise ValueError(
                    f"proof names theory {theory_name!r} but the file "
                    f"defines {theory.name!r}"
                )
        elif theory_name is not None:
            raise ValueError(f"proof names theory {theory_name!r}; pass --theory")
        else:
            theory = Theory("empty", language)
        result = check_proof(proof, theory)
    if result.ok:
        print("ACCEPTED")
        return 0
    print(f"REJECTED step {result.step + 1}: {result.reason}")
    return 1


def cmd_countermodel(args) -> int:
    language = _language(args)
    formula = parse_formula(args.formula, language)
    found = countermodel_search(
        language, formula, args.max_size, cells_cap=args.cap
    )
    if found is None:
        print("NO COUNTERMODEL")
        return 0
    print("COUNTERMODEL")
    print(format_structure(found), end="")
    return 1


def cmd_qa_laws(args) -> int:
    structure, language = _structure(args)
    algebra = FiniteBooleanAlg(structure.truth_bits)
    # The sample holds every atom, so too many atoms are refused before
    # any is built: their count grows as --rank-bound to the arity.
    atom_count = sum(
        max(args.rank_bound, 0) ** arity for _, arity in language.predicates.items()
    )
    if atom_count > _MAX_LAW_SAMPLE:
        raise BoundExceeded(
            f"the law sample holds {'' if args.depth == 0 else 'at least '}"
            f"{atom_count} formulas, over the cap of {_MAX_LAW_SAMPLE}"
        )
    atoms = []
    for name in language.predicates:
        arity = language.predicates.arity(name)
        for indices in itertools.product(range(1, args.rank_bound + 1), repeat=arity):
            atoms.append(Atom(name, tuple(Var(i) for i in indices)))
    sample = enumerate_formulas(atoms, args.depth)
    # A negative bound also leaves no atom; qa_law_check refuses it by name.
    if not sample and args.rank_bound >= 0:
        raise ValueError(
            f"the law sample is empty: no atom fits coordinates up to "
            f"--rank-bound {args.rank_bound}"
        )
    report = qa_law_check(structure, algebra, sample, args.rank_bound)
    for law in report.laws:
        if law.ok:
            print(f"{law.law} pass checked={law.checked}")
        else:
            failure = law.failure
            line = (
                f"{law.law} fail env={format_env(failure.env)} "
                f"left={failure.left} right={failure.right} "
                f"p={format_formula(failure.p)}"
            )
            if failure.q is not None:
                line += f" q={format_formula(failure.q)}"
            print(line)
    return 0 if report.ok else 1


def cmd_soundness(args) -> int:
    if args.schema is not None and args.schema not in AXIOM_IDS:
        raise ValueError(f"unknown axiom schema {args.schema!r}")
    schemas = AXIOM_IDS if args.schema is None else (args.schema,)
    report = soundness_survey(
        seed=args.seed,
        per_schema=args.count,
        max_size=args.max_size,
        schemas=schemas,
    )
    for axiom, count in report.per_axiom:
        print(f"{axiom} instances={count}")
    print(f"structures checked: {report.structures_checked}")
    print(f"failures: {len(report.failures)}")
    for failure in report.failures:
        print(
            f"FAIL {failure.axiom} env={format_env(Env(failure.env_prefix))} "
            f"instance={format_formula(failure.instance)}"
        )
    return 0 if report.ok else 1


def cmd_qa_survey(args) -> int:
    report = qa_survey(
        seed=args.seed,
        sizes=tuple(args.sizes),
        rank_bound=args.rank_bound,
        exhaustive_cap=args.exhaustive_cap,
        sampled_count=args.sampled,
    )
    for cell in report.cells:
        mode = "exhaustive" if cell.exhaustive else "sampled"
        verdict = "ok" if cell.ok else f"FAIL {cell.failing_law}"
        print(
            f"size={cell.size} values={1 << cell.atom_bits} "
            f"tables={cell.structures} ({mode}): {verdict}"
        )
    print(f"all ok: {_yes_no(report.ok)}")
    return 0 if report.ok else 1


def cmd_peano(args) -> int:
    language = arithmetic_language()
    if args.emit:
        schemata = list(peano_core())
        schemata.append(peano_induction(Atom("e", (Var(1), Var(1)))))
        for formula in schemata:
            print(format_formula(formula))
        return 0
    if args.induction is not None:
        instance = peano_induction(parse_formula(args.induction, language))
        print(format_formula(instance))
        print(f"rank {frank(instance)}")
        return 0
    structure = zmod_structure(args.check_zmod)
    exit_code = 0
    for number, formula in enumerate(peano_core(), start=1):
        bad = counterexample_env(structure, formula)
        if bad is None:
            print(f"S{number} VALID")
        else:
            print(f"S{number} COUNTEREXAMPLE {format_env(bad)}")
            exit_code = 1
    return exit_code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: ``parse_args``
    returns a fresh namespace every call and copies list defaults before
    appending to them, so calls share nothing."""
    parser = argparse.ArgumentParser(
        prog="clonelogic",
        description="Terms, formulas, proofs, and finite models from the command line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="print the canonical form, rank, and sentence flag")
    p.add_argument("kind", choices=("term", "formula"))
    p.add_argument("text")
    p.add_argument("--signature", required=True, help="signature file")
    p.set_defaults(handler=cmd_parse)

    p = sub.add_parser("subst", help="apply a substitution to a term or formula")
    p.add_argument("kind", choices=("term", "formula"))
    p.add_argument("text")
    p.add_argument("subst", help="substitution, e.g. '[f(x1) ; shift 0]'")
    p.add_argument("--signature", required=True)
    p.set_defaults(handler=cmd_subst)

    p = sub.add_parser("taut", help="propositional tautology check")
    p.add_argument("text")
    p.set_defaults(handler=cmd_taut)

    p = sub.add_parser("propalg", help="filter/valuation survey of a proposition algebra file")
    p.add_argument("algebra", help="proposition algebra file")
    p.set_defaults(handler=cmd_propalg)

    p = sub.add_parser("eval", help="check a formula in one structure")
    p.add_argument("--signature")
    p.add_argument("--structure", required=True, help="structure file or builtin zmod<m>")
    p.add_argument("--formula", required=True)
    p.add_argument("--env", help="environment for coordinates beyond the searched prefix")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("axiom", help="instantiate an axiom schema")
    p.add_argument("spec", help="instance description, e.g. 'A5(p=r(x1), subst=[x1 ; shift 0])'")
    p.add_argument("--signature", required=True)
    p.set_defaults(handler=cmd_axiom)

    p = sub.add_parser("check_proof", help="check a proof file")
    p.add_argument("proof", help="proof file")
    p.add_argument("--signature")
    p.add_argument("--theory", help="theory file for hypothesis references")
    p.add_argument("--prop", action="store_true", help="treat the file as a propositional proof")
    p.add_argument("--hyp", action="append", default=[], help="propositional hypothesis (repeatable)")
    p.set_defaults(handler=cmd_check_proof)

    p = sub.add_parser("countermodel", help="search finite structures for a counterexample")
    p.add_argument("--signature", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--max-size", type=int, default=3)
    p.add_argument("--cap", type=int, default=DEFAULT_CELLS_CAP, help="table cell bound per structure")
    p.set_defaults(handler=cmd_countermodel)

    p = sub.add_parser("qa_laws", help="check the quantifier algebra laws in one structure")
    p.add_argument("--signature")
    p.add_argument("--structure", required=True, help="structure file or builtin zmod<m>")
    p.add_argument("--rank-bound", type=int, default=2)
    p.add_argument("--depth", type=int, default=2, help="connective budget for the formula sample")
    p.set_defaults(handler=cmd_qa_laws)

    p = sub.add_parser("soundness", help="randomized axiom soundness survey")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=200, help="instances per schema")
    p.add_argument("--max-size", type=int, default=3)
    p.add_argument("--schema", help="restrict to one schema, e.g. A5")
    p.set_defaults(handler=cmd_soundness)

    p = sub.add_parser("completeness", help="filter/valuation survey of a seeded algebra corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--total", type=int, default=20, help="corpus size")
    p.set_defaults(handler=cmd_completeness)

    p = sub.add_parser("qa_survey", help="quantifier algebra laws over small function algebras")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", type=int, nargs="+", default=(1, 2, 3), help="domain sizes")
    p.add_argument("--rank-bound", type=int, default=2)
    p.add_argument(
        "--exhaustive-cap", type=int, default=64,
        help="enumerate all predicate tables when a cell has at most this many",
    )
    p.add_argument("--sampled", type=int, default=8, help="tables per sampled cell")
    p.set_defaults(handler=cmd_qa_survey)

    p = sub.add_parser("peano", help="emit or desk-check the arithmetic schemata")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--emit", action="store_true", help="print the seven schemata")
    group.add_argument("--induction", help="print the induction instance for a formula")
    group.add_argument("--check-zmod", type=int, help="check S1..S6 in the modular structure")
    p.set_defaults(handler=cmd_peano)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (LogicError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
