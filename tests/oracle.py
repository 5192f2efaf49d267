"""Recursive reference walks, the oracles for the package's fast paths.

The evaluator walks the formula tree once per environment, as the
package did before formulas were evaluated as whole tables, and
``oracle_eval_term`` walks each term down the tree, as ``eval_term`` did
before it read the term's column.  Each ``oracle_*`` function restates a
library entry point on top of them.
``oracle_check_formula`` is the well-formedness check as it was before
it became an explicit-stack walk over shared nodes, and
``oracle_consequence`` is the truth-table route propositional
tautologies took before they became the countermodel search at size 1.
``structurally_equal`` is term and formula equality as it was before
nodes were interned, field by field down the tree, and ``rebuild``
makes a node again from its fields, bottom up.  ``oracle_fsubst`` is
substitution as it was before ``fsubst`` read the lifted substitution
per variable: it builds ``lift(sub)`` at every binder.
"""

from __future__ import annotations

import itertools

from clonelogic.errors import ArityMismatch, LogicError
from clonelogic.formulas import (
    Atom,
    FAnd,
    FNot,
    Forall,
    equality_atom,
    fplus,
    frank,
    fstar,
    fsubst,
)
from clonelogic.semantics import (
    Env,
    LawFailure,
    LawReport,
    PerfectReport,
    QAReport,
    WitnessEntry,
    enumerate_structures,
    table_index,
)
from clonelogic.terms import App, Var, apply, cons_subst, lift


_FIELDS = {Var: ("index",), App: ("symbol", "args"), Atom: ("symbol", "args"),
           FNot: ("body",), FAnd: ("left", "right"), Forall: ("body",)}


def structurally_equal(a, b) -> bool:
    """Same node type and equal fields, recursively; tuples elementwise."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        return (
            isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b)
            and all(structurally_equal(x, y) for x, y in zip(a, b))
        )
    if type(a) in _FIELDS or type(b) in _FIELDS:
        return type(a) is type(b) and all(
            structurally_equal(getattr(a, name), getattr(b, name)) for name in _FIELDS[type(a)]
        )
    return a == b


def rebuild(node):
    """The node built again from its fields, children first."""
    if isinstance(node, tuple):
        return tuple(rebuild(x) for x in node)
    if type(node) in _FIELDS:
        return type(node)(*(rebuild(getattr(node, name)) for name in _FIELDS[type(node)]))
    return node


def oracle_fsubst(formula, sub):
    """``fsubst`` by the definition: lift the substitution under each binder."""
    match formula:
        case Atom(symbol, args):
            return Atom(symbol, tuple(apply(t, sub) for t in args))
        case FNot(body):
            return FNot(oracle_fsubst(body, sub))
        case FAnd(left, right):
            return FAnd(oracle_fsubst(left, sub), oracle_fsubst(right, sub))
        case Forall(body):
            return Forall(oracle_fsubst(body, lift(sub)))


def oracle_check_term(term, functions) -> None:
    match term:
        case Var(_):
            return
        case App(symbol, args):
            expected = functions.arity(symbol)
            if len(args) != expected:
                raise ArityMismatch(symbol, expected, len(args))
            for a in args:
                oracle_check_term(a, functions)


def oracle_check_formula(formula, language) -> None:
    match formula:
        case Atom(symbol, args):
            expected = language.predicates.arity(symbol)
            if len(args) != expected:
                raise ArityMismatch(symbol, expected, len(args))
            for t in args:
                oracle_check_term(t, language.functions)
        case FNot(body):
            oracle_check_formula(body, language)
        case FAnd(left, right):
            oracle_check_formula(left, language)
            oracle_check_formula(right, language)
        case Forall(body):
            oracle_check_formula(body, language)


def oracle_eval_term(structure, term, env: Env) -> int:
    """Value of the term under one environment, read down the tree."""
    match term:
        case Var(index):
            return env.at(index)
        case App(symbol, args):
            table = structure.fn_tables.get(symbol)
            if table is None:
                raise LogicError(f"no function table for {symbol!r}")
            values = tuple(oracle_eval_term(structure, a, env) for a in args)
            return table[table_index(values, structure.size)]
    raise TypeError(f"not a term: {term!r}")


def oracle_eval(structure, algebra, formula, env: Env) -> int:
    """Value of the formula under one environment, as a bitmask."""
    match formula:
        case Atom(symbol, args):
            values = tuple(oracle_eval_term(structure, a, env) for a in args)
            return structure.rel_tables[symbol][table_index(values, structure.size)]
        case FNot(body):
            return algebra.complement(oracle_eval(structure, algebra, body, env))
        case FAnd(left, right):
            return algebra.meet(
                oracle_eval(structure, algebra, left, env),
                oracle_eval(structure, algebra, right, env),
            )
        case Forall(body):
            return algebra.meet_all(
                oracle_eval(structure, algebra, body, env.cons(element))
                for element in range(structure.size)
            )
    raise TypeError(f"not a formula: {formula!r}")


def oracle_counterexample_env(structure, algebra, formula, base: Env | None = None):
    k = frank(formula)
    tail = Env() if base is None else base
    rest = tail.prefix[k:]
    for prefix in itertools.product(range(structure.size), repeat=k):
        env = Env(prefix + rest, tail.default)
        if oracle_eval(structure, algebra, formula, env) != algebra.top:
            return env
    return None


def oracle_countermodel(language, algebra, formula, max_size: int):
    """First countermodel by full enumeration, every symbol included."""
    for size in range(1, max_size + 1):
        for structure in enumerate_structures(language, size):
            if oracle_counterexample_env(structure, algebra, formula) is not None:
                return structure
    return None


def oracle_qa_law_check(structure, algebra, sample, rank_bound: int) -> QAReport:
    """The Q1..Q5 checks environment by environment: both sides of each
    instance under every prefix of length min(side rank, rank_bound + 1)
    in ascending order, each with default 0."""

    def run_law(law, instances):
        checked = 0
        for p, q, left, right in instances:
            depth = min(max(frank(left), frank(right)), rank_bound + 1)
            for prefix in itertools.product(range(structure.size), repeat=depth):
                env = Env(prefix, 0)
                checked += 1
                lv = oracle_eval(structure, algebra, left, env)
                rv = oracle_eval(structure, algebra, right, env)
                if lv != rv:
                    return LawReport(law, False, checked, LawFailure(p, q, env, lv, rv))
        return LawReport(law, True, checked)

    def q1_instances():
        n = len(sample)
        for offset in sorted({0, 1 % n, n // 2}) if n else []:
            for i, p in enumerate(sample):
                q = sample[(i + offset) % n]
                yield p, q, Forall(FAnd(p, q)), FAnd(Forall(p), Forall(q))

    reports = [
        run_law("Q1", q1_instances()),
        run_law("Q2", (
            (p, None, fplus(Forall(p)), FAnd(fplus(Forall(p)), p)) for p in sample
        )),
        run_law("Q3", ((p, None, Forall(fplus(p)), p) for p in sample)),
    ]
    if structure.language.equality is not None:
        e = equality_atom(structure.language)
        reports.append(run_law("Q4", [(e, None, fstar(e), FNot(FAnd(e, FNot(e))))]))
        reports.append(run_law("Q5", (
            (p, None, FAnd(e, p), FAnd(e, fstar(p))) for p in sample
        )))
    return QAReport(tuple(reports))



def oracle_perfect_check(structure, algebra, env: Env, candidates, sample) -> PerfectReport:
    """The witness checks, each formula walked under the one environment."""

    def holds(formula):
        return oracle_eval(structure, algebra, formula, env) == algebra.top

    entries = []
    for p in sample:
        if holds(Forall(p)):
            ok = all(holds(fsubst(p, cons_subst(a))) for a in candidates)
            entries.append(WitnessEntry(p, "universal", ok))
            continue
        witness = next(
            (a for a in candidates if holds(fsubst(FNot(p), cons_subst(a)))), None
        )
        entries.append(WitnessEntry(
            p, "negated-universal", witness is not None, witness,
            inconclusive=witness is None,
        ))
    return PerfectReport(tuple(entries))


def _prop_value(formula, row: dict[str, bool]) -> bool:
    match formula:
        case Atom(letter, ()):
            return row[letter]
        case FNot(body):
            return not _prop_value(body, row)
        case FAnd(left, right):
            return _prop_value(left, row) and _prop_value(right, row)
    raise TypeError(f"not a proposition: {formula!r}")


def _prop_letters(formula, out: set[str]) -> set[str]:
    match formula:
        case Atom(letter, ()):
            out.add(letter)
        case FNot(body):
            _prop_letters(body, out)
        case FAnd(left, right):
            _prop_letters(left, out)
            _prop_letters(right, out)
    return out


def oracle_consequence(hypotheses, formula) -> bool:
    """Every row of the truth table that makes all hypotheses true makes
    the formula true; with no hypotheses, the formula is a tautology."""
    letters = set()
    for p in (*hypotheses, formula):
        _prop_letters(p, letters)
    order = sorted(letters)
    for values in itertools.product((False, True), repeat=len(order)):
        row = dict(zip(order, values))
        if all(_prop_value(h, row) for h in hypotheses) and not _prop_value(formula, row):
            return False
    return True
