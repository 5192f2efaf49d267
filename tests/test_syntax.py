"""Parsers, printers, and the text file formats."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from clonelogic.errors import ParseError
from clonelogic.formulas import (
    Atom,
    FAnd,
    FNot,
    Forall,
    exists,
    exists_xi,
    f_iff,
    f_imp,
    f_or,
    forall_xi,
)
from clonelogic.proofs import (
    AxiomInstanceSpec,
    ByAxiom,
    ByGen,
    ByHyp,
    ByMP,
    BySubst,
    check_proof,
)
from clonelogic.propositional import algebra_two, check_prop_proof
from clonelogic.sampling import random_prop_algebra
from clonelogic.semantics import Env, zmod_structure
from clonelogic.syntax import (
    format_axiom_spec,
    format_env,
    format_formula,
    format_prop_algebra,
    format_structure,
    format_subst,
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
from clonelogic.terms import App, Var, subst_from_list

from strategies import LANG, formulas, substitutions, terms

x1, x2 = Var(1), Var(2)


# ------------- round trips -------------

@given(terms())
def test_term_round_trip(t) -> None:
    assert parse_term(format_term(t), LANG) == t


@given(formulas(max_index=4))
def test_formula_round_trip(p) -> None:
    assert parse_formula(format_formula(p), LANG) == p


@given(substitutions(max_index=4))
def test_subst_round_trip(sub) -> None:
    assert parse_subst(format_subst(sub), LANG) == sub


@given(st.lists(st.integers(0, 9), max_size=4), st.integers(0, 9))
def test_env_round_trip(prefix, default) -> None:
    env = Env(tuple(prefix), default)
    assert parse_env(format_env(env)) == env


_prop_terms = st.recursive(
    st.sampled_from([Atom("a", ()), Atom("b", ()), Atom("c", ()), Atom("x1", ())]),
    lambda inner: st.one_of(
        inner.map(FNot),
        st.tuples(inner, inner).map(lambda pair: FAnd(*pair)),
    ),
    max_leaves=8,
)


@given(_prop_terms)
def test_prop_round_trip(p) -> None:
    assert parse_prop(format_formula(p)) == p


def test_prop_letters_are_shared_nullary_atoms() -> None:
    # A letter is any word, variable-shaped ones included: no language is involved.
    p = parse_prop("(x1 -> (forall & x1))")
    assert p == f_imp(Atom("x1", ()), FAnd(Atom("forall", ()), Atom("x1", ())))
    assert p.body.left.body.body is p.body.right.body.right


def test_axiom_spec_round_trip() -> None:
    specs = [
        AxiomInstanceSpec("A1", p=Atom("r", (x1,))),
        AxiomInstanceSpec("A3", p=Atom("r", (x1,)), q=Atom("r", (x2,)),
                          r=Atom("e", (x1, x2))),
        AxiomInstanceSpec("A5", p=Atom("s", (x1, x2)),
                          subst=subst_from_list([App("f", (x1,)), x1]), gen_count=2),
        AxiomInstanceSpec("A7", var_index=3),
    ]
    for spec in specs:
        assert parse_axiom_spec(format_axiom_spec(spec), LANG) == spec


# ------------- parser behaviors -------------

def test_named_binders_desugar() -> None:
    body = Atom("s", (x2, x1))
    assert parse_formula("forall x2. s(x2, x1)", LANG) == forall_xi(2, body)
    assert parse_formula("exists x2. s(x2, x1)", LANG) == exists_xi(2, body)
    assert parse_formula("forall s(x2, x1)", LANG) == Forall(body)
    assert parse_formula("exists s(x2, x1)", LANG) == exists(body)


def test_connective_sugar_desugars() -> None:
    r1, r2 = Atom("r", (x1,)), Atom("r", (x2,))
    assert parse_formula("(r(x1) & r(x2))", LANG) == FAnd(r1, r2)
    assert parse_formula("(r(x1) | r(x2))", LANG) == f_or(r1, r2)
    assert parse_formula("(r(x1) -> r(x2))", LANG) == f_imp(r1, r2)
    assert parse_formula("(r(x1) <-> r(x2))", LANG) == f_iff(r1, r2)
    assert parse_formula("((r(x1)))", LANG) == r1
    assert parse_formula("~~r(x1)", LANG) == FNot(FNot(r1))


def test_nullary_application_prints_bare() -> None:
    c = App("c", ())
    assert format_term(c) == "c"
    assert parse_term("c", LANG) == c
    assert parse_term("c()", LANG) == c


def test_subst_list_sugar() -> None:
    listed = parse_subst("[f(x1), c]", LANG)
    assert listed == subst_from_list([App("f", (x1,)), App("c", ())])
    empty_tail = parse_subst("[; shift 2]", LANG)
    assert empty_tail.prefix == () and empty_tail.tail.offset == 2


def test_parse_errors_carry_positions() -> None:
    with pytest.raises(ParseError) as err:
        parse_term("f(x1", LANG)
    assert err.value.line == 1 and err.value.col == 5
    with pytest.raises(ParseError, match="line 2"):
        parse_formula("~\n&", LANG)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_term("f($)", LANG)
    with pytest.raises(ParseError, match="unknown predicate"):
        parse_formula("missing(x1)", LANG)
    with pytest.raises(ParseError, match="expects 2 argument"):
        parse_formula("s(x1)", LANG)
    with pytest.raises(ParseError, match="expects 1 argument"):
        parse_term("f(x1, x2)", LANG)
    with pytest.raises(ParseError, match="end of input"):
        parse_term("x1 x2", LANG)
    with pytest.raises(ParseError, match="explicit tail"):
        parse_subst("[]", LANG)
    with pytest.raises(ParseError, match="below 1"):
        parse_subst("[x1 ; shift -5]", LANG)
    with pytest.raises(ParseError, match="unknown axiom"):
        parse_axiom_spec("A9(p=r(x1))", LANG)


# ------------- signature files -------------

SIG_TEXT = """# arithmetic signature
fn 0/0
fn S/1
fn add/2
fn mul/2
rel e/2 equality
"""


def test_signature_loads() -> None:
    lang = load_signature(SIG_TEXT)
    assert lang.functions.arity("add") == 2
    assert lang.equality == "e"
    assert parse_formula("~e(0, S(x1))", lang) == FNot(
        Atom("e", (App("0", ()), App("S", (x1,))))
    )


def test_signature_rejects_duplicates_and_bad_heads() -> None:
    with pytest.raises(ParseError, match="duplicate"):
        load_signature("fn f/1\nrel f/2")
    with pytest.raises(ParseError, match="'fn' or 'rel'"):
        load_signature("function f/1")


# ------------- structure files -------------

def test_structure_round_trip_zmod() -> None:
    z5 = zmod_structure(5)
    text = format_structure(z5)
    lang = load_signature(SIG_TEXT)
    again = load_structure(text, lang)
    assert again == z5
    assert "equality identity" in text


def test_structure_explicit_equality_table() -> None:
    lang = load_signature("rel e/2 equality\nrel r/1")
    text = "domain 2\nrel r: 1 0\nrel e: 1 1 0 1\n"
    loose = load_structure(text, lang)
    assert not loose.eq_identity
    assert loose.rel_tables["e"] == (1, 1, 0, 1)
    rebuilt = load_structure(format_structure(loose), lang)
    assert rebuilt == loose


def test_structure_file_errors() -> None:
    lang = load_signature("rel r/1")
    with pytest.raises(ParseError, match="domain"):
        load_structure("rel r: 1 0", lang)
    with pytest.raises(ValueError, match="missing relation table"):
        load_structure("domain 2", lang)


# ------------- proposition algebra files -------------

def test_prop_algebra_round_trip() -> None:
    import random

    for algebra in (algebra_two(), random_prop_algebra(random.Random(9), 5)):
        text = format_prop_algebra(algebra)
        assert load_prop_algebra(text) == algebra


def test_prop_algebra_file_errors() -> None:
    with pytest.raises(ParseError, match="'size' and 'not'"):
        load_prop_algebra("size 2")
    with pytest.raises(ParseError, match="rows 0..1"):
        load_prop_algebra("size 2\nnot: 1 0\nand 0: 0 0")


# ------------- theory and proof files -------------

THEORY_TEXT = """theory shapes
r(x1)
forall e(x1, x1)
"""

PROOF_TEXT = """# derive something global
global
theory shapes
1. r(x1) by hyp 1
2. r(f(x1)) by subst 1 [f(x1)]
3. forall r(f(x1)) by gen 2
4. (r(x1) -> (r(x1) & r(x1))) by axiom A1(p=r(x1))
5. (r(x1) & r(x1)) by mp 1 4
"""


def test_theory_and_proof_files_check() -> None:
    theory = load_theory(THEORY_TEXT, LANG)
    assert theory.name == "shapes" and len(theory.formulas) == 2
    proof, name = load_proof(PROOF_TEXT, LANG)
    assert name == "shapes"
    assert proof.kind == "global" and len(proof.steps) == 5
    assert proof.steps[0].by == ByHyp(0)
    assert proof.steps[2].by == ByGen(1)
    assert proof.steps[4].by == ByMP(0, 3)
    assert isinstance(proof.steps[1].by, BySubst)
    assert isinstance(proof.steps[3].by, ByAxiom)
    assert check_proof(proof, theory).ok


def test_proof_file_errors() -> None:
    with pytest.raises(ParseError, match="'local' or 'global'"):
        load_proof("sideways\n1. r(x1) by hyp 1", LANG)
    with pytest.raises(ParseError, match="expected step number 1"):
        load_proof("local\n2. r(x1) by hyp 1", LANG)
    with pytest.raises(ParseError, match="1-based"):
        load_proof("local\n1. r(x1) by hyp 0", LANG)
    with pytest.raises(ParseError, match="out of range"):
        load_proof("local\n1. r(x1) by mp 1 1", LANG)
    with pytest.raises(ParseError, match="expected 'axiom'"):
        load_proof("local\n1. r(x1) by wish 1", LANG)


PROP_PROOF_TEXT = """1. a by hyp 1
2. (a -> (a & a)) by A1(p=a)
3. (a & a) by mp 1 2
"""


def test_prop_proof_file_checks() -> None:
    proof = load_prop_proof(PROP_PROOF_TEXT)
    a = Atom("a", ())
    assert proof.kind == "local"
    assert proof.steps[0].by == ByHyp(0)
    assert proof.steps[1].by == ByAxiom(AxiomInstanceSpec("A1", p=a))
    assert proof.steps[2].by == ByMP(0, 1)
    assert check_prop_proof(proof, [a]).ok
    # one Atom per letter across the lines of a file
    assert proof.steps[0].formula is proof.steps[1].by.spec.p
    renamed = load_prop_proof(PROP_PROOF_TEXT.replace("a", "x1"))
    assert check_prop_proof(renamed, [Atom("x1", ())]).ok


def test_prop_proof_file_errors() -> None:
    with pytest.raises(ParseError, match="out of range"):
        load_prop_proof("1. a by mp 1 1")
    with pytest.raises(ParseError, match="expected 'A1', 'A2', 'A3'"):
        load_prop_proof("1. a by A4(p=a)")
