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
from clonelogic.semantics import MAX_TRUTH_BITS, Env, Structure, zmod_structure
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


@pytest.mark.parametrize(
    "text, message",
    [
        # A variable-shaped name is refused at the name.
        ("fn f/1\nrel r/2\nrel x1/0", "line 3, column 5: symbol name 'x1' would collide with a variable"),
        ("# comment\n\n  fn x7/1\nrel r/1", "line 3, column 4: symbol name 'x7' would collide with a variable"),
        # A negative arity at the integer.
        ("fn f/-1", "line 1, column 6: negative arity for 'f'"),
        ("rel r/2\nrel s / -3", "line 2, column 9: negative arity for 's'"),
        # A non-binary equality symbol at the 'equality' word.
        ("rel e/1 equality", "line 1, column 9: equality symbol 'e' must be binary"),
        # So is a second equality symbol, which used to replace the first.
        (
            "rel e/2 equality\nrel f/2 equality",
            "line 2, column 9: 'e' is already the equality symbol",
        ),
    ],
)
def test_signature_errors_name_their_position(text, message) -> None:
    with pytest.raises(ParseError) as info:
        load_signature(text)
    assert str(info.value) == message


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


def test_multi_bit_structure_round_trip() -> None:
    lang = load_signature("fn h/1\nrel r/2\nrel e/2 equality")
    four = Structure(lang, 2, {"h": (1, 0)}, {"r": (0, 1, 2, 3)}, truth_bits=2)
    text = format_structure(four)
    assert text == "domain 2\nbits 2\nfn h: 1 0\nrel r: 0 1 2 3\nequality identity\n"
    again = load_structure(text, lang)
    assert again == four and again.truth_bits == 2
    assert again.rel_tables["e"] == (3, 0, 0, 3)
    loose = Structure(lang, 2, {"h": (0, 0)}, {"r": (3, 3, 3, 3), "e": (3, 1, 2, 3)},
                      eq_identity=False, truth_bits=2)
    assert load_structure(format_structure(loose), lang) == loose
    # One-bit structures print no bits line, as before the line existed.
    assert "bits" not in format_structure(zmod_structure(3))
    assert load_structure("domain 1\nbits 1\nfn h: 0\nrel r: 1\n", lang) == load_structure(
        "domain 1\nfn h: 0\nrel r: 1\n", lang
    )


@pytest.mark.parametrize("line", ["bits 0", "bits -2", f"bits {MAX_TRUTH_BITS + 1}"])
def test_structure_bits_outside_the_cap(line) -> None:
    lang = load_signature("rel r/1")
    with pytest.raises(ParseError, match=f"line 2, column 6: bits must be between 1 and {MAX_TRUTH_BITS}"):
        load_structure(f"domain 2\n{line}\nrel r: 0 1\n", lang)
    with pytest.raises(ValueError, match="outside 0..3"):
        load_structure("domain 2\nbits 2\nrel r: 0 4\n", lang)


@pytest.mark.parametrize(
    "text, message",
    [
        # A repeated single line is refused at its head word ...
        ("domain 2\ndomain 3\nrel r: 0 1\n", "line 2, column 1: duplicate 'domain' line"),
        ("domain 2\nbits 1\nrel r: 0 1\nbits 2\n", "line 4, column 1: duplicate 'bits' line"),
        (
            "domain 2\nequality identity\nrel r: 0 1\nequality identity\n",
            "line 4, column 1: duplicate 'equality' line",
        ),
        # ... and a repeated table at its name, which used to replace the first.
        ("domain 2\nrel r: 0 1\nrel r: 1 1\n", "line 3, column 5: duplicate table for 'r'"),
        ("domain 2\nfn h: 0 1\nrel r: 0 1\nfn  h: 1 0\n", "line 4, column 5: duplicate table for 'h'"),
        # A table is checked at its name: its symbol, its count, its entries.
        ("domain 3\nrel r: 0 1\n", "line 2, column 5: relation table for 'r' has 2 entries, expected 3"),
        ("domain 2\nrel q: 0 1\nrel r: 0 1\n", "line 2, column 5: table for undeclared relation symbol 'q'"),
        ("domain 2\nrel r: 0 1\nfn g: 1 0\n", "line 3, column 4: table for undeclared function symbol 'g'"),
        ("domain 2\nfn h: 0 2\nrel r: 0 1\n", "line 2, column 4: function table for 'h' holds 2, outside 0..1"),
        ("domain 2\nbits 2\nrel r: 0 4\n", "line 3, column 5: relation table for 'r' holds 4, outside 0..3"),
        # Tables may come before the domain line, and are checked in file order.
        ("rel r: 0 1 1\nfn h: 5\ndomain 2\n", "line 1, column 5: relation table for 'r' has 3 entries, expected 2"),
        ("fn h: 0 1\nrel r: 0 7\nrel q: 1\ndomain 2\n", "line 2, column 5: relation table for 'r' holds 7, outside 0..1"),
        # A domain below 1 is refused at its integer.
        ("domain 0\nrel r:\n", "line 1, column 8: domain size must be >= 1"),
    ],
)
def test_structure_errors_name_their_position(text, message) -> None:
    lang = load_signature("fn h/1\nrel r/1")
    with pytest.raises(ParseError) as info:
        load_structure(text, lang)
    assert str(info.value) == message


def test_structure_equality_table_is_checked_at_its_name() -> None:
    lang = load_signature("rel e/2 equality\nrel r/1")
    text = "domain 2\nrel r: 0 1\nrel e: 1 1 0 1\nequality identity\n"
    with pytest.raises(ParseError) as info:
        load_structure(text, lang)
    assert str(info.value) == (
        "line 3, column 5: structure is flagged equality-preserving but the "
        "equality table is not the identity relation"
    )
    # Without the flag the same table loads as a loose equality.
    assert not load_structure(text.replace("equality identity\n", ""), lang).eq_identity


def test_structure_table_refusals_stay_value_errors() -> None:
    # The positioned refusals are still ValueErrors, as they were unpositioned.
    lang = load_signature("rel r/1")
    with pytest.raises(ValueError, match="line 1, column 8: domain size"):
        load_structure("domain -1\n", lang)
    with pytest.raises(ValueError, match="^missing relation table for 'r'$"):
        load_structure("domain 2\n", lang)


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


@pytest.mark.parametrize(
    "text, message",
    [
        # A repeated single line is refused at its head word ...
        ("size 2\nnot: 1 0\nsize 2\n", "line 3, column 1: duplicate 'size' line"),
        ("size 2\nnot: 1 0\nand 0: 0 0\nnot: 0 1\n", "line 4, column 1: duplicate 'not' line"),
        # ... and a repeated 'and' row at its index, which used to replace the first.
        (
            "size 2\nnot: 1 5\nand 0: 1 1\nand 0: 0 0\nand 1: 0 1\n",
            "line 4, column 5: duplicate 'and' row 0",
        ),
        # A row is checked at its line: its length, then its entries.
        ("size 2\nnot: 1 5\nand 0: 0 0\nand 1: 0 1\n", "line 2, column 1: negation table entry out of range"),
        (
            "size 2\nnot: 1 0\nand 1: 0 1\nand 0: 0 -1\n",
            "line 4, column 1: conjunction table entry out of range",
        ),
        (
            "size 2\nnot: 1 0 1\nand 0: 0 0\nand 1: 0 1\n",
            "line 2, column 1: negation table row has 3 entries, expected 2",
        ),
        (
            "size 2\nnot: 1 0\nand 0: 0 0\nand 1: 0 1 1\n",
            "line 4, column 1: conjunction table row has 3 entries, expected 2",
        ),
        # Rows are checked in file order.
        (
            "and 1: 0 9\nsize 2\nand 0: 0\nnot: 1 0\n",
            "line 1, column 1: conjunction table entry out of range",
        ),
        # The whole-file refusals come first and keep line 1, column 1.
        ("size 2\nnot: 1 5\nand 1: 0 1\n", "line 1, column 1: expected 'and' rows 0..1"),
        ("not: 1 5\nand 0: 0 0\nand 1: 0 1\n", "line 1, column 1: algebra file needs 'size' and 'not' lines"),
    ],
)
def test_prop_algebra_errors_name_their_position(text, message) -> None:
    with pytest.raises(ParseError) as info:
        load_prop_algebra(text)
    assert str(info.value) == message


def test_empty_prop_algebra_is_refused_as_a_whole() -> None:
    # An empty carrier belongs to no row, so its refusal names no line.
    with pytest.raises(ValueError, match="^carrier must be nonempty$"):
        load_prop_algebra("size 0\nnot:\n")


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
