"""Differential tests: the parser over offset tuples against the old one.

``syntax_oracle`` keeps the tokenizer and parser that built a ``Token``
with a line and column for every lexeme.  On every input below the two
must return equal objects, or raise the same exception: same type, same
message and, for a ``ParseError``, the same line and column.  Inputs are
printed objects, sugared surface text, and those texts after one edit:
a token deleted, inserted or swapped with its neighbour, a bad character
planted, or whitespace turned into line breaks.
"""

from __future__ import annotations

import re

from hypothesis import given, strategies as st

import syntax_oracle as old
from clonelogic import syntax as new
from clonelogic.formulas import Atom, FAnd, FNot
from clonelogic.proofs import AXIOM_IDS, AxiomInstanceSpec
from clonelogic.propositional import algebra_two
from clonelogic.semantics import Env
from clonelogic.syntax import (
    format_axiom_spec,
    format_env,
    format_formula,
    format_prop_algebra,
    format_subst,
    format_term,
)
from proof_corpus import (
    MONADIC,
    MONIC,
    PREDICATE_PROOFS,
    PROPOSITIONAL_PROOFS,
    SIGNATURE,
    corpus_language,
)
from strategies import LANG, atoms, formulas, substitutions, terms

CORPUS_LANG = corpus_language()
STRUCTURE = """\
domain 2
fn c: 1
fn f: 1 0
fn g: 0 1 1 0
rel r: 0 1
rel s: 1 0 0 1
equality identity
"""


def _theory_fields(theory):
    return theory.name, theory.language, theory.formulas


# kind -> (new parser, old parser), each taking the text alone
ENTRY_POINTS = {
    "term": (lambda t: new.parse_term(t, LANG), lambda t: old.parse_term(t, LANG)),
    "formula": (
        lambda t: new.parse_formula(t, LANG),
        lambda t: old.parse_formula(t, LANG),
    ),
    "subst": (lambda t: new.parse_subst(t, LANG), lambda t: old.parse_subst(t, LANG)),
    "env": (new.parse_env, old.parse_env),
    "prop": (new.parse_prop, old.parse_prop),
    "axiom_spec": (
        lambda t: new.parse_axiom_spec(t, LANG),
        lambda t: old.parse_axiom_spec(t, LANG),
    ),
    "signature": (new.load_signature, old.load_signature),
    "structure": (
        lambda t: new.load_structure(t, LANG),
        lambda t: old.load_structure(t, LANG),
    ),
    "prop_algebra": (new.load_prop_algebra, old.load_prop_algebra),
    "theory": (
        lambda t: _theory_fields(new.load_theory(t, CORPUS_LANG)),
        lambda t: _theory_fields(old.load_theory(t, CORPUS_LANG)),
    ),
    "proof": (
        lambda t: new.load_proof(t, CORPUS_LANG),
        lambda t: old.load_proof(t, CORPUS_LANG),
    ),
    "prop_proof": (new.load_prop_proof, old.load_prop_proof),
}


def outcome(parse, text):
    try:
        return "value", parse(text)
    except Exception as exc:  # every exception must match, not only ParseError
        return "error", type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


def assert_same(kind: str, text: str) -> None:
    parse_new, parse_old = ENTRY_POINTS[kind]
    assert outcome(parse_new, text) == outcome(parse_old, text), (kind, text)


# ----- texts -----

def _prop_terms():
    return st.recursive(
        st.sampled_from([Atom("a", ()), Atom("b", ()), Atom("x1", ())]),
        lambda inner: st.one_of(inner.map(FNot), st.builds(FAnd, inner, inner)),
        max_leaves=6,
    )


def _surface(leaves, binders: bool):
    """Text over every connective spelling, and binders when asked."""
    binary = st.sampled_from(["&", "|", "->", "<->"])

    def extend(inner):
        options = [
            inner.map(lambda p: "~" + p),
            st.tuples(inner, binary, inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            inner.map(lambda p: f"({p})"),
        ]
        if binders:
            quantifier = st.sampled_from(["forall", "exists"])
            options.append(st.tuples(quantifier, inner).map(lambda t: f"{t[0]} {t[1]}"))
            options.append(
                st.tuples(quantifier, st.integers(1, 4), inner).map(
                    lambda t: f"{t[0]} x{t[1]}. {t[2]}"
                )
            )
        return st.one_of(*options)

    return st.recursive(leaves, extend, max_leaves=6)


@st.composite
def _axiom_specs(draw):
    fields = {}
    for name in ("p", "q", "r"):
        if draw(st.booleans()):
            fields[name] = draw(formulas(max_index=3))
    if draw(st.booleans()):
        fields["subst"] = draw(substitutions(max_index=3))
    if draw(st.booleans()):
        fields["var_index"] = draw(st.integers(1, 4))
    fields["gen_count"] = draw(st.integers(0, 2))
    return AxiomInstanceSpec(draw(st.sampled_from(AXIOM_IDS)), **fields)


def _envs():
    """Printed environments, and text of the same shape with negative entries."""

    def shaped(prefix, default):
        inside = ", ".join(str(v) for v in prefix)
        return f"[{inside} ; {default}]" if inside else f"[; {default}]"

    return st.one_of(
        st.builds(
            lambda prefix, default: format_env(Env(tuple(prefix), default)),
            st.lists(st.integers(0, 9), max_size=3),
            st.integers(0, 9),
        ),
        st.builds(shaped, st.lists(st.integers(-2, 9), max_size=3), st.integers(-2, 9)),
    )


SOURCES = {
    "term": terms(max_index=4).map(format_term),
    "formula": st.one_of(
        formulas(max_index=4).map(format_formula),
        _surface(atoms(max_index=4).map(format_formula), binders=True),
    ),
    "subst": substitutions(max_index=4).map(format_subst),
    "env": _envs(),
    "prop": st.one_of(
        _prop_terms().map(format_formula),
        _surface(st.sampled_from(["a", "b", "x1"]), binders=False),
    ),
    "axiom_spec": _axiom_specs().map(format_axiom_spec),
    "signature": st.just(SIGNATURE),
    "structure": st.sampled_from([STRUCTURE, STRUCTURE.replace("equality identity", "rel e: 1 0 0 1")]),
    "prop_algebra": st.just(format_prop_algebra(algebra_two())),
    "theory": st.sampled_from([MONADIC, MONIC]),
    "proof": st.sampled_from([text for _, text, _ in PREDICATE_PROOFS]),
    "prop_proof": st.sampled_from([text for _, text, _ in PROPOSITIONAL_PROOFS]),
}

# A lexeme splitter of its own, so edits do not lean on either tokenizer.
_LEXEME = re.compile(r"<->|->|-[0-9]+|[A-Za-z0-9_']+|\S")
_INSERTS = [
    "(", ")", "[", "]", ",", ";", ".", "~", "&", "|", "/", ":", "=", "->", "<->",
    "-3", "0", "7", "x1", "x0", "c", "f", "g", "r", "s", "forall", "exists",
    "shift", "const", "A1", "A9", "p", "i", "n", "subst", "by", "hyp", "mp", "gen",
    "axiom", "theory", "local", "global", "fn", "rel", "equality",
]
_BAD = ["$", "-", "<", ">", "@", "é"]
_SPACES = ["\n", " \n ", "\n\n", "\t", "\r\n"]


@st.composite
def _edited(draw, kind: str) -> str:
    text = draw(SOURCES[kind])
    spans = [m.span() for m in _LEXEME.finditer(text)]
    edit = draw(st.sampled_from(["none", "delete", "insert", "swap", "bad", "space"]))
    if edit == "delete" and spans:
        start, end = draw(st.sampled_from(spans))
        return text[:start] + text[end:]
    if edit == "insert":
        at = draw(st.sampled_from([0, len(text)] + [s for s, _ in spans]))
        return text[:at] + " " + draw(st.sampled_from(_INSERTS)) + " " + text[at:]
    if edit == "swap" and len(spans) > 1:
        k = draw(st.integers(0, len(spans) - 2))
        (a, b), (c, d) = spans[k], spans[k + 1]
        return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    if edit == "bad":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(_BAD)) + text[at:]
    if edit == "space":
        # line breaks (and tabs) in place of some spaces
        pieces = text.split(" ")
        out = pieces[0]
        for piece in pieces[1:]:
            out += (draw(st.sampled_from(_SPACES)) if draw(st.booleans()) else " ") + piece
        return out
    return text


@given(st.sampled_from(sorted(ENTRY_POINTS)).flatmap(lambda k: st.tuples(st.just(k), _edited(k))))
def test_parsers_agree_on_edited_text(case) -> None:
    kind, text = case
    assert_same(kind, text)


@given(_edited("formula"))
def test_formula_parsers_agree(text) -> None:
    assert_same("formula", text)


@given(_edited("proof"))
def test_proof_loaders_agree(text) -> None:
    assert_same("proof", text)


@given(_edited("axiom_spec"))
def test_axiom_spec_parsers_agree(text) -> None:
    assert_same("axiom_spec", text)


@given(formulas(max_index=4).map(format_formula), st.integers(1, 5), st.data())
def test_multiline_formula_positions_agree(text, breaks, data) -> None:
    """Errors past a line break: the line counts breaks before the token and
    the column restarts after the last one."""
    spans = [m.start() for m in _LEXEME.finditer(text)]
    for _ in range(breaks):
        at = data.draw(st.sampled_from(spans))
        text = text[:at] + "\n  " + text[at:]
        spans = [m.start() for m in _LEXEME.finditer(text)]
    broken = text + data.draw(st.sampled_from(["", " )", "\n$", "\n\n~", " x1"]))
    assert_same("formula", broken)


@given(st.data())
def test_multiline_files_agree(data) -> None:
    """Loaders tokenize each stripped line with its line number as the
    start line; edits on one line must report that line."""
    kind = data.draw(st.sampled_from(
        ["proof", "theory", "prop_proof", "signature", "structure", "prop_algebra"]
    ))
    lines = data.draw(SOURCES[kind]).splitlines()
    k = data.draw(st.integers(0, len(lines) - 1))
    edit = data.draw(st.sampled_from(["indent", "comment", "blank", "delete", "duplicate", "token"]))
    if edit == "indent":
        lines[k] = "   " + lines[k]
    elif edit == "comment":
        lines.insert(k, "# a comment line")
    elif edit == "blank":
        lines.insert(k, "   ")
    elif edit == "delete":
        del lines[k]
    elif edit == "duplicate":
        lines.insert(k, lines[k])
    else:
        spans = [m.span() for m in _LEXEME.finditer(lines[k])]
        if spans:
            start, end = data.draw(st.sampled_from(spans))
            replacement = data.draw(st.sampled_from(_INSERTS + _BAD + [""]))
            lines[k] = lines[k][:start] + replacement + lines[k][end:]
    assert_same(kind, "\n".join(lines) + "\n")


def test_fixed_error_positions_agree() -> None:
    cases = [
        ("term", "f(x1"),
        ("term", "f($)"),
        ("term", "f(x1) -"),
        ("term", ""),
        ("formula", "~\n&"),
        ("formula", "(r(x1)\n  &\n  $)"),
        ("formula", "forall x1"),
        ("formula", "forall x1."),
        ("formula", "exists x3 . r(x3)"),
        ("formula", "(r(x1) <- r(x2))"),
        ("formula", "\n\n   missing(x1)"),
        ("formula", "s(x1)\r\n"),
        ("subst", "[]"),
        ("subst", "[x1 ; shift -5]"),
        ("subst", "[x1 ; twist 2]"),
        ("env", "[1, -2 ; 0]"),
        ("env", "[1 2 ; 0]"),
        ("prop", "(a -> "),
        ("axiom_spec", "A9(p=r(x1))"),
        ("axiom_spec", "A5(p=r(x1) q=r(x2))"),
        ("axiom_spec", "A7(i=x1)"),
        ("axiom_spec", "A1(z=r(x1))"),
        ("proof", "local\n1. r(x1) by hyp 0"),
        ("proof", "local\n  2. r(x1) by hyp 1"),
        ("proof", "local\n1. r(x1) by mp 1 1"),
        ("proof", "local\n1. r(x1) by wish 1"),
        ("proof", "sideways\n1. r(x1) by hyp 1"),
        ("proof", "# header\n\nglobal\ntheory t\n1. r(x1) by subst 1 [f(x1)]"),
        ("theory", "theory t\nr(x1)\n   r(x1, x2)\n"),
        ("prop_proof", "1. a by A4(p=a)"),
        ("prop_proof", "1. a by mp 1 1"),
        ("signature", "fn f/1\nrel f/2"),
        ("signature", "fn f/1\nfunction g/1"),
        ("structure", "domain 2\nrel r: 0 1\nrel s: 1 0 0 1\n  tables\n"),
        ("structure", "rel r: 0 1"),
        ("prop_algebra", "size 2\nnot: 1 0\nand 0: 0 x\n"),
        ("prop_algebra", "size 2\nnot: 1 0\nand 0 0 0\n"),
    ]
    for kind, text in cases:
        assert_same(kind, text)
