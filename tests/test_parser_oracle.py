"""Differential tests: the offset parser against the old one.

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

import pytest
from hypothesis import given, strategies as st

import syntax_oracle as old
from clonelogic import syntax as new
from clonelogic.errors import ParseError
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
                st.tuples(quantifier, st.integers(1, 12), inner).map(
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
        ("signature", "fn f/1\nrel r/2\nrel x1/0"),
        ("signature", "fn x1/"),
        ("signature", "fn f/-1"),
        ("signature", "rel e/1 equality"),
        ("signature", "rel e/2 equality\nrel f/2 equality"),
        ("structure", "domain 2\nrel r: 0 1\nrel s: 1 0 0 1\n  tables\n"),
        ("structure", "rel r: 0 1"),
        ("structure", "domain 2\nrel r: 0 1\nrel r: 1 1\n"),
        ("structure", "domain 2\ndomain 3\nrel r: 0 1\n"),
        ("structure", "domain 2\nbits 2\nbits 1\n"),
        ("structure", "domain 2\nequality identity\nequality identity\n"),
        ("structure", "domain 3\nrel r: 0 1\n"),
        ("structure", "domain 2\nrel q: 0 1\nrel r: 0 1\n"),
        ("structure", "rel r: 0 1 1\nfn f: 0 5\ndomain 2\n"),
        ("structure", "domain 2\nfn f: 0 5\n"),
        ("structure", "domain 0\n"),
        ("structure", "domain 2\nrel e: 1 1 0 1\nequality identity\n"),
        ("prop_algebra", "size 2\nnot: 1 0\nand 0: 0 x\n"),
        ("prop_algebra", "size 2\nnot: 1 0\nand 0 0 0\n"),
        ("prop_algebra", "size 2\nnot: 1 5\nand 0: 0 0\nand 1: 0 1\n"),
        ("prop_algebra", "size 2\nnot: 1 5\nand 0: 1 1\nand 0: 0 0\nand 1: 0 1\n"),
        ("prop_algebra", "size 2\nnot: 1 0\nsize 3\n"),
        ("prop_algebra", "size 2\nnot: 1 0\nnot: 0 1\n"),
        ("prop_algebra", "size 2\nnot: 1 0\nand 0: 0 0\nand 1: 0 1 1\n"),
        ("prop_algebra", "and 1: 0 9\nsize 2\nand 0: 0\nnot: 1 0\n"),
        ("prop_algebra", "size 0\nnot:\n"),
    ]
    for kind, text in cases:
        assert_same(kind, text)


def test_repeated_groups_agree() -> None:
    """Files that restate a group: the per-file memo must give what a
    fresh parse gives, and failed groups must not enter it."""
    cases = [
        # The same ill-formed group on two lines reports the first one.
        ("proof", "local\n1. (r(x1) & r(x1, x2)) by hyp 1\n2. (r(x1) & r(x1, x2)) by hyp 1\n"),
        ("theory", "theory t\n(s(x1, x2) & q(x1))\n~(s(x1, x2) & q(x1))\n"),
        ("prop_proof", "1. (a & ) by hyp 1\n2. (a & ) by hyp 1\n"),
        # A group in a step formula and again in its axiom parameters.
        ("proof", "local\n1. ((r(x1) & r(x1)) -> ((r(x1) & r(x1)) & (r(x1) & r(x1)))) "
                  "by axiom A1(p=(r(x1) & r(x1)))\n"),
        ("proof", "local\n1. ((r(x1) & r(x1)) -> ((r(x1) & r(x1)) & (r(x1) & r(x1)))) "
                  "by axiom A1(p=(r(x1) & r(x1))\n"),
        ("prop_proof", "1. ((a | b) -> ((a | b) & (a | b))) by A1(p=(a | b))\n"
                       "2. (a | b) by hyp 1\n3. ((a | b) & (a | b)) by mp 2 1\n"),
        # A group's text again as an argument list, where the memo is not
        # consulted: r is no function symbol.
        ("proof", "local\n1. (r(x1)) by hyp 1\n2. s(c, f(r(x1))) by hyp 1\n"),
        ("proof", "local\n1. r(f(x1)) by hyp 1\n2. (f(x1)) by hyp 1\n"),
        ("theory", "theory t\n(r(x1))\nr((r(x1)))\n"),
        # A hit followed by an error on the same line.
        ("proof", "local\n1. (r(x1) & r(x2)) by hyp 1\n2. ((r(x1) & r(x2)) & ) by hyp 1\n"),
        ("proof", "local\n1. (r(x1) & r(x2)) by hyp 1\n2. ((r(x1) & r(x2)) r(x1)) by hyp 1\n"),
        # The memo is keyed by source text: a group restated with other
        # spacing, or with a tab, is read afresh and gives the same node.
        ("theory", "theory t\n(r(x1) & s(x1, x2))\n(r(x1)&s(x1,x2))\n( r(x1) &  s(x1 , x2) )\n"
                   "~(r(x1)\t& s(x1,\tx2))\n(r(x1) & s(x1, x2))\n"),
        ("prop_proof", "1. (a & b) by hyp 1\n2. (a&b) by hyp 1\n3. ((a\t& b) -> (a &b)) by hyp 1\n"),
        # Groups shorter than the lookup prefix, restated before other text,
        # at the end of a line, and inside longer groups.
        ("prop_proof", "1. (a & b) by hyp 1\n2. ((a & b) -> c) by hyp 1\n3. (c -> (a & b)) by hyp 1\n"
                       "4. ~(a & b) by A1(p=(a & b), q=(a | b))\n"),
        ("theory", "theory t\n(r(c))\n((r(c)) & r(c))\n(r(x1) & (r(c)))\n~(r(c))\n"),
        # A hit followed at once by a token.
        ("proof", "local\n1. (r(x1) & r(x2)) by hyp 1\n2. ((r(x1) & r(x2))& (r(x1) & r(x2)))by hyp 1\n"),
        ("prop_proof", "1. (a | b) by hyp 1\n2. ((a | b)->(a | b)) by hyp 1\n3. ((a | b)(a | b)) by hyp 1\n"),
        # A bad character after a hit on the same line is reported first.
        ("proof", "local\n1. (r(x1) & r(x2)) by hyp 1\n2. ((r(x1) & r(x2)) & r(x1))$ by hyp 1\n"),
        ("proof", "local\n1. (r(x1) & r(x2)) by hyp 1\n2. ((r(x1) & r(x2)) & ) by hyp 1 @\n"),
        ("prop_proof", "1. (a & b) by hyp 1\n2. ((a & b) -> a) by mp 1 1 <\n"),
        # Atoms with an argument list enter the memo too.  The same
        # ill-formed atom on two lines reports the first one.
        ("proof", "local\n1. s(x1, f(x1), c) by hyp 1\n2. s(x1, f(x1), c) by hyp 1\n"),
        ("theory", "theory t\nr(g(x1))\n~r(g(x1))\n"),
        ("theory", "theory t\nq(f(x1))\n(r(x1) & q(f(x1)))\n"),
        # An atom in a step formula and again as an axiom parameter.
        ("proof", "local\n1. (s(x1, f(x1)) -> (s(x1, f(x1)) & s(x1, f(x1)))) "
                  "by axiom A1(p=s(x1, f(x1)))\n"),
        ("proof", "local\n1. (s(x1, f(x1)) -> (s(x1, f(x1)) & s(x1, f(x1)))) "
                  "by axiom A1(p=s(x1, f(x1))\n"),
        # An atom restated with other spacing, or with a tab.
        ("theory", "theory t\ns(x1, f(x1))\ns(x1,f(x1))\ns( x1 , f( x1 ) )\n"
                   "~s(x1,\tf(x1))\ns (x1, f(x1))\n(s(x1, f(x1)) & s(x1,f(x1)))\n"),
        # Two atoms under one key: the second fails its arity, or both are
        # well formed and each is restated.
        ("theory", "theory t\ns(x1, f(x1))\ns(x1, f(x1), c)\n"),
        ("theory", "theory t\ns(f(x1), x2)\ns(f(x1), c)\n(s(f(x1), x2) & s(f(x1), c))\n"
                   "(s(f(x1), c) & s(f(x1), x2))\ns(f(x1), x2, c)\n"),
        # A hit followed by an error, at once by a token, or by a bad
        # character on the same line.
        ("proof", "local\n1. r(f(x1)) by hyp 1\n2. (r(f(x1)) & ) by hyp 1\n"),
        ("proof", "local\n1. r(f(x1)) by hyp 1\n2. r(f(x1)) r(x1) by hyp 1\n"),
        ("proof", "local\n1. r(f(x1)) by hyp 1\n2. (r(f(x1))& r(f(x1)))by hyp 1\n"),
        ("proof", "local\n1. r(f(x1)) by hyp 1\n2. r(f(x1))) by hyp 1\n"),
        ("proof", "local\n1. r(f(x1)) by hyp 1\n2. r(f(x1))$ by hyp 1\n"),
        ("proof", "local\n1. r(f(x1)) by hyp 1\n2. (r(f(x1)) & r(c)) by hyp 1 @\n"),
    ]
    # A group restated just inside, at and just past the memo's nesting
    # bound, before and after its top-level statement, and then broken.
    group = "(r(x1) & s(x1, x2))"
    for depth in (new._MEMO_NESTING - 1, new._MEMO_NESTING, new._MEMO_NESTING + 1):
        nested = "(r(x1) & " * depth + group + ")" * depth
        cases += [
            ("theory", f"theory t\n{group}\n{nested}\n{nested}\n~{nested}\n"),
            ("theory", f"theory t\n{nested}\n{group}\n~{group}\n{nested}\n"),
            ("theory", f"theory t\n{group}\n{nested[:-1]}\n"),
            ("theory", f"theory t\n{group}\n{nested.replace(group, '(r(x1) & s(x1))')}\n"),
        ]
        # An atom restated inside groups nested past the bound: atoms have
        # none of their own.
        atom = "s(x1, f(x2))"
        nested = "(r(x1) & " * depth + atom + ")" * depth
        cases += [
            ("theory", f"theory t\n{atom}\n{nested}\n~{nested}\n"),
            ("theory", f"theory t\n{nested}\n{atom}\n{nested.replace(atom, 's(x1, f(x2), c)')}\n"),
        ]
    for kind, text in cases:
        assert_same(kind, text)


# A layer wraps a formula's text: a prefix, a group with a restated
# piece on either side, or groups nested past the memo's bound.
_LAYERS = st.one_of(
    st.sampled_from(["~", "forall ", "exists "]),
    st.tuples(st.sampled_from(["forall", "exists"]), st.integers(1, 12)).map(
        lambda t: f"{t[0]} x{t[1]}. "
    ),
    st.tuples(st.sampled_from(["left", "right"]), st.sampled_from(["&", "|", "->", "<->"])),
    st.integers(new._MEMO_NESTING - 1, new._MEMO_NESTING + 1),
)


@st.composite
def _theory_files(draw) -> str:
    """Theory files whose lines restate a few pieces, each wrapped in
    layers that mix named and positional binders, so the same group or
    atom is read inside and outside a named scope, under different
    binders, and past the memo's nesting bound."""
    pieces = draw(st.lists(
        st.one_of(
            atoms(max_index=4).map(format_formula),
            _surface(atoms(max_index=4).map(format_formula), binders=True),
        ),
        min_size=1, max_size=3,
    ))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        text = draw(st.sampled_from(pieces))
        for layer in draw(st.lists(_LAYERS, max_size=5)):
            if type(layer) is str:
                text = layer + text
            elif type(layer) is int:
                text = "(r(x1) & " * layer + text + ")" * layer
            else:
                other = draw(st.sampled_from(pieces))
                side, connective = layer
                pair = (text, other) if side == "left" else (other, text)
                text = f"({pair[0]} {connective} {pair[1]})"
        lines.append(text)
    return "theory t\n" + "\n".join(lines) + "\n"


@given(_theory_files())
def test_theory_files_with_named_binders_agree(text) -> None:
    """Named binders become positions as they are read, and groups and
    atoms read in their scope skip the memo: every line of a file must
    give the node the old parser builds with ``forall_xi``."""
    assert outcome(lambda t: _theory_fields(new.load_theory(t, LANG)), text) == outcome(
        lambda t: _theory_fields(old.load_theory(t, LANG)), text
    ), text


def test_memo_keeps_groups_within_the_nesting_bound() -> None:
    """Only the groups nested fewer than ``_MEMO_NESTING`` deep enter the
    memo, so one line's entries hold at most that many copies of it.
    Atoms are filed whatever their depth, each distinct one once."""
    wrapper, depth = "(r(x1) & ", 4 * new._MEMO_NESTING
    text = wrapper * depth + "r(x2)" + ")" * depth
    memo: dict = {}
    parser = new._Parser(text, 1, memo)
    assert parser.formula(CORPUS_LANG) == old.parse_formula(text, CORPUS_LANG)
    parser.expect_end()
    entries = [entry for entries in memo.values() for entry, _ in entries]
    groups = sorted(entry for entry in entries if entry.startswith("("))
    outermost = sorted(
        text[len(wrapper) * k:len(text) - k] for k in range(new._MEMO_NESTING)
    )
    assert groups == outermost
    assert sorted(entry for entry in entries if not entry.startswith("(")) == ["r(x1)", "r(x2)"]


def test_restated_atom_is_built_once(monkeypatch) -> None:
    # N lines that restate one atom read its arguments once and leave one
    # memo entry: the other N - 1 reads are hits.
    atom, lines = "s(x1, f(f(c)))", 50
    reads = []
    term = new._Parser.term
    monkeypatch.setattr(new._Parser, "term", lambda self, *a: reads.append(a) or term(self, *a))
    theory = new.load_theory("theory t\n" + f"{atom}\n" * lines, CORPUS_LANG)
    assert theory.formulas == (old.parse_formula(atom, CORPUS_LANG),) * lines
    assert len(reads) == 1
    memo: dict = {}
    for number in range(1, lines + 1):
        parser = new._Parser(atom, number, memo)
        parser.formula(CORPUS_LANG)
        parser.expect_end()
    assert [entry for entries in memo.values() for entry, _ in entries] == [atom]
    # A read that fails its arity files nothing.
    memo.clear()
    with pytest.raises(ParseError, match="expects 2 argument"):
        new._Parser("s(x1, f(x1), c)", 1, memo).formula(CORPUS_LANG)
    assert memo == {}


def test_atoms_without_argument_lists_and_long_names_agree() -> None:
    """A nullary atom without '()' is not balanced text, so it stays out of
    the memo; a predicate name longer than the key must not hit the entry
    of a name it begins with."""
    name = "p" * (new._MEMO_PREFIX + 8)
    signature = f"rel p/0\nrel pq/1\nrel {name}/0\nrel {name}x/1\nfn c/0\n"
    language = new.load_signature(signature)
    assert language == old.load_signature(signature)
    for text in [
        "theory t\np\n(p & pq(c))\n(pq(c) & p)\np()\n(p() & p)\npq(c)\n",
        f"theory t\n{name}\n{name}x(c)\n{name}()\n({name}x(c) & {name}())\n{name}x()\n",
        f"theory t\n{name}()\n{name}x(c)\n({name} & {name}x(c))\n{name}x(c, c)\n",
    ]:
        assert outcome(lambda t: _theory_fields(new.load_theory(t, language)), text) == outcome(
            lambda t: _theory_fields(old.load_theory(t, language)), text
        ), text
