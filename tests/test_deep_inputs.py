"""Deep inputs and the exit-code contract.

Parsing, printing, ``terms.apply``, ``fsubst`` and proof checking walk
with explicit stacks, and every node stores its rank when it is built,
so depth alone never makes them or ``frank`` fail, and a rank costs
nothing however large the unfolded tree of a shared DAG.  Named binders
become positions as they are read, so neither their depth nor their
index bounds what the parser reads.
Whatever the input, ``main()`` exits 0, 1 or 2, lets no exception
escape, and writes nothing to stderr but one ``error:`` line.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from clonelogic.cli import main
from clonelogic.errors import ParseError
from clonelogic.formulas import Atom, FAnd, FNot, Forall, close_off, exists_xi, frank, is_sentence
from clonelogic.proofs import instantiate_axiom
from clonelogic.semantics import FiniteBooleanAlg, qa_law_check
from clonelogic.syntax import (
    format_formula,
    format_term,
    load_signature,
    load_structure,
    load_theory,
    parse_axiom_spec,
    parse_formula,
    parse_prop,
    parse_term,
)
from clonelogic.terms import App, Var, is_closed, rank
from strategies import LANG

# The benchmark's signature for its deep proof.
SIGNATURE = """\
fn c/0
fn h/1
rel r/1
rel t/2
rel e/2 equality
"""


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("depth", [2_000, 20_000])
def test_deep_negation_proof_is_accepted(tmp_path, depth) -> None:
    # The benchmark's deep operation: a proof citing its one hypothesis.
    deep = "~" * depth + "r(x1)"
    signature = tmp_path / "signature.txt"
    signature.write_text(SIGNATURE)
    theory = tmp_path / "deep.theory"
    theory.write_text(f"theory deep\n{deep}\n")
    proof = tmp_path / "deep.proof"
    proof.write_text(f"local\ntheory deep\n1. {deep} by hyp 1\n")
    argv = ["check_proof", str(proof), "--signature", str(signature), "--theory", str(theory)]
    assert run_main(argv) == (0, "ACCEPTED\n", "")


def _chain(node, depth: int) -> tuple[list, object]:
    """The node types down the first child, and the node at the bottom."""
    kinds = []
    for _ in range(depth):
        kinds.append(type(node))
        node = node.args[0] if isinstance(node, App) else node.body
    return kinds, node


DEEP = 10_000


def test_deep_groups_parse() -> None:
    atom = Atom("r", (Var(1),))
    assert parse_formula("(" * DEEP + "r(x1)" + ")" * DEEP, LANG) is atom
    assert parse_prop("(" * DEEP + "a" + ")" * DEEP) is Atom("a", ())
    text = "(~" * DEEP + "r(x1)" + ")" * DEEP
    kinds, bottom = _chain(parse_formula(text, LANG), DEEP)
    assert kinds == [FNot] * DEEP and bottom is atom


def test_deep_binder_chains_parse() -> None:
    atom = Atom("r", (Var(1),))
    kinds, bottom = _chain(parse_formula("forall " * DEEP + "r(x1)", LANG), DEEP)
    assert kinds == [Forall] * DEEP and bottom is atom
    kinds, bottom = _chain(parse_formula("exists " * DEEP + "r(x1)", LANG), 3 * DEEP)
    assert kinds == [FNot, Forall, FNot] * DEEP and bottom is atom
    kinds, bottom = _chain(parse_prop("~" * DEEP + "a"), DEEP)
    assert kinds == [FNot] * DEEP and bottom is Atom("a", ())


def test_deep_terms_parse() -> None:
    kinds, bottom = _chain(parse_term("f(" * DEEP + "x1" + ")" * DEEP, LANG), DEEP)
    assert kinds == [App] * DEEP and bottom is Var(1)
    formula = parse_formula("s(c, " + "g(x2, " * DEEP + "c" + ")" * DEEP + ")", LANG)
    node = formula.args[1]
    for _ in range(DEEP):
        assert node.symbol == "g" and node.args[0] is Var(2)
        node = node.args[1]
    assert node is App("c", ())


def test_rank_of_a_shared_dag_is_read_at_once() -> None:
    # 64 levels of FAnd(p, p): 65 nodes, but 2^64 leaves unfolded.
    p = Atom("t", (Var(1), Var(3)))
    for _ in range(64):
        p = FAnd(p, p)
    start = time.perf_counter()
    assert frank(p) == 3
    assert not is_sentence(p)
    assert frank(close_off(p)) == 0
    assert time.perf_counter() - start < 1.0


CHAIN = 100_000


def test_rank_of_a_deep_chain_is_read_at_once() -> None:
    negations = Atom("t", (Var(1), Var(3)))
    for _ in range(CHAIN):
        negations = FNot(negations)
    binders = Atom("r", (Var(CHAIN + 7),))
    for _ in range(CHAIN):
        binders = Forall(binders)
    term = Var(5)
    for _ in range(CHAIN):
        term = App("h", (term,))
    start = time.perf_counter()
    assert frank(negations) == 3
    assert frank(binders) == 7 and frank(Forall(binders)) == 6
    assert rank(term) == 5 and not is_closed(term)
    assert time.perf_counter() - start < 1.0


def test_deep_chains_print_and_reparse_to_themselves() -> None:
    language = load_signature(SIGNATURE)
    atom = Atom("r", (Var(1),))
    negations, binders, conjunctions, term = atom, atom, atom, Var(1)
    for _ in range(CHAIN):
        negations = FNot(negations)
        binders = Forall(binders)
        conjunctions = FAnd(conjunctions, atom)
        term = App("h", (term,))
    for formula in (negations, binders, conjunctions):
        assert parse_formula(format_formula(formula), language) is formula
    assert parse_term(format_term(term), language) is term


def test_law_check_on_a_deep_sample_matches_the_shallow_one() -> None:
    language = load_signature(SIGNATURE)
    structure = load_structure(
        "domain 2\nfn c: 0\nfn h: 1 0\nrel r: 1 0\nrel t: 0 1 1 1\n", language
    )
    atom = Atom("t", (Var(1), Var(2)))
    deep = atom
    for _ in range(2_000):
        deep = FNot(deep)

    def triples(sample):
        report = qa_law_check(structure, FiniteBooleanAlg(1), sample, 2)
        return [(law.law, law.ok, law.checked) for law in report.laws]

    assert triples([deep]) == triples([atom])


def test_axiom_with_many_outer_binders_prints_its_instance(tmp_path) -> None:
    signature = tmp_path / "signature.txt"
    signature.write_text(SIGNATURE)
    code, out, err = run_main(
        ["axiom", "A1(p=r(x1), n=100000)", "--signature", str(signature)]
    )
    assert (code, err) == (0, "")
    first, rank_line = out.splitlines()
    language = load_signature(SIGNATURE)
    instance = instantiate_axiom(parse_axiom_spec("A1(p=r(x1), n=100000)", language), language)
    assert parse_formula(first, language) is instance
    assert first.startswith("forall " * 100_000) and rank_line == "rank 0"


def test_deep_named_binder_chain_parses_promptly(tmp_path) -> None:
    # Named binders become positions as they are read, with no
    # substitution into their scope, so a chain whose free variable moves
    # costs time linear in its depth.
    signature = tmp_path / "signature.txt"
    signature.write_text(SIGNATURE)
    depth = 100_000
    start = time.perf_counter()
    code, out, err = run_main(
        ["parse", "formula", "--signature", str(signature), "--", "exists x1. " * depth + "t(x2, x1)"]
    )
    assert time.perf_counter() - start < 2.0
    canonical = "~forall ~" * depth + f"t(x{depth + 2}, x1)"
    assert (code, out, err) == (0, f"{canonical}\nrank 2\nsentence no\n", "")


def parse_named_chain(tmp_path, depth: int, body: str):
    signature = tmp_path / "signature.txt"
    signature.write_text(SIGNATURE)
    return run_main(
        ["parse", "formula", "--signature", str(signature), "--", "exists x1. " * depth + body]
    )


@pytest.mark.parametrize("depth", [1_500, 3_000])
def test_deep_named_binder_chain_exits_2_promptly(tmp_path, depth) -> None:
    # A chain deeper than the 1,000 levels named binders were once capped
    # at is read in linear time up to the bad atom at its end, and the
    # error names that atom's column, past every binder.
    start = time.perf_counter()
    code, out, err = parse_named_chain(tmp_path, depth, "r(x1, x2)")
    assert time.perf_counter() - start < 2.0
    column = 11 * depth + 1
    assert (code, out, err) == (
        2, "", f"error: line 1, column {column}: 'r' expects 1 argument(s), got 2\n",
    )


def test_named_binder_chain_at_the_cap_parses(tmp_path) -> None:
    # 1,000 levels, the deepest chain the capped parser accepted, reads
    # to the same text over a sentence as it did under the cap, and over
    # a free variable that every binder moves.
    depth = 1_000
    start = time.perf_counter()
    code, out, err = parse_named_chain(tmp_path, depth, "r(x1)")
    assert time.perf_counter() - start < 2.0
    canonical = "~forall ~" * depth + "r(x1)"
    assert (code, out, err) == (0, f"{canonical}\nrank 0\nsentence yes\n", "")
    code, out, err = parse_named_chain(tmp_path, depth, "t(x2, x1)")
    canonical = "~forall ~" * depth + f"t(x{depth + 2}, x1)"
    assert (code, out, err) == (0, f"{canonical}\nrank 2\nsentence no\n", "")


def test_large_binder_indices_parse_promptly() -> None:
    # A named binder's index costs nothing: no rotation is built for it.
    count = 10_000
    text = "(forall x1048576. r(x1) & " * (count - 1) + "forall x1048576. r(x1)" + ")" * (count - 1)
    language = load_signature(SIGNATURE)
    start = time.perf_counter()
    formula = parse_formula(text, language)
    assert time.perf_counter() - start < 2.0
    conjunct = Forall(Atom("r", (Var(2),)))
    expected = conjunct
    for _ in range(count - 1):
        expected = FAnd(conjunct, expected)
    assert formula is expected


def test_named_binder_past_the_library_cap_parses() -> None:
    # terms.MAX_BINDER_INDEX bounds the rotations of formulas.forall_xi;
    # the parser builds none, so it reads any index.
    language = load_signature("rel r/2\n")
    formula = parse_formula("forall x1048577. r(x1, x1048577)", language)
    assert format_formula(formula) == "forall r(x2, x1)"


def test_memoized_group_reads_its_named_binders_the_same() -> None:
    # A group that holds a named binder closes the binder inside it, so
    # it is memoized like any other: the line reads the same alone and
    # after the same group, as the binders' rotations build it.
    group = "(" + "exists x1. " * 200 + "t(x1, x2) & r(x1))"
    line = "exists x1. " * 200 + group
    language = load_signature(SIGNATURE)
    inner = Atom("t", (Var(1), Var(2)))
    for _ in range(200):
        inner = exists_xi(1, inner)
    expected = FAnd(inner, Atom("r", (Var(1),)))
    for _ in range(200):
        expected = exists_xi(1, expected)
    assert load_theory(f"theory t\n{line}\n", language).formulas == (expected,)
    restated = load_theory(f"theory t\n{group}\n{line}\n", language).formulas
    assert restated == (FAnd(inner, Atom("r", (Var(1),))), expected)


# ----- the exit-code contract under random and deep input -----

TOKENS = [
    "(", ")", "[", "]", ",", ";", ".", "~", "&", "|", "->", "<->", "/", ":", "=",
    "-3", "0", "1", "2", "7", "x1", "x2", "x0", "x99999999", "c", "h", "r", "t", "e",
    "a", "b", "p", "q", "i", "n", "forall", "exists", "by", "hyp", "mp", "gen",
    "subst", "axiom", "A1", "A2", "A3", "A5", "A7", "A8", "A9", "local", "global",
    "theory", "shift", "const", "$", "-", "<", ">", "\n",
]
# Deep chains.
DEEP_TEXTS = [
    lambda n: "~" * n + "r(x1)",
    lambda n: "(" * n + "r(x1)" + ")" * n,
    lambda n: "forall " * n + "r(x1)",
    lambda n: "exists " * n + "r(x1)",
    lambda n: "exists x1. " * n + "r(x1)",
    lambda n: "r(" + "h(" * n + "x1" + ")" * n + ")",
    lambda n: "~" * n + "a",
    lambda n: "(" * n + "a" + ")" * n,
    lambda n: "(" * n + "r(x1)",
]


def well_formed(atoms):
    return st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(
            inner.map(lambda p: "~" + p),
            st.tuples(inner, st.sampled_from(["&", "|", "->", "<->"]), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
            inner.map(lambda p: "forall " + p),
            inner.map(lambda p: "exists x2. " + p),
        ),
        max_leaves=5,
    )


SIGNATURE_ATOMS = ["r(x1)", "t(x1, h(c))", "e(x2, x1)"]
WELL_FORMED = well_formed([*SIGNATURE_ATOMS, "a", "b"])
SIGNATURE_FORMULAS = well_formed(SIGNATURE_ATOMS)


@st.composite
def deep_texts(draw) -> str:
    return draw(st.sampled_from(DEEP_TEXTS))(draw(st.sampled_from([3, 1_500, 3_000])))


@st.composite
def token_streams(draw) -> str:
    pieces = draw(st.lists(st.sampled_from(TOKENS), max_size=30))
    if draw(st.booleans()):
        pieces.insert(draw(st.integers(0, len(pieces))), draw(deep_texts()))
    return " ".join(pieces)


def fuzz_texts():
    """Random token streams, deep chains alone, and well-formed text."""
    return st.one_of(token_streams(), deep_texts(), WELL_FORMED)


PROP_WELL_FORMED = st.recursive(
    st.sampled_from(["a", "b"]),
    lambda inner: st.one_of(
        inner.map(lambda p: "~" + p),
        st.tuples(inner, st.sampled_from(["&", "|", "->", "<->"]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
    ),
    max_leaves=5,
)
BY = ["by hyp 1", "by mp 1 2", "by gen 1", "by axiom A7(i=1)", "by axiom A1(p=r(x1))",
      "by subst 1 [x1 ; shift 0]", "by A1(p=a)", "by A2(p=a, q=b)", "by"]


@st.composite
def proof_texts(draw, prop: bool) -> str:
    """Proof files: random steps, and steps whose recipe fits a deep or
    well-formed formula, so that some proofs are accepted or rejected."""
    header = "" if prop else draw(st.sampled_from(["local\n", "global\n", "local\ntheory t\n"]))
    lines = []
    for number in range(1, draw(st.integers(1, 3)) + 1):
        p = draw(st.one_of(deep_texts(), PROP_WELL_FORMED if prop else WELL_FORMED))
        recipe = "A1" if prop else "axiom A1"
        lines.append(draw(st.sampled_from([
            f"{number}. {p} by hyp 1",
            f"{number}. ({p} -> ({p} & {p})) by {recipe}(p={p})",
            f"{number}. {draw(fuzz_texts())} {draw(st.sampled_from(BY))}",
            draw(token_streams()),
        ])))
    return header + "\n".join(lines) + "\n"


def assert_contract(code, err) -> None:
    assert code in (0, 1, 2)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"))


FUZZ = settings(max_examples=60, deadline=None)


@FUZZ
@given(fuzz_texts(), st.sampled_from(["formula", "term"]))
def test_parse_keeps_the_exit_code_contract(text, kind) -> None:
    # Through subst, deep text that parses reaches terms.apply and fsubst.
    with tempfile.TemporaryDirectory() as directory:
        signature = os.path.join(directory, "signature.txt")
        with open(signature, "w", encoding="utf-8") as handle:
            handle.write(SIGNATURE)
        for command, extra in (("parse", []), ("subst", ["[h(x1) ; shift 1]"])):
            code, _, err = run_main([command, kind, "--signature", signature, "--", text, *extra])
            assert_contract(code, err)


@FUZZ
@given(st.data(), st.booleans())
def test_check_proof_keeps_the_exit_code_contract(data, prop) -> None:
    text = data.draw(proof_texts(prop))
    hypotheses = data.draw(st.lists(fuzz_texts(), max_size=2))
    with tempfile.TemporaryDirectory() as directory:
        signature = os.path.join(directory, "signature.txt")
        proof = os.path.join(directory, "fuzz.proof")
        with open(signature, "w", encoding="utf-8") as handle:
            handle.write(SIGNATURE)
        with open(proof, "w", encoding="utf-8") as handle:
            handle.write(text)
        if prop:
            argv = ["check_proof", proof, "--prop"]
            for hypothesis in hypotheses:
                argv.append(f"--hyp={hypothesis}")
        else:
            argv = ["check_proof", proof, "--signature", signature]
        code, _, err = run_main(argv)
    assert_contract(code, err)


# A 2-element structure for SIGNATURE.
STRUCTURE = "domain 2\nfn c: 0\nfn h: 1 0\nrel r: 1 0\nrel t: 0 1 1 1\n"
ARITIES = {"c": 0, "h": 1, "r": 1, "t": 2, "e": 2}
# Integers a structure file should refuse or cap: zero, negative, over a
# table's range or the bits cap, and huge domains.
ODD_INTS = [0, -1, -3, 4, 17, 1025, 10 ** 12, 1 << 64]


@st.composite
def structure_texts(draw) -> str:
    """Structure files for SIGNATURE: a well-formed file over one to three
    elements, with `domain`, `bits`, `fn`, `rel` and `equality` lines,
    then, half the time, the breakages of ``broken``."""
    size, bits = draw(st.integers(1, 3)), draw(st.sampled_from([1, 1, 2]))
    tops = {"fn": size - 1, "rel": (1 << bits) - 1}
    lines = [f"domain {size}", f"bits {bits}"]
    for name, arity in ARITIES.items():
        kind = "fn" if name in ("c", "h") else "rel"
        if name == "e" and draw(st.booleans()):
            lines.append("equality identity")
            continue
        entries = [draw(st.integers(0, tops[kind])) for _ in range(size ** arity)]
        lines.append(f"{kind} {name}: " + " ".join(map(str, entries)))
    return broken(draw, lines)


@st.composite
def algebra_texts(draw) -> str:
    """Proposition algebra files: `size`, `not:` and `and i:` lines over
    one to four elements, then, half the time, the breakages of
    ``broken``."""
    size = draw(st.integers(1, 4))

    def row() -> str:
        return " ".join(str(draw(st.integers(0, size - 1))) for _ in range(size))

    lines = [f"size {size}", f"not: {row()}"] + [f"and {i}: {row()}" for i in range(size)]
    return broken(draw, lines)


def broken(draw, lines: list[str]) -> str:
    """The file of ``lines``, after, half the time, one to three
    breakages: an integer swapped for one of ``ODD_INTS``, a line
    dropped, a line repeated, or a line of random tokens."""
    for _ in range(draw(st.integers(1, 3)) if draw(st.booleans()) else 0):
        at = draw(st.integers(0, len(lines) - 1))
        breakage = draw(st.sampled_from(["int", "drop", "repeat", "tokens"]))
        if breakage == "int":
            words = lines[at].split()
            numbers = [i for i, word in enumerate(words) if word.lstrip("-").isdigit()]
            if numbers:
                words[draw(st.sampled_from(numbers))] = str(draw(st.sampled_from(ODD_INTS)))
                lines[at] = " ".join(words)
        elif breakage == "drop":
            del lines[at]
        elif breakage == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[at])
        else:
            lines.insert(at, draw(token_streams()))
    return "\n".join(lines) + "\n"


def run_with_files(argv, files: dict[str, str] | None = None):
    """main() on argv in a directory holding ``signature.txt`` (SIGNATURE)
    and each named file of ``files``: an argument equal to a file's name
    is replaced by its path."""
    files = {"signature.txt": SIGNATURE, **(files or {})}
    with tempfile.TemporaryDirectory() as directory:
        for name, text in files.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        return run_main([os.path.join(directory, arg) if arg in files else arg for arg in argv])


WITH_SIGNATURE = ["--signature", "signature.txt"]
WITH_STRUCTURE = ["--structure", "structure.txt", *WITH_SIGNATURE]


@FUZZ
@given(fuzz_texts())
def test_eval_keeps_the_exit_code_contract(text) -> None:
    code, _, err = run_with_files(
        ["eval", f"--formula={text}", *WITH_STRUCTURE], {"structure.txt": STRUCTURE}
    )
    assert_contract(code, err)


@FUZZ
@given(structure_texts(), SIGNATURE_FORMULAS, st.integers(0, 1), st.integers(1, 3))
def test_structure_files_keep_the_exit_code_contract(text, formula, depth, bound) -> None:
    files = {"structure.txt": text}
    code, _, err = run_with_files(["eval", f"--formula={formula}", *WITH_STRUCTURE], files)
    assert_contract(code, err)
    code, _, err = run_with_files(
        ["qa_laws", "--depth", str(depth), "--rank-bound", str(bound), *WITH_STRUCTURE], files
    )
    assert_contract(code, err)


@FUZZ
@given(fuzz_texts(), st.integers(1, 2), st.sampled_from([0, 4, 16]))
def test_countermodel_keeps_the_exit_code_contract(text, max_size, cap) -> None:
    # Sizes 1 and 2 and a small cell cap bound each search.
    code, _, err = run_with_files(
        ["countermodel", f"--formula={text}", "--max-size", str(max_size), "--cap", str(cap),
         *WITH_SIGNATURE]
    )
    assert_contract(code, err)


@FUZZ
@given(st.one_of(fuzz_texts(), PROP_WELL_FORMED))
def test_taut_keeps_the_exit_code_contract(text) -> None:
    code, _, err = run_main(["taut", "--", text])
    assert_contract(code, err)


@st.composite
def recipe_texts(draw) -> str:
    """Axiom recipes: a schema name, known or not, p and some of q, r
    (formulas over SIGNATURE or fuzz texts), subst, i, n and, now and
    then, an unknown parameter, whose integers include ``ODD_INTS``."""
    fields = []
    names = sorted(draw(st.sets(st.sampled_from(["q", "r", "subst", "i", "n"]))))
    for name in ["p", *names, *draw(st.sampled_from([[], [], [], ["z"]]))]:
        if name in ("p", "q", "r"):
            value = draw(st.one_of(SIGNATURE_FORMULAS, fuzz_texts()))
        elif name == "subst":
            value = draw(st.sampled_from(
                ["[x1 ; shift 0]", "[h(x1), c ; shift 1]", "[; const c]", "[x2 ; shift 17]"]
            ))
        else:
            value = str(draw(st.sampled_from([0, 1, 2, 3, *ODD_INTS])))
        fields.append(f"{name}={value}")
    axiom = draw(st.sampled_from(["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9"]))
    return f"{axiom}({', '.join(fields)})"


@FUZZ
@given(st.one_of(recipe_texts(), token_streams()))
def test_axiom_keeps_the_exit_code_contract(spec) -> None:
    code, _, err = run_with_files(["axiom", *WITH_SIGNATURE, "--", spec])
    assert_contract(code, err)


@FUZZ
@given(algebra_texts())
def test_algebra_files_keep_the_exit_code_contract(text) -> None:
    code, _, err = run_with_files(["propalg", "algebra.txt"], {"algebra.txt": text})
    assert_contract(code, err)


@pytest.mark.parametrize("size", [10 ** 12, 1 << 64])
def test_algebra_file_with_a_huge_size_exits_2(size) -> None:
    # Refused on the count of `and` rows, before any list of the size.
    text = f"size {size}\nnot: 1 0\nand 0: 0 0\nand 1: 0 1\n"
    assert run_with_files(["propalg", "algebra.txt"], {"algebra.txt": text}) == (
        2, "", f"error: line 1, column 1: expected 'and' rows 0..{size - 1}\n"
    )


@st.composite
def theory_texts(draw) -> str:
    """Theory files: a `theory t` header, sometimes renamed, broken or
    missing, then one to three lines of fuzz text."""
    header = draw(st.sampled_from(["theory t", "theory t", "theory u", "theory", "t"]))
    return "\n".join([header, *draw(st.lists(fuzz_texts(), min_size=1, max_size=3))]) + "\n"


@FUZZ
@given(theory_texts(), st.data())
def test_theory_files_keep_the_exit_code_contract(theory, data) -> None:
    # The second proof cites the theory's first formula, so some accept.
    cited = f"local\ntheory t\n1. {theory.splitlines()[1]} by hyp 1\n"
    proof = data.draw(st.one_of(proof_texts(prop=False), st.just(cited)))
    code, _, err = run_with_files(
        ["check_proof", "fuzz.proof", "--theory", "fuzz.theory", *WITH_SIGNATURE],
        {"fuzz.proof": proof, "fuzz.theory": theory},
    )
    assert_contract(code, err)
