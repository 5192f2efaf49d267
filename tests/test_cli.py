"""End-to-end tests for the command line, via direct main() calls."""

import time

import pytest

from clonelogic.checks import completeness_survey, prop_corpus, qa_survey
from clonelogic.cli import build_parser, main
from clonelogic.errors import BoundExceeded
from clonelogic.formulas import Atom, enumerate_formulas
from clonelogic.semantics import FiniteBooleanAlg, Structure, qa_law_check, zmod_structure
from clonelogic.syntax import format_structure, load_signature
from clonelogic.terms import Var

SIG = """\
fn f/1
fn c/0
rel r/2
rel e/2 equality
"""

SIG_UNARY = """\
fn f/1
rel r/1
"""

THEORY = """\
theory shapes
r(x1, x1)
"""

PROOF_GLOBAL = """\
global
theory shapes
1. r(x1, x1) by hyp 1
2. forall r(x1, x1) by gen 1
"""

PROOF_LOCAL_GEN = """\
local
theory shapes
1. r(x1, x1) by hyp 1
2. forall r(x1, x1) by gen 1
"""

PROP_PROOF = """\
1. (a -> (a & a)) by A1(p=a)
2. a by hyp 1
3. (a & a) by mp 2 1
"""

ALGEBRA_TWO = """\
size 2
not: 1 0
and 0: 0 0
and 1: 0 1
"""

BROKEN_EQUALITY = """\
domain 2
rel r: 0 1
rel e: 0 0 0 0
"""


@pytest.fixture
def sig(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text(SIG)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_formula_named_binder(sig, capsys):
    code, out, _ = run(capsys, ["parse", "formula", "forall x2. r(x2, x1)", "--signature", sig])
    assert code == 0
    assert out == "forall r(x1, x2)\nrank 1\nsentence no\n"


def test_parse_term(sig, capsys):
    code, out, _ = run(capsys, ["parse", "term", "x1", "--signature", sig])
    assert code == 0
    assert out == "x1\nrank 1\nsentence no\n"


def test_parse_closed_term_is_sentence(sig, capsys):
    code, out, _ = run(capsys, ["parse", "term", "f(c)", "--signature", sig])
    assert code == 0
    assert out.endswith("rank 0\nsentence yes\n")


def test_parse_error_reports_position(sig, capsys):
    code, out, err = run(capsys, ["parse", "term", "f(x1", "--signature", sig])
    assert code == 2
    assert out == ""
    assert "line 1" in err and "column" in err


def test_parse_deep_nesting_prints_the_canonical_form(sig, capsys):
    text = "~" * 5000 + "r(x1, x1)"
    code, out, err = run(capsys, ["parse", "formula", text, "--signature", sig])
    assert code == 0
    assert out == f"{text}\nrank 1\nsentence no\n"
    assert err == ""


def test_parse_output_reparses_to_itself(sig, capsys):
    first = run(capsys, ["parse", "formula", "exists x2. (r(x1, x2) -> r(x2, x1))", "--signature", sig])
    canonical = first[1].splitlines()[0]
    second = run(capsys, ["parse", "formula", canonical, "--signature", sig])
    assert second[1].splitlines()[0] == canonical


def test_subst_formula(sig, capsys):
    code, out, _ = run(
        capsys, ["subst", "formula", "r(x1, x2)", "[f(x1) ; shift 0]", "--signature", sig]
    )
    assert code == 0
    assert out == "r(f(x1), x2)\nrank 2\n"


def test_subst_term_list_sugar(sig, capsys):
    code, out, _ = run(capsys, ["subst", "term", "f(x2)", "[c, f(x1)]", "--signature", sig])
    assert code == 0
    assert out == "f(f(x1))\nrank 1\n"


def test_taut_exit_codes(capsys):
    assert run(capsys, ["taut", "(a -> (a & a))"]) [:2] == (0, "TAUTOLOGY\n")
    assert run(capsys, ["taut", "(a -> b)"])[:2] == (1, "NOT A TAUTOLOGY\n")
    assert run(capsys, ["taut", "(a -> "])[0] == 2


def test_propalg_report(tmp_path, capsys):
    path = tmp_path / "alg.txt"
    path.write_text(ALGEBRA_TWO)
    code, out, _ = run(capsys, ["propalg", str(path)])
    assert code == 0
    assert out == (
        "size 2\n"
        "boolean yes\n"
        "valuations 1\n"
        "filters 2\n"
        "filters are intersections of valuations: yes\n"
        "maximal filters match valuations: yes\n"
    )


def test_eval_counterexample_in_modular_arithmetic(capsys):
    code, out, _ = run(
        capsys,
        ["eval", "--structure", "zmod5", "--formula", "~e(0, S(x1))", "--env", "[;0]"],
    )
    assert code == 1
    assert out == "COUNTEREXAMPLE [4 ; 0]\n"


def test_eval_valid(capsys):
    code, out, _ = run(
        capsys,
        ["eval", "--structure", "zmod5", "--formula", "(e(S(x1), S(x2)) -> e(x1, x2))"],
    )
    assert code == 0
    assert out == "VALID\n"


def test_eval_env_tail_passes_through(capsys):
    code, out, _ = run(
        capsys,
        ["eval", "--structure", "zmod5", "--formula", "~e(0, S(x1))", "--env", "[;1]"],
    )
    assert code == 1
    assert out == "COUNTEREXAMPLE [4 ; 1]\n"


def test_eval_env_outside_domain(capsys):
    code, _, err = run(
        capsys,
        ["eval", "--structure", "zmod2", "--formula", "e(x1, x1)", "--env", "[5 ; 0]"],
    )
    assert code == 2
    assert "outside domain" in err


def test_eval_structure_file_needs_signature(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("domain 1\nrel r: 1\n")
    code, _, err = run(capsys, ["eval", "--structure", str(path), "--formula", "r(x1, x1)"])
    assert code == 2
    assert "--signature" in err


def test_eval_over_row_cap_exits_2_promptly(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["eval", "--structure", "zmod2", "--formula", "e(x25, x25)"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "rows" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--structure", "zmod5000", "--formula", "e(x1, x1)"],
        ["qa_laws", "--structure", "zmod5000", "--depth", "1"],
        ["peano", "--check-zmod", "5000"],
    ],
    ids=["eval", "qa_laws", "peano"],
)
def test_zmod_over_row_cap_exits_2_promptly(capsys, argv):
    # zmod5000 would build 25,000,000-entry add and mul tables.
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "zmod5000" in err


def test_zmod_at_row_cap_builds():
    # 1024^2 entries is exactly the cap.
    assert zmod_structure(1024).size == 1024
    with pytest.raises(BoundExceeded, match="zmod1025"):
        zmod_structure(1025)


def test_atom_planes_cost_one_pass_over_their_rows(capsys):
    # e(x1, x2) over zmod1024 reads 1024^2 distinct cells across as many
    # rows; a plane built by a scan per distinct cell takes n^4 steps.
    start = time.perf_counter()
    code, out, err = run(
        capsys, ["eval", "--structure", "zmod1024", "--formula", "forall forall e(x1, x2)"]
    )
    assert time.perf_counter() - start < 15.0
    assert (code, out, err) == (1, "COUNTEREXAMPLE [; 0]\n", "")
    start = time.perf_counter()
    code, out, err = run(capsys, ["qa_laws", "--structure", "zmod64", "--depth", "0"])
    assert time.perf_counter() - start < 15.0
    assert (code, err) == (0, "")
    assert [line.split()[:2] for line in out.splitlines()] == [
        [law, "pass"] for law in ("Q1", "Q2", "Q3", "Q4", "Q5")
    ]


@pytest.mark.parametrize("size, code", [(1024, 0), (1025, 2), (2048, 2)])
def test_structure_file_equality_table_is_capped_before_it_is_built(
    tmp_path, capsys, size, code
):
    # The pinned identity table of a `domain N` file has N^2 entries.
    signature = tmp_path / "sig.txt"
    signature.write_text("rel e/2 equality\n")
    model = tmp_path / "m.txt"
    model.write_text(f"domain {size}\n")
    start = time.perf_counter()
    got, out, err = run(capsys, [
        "eval", "--signature", str(signature), "--structure", str(model),
        "--formula", "forall e(x1, x1)",
    ])
    assert time.perf_counter() - start < 5.0
    assert got == code
    if code == 0:
        assert (out, err) == ("VALID\n", "")
    else:
        assert out == ""
        assert err == (
            f"error: the equality table needs {size}^2 entries, over the cap of 1048576\n"
        )


@pytest.fixture
def sig_unary(tmp_path):
    path = tmp_path / "sig_unary.txt"
    path.write_text(SIG_UNARY)
    return str(path)


@pytest.mark.parametrize("binder", ["forall", "exists"])
def test_named_binder_past_the_library_cap_parses_promptly(sig_unary, capsys, binder):
    # The parser builds no rotation, so an index over terms.MAX_BINDER_INDEX
    # costs nothing.
    start = time.perf_counter()
    code, out, err = run(
        capsys, ["parse", "formula", f"{binder} x99999999. r(x1)", "--signature", sig_unary]
    )
    assert time.perf_counter() - start < 1.0
    canonical = "forall r(x2)" if binder == "forall" else "~forall ~r(x2)"
    assert (code, out, err) == (0, f"{canonical}\nrank 1\nsentence no\n", "")


def test_named_binder_under_cap_parses(sig_unary, capsys):
    code, out, _ = run(capsys, ["parse", "formula", "forall x1000. r(x1000)", "--signature", sig_unary])
    assert code == 0
    assert out == "forall r(x1)\nrank 0\nsentence yes\n"


def test_axiom_instance(sig, capsys):
    code, out, _ = run(
        capsys, ["axiom", "A5(p=r(x1, x1), subst=[x1 ; shift 0])", "--signature", sig]
    )
    assert code == 0
    assert out == "~(~~forall r(x1, x1) & ~r(x1, x1))\nrank 1\n"


def test_axiom_missing_parameter(sig, capsys):
    code, _, err = run(capsys, ["axiom", "A4(p=r(x1, x1))", "--signature", sig])
    assert code == 2
    assert err.startswith("error:")


def test_check_proof_global_accepted(tmp_path, sig, capsys):
    proof = tmp_path / "proof.txt"
    proof.write_text(PROOF_GLOBAL)
    theory = tmp_path / "theory.txt"
    theory.write_text(THEORY)
    code, out, _ = run(
        capsys, ["check_proof", str(proof), "--signature", sig, "--theory", str(theory)]
    )
    assert code == 0
    assert out == "ACCEPTED\n"


def test_check_proof_rejects_generalization_in_local_kind(tmp_path, sig, capsys):
    proof = tmp_path / "proof.txt"
    proof.write_text(PROOF_LOCAL_GEN)
    theory = tmp_path / "theory.txt"
    theory.write_text(THEORY)
    code, out, _ = run(
        capsys, ["check_proof", str(proof), "--signature", sig, "--theory", str(theory)]
    )
    assert code == 1
    assert out.startswith("REJECTED step 2:")


A1_PRIME = "(r(x1, x1) -> (r(x1, x1) & r(x1, x1)))"


@pytest.mark.parametrize(
    "step, out",
    [
        (f"forall forall {A1_PRIME} by axiom A1(p=r(x1, x1), n=2)", "ACCEPTED\n"),
        (f"forall {A1_PRIME} by axiom A1(p=r(x1, x1), n=2)",
         "REJECTED step 1: formula is not that axiom instance\n"),
        # The binders are peeled off the step, never built: 2*10^6 of them
        # once took about 7 s and 373 MB before this rejection.
        (f"forall {A1_PRIME} by axiom A1(p=r(x1, x1), n=2000000)",
         "REJECTED step 1: formula is not that axiom instance\n"),
        (f"{A1_PRIME} by axiom A1(p=r(x1, x1), n=1000000000)",
         "REJECTED step 1: formula is not that axiom instance\n"),
    ],
    ids=["two-binders", "one-binder-short", "two-million", "a-billion"],
)
def test_check_proof_peels_axiom_binders_off_the_step(tmp_path, sig, capsys, step, out):
    proof = tmp_path / "proof.txt"
    proof.write_text(f"local\n1. {step}\n")
    start = time.perf_counter()
    result = run(capsys, ["check_proof", str(proof), "--signature", sig])
    assert time.perf_counter() - start < 1.0
    assert result == (0 if out == "ACCEPTED\n" else 1, out, "")


def test_check_proof_theory_name_must_match(tmp_path, sig, capsys):
    proof = tmp_path / "proof.txt"
    proof.write_text(PROOF_GLOBAL)
    theory = tmp_path / "theory.txt"
    theory.write_text("theory other\nr(x1, x1)\n")
    code, _, err = run(
        capsys, ["check_proof", str(proof), "--signature", sig, "--theory", str(theory)]
    )
    assert code == 2
    assert "shapes" in err and "other" in err


def test_check_proof_named_theory_requires_flag(tmp_path, sig, capsys):
    proof = tmp_path / "proof.txt"
    proof.write_text(PROOF_GLOBAL)
    code, _, err = run(capsys, ["check_proof", str(proof), "--signature", sig])
    assert code == 2
    assert "--theory" in err


def test_check_proof_propositional(tmp_path, capsys):
    proof = tmp_path / "prop.txt"
    proof.write_text(PROP_PROOF)
    accepted = run(capsys, ["check_proof", str(proof), "--prop", "--hyp", "a"])
    assert accepted[:2] == (0, "ACCEPTED\n")
    rejected = run(capsys, ["check_proof", str(proof), "--prop"])
    assert rejected[0] == 1
    assert rejected[1].startswith("REJECTED step 2:")


@pytest.mark.parametrize(
    "step, reason",
    [
        ("1. a by A1()", "axiom 1 needs p"),
        ("1. a by A2(q=a)", "axiom 2 needs p"),
        ("1. a by A3(q=a, r=a)", "axiom 3 needs p"),
        ("1. a by A2(p=a)", "axiom 2 needs q"),
        ("1. a by A3(p=a, q=a)", "axiom 3 needs q and r"),
    ],
)
def test_check_proof_propositional_axiom_without_parameter(tmp_path, capsys, step, reason):
    # A recipe missing a parameter is a rejected step, not a crash.
    proof = tmp_path / "prop.txt"
    proof.write_text(step + "\n")
    argv = ["check_proof", str(proof), "--prop"]
    assert run(capsys, argv) == (1, f"REJECTED step 1: {reason}\n", "")


def test_signature_error_names_its_line(tmp_path, capsys):
    signature = tmp_path / "sig.txt"
    signature.write_text("fn f/1\nrel r/2\nrel x1/0\n")
    argv = ["parse", "formula", "r(x1, x1)", "--signature", str(signature)]
    message = "error: line 3, column 5: symbol name 'x1' would collide with a variable\n"
    assert run(capsys, argv) == (2, "", message)


@pytest.mark.parametrize(
    "text, message",
    [
        ("domain 2\nrel r: 0 1\nrel r: 1 1\n", "line 3, column 5: duplicate table for 'r'"),
        ("domain 2\ndomain 3\nrel r: 0 1\n", "line 2, column 1: duplicate 'domain' line"),
        ("domain 3\nrel r: 0 1\n", "line 2, column 5: relation table for 'r' has 2 entries, expected 3"),
        ("domain 2\nrel q: 0 1\nrel r: 0 1\n", "line 2, column 5: table for undeclared relation symbol 'q'"),
    ],
)
def test_structure_error_names_its_line(tmp_path, capsys, text, message):
    signature = tmp_path / "sig.txt"
    signature.write_text("rel r/1\n")
    model = tmp_path / "model.txt"
    model.write_text(text)
    argv = ["eval", "--signature", str(signature), "--structure", str(model), "--formula", "r(x1)"]
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("size 2\nnot: 1 5\nand 0: 0 0\nand 1: 0 1\n", "line 2, column 1: negation table entry out of range"),
        ("size 2\nnot: 1 5\nand 0: 1 1\nand 0: 0 0\nand 1: 0 1\n", "line 4, column 5: duplicate 'and' row 0"),
    ],
)
def test_algebra_error_names_its_line(tmp_path, capsys, text, message):
    algebra = tmp_path / "algebra.txt"
    algebra.write_text(text)
    assert run(capsys, ["propalg", str(algebra)]) == (2, "", f"error: {message}\n")


def test_propositional_letters_shaped_like_variables(tmp_path, capsys):
    # taut reads letters as nullary predicate symbols, which must not look
    # like variables; a propositional proof needs no language and takes them.
    code, out, err = run(capsys, ["taut", "(x1 -> x1)"])
    assert (code, out) == (2, "")
    assert err == "error: symbol name 'x1' would collide with a variable\n"
    proof = tmp_path / "prop.txt"
    proof.write_text(PROP_PROOF.replace("a", "x1"))
    assert run(capsys, ["check_proof", str(proof), "--prop", "--hyp", "x1"]) == (0, "ACCEPTED\n", "")


def _conjunction(letters):
    text = letters[0]
    for letter in letters[1:]:
        text = f"({text} & {letter})"
    return text


def test_taut_over_candidate_cap_exits_2_promptly(capsys):
    # 21 letters: 2^21 rows, over the search's 2^20 candidates per size.
    start = time.perf_counter()
    code, out, err = run(capsys, ["taut", _conjunction([f"a{i}" for i in range(21)])])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "candidate" in err


def test_countermodel_over_candidate_cap_exits_2_promptly(tmp_path, capsys):
    # 40 nullary predicates fit the 64-cell cap but make 2^40 candidates at size 1.
    letters = [f"p{i}" for i in range(40)]
    path = tmp_path / "sig40.txt"
    path.write_text("".join(f"rel {name}/0\n" for name in letters))
    argv = ["countermodel", "--signature", str(path), "--formula", _conjunction(letters),
            "--max-size", "1"]
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "candidate" in err


def test_countermodel_found_structure_frozen(sig, capsys):
    code, out, _ = run(
        capsys,
        [
            "countermodel",
            "--signature",
            sig,
            "--formula",
            "(r(x1, x1) -> forall r(x1, x1))",
            "--max-size",
            "2",
        ],
    )
    assert code == 1
    assert out == (
        "COUNTERMODEL\n"
        "domain 2\n"
        "fn f: 0 0\n"
        "fn c: 0\n"
        "rel r: 0 0 0 1\n"
        "equality identity\n"
    )


def test_countermodel_none(sig, capsys):
    code, out, _ = run(
        capsys,
        ["countermodel", "--signature", sig, "--formula", "e(x1, x1)", "--max-size", "2"],
    )
    assert code == 0
    assert out == "NO COUNTERMODEL\n"


def _nest(symbol: str, depth: int, inner: str) -> str:
    return f"{symbol}(" * depth + inner + ")" * depth


SIG_DEEP = """\
fn g/1
fn a/0
rel p/2
"""


def test_countermodel_and_eval_read_terms_of_any_depth(tmp_path, capsys):
    # The search ranks each atom's terms, collects their symbols and
    # builds their columns without recursing per nesting level.
    path = tmp_path / "sig_deep.txt"
    path.write_text(SIG_DEEP)
    deep = _nest("g", 2000, "a")
    start = time.perf_counter()
    code, out, err = run(
        capsys, ["countermodel", "--signature", str(path), "--formula", f"~p({deep}, a)"]
    )
    assert (code, err) == (1, "")
    assert out == "COUNTERMODEL\ndomain 1\nfn g: 0\nfn a: 0\nrel p: 1\n"
    # An A5 instance, forall p(x1, t) -> p(t, t), is valid: every
    # structure up to size 2 is tried, each function table over a
    # 1,000-deep term.
    deep = _nest("g", 1000, "a")
    code, out, err = run(
        capsys,
        ["countermodel", "--signature", str(path), "--formula",
         f"(forall p(x1, {deep}) -> p({deep}, {deep}))", "--max-size", "2"],
    )
    assert (code, out, err) == (0, "NO COUNTERMODEL\n", "")
    assert time.perf_counter() - start < 10.0
    # eval builds its columns the same way: g swaps 0 and 1, so the
    # 3,000-deep term is a, and p(a, x1) fails at x1 = 0.
    structure = tmp_path / "swap.txt"
    structure.write_text("domain 2\nfn g: 1 0\nfn a: 0\nrel p: 0 1 1 0\n")
    code, out, err = run(
        capsys,
        ["eval", "--signature", str(path), "--structure", str(structure), "--formula",
         f"p({_nest('g', 3000, 'a')}, x1)"],
    )
    assert (code, out, err) == (1, "COUNTEREXAMPLE [0 ; 0]\n", "")


def test_countermodel_cap_exceeded(sig, capsys):
    code, _, err = run(
        capsys,
        [
            "countermodel",
            "--signature",
            sig,
            "--formula",
            "e(x1, x1)",
            "--max-size",
            "3",
            "--cap",
            "10",
        ],
    )
    assert code == 2
    assert "size bound" in err


def test_qa_laws_modular_structure(capsys):
    code, out, _ = run(capsys, ["qa_laws", "--structure", "zmod3", "--depth", "1"])
    assert code == 0
    assert out == (
        "Q1 pass checked=230\n"
        "Q2 pass checked=208\n"
        "Q3 pass checked=208\n"
        "Q4 pass checked=9\n"
        "Q5 pass checked=252\n"
    )


def test_qa_laws_broken_equality_fails_q4(tmp_path, capsys):
    sig2 = tmp_path / "sig.txt"
    sig2.write_text("rel r/1\nrel e/2 equality\n")
    model = tmp_path / "m.txt"
    model.write_text(BROKEN_EQUALITY)
    code, out, _ = run(
        capsys,
        ["qa_laws", "--signature", str(sig2), "--structure", str(model), "--depth", "1"],
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("Q1 pass")
    assert any(line.startswith("Q4 fail env=") for line in lines)


def test_qa_laws_on_a_multi_bit_structure_file(tmp_path, capsys):
    # The CLI reaches the 4-valued algebra through a `bits 2` structure
    # file and reports what qa_law_check reports on the same structure.
    signature = tmp_path / "sig.txt"
    signature.write_text("rel r/2\nrel e/2 equality\n")
    language = load_signature(signature.read_text())
    structure = Structure(language, 2, {}, {"r": (0, 1, 3, 2)}, truth_bits=2)
    model = tmp_path / "m.txt"
    model.write_text(format_structure(structure))
    assert "bits 2" in model.read_text()
    code, out, err = run(capsys, [
        "qa_laws", "--signature", str(signature), "--structure", str(model), "--depth", "1",
    ])
    atoms = [Atom(name, (Var(i), Var(j))) for name in ("r", "e") for i in (1, 2) for j in (1, 2)]
    report = qa_law_check(structure, FiniteBooleanAlg(2), enumerate_formulas(atoms, 1), 2)
    assert report.ok and (code, err) == (0, "")
    assert out == "".join(f"{law.law} pass checked={law.checked}\n" for law in report.laws)


def test_soundness_restricted_schema(capsys):
    code, out, _ = run(capsys, ["soundness", "--count", "3", "--schema", "A4"])
    assert code == 0
    assert out == "A4 instances=3\nstructures checked: 36\nfailures: 0\n"


def test_soundness_unknown_schema(capsys):
    code, _, err = run(capsys, ["soundness", "--schema", "A99"])
    assert code == 2
    assert "A99" in err


def _yes_no(flag):
    return "yes" if flag else "no"


def test_completeness_default_matches_the_library(capsys):
    code, out, _ = run(capsys, ["completeness"])
    report = completeness_survey(prop_corpus())
    expected = ""
    for index, v in enumerate(report.verdicts):
        expected += (
            f"algebra {index}\nsize {v.carrier}\nboolean {_yes_no(v.boolean)}\n"
            f"valuations {v.valuations}\nfilters {v.filters}\n"
            f"filters are intersections of valuations: {_yes_no(v.filters_are_intersections)}\n"
            f"maximal filters match valuations: "
            f"{_yes_no(v.maximal_filters_match_valuations)}\n"
        )
    assert report.ok and len(report.verdicts) == 20
    assert (code, out) == (0, expected + "all ok: yes\n")


def test_qa_survey_default_matches_the_library(capsys):
    code, out, _ = run(capsys, ["qa_survey"])
    report = qa_survey()
    expected = "".join(
        f"size={cell.size} values={1 << cell.atom_bits} tables={cell.structures} "
        f"({'exhaustive' if cell.exhaustive else 'sampled'}): ok\n"
        for cell in report.cells
    )
    assert report.ok and len(report.cells) == 6
    assert (code, out) == (0, expected + "all ok: yes\n")


@pytest.mark.parametrize(
    "argv",
    [["completeness", "--seed", "3", "--total", "5"],
     ["qa_survey", "--sizes", "1", "2", "--seed", "4", "--exhaustive-cap", "4"]],
    ids=["completeness", "qa_survey"],
)
def test_surveys_print_the_same_bytes_twice(capsys, argv):
    first = run(capsys, argv)
    assert first[0] == 0 and first[1].endswith("all ok: yes\n")
    assert run(capsys, argv) == first


@pytest.mark.parametrize(
    "argv, message",
    [
        (["qa_laws", "--structure", "zmod2", "--rank-bound", "-1"], "rank_bound must be >= 0"),
        (["qa_laws", "--structure", "zmod2", "--depth", "-1"], "connectives must be >= 0"),
        (["soundness", "--count", "-3"], "per_schema must be >= 1"),
        (["soundness", "--count", "0"], "per_schema must be >= 1"),
        (["soundness", "--max-size", "-1"], "max_size must be >= 1"),
        (["soundness", "--max-size", "0"], "max_size must be >= 1"),
        (["countermodel", "--signature", "SIG", "--formula", "e(x1, x1)", "--max-size", "-1"],
         "max_size must be >= 1"),
        (["qa_survey", "--sizes", "0"], "domain size must be >= 1"),
        # Refused before the size-1 cells run or any 10^12-entry table is built.
        (["qa_survey", "--sizes", "1", "1000000"],
         "size 1000000 needs 1000000^2 table entries, over the cap of 1048576"),
        (["qa_survey", "--sizes", "1", "--rank-bound", "-1"], "rank_bound must be >= 0"),
        (["qa_survey", "--sizes", "3", "--sampled", "0"], "sampled_count must be >= 1"),
        (["completeness", "--total", "0"], "total must be >= 1"),
        # Refused before any structure is drawn: about 43 s of work.
        (["soundness", "--count", "1", "--schema", "A1", "--max-size", "30"],
         "21095992 environment rows, over the cap of 4194304"),
        # Refused before any algebra is drawn: about 14 hours of work.
        (["completeness", "--total", "1000000"], "total 1000000 is over the cap of 1000 algebras"),
        # The survey's fixed sample has rank 2.
        (["qa_survey", "--sizes", "1", "--rank-bound", "1"],
         "sample formula has rank 2, over the bound 1"),
        # Refused before any binder is built: 10^9 of them would exhaust memory.
        (["axiom", "A1(p=r(x1, x1), n=1000000000)", "--signature", "SIG"],
         "generalization count 1000000000 is over the cap of 1048576"),
        # Refused before any of the 4000^2 atoms is built.
        (["qa_laws", "--structure", "zmod2", "--rank-bound", "4000", "--depth", "0"],
         "the law sample holds 16000000 formulas, over the cap of 8192"),
    ],
    ids=["rank-bound", "depth", "count", "count-zero", "max-size", "max-size-zero", "countermodel",
         "sizes-zero", "sizes-over-cap", "survey-rank-bound", "sampled-zero", "total-zero",
         "max-size-over-budget", "total-over-cap", "survey-rank-bound-below-sample",
         "axiom-gen-count-over-cap", "qa-laws-atoms-over-cap"],
)
def test_out_of_range_numeric_flags_exit_2(sig, capsys, argv, message):
    # Each of these once ran vacuously or ended in a traceback or an unbounded
    # build, except countermodel.
    argv = [sig if a == "SIG" else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, rows",
    [
        # The right operand of a conjunction is compiled first, so the
        # rank named is 22, not the formula's 23.
        (["eval", "--structure", "zmod2", "--formula", "(e(x23, x1) & e(x22, x22))"], "2^22"),
        # Valid over one element, so the search reaches two.
        (["countermodel", "--signature", "SIG", "--formula",
          "((r(x23, x1) -> r(x23, x1)) & (r(x22, x22) -> r(x22, x22)))", "--max-size", "2"],
         "2^22"),
        # The sample reaches rank 10, 4^10 rows; a Q2 side of rank 11 is over.
        (["qa_laws", "--structure", "zmod4", "--rank-bound", "10", "--depth", "0"], "4^11"),
    ],
    ids=["eval", "countermodel", "qa_laws"],
)
def test_row_cap_refusal_names_the_first_rank_over_the_cap(sig, capsys, argv, rows):
    # The rank of the first node over the cap, in the order the nodes
    # were compiled, is named, before any table is built.
    argv = [sig if a == "SIG" else a for a in argv]
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (2, "")
    assert err == f"error: a formula table needs {rows} rows, over the cap of 1048576\n"


def test_countermodel_of_a_huge_rank_is_bounded_work(sig, capsys):
    # Over one element every table is one row, whatever the rank, and
    # over two a rank-10^12 table is over the row cap.
    formula = "(r(x1000000000000, x1) -> r(x1000000000000, x1))"
    argv = ["countermodel", "--signature", sig, "--formula", formula, "--max-size"]
    start = time.perf_counter()
    assert run(capsys, [*argv, "1"]) == (0, "NO COUNTERMODEL\n", "")
    assert run(capsys, [*argv, "2"]) == (
        2, "", "error: a formula table needs 2^1000000000000 rows, over the cap of 1048576\n"
    )
    assert time.perf_counter() - start < 5.0


def test_qa_laws_rank_bound_zero_refuses_empty_sample(capsys):
    # No atom of e fits coordinates 1..0, so the sample is empty: Q1-Q3
    # and Q5 would pass with checked=0, so the command refuses it.
    code, out, err = run(capsys, ["qa_laws", "--structure", "zmod2", "--rank-bound", "0"])
    assert code == 2
    assert out == ""
    assert err == (
        "error: the law sample is empty: no atom fits coordinates up to --rank-bound 0\n"
    )


def test_qa_laws_rank_bound_zero_runs_with_a_nullary_predicate(tmp_path, capsys):
    signature = tmp_path / "sig.txt"
    signature.write_text("rel p/0\nrel e/2 equality\n")
    model = tmp_path / "m.txt"
    model.write_text("domain 2\nrel p: 1\nequality identity\n")
    code, out, _ = run(capsys, [
        "qa_laws", "--signature", str(signature), "--structure", str(model),
        "--rank-bound", "0", "--depth", "1",
    ])
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        [law, "pass"] for law in ("Q1", "Q2", "Q3", "Q4", "Q5")
    ]
    assert all(int(line.split("checked=")[1]) > 0 for line in lines)


def test_qa_laws_depth_3_runs(capsys):
    # 3,244 formulas over e(xi, xj), i, j in 1..2: under the sample cap.
    code, out, _ = run(capsys, ["qa_laws", "--structure", "zmod2", "--depth", "3"])
    assert code == 0
    assert out == (
        "Q1 pass checked=18621\nQ2 pass checked=12016\nQ3 pass checked=12016\n"
        "Q4 pass checked=4\nQ5 pass checked=12976\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        # 44,524 formulas: enumerated, then refused by the law check.
        (["--depth", "4"], "the law sample holds 44524 formulas, over the cap of 8192"),
        # 51,489 formulas over nine atoms.
        (["--depth", "3", "--rank-bound", "3"], "the law sample holds 51489 formulas"),
        # Over 2^16 formulas: the enumeration stops.
        (["--depth", "5"], "formulas with at most 5 connectives pass the cap of 65536"),
    ],
    ids=["depth-4", "rank-bound-3", "depth-5"],
)
def test_qa_laws_large_sample_exits_2_promptly(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, ["qa_laws", "--structure", "zmod2"] + argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


def test_peano_emit_frozen(capsys):
    code, out, _ = run(capsys, ["peano", "--emit"])
    assert code == 0
    assert out == (
        "~e(0, S(x1))\n"
        "~(~~e(S(x1), S(x2)) & ~e(x1, x2))\n"
        "e(add(x1, 0), x1)\n"
        "e(add(x1, S(x2)), S(add(x1, x2)))\n"
        "e(mul(x1, 0), 0)\n"
        "e(mul(x1, S(x2)), add(mul(x1, x2), x1))\n"
        "~(~~(e(0, 0) & forall ~(~~e(x1, x1) & ~e(S(x1), S(x1)))) & ~forall e(x1, x1))\n"
    )


def test_peano_check_zmod5(capsys):
    code, out, _ = run(capsys, ["peano", "--check-zmod", "5"])
    assert code == 1
    assert out == (
        "S1 COUNTEREXAMPLE [4 ; 0]\n"
        "S2 VALID\n"
        "S3 VALID\n"
        "S4 VALID\n"
        "S5 VALID\n"
        "S6 VALID\n"
    )


def test_peano_induction_instance(capsys):
    code, out, _ = run(capsys, ["peano", "--induction", "e(x1, 0)"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1] == "rank 0"
    assert "forall" in lines[0]


def test_usage_errors_exit_2(capsys):
    assert run(capsys, ["nonsense"])[0] == 2
    assert run(capsys, ["countermodel", "--signature", "x"])[0] == 2
    assert run(capsys, ["peano"])[0] == 2


def test_main_calls_share_nothing_through_the_cached_parser(tmp_path, capsys):
    # The parser is built once per process; values parsed in one call
    # must not leak into the next, including the list default of the
    # repeatable --hyp option.
    assert build_parser() is build_parser()
    path = tmp_path / "prop.txt"
    path.write_text(PROP_PROOF)
    argv = ["check_proof", str(path), "--prop"]
    assert run(capsys, argv + ["--hyp", "a"]) == (0, "ACCEPTED\n", "")
    assert run(capsys, ["taut", "(a -> a)"]) == (0, "TAUTOLOGY\n", "")
    code, out, _ = run(capsys, argv)
    assert code == 1 and out.startswith("REJECTED step 2")
    assert run(capsys, argv + ["--hyp", "a"]) == (0, "ACCEPTED\n", "")
    code, out, _ = run(capsys, argv + ["--hyp", "b"])
    assert code == 1 and out.startswith("REJECTED step 2")
    assert build_parser().parse_args(argv).hyp == []
    assert vars(build_parser().parse_args(["taut", "a"])).keys() == {"command", "text", "handler"}
