"""End-to-end tests for the command line, via direct main() calls."""

import time

import pytest

from clonelogic.cli import build_parser, main
from clonelogic.errors import BoundExceeded
from clonelogic.semantics import zmod_structure

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


def test_parse_deep_nesting_exits_2_without_traceback(sig, capsys):
    code, out, err = run(capsys, ["parse", "formula", "~" * 5000 + "r(x1, x1)", "--signature", sig])
    assert code == 2
    assert out == ""
    assert err == "error: formula nested too deeply\n"


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


@pytest.fixture
def sig_unary(tmp_path):
    path = tmp_path / "sig_unary.txt"
    path.write_text(SIG_UNARY)
    return str(path)


@pytest.mark.parametrize("binder", ["forall", "exists"])
def test_named_binder_over_cap_exits_2_promptly(sig_unary, capsys, binder):
    start = time.perf_counter()
    code, out, err = run(
        capsys, ["parse", "formula", f"{binder} x99999999. r(x1)", "--signature", sig_unary]
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "99999999" in err


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


def test_soundness_restricted_schema(capsys):
    code, out, _ = run(capsys, ["soundness", "--count", "3", "--schema", "A4"])
    assert code == 0
    assert out == "A4 instances=3\nstructures checked: 36\nfailures: 0\n"


def test_soundness_unknown_schema(capsys):
    code, _, err = run(capsys, ["soundness", "--schema", "A99"])
    assert code == 2
    assert "A99" in err


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
    ],
    ids=["rank-bound", "depth", "count", "count-zero", "max-size", "max-size-zero", "countermodel"],
)
def test_out_of_range_numeric_flags_exit_2(sig, capsys, argv, message):
    # Each of these once exited 0 with a vacuous result, except countermodel.
    argv = [sig if a == "SIG" else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_qa_laws_rank_bound_zero_still_runs(capsys):
    # No atom of e fits coordinates 1..0, so the sample is empty; Q4 is
    # compared at prefix length 1.
    code, out, _ = run(capsys, ["qa_laws", "--structure", "zmod2", "--rank-bound", "0"])
    assert code == 0
    assert out == (
        "Q1 pass checked=0\nQ2 pass checked=0\nQ3 pass checked=0\n"
        "Q4 pass checked=2\nQ5 pass checked=0\n"
    )


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
