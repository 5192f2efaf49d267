"""Stdout, stderr and exit codes of the other subcommands on the command line.

Fixed inputs of ``parse``, ``subst``, ``taut``, ``propalg``, ``eval``,
``axiom``, ``soundness``, ``completeness``, ``qa_survey`` and ``peano``
are replayed through ``cli.main``, refusals among them, and so are
``check_proof`` rejections that the corpus replay does not reach: bad
axiom recipes, a ``hyp 0`` in a propositional proof, and files with no
header.  The exit code, stdout and stderr must equal the values recorded
in ``cli_expected.json``.  Named binders appear in long chains, at large
indices, under positional binders, inside and around groups restated on
one line, and in ``subst``, ``axiom`` and ``peano --induction``, so a
change to how they are read cannot change a node the parser builds.
"""

from __future__ import annotations

import json
import os

from test_check_proof_output import run_case

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "cli_expected.json")

SIGNATURE = """\
fn c/0
fn h/1
fn g/2
rel r/1
rel t/2
rel e/2 equality
"""

# A signature without equality, for A7's refusal.
PLAIN_SIGNATURE = """\
fn c/0
rel r/1
"""

STRUCTURE = """\
domain 2
fn c: 0
fn h: 1 0
fn g: 0 1 1 0
rel r: 1 0
rel t: 1 0 0 1
equality identity
"""

FILES = {
    "signature.txt": SIGNATURE,
    "plain.txt": PLAIN_SIGNATURE,
    "structure.txt": STRUCTURE,
    "boolean4.alg": "size 4\nnot: 3 2 1 0\nand 0: 0 0 0 0\nand 1: 0 1 0 1\n"
                    "and 2: 0 0 2 2\nand 3: 0 1 2 3\n",
    "chain3.alg": "size 3\nnot: 2 1 0\nand 0: 0 0 0\nand 1: 0 1 1\nand 2: 0 1 2\n",
    "no_not.alg": "size 2\nand 0: 0 0\nand 1: 0 1\n",
    "empty.theory": "# no header\n",
    "empty.proof": "# no header\n",
    "missing_q.proof": "local\n1. (r(x1) -> r(x1)) by axiom A2(p=r(x1))\n",
    "a7_plain.proof": "local\n1. r(x1) by axiom A7(i=1)\n",
    "negative_n.proof": "local\n1. (r(x1) -> (r(x1) & r(x1))) by axiom A1(p=r(x1), n=-1)\n",
    "hyp0.proof": "1. a by hyp 0\n",
    "named.proof": "local\n"
                   "1. (forall x2. t(x1, x2) -> (forall x2. t(x1, x2) & forall x2. t(x1, x2))) "
                   "by axiom A1(p=forall x2. t(x1, x2))\n",
}

# (name, argv); a file name in argv stands for its path.
PARSE = [
    ("term", ["term", "g(h(x3), c)"]),
    ("sugared connectives", ["formula", "((r(x1) -> forall t(x1, x2)) <-> (r(c) | ~r(x2)))"]),
    ("named forall", ["formula", "forall x2. t(x1, x2)"]),
    ("named exists over a group", ["formula", "exists x3. (r(x3) & t(x3, x1))"]),
    ("named under positional", ["formula", "forall forall x2. t(x1, x2)"]),
    ("positional under named", ["formula", "exists x1. forall t(x1, x2)"]),
    ("mixed binders", ["formula", "exists forall x3. exists x1. forall t(x3, g(x2, x4))"]),
    ("named binders inside groups",
     ["formula", "(forall x2. t(x1, x2) & exists x1. (r(x1) & t(x2, x1)))"]),
    ("named binder around nested groups",
     ["formula", "forall x2. (t(x1, x2) & (forall x1. t(x1, x2) | r(x3)))"]),
    ("group restated inside a named scope",
     ["formula", "((r(x1) & t(x1, x2)) & forall x1. (r(x1) & t(x1, x2)))"]),
    ("group restated outside a named scope",
     ["formula", "(forall x1. (r(x1) & t(x1, x2)) & (r(x1) & t(x1, x2)))"]),
    ("group holding a named binder restated",
     ["formula", "((forall x2. t(x1, x2) & r(x1)) | forall (forall x2. t(x1, x2) & r(x1)))"]),
    ("atom restated across a named scope",
     ["formula", "(t(x2, x1) & (exists x2. t(x2, x1) & t(x2, x1)))"]),
    ("chain of 1000 over a sentence", ["formula", "exists x1. " * 1000 + "r(x1)"]),
    ("chain of 300 with a moving variable", ["formula", "exists x1. " * 300 + "t(x2, x1)"]),
    ("alternating chain of 100", ["formula", "forall x1. exists x2. " * 50 + "t(x2, x3)"]),
    ("index 1000", ["formula", "forall x1000. t(x1000, x999)"]),
    ("index 65536", ["formula", "exists x65536. t(x65536, x65537)"]),
    ("index 2^20", ["formula", "forall x1048576. (r(x1) & t(x1048576, x2))"]),
    ("unclosed atom", ["formula", "r(x1"]),
    ("unknown predicate", ["formula", "q(x1)"]),
    ("named binder without a dot", ["formula", "forall x1 r(x1)"]),
    ("bad character", ["formula", "r($)"]),
    ("term arity", ["term", "h(c, c)"]),
]
SUBST = [
    ("term", ["term", "g(x1, x2)", "[h(x2), c ; shift 0]"]),
    ("formula under a binder", ["formula", "forall t(x1, x2)", "[h(x1) ; shift 1]"]),
    ("named forall", ["formula", "forall x2. t(x1, x2)", "[x2 ; shift 0]"]),
    ("named exists, constant tail",
     ["formula", "exists x1. (t(x1, x2) & r(x3))", "[c, g(x1, x2) ; const h(c)]"]),
    ("empty substitution", ["term", "x1", "[]"]),
    ("bad tail", ["term", "x1", "[x1 ; frob 2]"]),
]
TAUT = [
    ("identity", ["(a -> a)"]),
    ("contraposition", ["((a -> b) -> (~b -> ~a))"]),
    ("not a tautology", ["(a | b)"]),
    ("missing operand", ["(a & )"]),
]
EVAL = [
    ("zmod3 identity", ["--structure", "zmod3", "--formula", "forall e(add(x1, 0), x1)"]),
    ("zmod3 counterexample", ["--structure", "zmod3", "--formula", "e(S(x1), x2)"]),
    ("file with env",
     ["--signature", "signature.txt", "--structure", "structure.txt",
      "--formula", "t(x1, x3)", "--env", "[1, 0 ; 1]"]),
    ("file, named binders",
     ["--signature", "signature.txt", "--structure", "structure.txt",
      "--formula", "forall x2. (t(x1, x2) | exists x1. t(x1, h(x2)))"]),
    ("env out of the domain",
     ["--signature", "signature.txt", "--structure", "structure.txt",
      "--formula", "r(x1)", "--env", "[5 ; 0]"]),
    ("file without a signature", ["--structure", "structure.txt", "--formula", "r(x1)"]),
]
AXIOM = [
    ("A1", ["A1(p=r(x1))"]),
    ("A3", ["A3(p=r(x1), q=t(x1, x2), r=r(c))"]),
    ("A5 with a substitution", ["A5(p=t(x1, x2), subst=[h(x2) ; shift 0])"]),
    ("A6 under two binders", ["A6(p=t(x1, x2), n=2)"]),
    ("A7", ["A7(i=3)"]),
    ("A8", ["A8(p=t(x1, x3), subst=[c, h(x1) ; shift 0])"]),
    ("named binders in p and q", ["A2(p=forall x2. t(x1, x2), q=exists x1. r(x1))"]),
    ("named binder in A5", ["A5(p=exists x3. t(x3, x1), subst=[g(x1, x2) ; shift 0])"]),
    ("unknown axiom", ["A99(p=r(x1))"]),
    ("unknown parameter", ["A1(p=r(x1), zz=1)"]),
    ("missing parameter", ["A4(p=r(x1))"]),
    ("n over the cap", ["A1(p=r(x1), n=2000000)"]),
]
PEANO = [
    ("emit", ["--emit"]),
    ("check zmod3", ["--check-zmod", "3"]),
    ("induction", ["--induction", "e(add(x1, x2), add(x2, x1))"]),
    ("induction, named binder", ["--induction", "forall x2. e(add(x1, x2), add(x2, x1))"]),
    ("induction, named exists", ["--induction", "exists x2. e(S(x2), x1)"]),
    ("induction, unknown predicate", ["--induction", "r(x1)"]),
    ("check zmod0", ["--check-zmod", "0"]),
]
OTHERS = [
    ("propalg: boolean 4", ["propalg", "boolean4.alg"]),
    ("propalg: chain 3", ["propalg", "chain3.alg"]),
    ("propalg: no not line", ["propalg", "no_not.alg"]),
    ("soundness: every schema", ["soundness", "--count", "2", "--max-size", "2"]),
    ("soundness: A5", ["soundness", "--seed", "3", "--schema", "A5", "--count", "4", "--max-size", "2"]),
    ("soundness: count 0", ["soundness", "--count", "0"]),
    ("soundness: unknown schema", ["soundness", "--schema", "B1"]),
    ("completeness: 3 algebras", ["completeness", "--total", "3"]),
    ("completeness: seed 5", ["completeness", "--seed", "5", "--total", "2"]),
    ("completeness: total 0", ["completeness", "--total", "0"]),
    ("completeness: total 1001", ["completeness", "--total", "1001"]),
    ("qa_survey: sizes 1 2", ["qa_survey", "--sizes", "1", "2", "--sampled", "2"]),
    ("qa_survey: size 0", ["qa_survey", "--sizes", "0"]),
    ("qa_survey: rank bound 1", ["qa_survey", "--rank-bound", "1"]),
    ("check_proof: missing parameter", ["check_proof", "missing_q.proof", "--signature", "signature.txt"]),
    ("check_proof: A7 without equality", ["check_proof", "a7_plain.proof", "--signature", "plain.txt"]),
    ("check_proof: n=-1", ["check_proof", "negative_n.proof", "--signature", "signature.txt"]),
    ("check_proof: named binders", ["check_proof", "named.proof", "--signature", "signature.txt"]),
    ("check_proof: hyp 0 in a propositional proof", ["check_proof", "hyp0.proof", "--prop"]),
    ("check_proof: theory without a header",
     ["check_proof", "named.proof", "--signature", "signature.txt", "--theory", "empty.theory"]),
    ("check_proof: proof without a header", ["check_proof", "empty.proof", "--signature", "signature.txt"]),
]


def build_cases(directory: str) -> list[tuple[str, list[str]]]:
    """(name, argv) for every replayed command, files under directory."""
    paths = {}
    for name, text in FILES.items():
        paths[name] = os.path.join(directory, name)
        with open(paths[name], "w", encoding="utf-8") as handle:
            handle.write(text)
    signature = ["--signature", paths["signature.txt"]]
    cases = [(f"parse: {name}", ["parse"] + argv + signature) for name, argv in PARSE]
    cases += [(f"subst: {name}", ["subst"] + argv + signature) for name, argv in SUBST]
    cases += [(f"taut: {name}", ["taut"] + argv) for name, argv in TAUT]
    cases += [(f"eval: {name}", ["eval"] + argv) for name, argv in EVAL]
    cases += [(f"axiom: {name}", ["axiom"] + argv + signature) for name, argv in AXIOM]
    cases += [(f"peano: {name}", ["peano"] + argv) for name, argv in PEANO]
    cases += OTHERS
    return [(name, [paths.get(arg, arg) for arg in argv]) for name, argv in cases]


def test_cli_output_unchanged(tmp_path) -> None:
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)
    cases = build_cases(str(tmp_path))
    assert [name for name, _ in cases] == list(expected)
    for name, argv in cases:
        assert list(run_case(argv)) == expected[name], name
