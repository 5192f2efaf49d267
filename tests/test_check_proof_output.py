"""Stdout and exit codes of ``check_proof`` on the command line.

Every corpus proof of ``proof_corpus`` and every single-edit mutant of it
is written out in the proof file format and replayed through
``cli.main``.  The exit code, stdout and stderr must equal the values
recorded in ``check_proof_expected.json``, so a change to how proofs are
read or checked cannot alter a verdict line or an ``error:`` line.  The
benchmark's generated ``proof_check`` proofs are replayed too, against
the verdicts their generator expects.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re

from clonelogic.cli import main
from clonelogic.proofs import ByAxiom, ByGen, ByHyp, ByMP, BySubst
from clonelogic.syntax import format_axiom_spec, format_formula, format_subst
from proof_corpus import (
    MONADIC,
    MONIC,
    PREDICATE_PROOFS,
    PROPOSITIONAL_PROOFS,
    SIGNATURE,
    load_predicate_corpus,
    load_propositional_corpus,
    predicate_mutants,
    propositional_mutants,
)

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "check_proof_expected.json")
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")


def _justification(by) -> str:
    match by:
        case ByAxiom(spec):
            return f"axiom {format_axiom_spec(spec)}"
        case ByHyp(index):
            return f"hyp {index + 1}"
        case ByMP(premise, implication):
            return f"mp {premise + 1} {implication + 1}"
        case BySubst(source, sub):
            return f"subst {source + 1} {format_subst(sub)}"
        case ByGen(source):
            return f"gen {source + 1}"
    raise TypeError(f"no file form for {by!r}")


def _proof_text(proof, theory_name) -> str:
    lines = [proof.kind] + ([f"theory {theory_name}"] if theory_name else [])
    for number, step in enumerate(proof.steps, start=1):
        lines.append(f"{number}. {format_formula(step.formula)} by {_justification(step.by)}")
    return "\n".join(lines) + "\n"


def _prop_justification(by) -> str:
    # Propositional files name an axiom bare: A1(p=..), not axiom A1(p=..).
    return format_axiom_spec(by.spec) if isinstance(by, ByAxiom) else _justification(by)


def _prop_proof_text(proof) -> str:
    return "".join(
        f"{number}. {format_formula(step.formula)} by {_prop_justification(step.by)}\n"
        for number, step in enumerate(proof.steps, start=1)
    )


def build_cases(directory: str) -> list[tuple[str, list[str]]]:
    """(name, argv) for every corpus proof and mutant, files under directory."""

    def write(name: str, text: str) -> str:
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    signature = write("signature.txt", SIGNATURE)
    theories = {"monadic": write("monadic.theory", MONADIC), "monic": write("monic.theory", MONIC)}
    cases = []
    predicate = zip(PREDICATE_PROOFS, load_predicate_corpus())
    for k, ((name, _, theory_text), (_, proof, theory)) in enumerate(predicate):
        theory_name = theory.name if theory_text is not None else None
        flags = ["--signature", signature]
        if theory_name is not None:
            flags += ["--theory", theories[theory_name]]
        edits = [("as written", proof)] + list(predicate_mutants(proof, theory))
        for j, (edit, variant) in enumerate(edits):
            path = write(f"p{k}_{j}.proof", _proof_text(variant, theory_name))
            cases.append((f"{name}: {edit}", ["check_proof", path] + flags))
    propositional = zip(PROPOSITIONAL_PROOFS, load_propositional_corpus())
    for k, ((name, _, hyp_texts), (_, proof, hyps)) in enumerate(propositional):
        flags = ["--prop"] + [arg for text in hyp_texts for arg in ("--hyp", text)]
        edits = [("as written", proof)] + list(propositional_mutants(proof, hyps))
        for j, (edit, variant) in enumerate(edits):
            path = write(f"q{k}_{j}.proof", _prop_proof_text(variant))
            cases.append((f"{name}: {edit}", ["check_proof", path] + flags))
    return cases


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_corpus_verdict_lines_unchanged(tmp_path) -> None:
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)
    cases = build_cases(str(tmp_path))
    assert [name for name, _ in cases] == list(expected)
    for name, argv in cases:
        assert list(run_case(argv)) == expected[name], name


def test_benchmark_proofs_keep_their_verdicts(tmp_path, monkeypatch) -> None:
    monkeypatch.syspath_prepend(PERFBENCH)  # gen imports its sibling `logic`
    import gen

    workload = gen.generate("proof_check", 1, str(tmp_path))
    replayed = set()
    for op in workload.ops:
        if op.argv[0] != "check_proof":
            continue
        replayed.add(op.expect["kind"])
        code, out, _ = run_case(op.argv)
        if op.label == "deep_negation":
            # Valid, but nested past the recursive parser: exit 2 today.
            assert (code, out) in ((0, "ACCEPTED\n"), (2, "")), op.label
        elif op.expect["kind"] == "accept":
            assert (code, out) == (0, "ACCEPTED\n"), op.label
        else:
            assert code == 1, op.label
            assert re.fullmatch(rf"REJECTED step {op.expect['step']}: [^\n]+\n", out), op.label
    assert replayed == {"accept", "reject"}
