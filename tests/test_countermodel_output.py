"""Stdout and exit codes of ``countermodel`` on the command line.

The benchmark's ``countermodel`` operations at three seeds and a few
formulas over a binary function and over equality are replayed through
``cli.main``.  The exit code and stdout must equal the values recorded
in ``countermodel_expected.json``, so a change to how the search orders,
prunes or evaluates candidates cannot change which countermodel is
printed first.
"""

from __future__ import annotations

import json
import os

from test_check_proof_output import PERFBENCH, run_case

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "countermodel_expected.json")

SEEDS = (1, 2, 7919)

SIGNATURE = """\
fn c/0
fn g/1
fn h/2
rel r/1
rel s/2
rel e/2 equality
"""

# (name, formula, max size).  The valid ones run through every candidate
# up to their size, the others stop at their first countermodel.
FORMULAS = [
    ("h commutes", "e(h(x1, x2), h(x2, x1))", 3),
    ("h associates", "e(h(h(x1, x2), x3), h(x1, h(x2, x3)))", 3),
    ("h idempotent", "e(h(x1, x1), x1)", 3),
    ("three values of h", "((e(c, h(c, c)) | e(c, h(h(c, c), c))) | e(h(c, c), h(h(c, c), c)))", 3),
    ("commutative h, valid", "(forall forall e(h(x1, x2), h(x2, x1)) -> e(h(c, h(c, c)), h(h(c, c), c)))", 3),
    ("right identity, valid", "(forall e(h(x1, c), x1) -> e(h(c, c), c))", 2),
    ("s through h, valid", "(forall s(x1, h(x1, c)) -> s(h(c, c), h(h(c, c), c)))", 2),
    ("r closed under h", "((r(c) & forall forall ((r(x1) & r(x2)) -> r(h(x1, x2)))) -> forall r(x1))", 3),
    ("injective g is surjective, valid",
     "(forall x1. forall x2. (e(g(x1), g(x2)) -> e(x1, x2)) -> forall x1. exists x2. e(g(x2), x1))", 3),
    ("g a 3-cycle", "((e(c, g(c)) | e(c, g(g(c)))) | (e(g(c), g(g(c))) | ~e(c, g(g(g(c))))))", 3),
]


def build_cases(directory: str, monkeypatch) -> list[tuple[str, list[str]]]:
    """(name, argv) for every replayed command, files under directory."""
    monkeypatch.syspath_prepend(PERFBENCH)  # gen imports its sibling `logic`
    import gen

    cases = []
    for seed in SEEDS:
        seed_dir = os.path.join(directory, f"seed{seed}")
        os.mkdir(seed_dir)
        for op in gen.generate("countermodel", seed, seed_dir).ops:
            cases.append((f"seed {seed}: {op.label}", op.argv))
    signature = os.path.join(directory, "signature.txt")
    with open(signature, "w", encoding="utf-8") as handle:
        handle.write(SIGNATURE)
    for name, formula, max_size in FORMULAS:
        argv = ["countermodel", "--signature", signature, "--formula", formula,
                "--max-size", str(max_size)]
        cases.append((name, argv))
    return cases


def test_countermodel_output_unchanged(tmp_path, monkeypatch) -> None:
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)
    cases = build_cases(str(tmp_path), monkeypatch)
    assert [name for name, _ in cases] == list(expected)
    for name, argv in cases:
        code, out, _ = run_case(argv)
        assert [code, out] == expected[name], name
