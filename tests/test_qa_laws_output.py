"""Stdout and exit codes of ``qa_laws`` on the command line.

The benchmark's ``qa_laws --structure zmod<m>`` operations at three seeds
are replayed through ``cli.main``, and so are structure files whose
equality is not the identity, at one and two truth bits and sizes 2-4,
where laws fail and the report names the first failing environment.
The exit code and stdout must equal the values recorded in
``qa_laws_expected.json``, so a change to how law programs are compiled
or evaluated cannot change a pass count or a ``Qk fail env=...`` line.
"""

from __future__ import annotations

import json
import os

from test_check_proof_output import PERFBENCH, run_case

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "qa_laws_expected.json")

SEEDS = (1, 2, 7919)

SIGNATURE = """\
rel r/2
rel e/2 equality
"""


def failing_structure(size: int, bits: int) -> str:
    """A structure file over SIGNATURE whose tables vary with their
    arguments and whose equality is not the identity, so Q4 and Q5 fail."""
    top = (1 << bits) - 1
    r = [(5 * i + 1) % (top + 1) for i in range(size * size)]
    e = [(7 * i + 2) % (top + 1) for i in range(size * size)]
    return (
        f"domain {size}\nbits {bits}\n"
        f"rel r: {' '.join(map(str, r))}\nrel e: {' '.join(map(str, e))}\n"
    )


def build_cases(directory: str, monkeypatch) -> list[tuple[str, list[str]]]:
    """(name, argv) for every replayed command, files under directory."""
    monkeypatch.syspath_prepend(PERFBENCH)  # gen imports its sibling `logic`
    import gen

    cases = []
    for seed in SEEDS:
        seed_dir = os.path.join(directory, f"seed{seed}")
        os.mkdir(seed_dir)
        for op in gen.generate("qa_laws", seed, seed_dir).ops:
            if op.argv is not None:
                cases.append((f"seed {seed}: {op.label}", op.argv))
    signature = os.path.join(directory, "signature.txt")
    with open(signature, "w", encoding="utf-8") as handle:
        handle.write(SIGNATURE)
    for size in (2, 3, 4):
        for bits in (1, 2):
            path = os.path.join(directory, f"size{size}_bits{bits}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(failing_structure(size, bits))
            argv = ["qa_laws", "--signature", signature, "--structure", path]
            cases.append((f"broken equality, size {size}, bits {bits}", argv))
    return cases


def test_qa_laws_output_unchanged(tmp_path, monkeypatch) -> None:
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)
    cases = build_cases(str(tmp_path), monkeypatch)
    assert [name for name, _ in cases] == list(expected)
    for name, argv in cases:
        code, out, _ = run_case(argv)
        assert [code, out] == expected[name], name
