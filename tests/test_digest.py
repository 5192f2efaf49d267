"""The benchmark operations print what they printed when the digests
below were recorded: ``scripts/digest.py`` at seed 1 for each workload.

A change that means to alter an output updates its digest here and says
why; every other change leaves these three lines alone.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "digest.py")

SEED_1 = {
    "countermodel": "a98d4fc2bba2b0e1f62353e4893068a4183ebce783bdb79200606d523f6f369b",
    "qa_laws": "50f0994df55ca5d803e0cfeedf7a54f244f824254dc9f8ae99cb3acd8a8ffff6",
    "proof_check": "f8dbe7c27c811e65a4192d5441e7c7713cde71df3c666d62d8971227128477c4",
}


@pytest.mark.parametrize("workload", sorted(SEED_1))
def test_benchmark_outputs_match_their_digest(workload) -> None:
    result = subprocess.run(
        [sys.executable, SCRIPT, "--workload", workload, "--seed", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.endswith(f" ops, sha256 {SEED_1[workload]}\n")
    assert result.stdout.startswith(f"{workload} seed 1: ")
