"""What a fresh process loads to import the command line and run one
subcommand.  It counts modules and times nothing.

The kernel's records are slotted value classes (``terms.Record``), so no
``clonelogic`` module loads ``dataclasses`` or what that loads in turn.
The child runs with ``-S``, so no site hook loads modules before the
package does, and with ``PYTHONDONTWRITEBYTECODE=1``, as a user's
one-shot process from a read-only checkout would.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PERFBENCH = os.path.join(ROOT, "perfbench")

# Loaded by ``dataclasses`` on Python 3.11, and by nothing the package uses.
NOT_LOADED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "copy")

CHILD = r"""
import contextlib, io, json, sys
import clonelogic.cli as cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return [code, out.getvalue()]

loaded = {"import": sorted(sys.modules)}
loaded["taut_run"] = run(["taut", "(a -> a)"])
loaded["taut"] = sorted(sys.modules)
loaded["soundness_run"] = run(json.loads(sys.argv[1]))
print(json.dumps(loaded))
"""

SOUNDNESS_A5 = ["soundness", "--seed", "3", "--schema", "A5", "--count", "4", "--max-size", "2"]


def _child() -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, json.dumps(SOUNDNESS_A5)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout)


def test_cold_import_loads_no_dataclasses_machinery() -> None:
    loaded = _child()
    for stage in ("import", "taut"):
        assert [name for name in NOT_LOADED if name in loaded[stage]] == [], stage
    assert loaded["taut_run"] == [0, "TAUTOLOGY\n"]
    with open(os.path.join(HERE, "cli_expected.json"), encoding="utf-8") as handle:
        code, stdout, _ = json.load(handle)["soundness: A5"]
    assert loaded["soundness_run"] == [code, stdout]


def test_cli_import_loads_every_module_the_tracer_wraps(monkeypatch) -> None:
    """``perfbench/tracer.py`` reads each module it wraps from
    ``sys.modules`` after the benchmark's set-up has imported
    ``clonelogic.cli``, so the survey modules ``checks`` and ``sampling``
    load with the command line, not inside the survey handlers."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    loaded = _child()["import"]
    assert [m for m in tracer.MODULES if f"clonelogic.{m}" not in loaded] == []
