"""The benchmark's tracer wraps package functions by name, so every name
it lists in ``perfbench/tracer.py`` must still resolve in ``clonelogic``."""

from __future__ import annotations

import importlib
import os

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")


def test_tracer_targets_resolve(monkeypatch) -> None:
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    modules = {name: importlib.import_module(f"clonelogic.{name}") for name in tracer.MODULES}
    missing = [
        f"{module}.{function}"
        for module, function in (*tracer.TARGETS, *tracer.GENERATORS)
        if not callable(getattr(modules[module], function, None))
    ]
    assert missing == []
