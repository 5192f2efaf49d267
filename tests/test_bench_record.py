"""``scripts/bench_record.py`` refuses checkouts whose ``src/`` holds
bytecode caches, before any benchmark run."""

from __future__ import annotations

import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(os.path.dirname(HERE), "scripts", "bench_record.py")


def load_script():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checkouts_with_bytecode_caches_are_refused(tmp_path, capsys) -> None:
    bench_record = load_script()
    (tmp_path / "src" / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "perfbench" / "__pycache__").mkdir(parents=True)
    assert bench_record.bytecode_caches(str(tmp_path)) == []
    pkg = tmp_path / "src" / "pkg"
    caches = [pkg / "__pycache__", pkg / "sub" / "__pycache__"]
    for cache in caches:
        cache.mkdir()
    assert bench_record.bytecode_caches(str(tmp_path)) == [str(c) for c in caches]
    assert bench_record.main(["--pr", "0", "--parent", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "rm -r " in err and all(str(c) in err for c in caches)
    assert not os.path.exists(os.path.join(bench_record.ROOT, "BENCH_0.json"))
