#!/usr/bin/env python3
"""Record benchmark runs in a repo-root ``BENCH_<pr>.json``.

    python3 scripts/bench_record.py --pr 7 --runs 10
    python3 scripts/bench_record.py --pr 7 --runs 10 --parent ../parent-checkout
    python3 scripts/bench_record.py --pr 7 --runs 10 --workload proof_check --seed 7919

Runs each checkout's own, unchanged ``perfbench/run.py --trace 0`` once
per run and workload, for the ``run_seconds`` that ``BENCHMARK.json``
sets, and keeps the JSON object it prints last.  With ``--parent`` (a
git checkout of the parent commit) the runs alternate between the parent
checkout and this one, the order swapped every run, so that a slow spell
of the machine falls on both.  Each checkout is named by ``git describe``,
so record from committed code.  For every end-to-end metric the file
holds the values of all runs and their median, minimum and interquartile
range, beside the operations attempted and failed and whether every
verdict was correct.  It also names the Python version and the number
of processors.

A checkout holding ``__pycache__`` under ``src/`` is refused before any
run: its workers would load cached bytecode where the other checkout's
compile from source, which reads as lower ``setup_s`` and
``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("countermodel", "qa_laws", "proof_check")


def describe(checkout: str) -> str | None:
    """``git describe`` of the checkout, or None outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=checkout,
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def bytecode_caches(checkout: str) -> list[str]:
    """Every ``__pycache__`` directory under the checkout's ``src/``."""
    found = []
    for parent, dirs, _ in os.walk(os.path.join(checkout, "src")):
        if "__pycache__" in dirs:
            dirs.remove("__pycache__")
            found.append(os.path.join(parent, "__pycache__"))
    return sorted(found)


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """The last line of one ``perfbench/run.py`` run, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    iqr = 0.0
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        iqr = q3 - q1
    return {"median": statistics.median(values), "min": min(values), "iqr": iqr,
            "values": values}


def summarize(results: list[dict]) -> dict:
    metrics = {}
    for name, entry in results[0]["metrics"].items():
        metrics[name] = {"unit": entry["unit"],
                         **summary([r["metrics"][name]["value"] for r in results])}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": [r["attempted"] for r in results],
        "failed": [r["failed"] for r in results],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and checkout")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--parent", help="a checkout of the parent commit to run alternately")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]

    checkouts = {"change": ROOT}
    if args.parent is not None:
        checkouts = {"parent": os.path.abspath(args.parent), "change": ROOT}
    caches = [path for checkout in checkouts.values() for path in bytecode_caches(checkout)]
    if caches:
        print("bytecode caches skew setup_s and peak_rss_mb; remove them with: rm -r "
              + " ".join(caches), file=sys.stderr)
        return 2
    results = {label: {w: [] for w in args.workload or WORKLOADS} for label in checkouts}
    for workload in args.workload or WORKLOADS:
        for run in range(args.runs):
            order = list(checkouts) if run % 2 == 0 else list(reversed(checkouts))
            for label in order:
                result = run_once(checkouts[label], workload, args.seed, seconds)
                results[label][workload].append(result)
                ops = result["metrics"]["ops_per_s"]["value"]
                print(f"{workload} run {run + 1}/{args.runs} {label}: ops_per_s {ops:.4g}",
                      file=sys.stderr, flush=True)

    record = {
        "pr": args.pr,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": args.seed,
        "seconds": seconds,
        "runs": args.runs,
        "command": "python3 perfbench/run.py --workload W --seed SEED --seconds SECONDS --trace 0",
        "checkouts": {},
    }
    for label, path in checkouts.items():
        record["checkouts"][label] = {
            "commit": describe(path),
            "workloads": {w: summarize(rs) for w, rs in results[label].items()},
        }
    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
