#!/usr/bin/env python3
"""Print a digest of the benchmark operations' outputs.

    python3 scripts/digest.py
    python3 scripts/digest.py --workload qa_laws --seed 1 --seed 7919
    python3 scripts/digest.py --checkout ../parent-checkout

For each workload and seed, ``perfbench/gen.py`` writes the inputs into
the checkout's ``perfbench/.inputs/digest-<workload>-s<seed>/``, and each
operation runs once through ``perfbench/worker.py``'s ``setup`` and
``run_op``, so the program is the checkout's ``src/``.  An operation's
result is serialized as one line, ``json.dumps([label, code, output])``
followed by a newline, where ``code`` is the exit code (``"qa"`` for a
library law check, ``"error"`` for an escaped exception) and ``output``
is the captured stdout or the list of ``[law, ok, checked]`` rows.  The
digest is the sha256 of those lines in manifest order.  Each output line
reads ``<workload> seed <seed>: <ops> ops, sha256 <hex>``.  Two checkouts
print the same digest exactly when every operation printed the same.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("countermodel", "qa_laws", "proof_check")
SEEDS = (1, 2, 7919)


def digest(checkout: str, workload: str, seed: int) -> tuple[int, str]:
    """(number of operations, sha256 hex) of one workload at one seed."""
    perfbench = os.path.join(checkout, "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import gen
    import worker

    inputs = os.path.join(perfbench, ".inputs", f"digest-{workload}-s{seed}")
    manifest = gen.generate(workload, seed, inputs).manifest()
    ctx, _ = worker.setup(manifest)
    sha = hashlib.sha256()
    for op in manifest["ops"]:
        code, output = worker.run_op(ctx, op)
        sha.update((json.dumps([op["label"], code, output]) + "\n").encode("utf-8"))
    return len(manifest["ops"]), sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", default=ROOT, help="checkout to run (default: this one)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload (repeatable; default: all three)")
    parser.add_argument("--seed", action="append", type=int,
                        help="seed (repeatable; default: 1, 2 and 7919)")
    args = parser.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    for workload in args.workload or WORKLOADS:
        for seed in args.seed or SEEDS:
            ops, hexdigest = digest(checkout, workload, seed)
            print(f"{workload} seed {seed}: {ops} ops, sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
