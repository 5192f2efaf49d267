"""Runs one workload's operations against the program in a fresh process.

    python3 perfbench/worker.py MANIFEST --out RESULT.json --seconds S [--trace-out SPANS]
    python3 perfbench/worker.py MANIFEST --setup-only

Set-up imports ``clonelogic`` from ``src/`` of the checkout and loads the
workload's fixed files through the program's loaders.  The timed phase
repeats whole rounds of the manifest's operations until ``--seconds``
have passed: command-line operations go through ``clonelogic.cli.main``
with stdout captured, library operations through
``clonelogic.semantics.qa_law_check``.  Before each operation the worker
times a fixed reference workload that gauges the machine's speed.  With
``--trace-out`` the rounds run under the span tracer, then the same
number of rounds run untraced to measure the tracer's overhead.  The
result file holds the timing samples, the distinct outputs of every
operation and, when traced, the per-layer summary; ``run.py`` checks the
outputs and computes the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _read(path) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def setup(manifest):
    """Import the program and load the fixed files; returns (context, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import clonelogic
    from clonelogic import cli, formulas, semantics, syntax, terms

    if not os.path.abspath(clonelogic.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported clonelogic from {clonelogic.__file__}, not {SRC}")
    spec = manifest["setup"]
    ctx = {"cli": cli, "semantics": semantics, "syntax": syntax}
    language = syntax.load_signature(_read(spec["signature"]))
    ctx["language"] = language
    if manifest["workload"] == "qa_laws":
        relation = spec["relation"]
        structures = {}
        for entry in spec["structures"]:
            if "path" in entry:
                structure = syntax.load_structure(_read(entry["path"]), language)
            else:
                structure = semantics.Structure(
                    language, entry["size"], {}, {relation: tuple(entry["table"])},
                    truth_bits=entry["bits"],
                )
            structures[entry["name"]] = (structure, semantics.FiniteBooleanAlg(entry["bits"]))
        ctx["structures"] = structures
        atoms = [formulas.Atom(relation, (terms.Var(i), terms.Var(j)))
                 for i in (1, 2) for j in (1, 2)]
        ctx["sample"] = formulas.enumerate_formulas(atoms, 2)
    for path in spec.get("theories", ()):
        syntax.load_theory(_read(path), language)
    return ctx, time.perf_counter() - start


def run_op(ctx, op):
    """(exit code or "error", output) of one operation."""
    if op["argv"] is not None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = ctx["cli"].main(list(op["argv"]))
            except Exception as exc:  # a traceback a user would see: a failed operation
                return "error", f"{type(exc).__name__}: {str(exc)[:200]}"
        return code, out.getvalue()
    structure, algebra = ctx["structures"][op["call"]["structure"]]
    report = ctx["semantics"].qa_law_check(structure, algebra, ctx["sample"], 2)
    return "qa", [[law.law, law.ok, law.checked] for law in report.laws]


def reference_work() -> int:
    """Fixed pure-Python work, about 5 ms here, that touches nothing of the
    program: building, walking, hashing and comparing tuple trees."""
    memo = {}

    def build(depth, k):
        if depth == 0:
            return ("leaf", k % 7)
        return ("node", build(depth - 1, k * 3 + 1), build(depth - 1, k * 5 + 2))

    def walk(t):
        if t[0] == "leaf":
            return t[1]
        key = (t[1][0], len(t))
        memo[key] = memo.get(key, 0) + 1
        return walk(t[1]) + walk(t[2])

    total = 0
    for k in range(8):
        tree = build(9, k)
        total += walk(tree) + (hash(tree) & 1) + (tree == build(9, k))
    return total


def time_reference() -> float:
    """Seconds taken by reference_work, with the collector off so that
    the program's heap does not enter the figure."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_rounds(ctx, ops, seconds=None, rounds=None):
    """Whole rounds until ``seconds`` have passed (at least one), or
    exactly ``rounds`` rounds.  Each operation is preceded by one timing
    of the reference work, which gauges the machine's speed at that
    moment.  A sample is [op index, wall s, cpu s, reference s, ok]."""
    samples = []
    outputs = [[] for _ in ops]
    done = 0
    start = time.perf_counter()
    while rounds is None or done < rounds:
        if rounds is None and done and time.perf_counter() - start >= seconds:
            break
        for i, op in enumerate(ops):
            ref = time_reference()
            cpu0, wall0 = time.process_time(), time.perf_counter()
            result = run_op(ctx, op)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            samples.append([i, wall, cpu, ref, result[0] in (0, 1, "qa")])
            if list(result) not in outputs[i]:
                outputs[i].append(list(result))
        done += 1
    return {"samples": samples, "outputs": outputs, "rounds": done}


def _nodes(obj) -> int:
    args = getattr(obj, "args", None)
    if args is not None:
        return 1 + sum(_nodes(a) for a in args)
    if hasattr(obj, "body"):
        return 1 + _nodes(obj.body)
    if hasattr(obj, "left"):
        return 1 + _nodes(obj.left) + _nodes(obj.right)
    return 1


def workload_formulas(ctx, manifest):
    syntax, language = ctx["syntax"], ctx["language"]
    name = manifest["workload"]
    if name == "qa_laws":
        return list(ctx["sample"])
    if name == "countermodel":
        return [syntax.parse_formula(op["argv"][4], language) for op in manifest["ops"]]
    out = []
    for op in manifest["ops"]:
        argv = op["argv"]
        if argv[0] == "check_proof" and "--prop" not in argv and op["label"] != "deep_negation":
            proof, _ = syntax.load_proof(_read(argv[1]), language)
            out += [step.formula for step in proof.steps]
    return out


def eq_hash_ns(ctx, manifest):
    """ns per node of == and hash() on the workload's formulas, against
    structurally equal copies re-parsed through syntax."""
    syntax, language = ctx["syntax"], ctx["language"]
    originals = workload_formulas(ctx, manifest)
    copies = [syntax.parse_formula(syntax.format_formula(p), language) for p in originals]
    pairs = list(zip(originals, copies))
    nodes = sum(_nodes(p) for p in originals)
    reps = max(1, 1_000_000 // nodes)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(reps):
        for a, b in pairs:
            if not a == b:
                raise SystemExit("re-parsed formula differs from its original")
    eq = clock() - t0
    t0 = clock()
    for _ in range(reps):
        for b in copies:
            hash(b)
    hashing = clock() - t0
    scale = 1e9 / (reps * nodes)
    return eq * scale, hashing * scale


REFERENCE_S = 0.005


def speed(samples) -> list:
    """Per sample, how many times slower than nominal the machine ran:
    the reference time over REFERENCE_S."""
    return [sample[3] / REFERENCE_S for sample in samples]


def per_layer(summary, traced, plain, eq_ns, hash_ns) -> dict:
    rounds = traced["rounds"]
    factor = statistics.median(speed(traced["samples"]))
    calls, total, self_ = summary["calls"], summary["total"], summary["self"]
    group, counts = summary["group"], summary["counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    parse_s = group.get("syntax.parse", 0.0)
    searched = counts.get("semantics.enumerate_structures", 0.0)
    m = {
        "cli.self_s": self_.get("cli.main", 0.0),
        "syntax.parse_s": parse_s,
        "syntax.parse_kb_per_s": ratio(counts.get("syntax.parse_bytes", 0.0) / 1000, parse_s),
        "syntax.format_s": group.get("syntax.format", 0.0),
        "proofs.check_s": self_.get("proofs.check_proof", 0.0),
        "proofs.steps_per_s": ratio(counts.get("proofs.steps", 0.0),
                                    total.get("proofs.check_proof", 0.0)),
        "proofs.instantiate_s": group.get("proofs.instantiate", 0.0),
        "propositional.check_s": group.get("propositional.check", 0.0),
        "formulas.fsubst_calls": calls.get("formulas.fsubst", 0),
        "formulas.fsubst_s": total.get("formulas.fsubst", 0.0),
        "formulas.frank_calls": calls.get("formulas.frank", 0),
        "formulas.frank_s": total.get("formulas.frank", 0.0),
        "formulas.check_formula_calls": calls.get("formulas.check_formula", 0),
        "formulas.check_formula_s": total.get("formulas.check_formula", 0.0),
        "formulas.eq_ns_per_node": eq_ns,
        "formulas.hash_ns_per_node": hash_ns,
        "terms.apply_calls": calls.get("terms.apply", 0),
        "terms.subst_s": group.get("terms.subst", 0.0),
        "semantics.structures_enumerated": searched,
        "semantics.structures_per_s": ratio(searched,
                                            total.get("semantics.countermodel_search", 0.0)),
        "semantics.envs_evaluated": calls.get("semantics.eval_formula", 0),
        "semantics.eval_s": total.get("semantics.eval_formula", 0.0),
        "semantics.search_self_s": self_.get("semantics.countermodel_search", 0.0),
        "semantics.qa_check_s": self_.get("semantics.qa_law_check", 0.0),
        "semantics.law_instances_per_s": ratio(counts.get("semantics.law_instances", 0.0),
                                               total.get("semantics.qa_law_check", 0.0)),
    }
    # Counts and busy times are per round, times at nominal machine speed.
    for name in m:
        if name.endswith("per_s"):
            m[name] *= factor
        elif name.endswith("_ns_per_node"):
            m[name] /= factor
        elif name.endswith("_s"):
            m[name] /= rounds * factor
        else:
            m[name] /= rounds
    traced_s = sum(s[1] / f for s, f in zip(traced["samples"], speed(traced["samples"])))
    plain_s = sum(s[1] / f for s, f in zip(plain["samples"], speed(plain["samples"])))
    m["trace.overhead_s"] = (traced_s - plain_s) / rounds
    m["trace.overhead_pct"] = 100.0 * ratio(traced_s - plain_s, plain_s)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as handle:
        manifest = json.load(handle)
    ctx, setup_s = setup(manifest)
    if args.setup_only:
        ref = sorted(time_reference() for _ in range(3))[1]
        print(json.dumps({"setup_s": setup_s, "ref_s": ref}))
        return 0
    ops = manifest["ops"]
    if args.trace_out is None:
        result = run_rounds(ctx, ops, seconds=args.seconds)
    else:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(ctx, ops, seconds=args.seconds / 2)
        finally:
            tracer.uninstall()
        plain = run_rounds(ctx, ops, rounds=traced["rounds"])
        eq_ns, hash_ns = eq_hash_ns(ctx, manifest)
        tracer.dump(args.trace_out)
        result = {
            "samples": traced["samples"] + plain["samples"],
            "outputs": [a + [o for o in b if o not in a]
                        for a, b in zip(traced["outputs"], plain["outputs"])],
            "rounds": traced["rounds"] + plain["rounds"],
            "per_layer": per_layer(tracer.summary(), traced, plain, eq_ns, hash_ns),
        }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
