#!/usr/bin/env python3
"""clonelogic benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload countermodel --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1     # every workload in turn
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The benchmark generates the workload's
inputs from the seed (``gen.py``), measures set-up in separate fresh
processes, runs the timed rounds in one fresh worker process
(``worker.py``), checks every verdict with its own reference checker
(``logic.py``), and prints one JSON object as its last line.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced run, with the tracer's
overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import logic as L  # noqa: E402
import worker  # noqa: E402

WORKLOADS = tuple(gen.GENERATORS)
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 150

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    _SPEC = json.load(_handle)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


# ---------------------------------------------------------------------------
# verdict checks; each returns a list of problems, empty when the verdict holds
# ---------------------------------------------------------------------------

def parse_model(text, sig):
    """The structure printed by ``countermodel``, or None if malformed."""
    arity = {name: (a, kind) for name, a, kind in sig}
    lines = text.strip("\n").split("\n")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "domain" or not head[1].isdigit():
        return None
    n = int(head[1])
    fns, rels = {}, {}
    for line in lines[1:]:
        match = re.fullmatch(r"(fn|rel) (\S+): ([0-9 ]*)", line)
        if match is None or match.group(2) not in arity:
            return None
        kind, name = match.group(1), match.group(2)
        values = tuple(int(v) for v in match.group(3).split())
        a, declared = arity[name]
        top = n - 1 if kind == "fn" else 1
        if declared != kind or len(values) != n ** a or any(v > top for v in values):
            return None
        (fns if kind == "fn" else rels)[name] = values
    if len(fns) + len(rels) != len(sig):
        return None
    return L.Model(n, fns, rels)


def check_countermodel(expect, sig, code, out, smaller_cache):
    p = expect["formula"]
    if code == 0 and out == "NO COUNTERMODEL\n":
        if expect["kind"] != "valid":
            return ["NO COUNTERMODEL on a formula that is not valid by construction"]
        return []
    if code != 1 or not out.startswith("COUNTERMODEL\n"):
        return [f"unexpected output {out[:80]!r} (exit {code})"]
    model = parse_model(out[len("COUNTERMODEL\n"):], sig)
    if model is None:
        return ["malformed countermodel"]
    problems = []
    if model.n > gen.COUNTERMODEL_MAX_SIZE:
        problems.append("countermodel larger than --max-size")
    if not L.falsified(model, p):
        problems.append("reported countermodel satisfies the formula")
    key = (id(p), model.n)
    if key not in smaller_cache:
        smaller_cache[key] = any(
            L.falsified(m, p) for n in range(1, model.n) for m in L.models(sig, n))
    if smaller_cache[key]:
        problems.append("a smaller countermodel exists")
    return problems


LAWS = ["Q1", "Q2", "Q3", "Q4", "Q5"]


def check_qa(expect, code, out):
    if expect["kind"] == "qa":
        if code != "qa" or [law for law, _, _ in out] != LAWS:
            return [f"unexpected law report {out!r}"]
        return [f"{law} reported failing" for law, ok, checked in out
                if not ok or checked < 1]
    lines = out.split("\n")
    if code != 0 or lines[-1] != "" or len(lines) != 6:
        return [f"unexpected qa_laws output {out[:80]!r} (exit {code})"]
    return [f"bad law line {line!r}" for law, line in zip(LAWS, lines)
            if re.fullmatch(rf"{law} pass checked=[1-9][0-9]*", line) is None]


def check_law_instances(models, instances):
    """Both sides of every law instance agree under every environment of
    length 3 (the fragment's rank bound plus one)."""
    problems = []
    for name, model in models:
        for law, left, right in instances:
            for env in L.envs(model, 3):
                if L.value(model, left, env) != L.value(model, right, env):
                    problems.append(f"{law} instance fails in {name} under {env}")
                    break
    return problems


def check_proof_op(expect, code, out, taut_cache):
    kind = expect["kind"]
    if kind == "accept":
        ok = code == 0 and out == "ACCEPTED\n"
        return [] if ok else [f"valid proof not accepted: {out[:80]!r} (exit {code})"]
    if kind == "reject":
        ok = code == 1 and out.startswith(f"REJECTED step {expect['step']}:")
        return [] if ok else [
            f"mutant edited at step {expect['step']} gave {out[:80]!r} (exit {code})"]
    p = expect["formula"]
    if id(p) not in taut_cache:
        taut_cache[id(p)] = L.is_tautology(p)
    want = (0, "TAUTOLOGY\n") if taut_cache[id(p)] else (1, "NOT A TAUTOLOGY\n")
    return [] if (code, out) == want else [f"taut gave {out!r}, expected {want[1]!r}"]


def soundness_models(rng, sig):
    """Every one-element structure, and random ones of sizes 2 and 3,
    all with identity equality."""
    plain = [(name, a, kind) for name, a, kind in sig if name != "e"]
    models = list(L.models(plain, 1))
    for n in (2, 2, 2, 3):
        fns = {name: tuple(rng.randrange(n) for _ in range(n ** a))
               for name, a, kind in plain if kind == "fn"}
        rels = {name: tuple(rng.randint(0, 1) for _ in range(n ** a))
                for name, a, kind in plain if kind == "rel"}
        models.append(L.Model(n, fns, rels))
    for m in models:
        m.rels["e"] = tuple(int(i == j) for i in range(m.n) for j in range(m.n))
    return models


def check_soundness(w, formulas):
    """The last formula of a theory-free proof holds in small random
    structures with identity equality (soundness of the checked proof)."""
    rng = random.Random(w.seed)
    models = soundness_models(rng, w.extra["sig"])
    return [f"last formula of {label} fails in a {m.n}-element structure"
            for label, p in formulas for m in models if L.falsified(m, p)]


def qa_models(w):
    models = [(o.label, o.expect["model"]) for o in w.ops]
    instances = gen.law_instances(random.Random(w.seed), w.extra["relation"], 8)
    zmod_instances = gen.law_instances(random.Random(w.seed), "e", 8)
    lib = [(n, m) for n, m in models if not n.startswith("zmod")]
    zm = [(n, m) for n, m in models if n.startswith("zmod")]
    return lib, instances, zm, zmod_instances


def check_workload(w, result):
    """Problems with any verdict in the worker's result."""
    problems = []
    cache = {}
    for op, outputs in zip(w.ops, result["outputs"]):
        for code, out in outputs:
            if code not in (0, 1, "qa"):
                continue  # a failed operation: counted, not judged
            if w.name == "countermodel":
                found = check_countermodel(op.expect, w.extra["sig"], code, out, cache)
            elif w.name == "qa_laws":
                found = check_qa(op.expect, code, out)
            else:
                found = check_proof_op(op.expect, code, out, cache)
            problems += [f"{op.label}: {p}" for p in found]
    if w.name == "qa_laws":
        lib, instances, zm, zmod_instances = qa_models(w)
        problems += check_law_instances(lib, instances)
        problems += check_law_instances(zm, zmod_instances)
    if w.name == "proof_check":
        problems += check_soundness(w, w.extra["sound"])
    return problems


# ---------------------------------------------------------------------------
# planted wrong verdicts: each check must catch its own
# ---------------------------------------------------------------------------

def _model_text(m: L.Model, sig) -> str:
    lines = [f"domain {m.n}"]
    for name, _, kind in sig:
        table = m.fns[name] if kind == "fn" else m.rels[name]
        lines.append(f"{kind} {name}: {' '.join(map(str, table))}")
    return "\n".join(lines) + "\n"


def planted(w):
    """(description, problems found) for wrong verdicts planted into
    this workload's checks, plus the true verdicts that must pass."""
    out = []
    ops = {o.label: o for o in w.ops}
    if w.name == "countermodel":
        sig, cache = w.extra["sig"], {}
        quick, valid = ops["quick"], ops["valid_a5"]
        size, position = L.first_countermodel(sig, quick.expect["formula"], 2)
        first = list(L.models(sig, size))[position]
        truth = check_countermodel(quick.expect, sig, 1, "COUNTERMODEL\n" + _model_text(first, sig), cache)
        out.append(("true first countermodel passes", not truth))
        bigger = next(m for m in L.models(sig, 3) if L.falsified(m, quick.expect["formula"]))
        out.append(("countermodel with a smaller one missed", bool(check_countermodel(
            quick.expect, sig, 1, "COUNTERMODEL\n" + _model_text(bigger, sig), cache))))
        sat = next(L.models(sig, 1))
        out.append(("structure satisfying a valid formula", bool(check_countermodel(
            valid.expect, sig, 1, "COUNTERMODEL\n" + _model_text(sat, sig), cache))))
        out.append(("NO COUNTERMODEL on a refutable formula", bool(check_countermodel(
            quick.expect, sig, 0, "NO COUNTERMODEL\n", cache))))
    elif w.name == "qa_laws":
        lib, zmod = w.ops[0], w.ops[-1]
        good = [[law, True, 5] for law in LAWS]
        out.append(("passing law report passes", not check_qa(lib.expect, "qa", good)))
        bad = [list(x) for x in good]
        bad[2][1] = False
        out.append(("failing law reported", bool(check_qa(lib.expect, "qa", bad))))
        text = "".join(f"{law} pass checked=7\n" for law in LAWS)
        out.append(("passing qa_laws output passes", not check_qa(zmod.expect, 0, text)))
        out.append(("law missing from qa_laws output", bool(check_qa(
            zmod.expect, 0, text.replace("Q5 pass checked=7\n", "")))))
        models, instances, _, _ = qa_models(w)
        p = L.atom(w.extra["relation"], L.var(1), L.var(2))
        out.append(("false law instance", bool(check_law_instances(
            models[-1:], instances[:3] + [("Q3", L.forall(L.fsubst(p, L.star)), p)]))))
    else:
        cache = {}
        accept = ops["global_theory"]
        mutant = ops["global_theory_mutant"]
        step = mutant.expect["step"]
        out.append(("accepted proof passes", not check_proof_op(accept.expect, 0, "ACCEPTED\n", cache)))
        out.append(("valid proof rejected", bool(check_proof_op(
            accept.expect, 1, "REJECTED step 3: formula is not that axiom instance\n", cache))))
        out.append(("mutant accepted", bool(check_proof_op(mutant.expect, 0, "ACCEPTED\n", cache))))
        out.append(("mutant rejected at another step", bool(check_proof_op(
            mutant.expect, 1, f"REJECTED step {step - 1}: cited implication does not match\n",
            cache))))
        for label in ("taut1", "taut5"):
            op = ops[label]
            truth = L.is_tautology(op.expect["formula"])
            flipped = (1, "NOT A TAUTOLOGY\n") if truth else (0, "TAUTOLOGY\n")
            out.append((f"flipped {label} verdict", bool(check_proof_op(op.expect, *flipped, cache))))
        r = next(name for name, a, kind in w.extra["sig"] if kind == "rel" and a == 1)
        out.append(("unsound last formula", bool(check_soundness(
            w, [("planted", L.atom(r, L.var(1)))]))))
    return out


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def end_to_end(samples, rounds, peak_rss_mb, probes):
    """The end-to-end metrics at nominal machine speed, and the same
    figures as timed.  Each sample's wall and CPU time is divided by the
    machine's slowness measured just before it (``worker.speed``)."""

    def figures(factors, setup_factors):
        walls = [s[1] / f for s, f in zip(samples, factors)]
        done = [wall for wall, s in zip(walls, samples) if s[4]]
        return {
            "ops_per_s": len(done) / sum(walls),
            "op_p50_ms": 1000.0 * statistics.median(done),
            "cpu_s": sum(s[2] / f for s, f in zip(samples, factors)) / rounds,
            "setup_s": statistics.median(
                p["setup_s"] / f for p, f in zip(probes, setup_factors)),
        }

    nominal = figures(worker.speed(samples), [p["ref_s"] / worker.REFERENCE_S for p in probes])
    nominal["peak_rss_mb"] = peak_rss_mb
    return nominal, figures([1.0] * len(samples), [1.0] * len(probes))


def run_worker(args, timeout=WORKER_TIMEOUT_S):
    cmd = [sys.executable, os.path.join("perfbench", "worker.py")] + args
    # A fixed hash seed removes one source of process-to-process variation.
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
    if done.returncode != 0:
        raise RuntimeError(f"worker failed ({done.returncode}): {done.stderr[-2000:]}")
    return done.stdout


def measure(workload, seed, seconds, trace):
    inputs = os.path.join("perfbench", ".inputs", f"{workload}-s{seed}")
    w = gen.generate(workload, seed, inputs)
    manifest = os.path.join(inputs, "manifest.json")
    outdir = os.path.join("perfbench", ".out")
    os.makedirs(outdir, exist_ok=True)
    result_path = os.path.join(outdir, f"{workload}-s{seed}-t{trace}.json")
    probes = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            probes.append(json.loads(run_worker([manifest, "--setup-only"], 60)))
    extra = []
    if trace:
        extra = ["--trace-out", os.path.join(outdir, f"trace-{workload}-s{seed}.bin")]
    run_worker([manifest, "--seconds", str(seconds), "--out", result_path] + extra)
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)

    problems = check_workload(w, result)
    misses = [name for name, caught in planted(w) if not caught]
    problems += [f"self-test: check did not catch: {name}" for name in misses]
    samples = result["samples"]
    attempted = len(samples)
    failed = sum(1 for sample in samples if not sample[4])
    raw = {}
    if trace:
        values = result["per_layer"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values, raw = end_to_end(samples, result["rounds"], result["peak_rss_mb"], probes)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for problem in problems[:20]:
        print(f"PROBLEM {problem}")
    print(f"workload {workload} seed {seed}: {result['rounds']} rounds, "
          f"{attempted} operations, {failed} failed")
    for name, metric in metrics.items():
        note = f" (as timed: {raw[name]:.6g})" if name in raw else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{note}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def self_test() -> int:
    """Planted wrong verdicts are caught and inputs are reproducible."""
    failures = 0
    scratch = os.path.join("perfbench", ".inputs", "self-test")
    for workload in WORKLOADS:
        snapshots = []
        for seed in (1, 1, 2):
            gen.generate(workload, seed, scratch)
            files = {}
            for name in sorted(os.listdir(scratch)):
                with open(os.path.join(scratch, name), "rb") as handle:
                    files[name] = handle.read()
            snapshots.append(files)
        checks = [("same seed gives byte-identical inputs", snapshots[0] == snapshots[1]),
                  ("another seed gives other inputs", snapshots[0] != snapshots[2])]
        checks += planted(gen.generate(workload, 1, scratch))
        for name, passed in checks:
            failures += not passed
            print(f"{'ok  ' if passed else 'FAIL'} {workload}: {name}")
    for name in os.listdir(scratch):
        os.remove(os.path.join(scratch, name))
    os.rmdir(scratch)
    print("self-test passed" if not failures else f"self-test: {failures} failures")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=_SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "clonelogic", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/clonelogic is missing",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.self_test:
        return self_test()
    for workload in [args.workload] if args.workload else WORKLOADS:
        summary = measure(workload, args.seed, args.seconds, args.trace)
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
