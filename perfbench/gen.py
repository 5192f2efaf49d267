"""Seeded input generator for the three workloads.

``generate(workload, seed, directory)`` writes the input files under
``directory`` and returns a ``Workload``: the operations (argument lists
for the ``clonelogic`` command, or library calls) in the order of one
round, each paired with what the reference checker expects of its
verdict.  The same seed gives byte-identical files.

The mix inside a round is fixed; the seed picks symbol names, formulas,
tables, proofs and edit positions.  Costs are kept seed-independent by
construction (fixed ranks, fixed formula sizes, fixed step counts), so
that run-to-run spread measures the program and the machine, not the
draw.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import logic as L
from logic import app, atom, conj, forall, imp, neg, var


@dataclass
class Op:
    """One operation: ``argv`` for the command line, or ``call`` for a
    library call; ``expect`` says what a correct verdict is."""

    label: str
    expect: dict
    argv: list | None = None
    call: dict | None = None


@dataclass
class Workload:
    name: str
    seed: int
    setup: dict
    ops: list
    extra: dict = field(default_factory=dict)

    def manifest(self) -> dict:
        return {
            "workload": self.name,
            "setup": self.setup,
            "ops": [{"label": o.label, "argv": o.argv, "call": o.call} for o in self.ops],
        }


def _write(directory, name, text) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    return path


def _sig_text(sig) -> str:
    lines = []
    for name, arity, kind in sig:
        line = f"{kind} {name}/{arity}"
        if kind == "rel" and name == "e":
            line += " equality"
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# random terms and formulas
# ---------------------------------------------------------------------------

def rand_term(rng, consts, unaries, max_var, depth):
    choices = ["var"] * 3 + ["const"] * bool(consts) + ["app"] * (bool(unaries) and depth > 0)
    pick = rng.choice(choices)
    if pick == "var":
        return var(rng.randint(1, max_var))
    if pick == "const":
        return app(rng.choice(consts))
    return app(rng.choice(unaries), rand_term(rng, consts, unaries, max_var, depth - 1))


def rand_formula(rng, atoms, n_atoms, binders=True):
    """A formula with exactly n_atoms atom leaves drawn by ``atoms(rng)``."""
    if n_atoms == 1:
        p = atoms(rng)
        return neg(p) if rng.random() < 0.3 else p
    left = rng.randint(1, n_atoms - 1)
    p = rand_formula(rng, atoms, left, binders)
    q = rand_formula(rng, atoms, n_atoms - left, binders)
    kinds = ["and", "imp", "or"] + ["all"] * binders
    kind = rng.choice(kinds)
    if kind == "and":
        out = conj(p, q)
    elif kind == "imp":
        out = imp(p, q)
    elif kind == "or":
        out = L.disj(p, q)
    else:
        out = conj(forall(p), q)
    return neg(out) if rng.random() < 0.2 else out


# ---------------------------------------------------------------------------
# countermodel
# ---------------------------------------------------------------------------

COUNTERMODEL_MAX_SIZE = 3


def _countermodel_formulas(rng, c, g, s):
    """Round mix, cheapest first: a quick refutation over every symbol
    and one leaving c unused; 3 late countermodels at size 3; 2 full
    enumerations (a valid formula over every symbol, and one leaving g
    unused).  As many quick operations as full ones put the median in
    the middle of the late cluster."""
    sig = [(c, 0, "fn"), (g, 1, "fn"), (s, 2, "rel")]
    flip = rng.random() < 0.5

    def S(a, b):
        return atom(s, b, a) if flip else atom(s, a, b)

    def gx(t):
        return app(g, t)

    cc = app(c)
    x1, x2 = var(1), var(2)

    def atoms_all(rank, use_c=True):
        consts = [c] if use_c else []
        return lambda r: atom(s, rand_term(r, consts, [g], rank, 1),
                              rand_term(r, consts, [g], rank, 1))

    out = []

    def quick(label, use_c, need):
        while True:
            p = rand_formula(rng, atoms_all(2, use_c=use_c), 3)
            if not need <= L.symbols(p) or (not use_c and c in L.symbols(p)):
                continue
            found = L.first_countermodel(sig, p, 2)
            if found is not None:
                out.append((label, p, "refuted"))
                return

    quick("quick", True, {c, g, s})
    quick("unused_c_quick", False, {g, s})

    irreflexive = forall(neg(S(x1, x1)))
    # Each gadget is false only where three distinct elements exist, so
    # its first countermodel has size 3 with g a 3-cycle.
    out.append(("late_successor", neg(conj(
        conj(irreflexive, forall(S(x1, gx(x1)))),
        forall(forall(imp(S(x1, x2), neg(S(x2, x1))))),
    )), "refuted"))
    out.append(("late_orbit", neg(conj(
        conj(irreflexive, S(cc, gx(cc))),
        conj(S(gx(cc), gx(gx(cc))), S(cc, gx(gx(cc)))),
    )), "refuted"))
    out.append(("late_cycle", neg(conj(
        conj(irreflexive, S(cc, gx(cc))),
        conj(S(gx(cc), gx(gx(cc))), S(gx(gx(cc)), cc)),
    )), "refuted"))

    # Full enumerations: A5 instances (forall P -> P[t]) with P one atom,
    # so that their cost depends on the seed only through names and the
    # transposition.
    tail = rng.choice([cc, gx(cc)])
    out.append(("valid_a5", imp(forall(S(x1, gx(cc))), S(tail, gx(cc))), "valid"))
    out.append(("unused_g_valid", imp(forall(S(x1, cc)), S(cc, cc)), "valid"))
    return sig, out


def gen_countermodel(seed, directory) -> Workload:
    rng = random.Random(seed)
    c = rng.choice(["c", "a", "k", "o"])
    g = rng.choice(["g", "f", "h", "u"])
    s = rng.choice(["s", "r", "p", "q"])
    sig, formulas = _countermodel_formulas(rng, c, g, s)
    sig_path = _write(directory, "signature.txt", _sig_text(sig))
    ops = []
    for label, p, kind in formulas:
        ops.append(Op(label, {"kind": kind, "formula": p}, argv=[
            "countermodel", "--signature", sig_path, "--formula", L.fmt(p),
            "--max-size", str(COUNTERMODEL_MAX_SIZE),
        ]))
    lines = "\n".join(f"{o.label}\t{o.argv[4]}" for o in ops) + "\n"
    _write(directory, "formulas.txt", lines)
    return Workload("countermodel", seed, {"signature": sig_path}, ops,
                    {"sig": sig})


# ---------------------------------------------------------------------------
# qa_laws
# ---------------------------------------------------------------------------

# Two structures of size 2 per algebra put the median operation in the
# middle of the size-2 cluster.
QA_SIZES = (1, 2, 2, 3)
QA_BITS = (1, 2)
QA_ZMOD = (2, 3, 4)


def gen_qa_laws(seed, directory) -> Workload:
    rng = random.Random(seed)
    r = rng.choice(["r", "s", "p", "q"])
    sig = [(r, 2, "rel"), ("e", 2, "rel")]
    sig_path = _write(directory, "signature.txt", _sig_text(sig))
    structures = []
    ops = []
    for k, n in enumerate(QA_SIZES):
        for bits in QA_BITS:
            top = (1 << bits) - 1
            table = tuple(rng.randint(0, top) for _ in range(n * n))
            name = f"s{k + 1}_size{n}_bits{bits}"
            entry = {"name": name, "size": n, "bits": bits, "table": list(table)}
            if bits == 1:
                # Two-valued structures go through the structure loader;
                # its format has no multi-bit tables.
                text = f"domain {n}\nrel {r}: {' '.join(map(str, table))}\nequality identity\n"
                entry["path"] = _write(directory, f"{name}.txt", text)
            structures.append(entry)
            eq = tuple(top if i == j else 0 for i in range(n) for j in range(n))
            model = L.Model(n, {}, {r: table, "e": eq}, top)
            ops.append(Op(name, {"kind": "qa", "model": model},
                          call={"structure": name}))
    for m in QA_ZMOD:
        ops.append(Op(f"zmod{m}", {"kind": "qa_cli", "model": zmod_model(m)},
                      argv=["qa_laws", "--structure", f"zmod{m}"]))
    setup = {"signature": sig_path, "relation": r, "structures": structures}
    _write(directory, "structures.json", json.dumps(structures, sort_keys=True) + "\n")
    return Workload("qa_laws", seed, setup, ops, {"relation": r})


def zmod_model(m) -> L.Model:
    fns = {
        "0": (0,),
        "S": tuple((i + 1) % m for i in range(m)),
        "add": tuple((i + j) % m for i in range(m) for j in range(m)),
        "mul": tuple((i * j) % m for i in range(m) for j in range(m)),
    }
    eq = tuple(1 if i == j else 0 for i in range(m) for j in range(m))
    return L.Model(m, fns, {"e": eq})


def law_instances(rng, relation, count):
    """A seeded sample of Q1..Q5 instances over the fragment's atoms
    r(xi, xj), i, j in {1, 2}: (law, left, right) in this module's
    representation."""
    def atoms(r_):
        return atom(relation, var(r_.randint(1, 2)), var(r_.randint(1, 2)))

    def small(r_):
        return rand_formula(r_, atoms, r_.randint(1, 2))

    e12 = atom("e", var(1), var(2))
    out = [("Q4", L.fsubst(e12, L.star), neg(conj(e12, neg(e12))))]
    for _ in range(count):
        p, q = small(rng), small(rng)
        out.append(("Q1", forall(conj(p, q)), conj(forall(p), forall(q))))
        half = L.fsubst(forall(p), L.shift_up)
        out.append(("Q2", half, conj(half, p)))
        out.append(("Q3", forall(L.fsubst(p, L.shift_up)), p))
        out.append(("Q5", conj(e12, p), conj(e12, L.fsubst(p, L.star))))
    return out


# ---------------------------------------------------------------------------
# proof_check
# ---------------------------------------------------------------------------

PROOF_BYTES = 150_000
PROP_BYTES = 4_000
DEEP_NEGATIONS = 2000


class Derivation:
    """Builds a proof step by step in this module's representation and
    its file text.  Every step is valid by construction."""

    def __init__(self, rng, kind, hyps=(), prop=False):
        self.rng = rng
        self.kind = kind  # "local" or "global"
        self.hyps = list(hyps)
        self.prop = prop
        self.steps = []  # (formula, justification text)
        self.bytes = 0  # length of the step lines so far
        self.sizes = []

    def add(self, formula, just) -> int:
        self.steps.append((formula, just))
        self.sizes.append(L.size(formula))
        self.bytes += len(f"{len(self.steps)}. {L.fmt(formula)} by {just}\n")
        return len(self.steps)  # 1-based step number

    def pick(self, limit, pred=lambda p: True):
        pool = [k for k, ((p, _), n) in enumerate(zip(self.steps, self.sizes), 1)
                if n <= limit and pred(p)]
        return self.rng.choice(pool) if pool else None

    def axiom(self, name, n=0, **params):
        sub_text = params.pop("sub_text", None)
        formula = L.axiom_instance(name, n=n, **params)
        fields = [f"{k}={L.fmt(params[k])}" for k in ("p", "q", "r") if params.get(k) is not None]
        if sub_text is not None:
            fields.append(f"subst={sub_text}")
        if params.get("i") is not None:
            fields.append(f"i={params['i']}")
        if n:
            fields.append(f"n={n}")
        if self.prop:
            return self.add(formula, f"{name}({', '.join(fields)})")
        return self.add(formula, f"axiom {name}({', '.join(fields)})")

    def mp(self, j, k, result):
        return self.add(result, f"mp {j} {k}")

    def formula(self, k):
        return self.steps[k - 1][0]


def _rand_sub(rng, consts, unaries):
    prefix = tuple(rand_term(rng, consts, unaries, 3, 1) for _ in range(rng.randint(1, 2)))
    if rng.random() < 0.25:
        tail = ("const", app(rng.choice(consts)))
    else:
        tail = ("shift", rng.randint(0, 1))
    return prefix, tail


def build_predicate_proof(rng, kind, sig_names, target_bytes, hyps=()):
    c, f, r, s = sig_names
    consts, unaries = [c], [f]

    def atoms(r_):
        if r_.random() < 0.4:
            return atom(r, rand_term(r_, consts, unaries, 3, 1))
        return atom(s, rand_term(r_, consts, unaries, 3, 1), rand_term(r_, consts, unaries, 3, 1))

    def small(r_):
        return rand_formula(r_, atoms, r_.randint(1, 3))

    b = Derivation(rng, kind, hyps)
    limit = 60
    while b.bytes < target_bytes:
        move = rng.random()
        n = rng.choice((0, 0, 0, 1, 2))
        if move < 0.06 and b.hyps:
            i = rng.randrange(len(b.hyps))
            b.add(b.hyps[i], f"hyp {i + 1}")
        elif move < 0.30:
            name = rng.choice(("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8"))
            p, q, rr = small(rng), small(rng), small(rng)
            if name in ("A5", "A8"):
                prefix, tail = _rand_sub(rng, consts, unaries)
                b.axiom(name, n=n, p=p, sub=L.sub_of(prefix, tail),
                        sub_text=L.fmt_sub(prefix, tail))
            elif name == "A7":
                b.axiom(name, n=n, i=rng.randint(1, 4))
            elif name == "A3":
                b.axiom(name, n=n, p=p, q=q, r=rr)
            elif name in ("A2", "A4"):
                b.axiom(name, n=n, p=p, q=q)
            else:
                b.axiom(name, n=n, p=p)
        elif move < 0.42:
            j = b.pick(limit)
            if j is None:
                continue
            p = b.formula(j)
            k = b.axiom("A1", p=p)
            b.mp(j, k, conj(p, p))
        elif move < 0.54:
            j = b.pick(4 * limit, lambda p: p[0] == "and")
            if j is None:
                continue
            p, q = b.formula(j)[1], b.formula(j)[2]
            k = b.axiom("A2", p=p, q=q)
            b.mp(j, k, p)
        elif move < 0.64:
            j = b.pick(limit, lambda p: L.split_imp(p) is not None)
            if j is None:
                continue
            p, q = L.split_imp(b.formula(j))
            rr = small(rng)
            k = b.axiom("A3", p=p, q=q, r=rr)
            b.mp(j, k, imp(neg(conj(q, rr)), neg(conj(rr, p))))
        elif move < 0.72:
            j = b.pick(limit)
            if j is None:
                continue
            p = b.formula(j)
            k = b.axiom("A6", p=p)
            b.mp(j, k, forall(L.fsubst(p, L.shift_up)))
        elif move < 0.80:
            j = b.pick(2 * limit, lambda p: p[0] == "all")
            if j is None:
                continue
            body = b.formula(j)[1]
            t = rand_term(rng, consts, unaries, 2, 1)
            prefix, tail = (t,), ("shift", -1)
            sub = L.sub_of(prefix, tail)
            k = b.axiom("A5", p=body, sub=sub, sub_text=L.fmt_sub(prefix, tail))
            b.mp(j, k, L.fsubst(body, sub))
        elif kind == "global" and move < 0.90:
            j = b.pick(limit)
            if j is None:
                continue
            prefix, tail = _rand_sub(rng, consts, unaries)
            b.add(L.fsubst(b.formula(j), L.sub_of(prefix, tail)),
                  f"subst {j} {L.fmt_sub(prefix, tail)}")
        elif kind == "global":
            j = b.pick(limit)
            if j is None:
                continue
            b.add(forall(b.formula(j)), f"gen {j}")
        else:
            # local proofs have no subst or gen steps: one more A1 modus ponens
            j = b.pick(limit)
            if j is None:
                continue
            p = b.formula(j)
            k = b.axiom("A1", p=p)
            b.mp(j, k, conj(p, p))
    return b


def proof_text(kind, steps, theory_name=None) -> str:
    head = [kind] + ([f"theory {theory_name}"] if theory_name is not None else [])
    return "".join(line + "\n" for line in head) + prop_proof_text(steps)


def prop_proof_text(steps) -> str:
    return "".join(f"{k}. {L.fmt(p)} by {just}\n" for k, (p, just) in enumerate(steps, 1))


def build_prop_proof(rng, target_bytes, hyps):
    names = ["a", "b", "c", "d"]

    def atoms(r_):
        return atom(r_.choice(names))

    def small(r_):
        return rand_formula(r_, atoms, r_.randint(1, 3), binders=False)

    b = Derivation(rng, "local", hyps, prop=True)
    limit = 30
    while b.bytes < target_bytes:
        move = rng.random()
        if move < 0.1 and b.hyps:
            i = rng.randrange(len(b.hyps))
            b.add(b.hyps[i], f"hyp {i + 1}")
        elif move < 0.4:
            name = rng.choice(("A1", "A2", "A3"))
            p, q, rr = small(rng), small(rng), small(rng)
            if name == "A1":
                b.axiom(name, p=p)
            elif name == "A2":
                b.axiom(name, p=p, q=q)
            else:
                b.axiom(name, p=p, q=q, r=rr)
        elif move < 0.6:
            j = b.pick(limit)
            if j is None:
                continue
            p = b.formula(j)
            k = b.axiom("A1", p=p)
            b.mp(j, k, conj(p, p))
        elif move < 0.8:
            j = b.pick(4 * limit, lambda p: p[0] == "and")
            if j is None:
                continue
            p, q = b.formula(j)[1], b.formula(j)[2]
            k = b.axiom("A2", p=p, q=q)
            b.mp(j, k, p)
        else:
            j = b.pick(limit, lambda p: L.split_imp(p) is not None)
            if j is None:
                continue
            p, q = L.split_imp(b.formula(j))
            rr = small(rng)
            k = b.axiom("A3", p=p, q=q, r=rr)
            b.mp(j, k, imp(neg(conj(q, rr)), neg(conj(rr, p))))
    return b


def mutate(rng, steps, lo):
    """Single-edit mutant: step k (1-based, k > lo) gets its formula
    negated or one variable index bumped, so that it no longer equals
    what its justification rebuilds.  Returns (k, edited steps)."""
    k = rng.randint(lo + 1, len(steps))
    p, just = steps[k - 1]
    edited = neg(p) if rng.random() < 0.5 else _bump_first_var(p)
    out = list(steps)
    out[k - 1] = (edited, just)
    return k, out


def _bump_first_var(p):
    done = [False]

    def term(t):
        if done[0]:
            return t
        if t[0] == "v":
            done[0] = True
            return var(t[1] + 1)
        return ("f", t[1], tuple(term(a) for a in t[2]))

    def walk(q):
        kind = q[0]
        if kind == "atom":
            return ("atom", q[1], tuple(term(a) for a in q[2]))
        if kind in ("not", "all"):
            return (kind, walk(q[1]))
        return ("and", walk(q[1]), walk(q[2]))

    out = walk(p)
    return out if done[0] else neg(p)


def gen_proof_check(seed, directory) -> Workload:
    rng = random.Random(seed)
    c = rng.choice(["c", "k", "o"])
    f = rng.choice(["f", "g", "h"])
    r = rng.choice(["r", "p", "q"])
    s = rng.choice(["s", "t", "u"])
    sig = [(c, 0, "fn"), (f, 1, "fn"), (r, 1, "rel"), (s, 2, "rel"), ("e", 2, "rel")]
    sig_path = _write(directory, "signature.txt", _sig_text(sig))
    names = (c, f, r, s)

    def hyp_atoms(r_):
        return atom(s, rand_term(r_, [c], [f], 2, 1), rand_term(r_, [c], [f], 2, 1))

    ops = []
    theories = []
    sound = []  # last formulas of theory-free proofs
    heavy = []
    for label, kind, with_theory in (
        ("global_theory", "global", True),
        ("local_theory", "local", True),
        ("global_free", "global", False),
        ("local_free", "local", False),
    ):
        hyps = []
        argv_tail = []
        theory_name = None
        if with_theory:
            p = rand_formula(rng, hyp_atoms, 2)
            q = rand_formula(rng, hyp_atoms, 2)
            hyps = [p, imp(p, q), rand_formula(rng, hyp_atoms, 3)]
            theory_name = f"th_{label}"
            body = "\n".join(L.fmt(h) for h in hyps)
            tpath = _write(directory, f"{label}.theory", f"theory {theory_name}\n{body}\n")
            theories.append(tpath)
            argv_tail = ["--theory", tpath]
        b = build_predicate_proof(rng, kind, names, PROOF_BYTES, hyps)
        path = _write(directory, f"{label}.proof", proof_text(kind, b.steps, theory_name))
        base = ["check_proof", path, "--signature", sig_path] + argv_tail
        ops.append(Op(label, {"kind": "accept"}, argv=base))
        k, mutant = mutate(rng, b.steps, len(b.steps) // 2)
        mpath = _write(directory, f"{label}.mutant.proof", proof_text(kind, mutant, theory_name))
        heavy.append(Op(f"{label}_mutant", {"kind": "reject", "step": k},
                        argv=["check_proof", mpath, "--signature", sig_path] + argv_tail))
        if not with_theory:
            sound.append((label, b.steps[-1][0]))
    ops += heavy

    for k in range(3):
        def patoms(r_):
            return atom(r_.choice(["a", "b", "c", "d"]))
        hyps = [rand_formula(rng, patoms, 2, binders=False) for _ in range(2)]
        b = build_prop_proof(rng, PROP_BYTES, hyps)
        hyp_args = []
        for h in hyps:
            hyp_args += ["--hyp", L.fmt(h)]
        path = _write(directory, f"prop{k + 1}.proof", prop_proof_text(b.steps))
        ops.append(Op(f"prop{k + 1}", {"kind": "accept"},
                      argv=["check_proof", path, "--prop"] + hyp_args))
        j, mutant = mutate(rng, b.steps, len(b.steps) // 2)
        mpath = _write(directory, f"prop{k + 1}.mutant.proof", prop_proof_text(mutant))
        ops.append(Op(f"prop{k + 1}_mutant", {"kind": "reject", "step": j},
                      argv=["check_proof", mpath, "--prop"] + hyp_args))

    for k, p in enumerate(taut_queries(rng)):
        ops.append(Op(f"taut{k + 1}", {"kind": "taut", "formula": p},
                      argv=["taut", L.fmt(p)]))

    # Kept fault: the recursive parser overflows on this proof.  It is
    # valid, so once parsing is iterative it must be accepted.
    deep_text = "~" * DEEP_NEGATIONS + f"{r}(x1)"
    dtheory = _write(directory, "deep.theory", f"theory deep\n{deep_text}\n")
    dproof = _write(directory, "deep.proof", f"local\ntheory deep\n1. {deep_text} by hyp 1\n")
    ops.append(Op("deep_negation", {"kind": "accept"},
                  argv=["check_proof", dproof, "--signature", sig_path, "--theory", dtheory]))
    setup = {"signature": sig_path, "theories": theories}
    return Workload("proof_check", seed, setup, ops,
                    {"sound": sound, "sig": sig})


def taut_queries(rng):
    """Four tautologies by construction and four random formulas."""
    names = ["a", "b", "c", "d", "e1", "f1"]

    def atoms(r_):
        return atom(r_.choice(names))

    def small(r_, n):
        return rand_formula(r_, atoms, n, binders=False)

    out = []
    p, q, rr = small(rng, 3), small(rng, 3), small(rng, 3)
    out.append(L.axiom_instance("A3", p=p, q=q, r=rr))
    out.append(imp(conj(imp(p, q), imp(q, rr)), imp(p, rr)))
    p = small(rng, 6)
    out.append(L.disj(p, neg(p)))
    p = small(rng, 5)
    out.append(imp(conj(p, small(rng, 4)), p))
    for _ in range(4):
        out.append(small(rng, 9))
    return out


GENERATORS = {
    "countermodel": gen_countermodel,
    "qa_laws": gen_qa_laws,
    "proof_check": gen_proof_check,
}


def generate(workload, seed, directory) -> Workload:
    os.makedirs(directory, exist_ok=True)
    for name in os.listdir(directory):
        os.remove(os.path.join(directory, name))
    w = GENERATORS[workload](seed, directory)
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(w.manifest(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return w
