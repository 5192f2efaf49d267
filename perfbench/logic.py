"""The benchmark's own logic: representation, printer and reference checker.

Everything here is written apart from ``clonelogic``: the generator builds
its inputs in this representation, prints them in the program's surface
syntax, and the reference checker judges the program's verdicts against
the same representation.  Nothing imports the program.

Terms are ``("v", i)`` or ``("f", name, args)``.  Formulas are
``("atom", name, args)``, ``("not", p)``, ``("and", p, q)`` and
``("all", p)``; the binder binds coordinate 1 of its body, as in the
program.  Propositional terms are nullary atoms under the same
connectives.  A substitution is a function from a 1-based coordinate to
a term.
"""

from __future__ import annotations

import itertools


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def var(i):
    return ("v", i)


def app(name, *args):
    return ("f", name, tuple(args))


def atom(name, *args):
    return ("atom", name, tuple(args))


def neg(p):
    return ("not", p)


def conj(p, q):
    return ("and", p, q)


def forall(p):
    return ("all", p)


def disj(p, q):
    return neg(conj(neg(p), neg(q)))


def imp(p, q):
    return disj(neg(p), q)


def split_imp(p):
    """(P, Q) when p is exactly the expansion of (P -> Q), else None."""
    if p[0] == "not" and p[1][0] == "and":
        left, right = p[1][1], p[1][2]
        if left[0] == "not" and left[1][0] == "not" and right[0] == "not":
            return left[1][1], right[1]
    return None


def size(p) -> int:
    """Formula and term nodes."""
    kind = p[0]
    if kind == "v":
        return 1
    if kind in ("f", "atom"):
        return 1 + sum(size(a) for a in p[2])
    if kind == "not" or kind == "all":
        return 1 + size(p[1])
    return 1 + size(p[1]) + size(p[2])


def symbols(p, out=None) -> set:
    out = set() if out is None else out
    kind = p[0]
    if kind in ("f", "atom"):
        out.add(p[1])
        for a in p[2]:
            symbols(a, out)
    elif kind in ("not", "all"):
        symbols(p[1], out)
    elif kind == "and":
        symbols(p[1], out)
        symbols(p[2], out)
    return out


def term_rank(t) -> int:
    if t[0] == "v":
        return t[1]
    return max((term_rank(a) for a in t[2]), default=0)


def rank(p) -> int:
    """Largest free coordinate; the binder consumes coordinate 1."""
    kind = p[0]
    if kind == "atom":
        return max((term_rank(a) for a in p[2]), default=0)
    if kind == "not":
        return rank(p[1])
    if kind == "and":
        return max(rank(p[1]), rank(p[2]))
    return max(rank(p[1]) - 1, 0)


# ---------------------------------------------------------------------------
# substitutions, as functions from coordinates to terms
# ---------------------------------------------------------------------------

def shift_up(j):
    return ("v", j + 1)


def star(j):
    return ("v", 2) if j == 1 else ("v", j)


def sub_of(prefix, tail):
    """The substitution written ``[prefix ; shift d]`` or ``[prefix ; const t]``."""
    prefix = tuple(prefix)
    n = len(prefix)
    if tail[0] == "shift":
        d = tail[1]
        return lambda j: prefix[j - 1] if j <= n else ("v", j + d)
    t = tail[1]
    return lambda j: prefix[j - 1] if j <= n else t


def apply(t, sub):
    if t[0] == "v":
        return sub(t[1])
    return ("f", t[1], tuple(apply(a, sub) for a in t[2]))


def lift(sub):
    return lambda j: ("v", 1) if j == 1 else apply(sub(j - 1), shift_up)


def drop_first(sub):
    return lambda j: sub(j + 1)


def dup_second(sub):
    return lambda j: sub(2) if j == 1 else sub(j)


def fsubst(p, sub):
    kind = p[0]
    if kind == "atom":
        return ("atom", p[1], tuple(apply(a, sub) for a in p[2]))
    if kind == "not":
        return ("not", fsubst(p[1], sub))
    if kind == "and":
        return ("and", fsubst(p[1], sub), fsubst(p[2], sub))
    return ("all", fsubst(p[1], lift(sub)))


IDENTITY = sub_of((), ("shift", 0))


# ---------------------------------------------------------------------------
# axiom schemata A1..A8, rebuilt from their recipes
# ---------------------------------------------------------------------------

def axiom_instance(name, p=None, q=None, r=None, sub=None, i=None, n=0, eq="e"):
    sub = IDENTITY if sub is None else sub
    if name == "A1":
        out = imp(p, conj(p, p))
    elif name == "A2":
        out = imp(conj(p, q), p)
    elif name == "A3":
        out = imp(imp(p, q), imp(neg(conj(q, r)), neg(conj(r, p))))
    elif name == "A4":
        out = imp(forall(imp(p, q)), imp(forall(p), forall(q)))
    elif name == "A5":
        out = imp(fsubst(forall(p), drop_first(sub)), fsubst(p, sub))
    elif name == "A6":
        out = imp(p, forall(fsubst(p, shift_up)))
    elif name == "A7":
        out = atom(eq, var(i), var(i))
    elif name == "A8":
        head = atom(eq, sub(1), sub(2))
        out = imp(conj(head, fsubst(p, sub)), fsubst(p, dup_second(sub)))
    else:
        raise ValueError(name)
    for _ in range(n):
        out = forall(out)
    return out


# ---------------------------------------------------------------------------
# printer (the program's surface syntax)
# ---------------------------------------------------------------------------

def fmt_term(t) -> str:
    if t[0] == "v":
        return f"x{t[1]}"
    if not t[2]:
        return t[1]
    return f"{t[1]}({', '.join(fmt_term(a) for a in t[2])})"


def fmt(p) -> str:
    kind = p[0]
    if kind == "atom":
        if not p[2]:
            return p[1]
        return f"{p[1]}({', '.join(fmt_term(a) for a in p[2])})"
    parts = split_imp(p)
    if parts is not None:
        return f"({fmt(parts[0])} -> {fmt(parts[1])})"
    if kind == "not":
        return "~" + fmt(p[1])
    if kind == "and":
        return f"({fmt(p[1])} & {fmt(p[2])})"
    return "forall " + fmt(p[1])


def fmt_sub(prefix, tail) -> str:
    inside = ", ".join(fmt_term(t) for t in prefix)
    rest = f"shift {tail[1]}" if tail[0] == "shift" else f"const {fmt_term(tail[1])}"
    return f"[{inside} ; {rest}]" if inside else f"[; {rest}]"


# ---------------------------------------------------------------------------
# finite structures
# ---------------------------------------------------------------------------

class Model:
    """A finite structure: domain {0..n-1}, row-major tables, ``top``-wide
    truth values (top == 1 for two-valued structures)."""

    def __init__(self, n, fns, rels, top=1):
        self.n = n
        self.fns = dict(fns)
        self.rels = dict(rels)
        self.top = top

    def __repr__(self):
        return f"Model({self.n}, {self.fns}, {self.rels}, top={self.top})"


def _index(values, n):
    out = 0
    for v in values:
        out = out * n + v
    return out


def eval_term(m: Model, t, env) -> int:
    if t[0] == "v":
        i = t[1]
        return env[i - 1] if i <= len(env) else 0
    return m.fns[t[1]][_index([eval_term(m, a, env) for a in t[2]], m.n)]


def value(m: Model, p, env) -> int:
    """Truth value of p under env (a tuple; later coordinates read 0)."""
    kind = p[0]
    if kind == "atom":
        return m.rels[p[1]][_index([eval_term(m, a, env) for a in p[2]], m.n)]
    if kind == "not":
        return m.top ^ value(m, p[1], env)
    if kind == "and":
        return value(m, p[1], env) & value(m, p[2], env)
    out = m.top
    for d in range(m.n):
        out &= value(m, p[1], (d,) + tuple(env))
    return out


def envs(m: Model, length):
    return itertools.product(range(m.n), repeat=length)


def falsified(m: Model, p) -> bool:
    """Whether some environment makes p false (two-valued)."""
    return any(value(m, p, env) != m.top for env in envs(m, rank(p)))


def models(sig, n):
    """Every structure of size n, in the program's documented order:
    function tables before relation tables, each in declaration order,
    each table row-major lexicographic."""
    fns = [(name, a) for name, a, kind in sig if kind == "fn"]
    rels = [(name, a) for name, a, kind in sig if kind == "rel"]
    spaces = [itertools.product(range(n), repeat=n ** a) for _, a in fns]
    spaces += [itertools.product((0, 1), repeat=n ** a) for _, a in rels]
    for combo in itertools.product(*spaces):
        yield Model(
            n,
            {name: combo[k] for k, (name, _) in enumerate(fns)},
            {name: combo[len(fns) + k] for k, (name, _) in enumerate(rels)},
        )


def first_countermodel(sig, p, max_size):
    """(size, position) of the first falsifying structure, or None."""
    for n in range(1, max_size + 1):
        for position, m in enumerate(models(sig, n)):
            if falsified(m, p):
                return n, position
    return None


# ---------------------------------------------------------------------------
# propositional truth tables
# ---------------------------------------------------------------------------

def prop_vars(p, out=None) -> list:
    out = set() if out is None else out
    if p[0] == "atom":
        out.add(p[1])
    elif p[0] == "and":
        prop_vars(p[1], out)
        prop_vars(p[2], out)
    else:
        prop_vars(p[1], out)
    return sorted(out)


def prop_value(p, row) -> bool:
    kind = p[0]
    if kind == "atom":
        return row[p[1]]
    if kind == "not":
        return not prop_value(p[1], row)
    return prop_value(p[1], row) and prop_value(p[2], row)


def is_tautology(p) -> bool:
    names = prop_vars(p)
    for bits in itertools.product((False, True), repeat=len(names)):
        if not prop_value(p, dict(zip(names, bits))):
            return False
    return True
