"""Span tracer that wraps the program's module-level functions from outside.

``Tracer.install`` replaces each named function in every ``clonelogic``
module namespace that refers to it, so calls made through ``from ...
import`` bindings are seen too; ``uninstall`` restores the originals.

A span records a name id, a start, an end and the id of the span that
caused it (the innermost open span).  A recursive call of a function
already open is part of the outer span and records nothing, so a span
is one call from outside the function.  Spans live in flat arrays in
memory and are written out once, by ``dump``.
"""

from __future__ import annotations

import array
import json
import sys
import time
from collections import defaultdict

PARSE = (
    "parse_term", "parse_formula", "parse_subst", "parse_env", "parse_prop",
    "parse_axiom_spec", "load_signature", "load_structure", "load_prop_algebra",
    "load_theory", "load_proof", "load_prop_proof",
)
FORMAT = (
    "format_term", "format_formula", "format_subst", "format_env",
    "format_prop_term", "format_axiom_spec", "format_structure",
)

# (module, function) pairs at each layer boundary.
TARGETS = (
    [("cli", "main")]
    + [("syntax", name) for name in PARSE + FORMAT]
    + [("proofs", "check_proof"), ("proofs", "instantiate_axiom"),
       ("proofs", "instantiate_prime_axiom")]
    + [("propositional", "check_prop_proof"), ("propositional", "tautology")]
    + [("formulas", "fsubst"), ("formulas", "frank"), ("formulas", "check_formula")]
    + [("terms", "apply"), ("terms", "compose"), ("terms", "lift")]
    + [("semantics", "eval_formula"), ("semantics", "eval_formula_B"),
       ("semantics", "countermodel_search"), ("semantics", "qa_law_check")]
)
GENERATORS = (("semantics", "enumerate_structures"),)
MODULES = ("cli", "syntax", "proofs", "propositional", "formulas", "terms",
           "semantics", "checks", "sampling")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.saved: list[tuple[object, str, object]] = []

    # ----- recording -----

    def _wrap(self, name, fn):
        name_id = self._name(name)
        stack, clock = self.stack, time.perf_counter
        sn, sp, ss, se = self.span_name, self.span_parent, self.span_start, self.span_end
        counts = self.counts
        hook = _HOOKS.get(name)
        open_ = [False]

        def wrapper(*args, **kwargs):
            if open_[0]:
                return fn(*args, **kwargs)
            open_[0] = True
            sid = len(sn)
            sn.append(name_id)
            sp.append(stack[-1] if stack else -1)
            ss.append(0.0)
            se.append(0.0)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                se[sid] = clock()
                ss[sid] = start
                stack.pop()
                open_[0] = False
            if hook is not None:
                hook(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _name(self, name) -> int:
        if name not in self.name_of:
            self.name_of[name] = len(self.names)
            self.names.append(name)
        return self.name_of[name]

    def install(self) -> None:
        modules = {m: sys.modules[f"clonelogic.{m}"] for m in MODULES}
        for targets, wrap in ((TARGETS, self._wrap), (GENERATORS, self._wrap_generator)):
            for module, function in targets:
                original = getattr(modules[module], function)
                wrapper = wrap(f"{module}.{function}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self.saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.saved):
            setattr(mod, attr, original)
        self.saved.clear()

    # ----- analysis -----

    def summary(self) -> dict:
        """Per name: calls, total time, self time (total minus the part
        covered by child spans), and time not nested in a span of the
        same group, for the groups in GROUPS."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        calls = defaultdict(int)
        total = defaultdict(float)
        self_time = defaultdict(float)
        group_of = {}
        for group, members in GROUPS.items():
            for member in members:
                group_of[self.name_of.get(member, -1)] = group
        outer = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            total[name] += dur[i]
            self_time[name] += dur[i] - child[i]
            group = group_of.get(self.span_name[i])
            if group is None:
                continue
            parent = self.span_parent[i]
            while parent >= 0 and group_of.get(self.span_name[parent]) != group:
                parent = self.span_parent[parent]
            if parent < 0:
                outer[group] += dur[i]
        return {"calls": dict(calls), "total": dict(total), "self": dict(self_time),
                "group": dict(outer), "counts": dict(self.counts)}

    def dump(self, path) -> None:
        """Spans as a JSON header line followed by the four raw arrays."""
        header = {"names": self.names, "spans": len(self.span_name),
                  "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(handle)


GROUPS = {
    "syntax.parse": tuple(f"syntax.{n}" for n in PARSE),
    "syntax.format": tuple(f"syntax.{n}" for n in FORMAT),
    "proofs.instantiate": ("proofs.instantiate_axiom", "proofs.instantiate_prime_axiom"),
    "propositional.check": ("propositional.check_prop_proof", "propositional.tautology"),
    "terms.subst": ("terms.apply", "terms.compose", "terms.lift"),
}


def _parse_bytes(counts, args, result):
    if args and isinstance(args[0], str):
        counts["syntax.parse_bytes"] += len(args[0].encode())


def _proof_steps(counts, args, result):
    counts["proofs.steps"] += len(args[0].steps) if result.ok else result.step + 1


def _law_instances(counts, args, result):
    counts["semantics.law_instances"] += sum(law.checked for law in result.laws)


_HOOKS = {f"syntax.{n}": _parse_bytes for n in PARSE}
_HOOKS["proofs.check_proof"] = _proof_steps
_HOOKS["semantics.qa_law_check"] = _law_instances
