"""Survey drivers shared by the command line and the acceptance suite.

Each driver bundles a fixed language or corpus with a seeded sweep and
returns a small report object, so a test can assert on it and the
command line can print it.
"""

from __future__ import annotations

import random

from .errors import BoundExceeded
from .formulas import (
    Atom,
    FNot,
    Forall,
    Formula,
    FunctionType,
    Language,
    PredicateType,
    enumerate_formulas,
    exists,
    f_imp,
    f_or,
)
from .proofs import AXIOM_IDS, instantiate_axiom
from .propositional import (
    algebra_two,
    axiom_elements,
    bitmask_algebra,
    enumerate_filters,
    enumerate_valuations,
    free_boolean_algebra,
    is_boolean,
    is_maximal_filter,
)
from .sampling import random_axiom_spec, random_prop_algebra, random_structure
from .semantics import (
    DEFAULT_ROWS_CAP,
    FOUR,
    TWO,
    Structure,
    counterexample_env,
    enumerate_structures,
    qa_law_check,
)
from .terms import App, Record, Var, _set


def soundness_language() -> Language:
    """One unary and one binary function, one unary and one binary
    predicate, plus equality."""
    return Language(
        FunctionType({"g": 1, "f": 2}),
        PredicateType({"r": 1, "s": 2, "e": 2}, equality="e"),
    )


class SoundnessFailure(Record):
    __slots__ = __match_args__ = ("axiom", "instance", "structure", "env_prefix")

    def __init__(
        self,
        axiom: str,
        instance: Formula,
        structure: Structure,
        env_prefix: tuple[int, ...],
    ):
        _set(self, "axiom", axiom)
        _set(self, "instance", instance)
        _set(self, "structure", structure)
        _set(self, "env_prefix", env_prefix)


class SoundnessReport(Record):
    __slots__ = __match_args__ = ("per_axiom", "structures_checked", "failures")

    def __init__(
        self,
        per_axiom: tuple[tuple[str, int], ...],
        structures_checked: int,
        failures: tuple[SoundnessFailure, ...],
    ):
        _set(self, "per_axiom", per_axiom)
        _set(self, "structures_checked", structures_checked)
        _set(self, "failures", failures)

    @property
    def ok(self) -> bool:
        return not self.failures


# Random structures drawn per instance at each size above 1, and the
# connective depth of the formulas in each random axiom recipe (whose
# variables and substitutions use coordinates 1..3).
_SAMPLED_PER_SIZE = 4
_SPEC_DEPTH = 2
# Work budget in environment rows: an instance has rank at most 4, so it
# is evaluated on at most n^4 rows of a size-n structure.
SOUNDNESS_ROWS_CAP = 1 << 22


def soundness_survey(
    seed: int = 0,
    per_schema: int = 200,
    max_size: int = 3,
    schemas: tuple[str, ...] = AXIOM_IDS,
) -> SoundnessReport:
    """Randomized axiom instances evaluated over small structures.

    Size-1 structures are enumerated exhaustively; for each larger size
    a fresh batch of seeded random structures is drawn per instance.
    Every instance must be valid everywhere.  Over SOUNDNESS_ROWS_CAP
    rows of work it raises BoundExceeded before drawing any structure.
    """
    if per_schema < 1:
        raise ValueError("per_schema must be >= 1")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    n = max_size  # size^4 summed over sizes 2..n in closed form
    rows = per_schema * len(schemas) * _SAMPLED_PER_SIZE * (
        n * (n + 1) * (2 * n + 1) * (3 * n * n + 3 * n - 1) // 30 - 1
    )
    if rows > SOUNDNESS_ROWS_CAP:
        raise BoundExceeded(f"{rows} environment rows, over the cap of {SOUNDNESS_ROWS_CAP}")
    language = soundness_language()
    rng = random.Random(seed)
    small = list(enumerate_structures(language, 1))
    failures = []
    counts = []
    structures_checked = 0
    for axiom in schemas:
        checked = 0
        for _ in range(per_schema):
            spec = random_axiom_spec(rng, axiom, language, depth=_SPEC_DEPTH)
            instance = instantiate_axiom(spec, language)
            checked += 1
            candidates = list(small)
            for size in range(2, max_size + 1):
                candidates.extend(
                    random_structure(rng, language, size)
                    for _ in range(_SAMPLED_PER_SIZE)
                )
            structures_checked += len(candidates)
            for structure in candidates:
                bad = counterexample_env(structure, instance)
                if bad is not None:
                    failures.append(
                        SoundnessFailure(axiom, instance, structure, bad.prefix)
                    )
                    break
        counts.append((axiom, checked))
    return SoundnessReport(tuple(counts), structures_checked, tuple(failures))


class AlgebraVerdict(Record):
    __slots__ = __match_args__ = (
        "carrier",
        "boolean",
        "filters",
        "valuations",
        "filters_are_intersections",
        "maximal_filters_match_valuations",
    )

    def __init__(
        self,
        carrier: int,
        boolean: bool,
        filters: int,
        valuations: int,
        filters_are_intersections: bool,
        maximal_filters_match_valuations: bool,
    ):
        _set(self, "carrier", carrier)
        _set(self, "boolean", boolean)
        _set(self, "filters", filters)
        _set(self, "valuations", valuations)
        _set(self, "filters_are_intersections", filters_are_intersections)
        _set(self, "maximal_filters_match_valuations", maximal_filters_match_valuations)

    @property
    def ok(self) -> bool:
        return self.filters_are_intersections and self.maximal_filters_match_valuations


class CompletenessReport(Record):
    __slots__ = __match_args__ = ("verdicts",)

    def __init__(self, verdicts: tuple[AlgebraVerdict, ...]):
        _set(self, "verdicts", verdicts)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)


_MIN_NON_BOOLEAN = 5
CORPUS_CAP = 1000  # algebras; each takes about 50 ms to survey


def prop_corpus(seed: int = 0, total: int = 20):
    """Proposition algebras with carrier at most 8: the two-element
    algebra, the free Boolean algebra on one generator, the eight
    element Boolean algebra, and seeded random tables, at least five of
    them verified non-Boolean, so the corpus may exceed total (at most
    CORPUS_CAP, or BoundExceeded is raised before any is drawn)."""
    if total < 1:
        raise ValueError("total must be >= 1")
    if total > CORPUS_CAP:
        raise BoundExceeded(f"total {total} is over the cap of {CORPUS_CAP} algebras")
    rng = random.Random(seed)
    corpus = [algebra_two(), free_boolean_algebra(1), bitmask_algebra(3)]
    non_boolean = 0
    size_cycle = (2, 3, 4, 5, 6, 7, 8)
    attempt = 0
    while len(corpus) < total or non_boolean < _MIN_NON_BOOLEAN:
        size = size_cycle[attempt % len(size_cycle)]
        attempt += 1
        algebra = random_prop_algebra(rng, size)
        if not is_boolean(algebra):
            non_boolean += 1
        corpus.append(algebra)
    return corpus


def completeness_survey(corpus) -> CompletenessReport:
    """Filters as intersections of valuations, and maximal filters as
    exactly the valuations, on every algebra of the corpus."""
    verdicts = []
    for algebra in corpus:
        valuations = enumerate_valuations(algebra)
        axioms = axiom_elements(algebra)
        filters = enumerate_filters(algebra, axioms=axioms)
        as_intersections = True
        for filt in filters:
            meet = (1 << algebra.size) - 1
            for valuation in valuations:
                if valuation & filt == filt:
                    meet &= valuation
            if meet != filt:
                as_intersections = False
                break
        maximal = {
            filt
            for filt in filters
            if is_maximal_filter(algebra, filt, filters=filters, axioms=axioms)
        }
        match = maximal == set(valuations)
        verdicts.append(
            AlgebraVerdict(
                algebra.size,
                is_boolean(algebra),
                len(filters),
                len(valuations),
                as_intersections,
                match,
            )
        )
    return CompletenessReport(tuple(verdicts))


def countermodel_language() -> Language:
    return Language(FunctionType({"c": 0, "g": 1}), PredicateType({"r": 1}))


def standard_countermodel_suite() -> list[Formula]:
    """Ten fixed formulas over a constant, a unary function, and a
    unary predicate; a deterministic search workload."""
    x1, x2 = Var(1), Var(2)
    c = App("c", ())
    gx1 = App("g", (x1,))
    gc = App("g", (c,))

    def r(t):
        return Atom("r", (t,))

    return [
        f_imp(r(x1), Forall(r(x1))),
        f_imp(Forall(r(x1)), r(x1)),
        f_imp(r(c), exists(r(x1))),
        f_imp(exists(r(x1)), r(c)),
        f_imp(Forall(f_imp(r(x1), r(gx1))), f_imp(r(c), r(gc))),
        f_imp(r(gc), r(c)),
        f_imp(Forall(r(x1)), Forall(r(gx1))),
        f_imp(Forall(r(gx1)), Forall(r(x1))),
        f_or(FNot(r(c)), r(c)),
        f_imp(r(x1), r(Var(2))),
    ]


def qa_language() -> Language:
    return Language(
        FunctionType({}), PredicateType({"r": 2, "e": 2}, equality="e")
    )


def qa_fragment(depth: int = 2) -> list[Formula]:
    """All formulas of the given connective depth over one binary
    predicate, with variables drawn from the first two coordinates."""
    atoms = [Atom("r", (Var(i), Var(j))) for i in (1, 2) for j in (1, 2)]
    return enumerate_formulas(atoms, depth)


class QACell(Record):
    __slots__ = __match_args__ = (
        "size", "atom_bits", "structures", "exhaustive", "ok", "failing_law"
    )

    def __init__(
        self,
        size: int,
        atom_bits: int,
        structures: int,
        exhaustive: bool,
        ok: bool,
        failing_law: str | None = None,
    ):
        _set(self, "size", size)
        _set(self, "atom_bits", atom_bits)
        _set(self, "structures", structures)
        _set(self, "exhaustive", exhaustive)
        _set(self, "ok", ok)
        _set(self, "failing_law", failing_law)


class QASurveyReport(Record):
    __slots__ = __match_args__ = ("cells",)

    def __init__(self, cells: tuple[QACell, ...]):
        _set(self, "cells", cells)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)


def qa_survey(
    seed: int = 0,
    sizes: tuple[int, ...] = (1, 2, 3),
    rank_bound: int = 2,
    exhaustive_cap: int = 64,
    sampled_count: int = 8,
) -> QASurveyReport:
    """Quantifier laws over function-algebra fragments.

    For each domain size and the two- and four-valued algebras, the
    binary predicate's table ranges over every possibility when there
    are at most exhaustive_cap of them, and over sampled_count seeded
    random tables otherwise; every law is checked on ``qa_fragment()``.
    A size whose n^2-entry table passes the row cap raises
    BoundExceeded before any structure is built.
    """
    if sampled_count < 1:
        raise ValueError("sampled_count must be >= 1")
    for size in sizes:
        if size < 1:
            raise ValueError("domain size must be >= 1")
        if size * size > DEFAULT_ROWS_CAP:
            raise BoundExceeded(
                f"size {size} needs {size}^2 table entries, over the cap of "
                f"{DEFAULT_ROWS_CAP}"
            )
    language = qa_language()
    sample = qa_fragment()
    rng = random.Random(seed)
    cells = []
    for size in sizes:
        for algebra in (TWO, FOUR):
            bits = algebra.atom_count
            table_count = (1 << bits) ** (size * size)
            exhaustive = table_count <= exhaustive_cap
            if exhaustive:
                structures = enumerate_structures(
                    language, size, truth_bits=bits, cells_cap=4096
                )
            else:
                structures = (
                    random_structure(rng, language, size, truth_bits=bits)
                    for _ in range(sampled_count)
                )
            count = 0
            ok = True
            failing = None
            for structure in structures:
                count += 1
                report = qa_law_check(structure, algebra, sample, rank_bound)
                if not report.ok:
                    ok = False
                    failing = next(e.law for e in report.laws if not e.ok)
                    break
            cells.append(
                QACell(size, bits, count, exhaustive, ok, failing)
            )
    return QASurveyReport(tuple(cells))
