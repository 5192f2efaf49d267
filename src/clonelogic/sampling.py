"""Seeded random generators for terms, formulas, and finite tables.

Everything takes an explicit random.Random so that runs are exactly
reproducible from one integer seed.
"""

from __future__ import annotations

import random

from .formulas import Atom, FAnd, FNot, Forall, Formula, Language
from .propositional import FinitePropAlgebra
from .proofs import AxiomInstanceSpec
from .semantics import Structure
from .terms import (
    App,
    Const,
    FunctionType,
    Shift,
    Substitution,
    Term,
    Var,
)


def random_term(
    rng: random.Random, functions: FunctionType, max_index: int = 3, depth: int = 2
) -> Term:
    names = list(functions)
    if depth <= 0 or not names or rng.random() < 0.35:
        return Var(rng.randint(1, max_index))
    name = rng.choice(names)
    arity = functions.arity(name)
    args = tuple(
        random_term(rng, functions, max_index, depth - 1) for _ in range(arity)
    )
    return App(name, args)


def random_atom(
    rng: random.Random, language: Language, max_index: int = 3, depth: int = 2
) -> Atom:
    name = rng.choice(list(language.predicates))
    arity = language.predicates.arity(name)
    args = tuple(
        random_term(rng, language.functions, max_index, depth)
        for _ in range(arity)
    )
    return Atom(name, args)


def random_formula(
    rng: random.Random, language: Language, max_index: int = 3, depth: int = 3
) -> Formula:
    if depth <= 0:
        return random_atom(rng, language, max_index, depth=1)
    pick = rng.random()
    if pick < 0.30:
        return random_atom(rng, language, max_index, depth=min(depth, 2))
    if pick < 0.55:
        return FNot(random_formula(rng, language, max_index, depth - 1))
    if pick < 0.80:
        return FAnd(
            random_formula(rng, language, max_index, depth - 1),
            random_formula(rng, language, max_index, depth - 1),
        )
    return Forall(random_formula(rng, language, max_index, depth - 1))


def random_subst(
    rng: random.Random, functions: FunctionType, max_index: int = 3, depth: int = 2
) -> Substitution:
    prefix = tuple(
        random_term(rng, functions, max_index, depth)
        for _ in range(rng.randint(0, 3))
    )
    if rng.random() < 0.5:
        tail = Shift(rng.randint(-len(prefix), 2))
    else:
        tail = Const(random_term(rng, functions, max_index, depth))
    return Substitution(prefix, tail)


def random_structure(
    rng: random.Random,
    language: Language,
    size: int,
    truth_bits: int = 1,
) -> Structure:
    fn_tables = {
        name: tuple(rng.randrange(size) for _ in range(size ** arity))
        for name, arity in language.functions.items()
    }
    eq = language.equality
    rel_tables = {}
    for name, arity in language.predicates.items():
        if name == eq:
            continue
        rel_tables[name] = tuple(
            rng.randrange(1 << truth_bits) for _ in range(size ** arity)
        )
    return Structure(language, size, fn_tables, rel_tables, truth_bits=truth_bits)


def random_prop_algebra(rng: random.Random, size: int) -> FinitePropAlgebra:
    not_table = tuple(rng.randrange(size) for _ in range(size))
    and_table = tuple(
        tuple(rng.randrange(size) for _ in range(size)) for _ in range(size)
    )
    return FinitePropAlgebra(not_table, and_table)


def random_axiom_spec(
    rng: random.Random,
    axiom: str,
    language: Language,
    max_index: int = 3,
    depth: int = 3,
) -> AxiomInstanceSpec:
    """Fully populated recipe; instantiation ignores unused parameters."""
    return AxiomInstanceSpec(
        axiom,
        p=random_formula(rng, language, max_index, depth),
        q=random_formula(rng, language, max_index, depth),
        r=random_formula(rng, language, max_index, depth),
        subst=random_subst(rng, language.functions, max_index),
        var_index=rng.randint(1, max_index),
        gen_count=rng.randint(0, 2),
    )
