"""Finite-model evaluation, validity, and the law checkers."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from clonelogic.errors import BoundExceeded, LogicError
from clonelogic.formulas import (
    Atom,
    FAnd,
    FNot,
    Forall,
    FunctionType,
    Language,
    PredicateType,
    enumerate_formulas,
    f_imp,
    f_or,
    frank,
    fsubst,
    peano_core,
)
from clonelogic.proofs import AXIOM_IDS, AxiomInstanceSpec, instantiate_axiom
from clonelogic.semantics import (
    FOUR,
    TWO,
    Env,
    FiniteBooleanAlg,
    Structure,
    counterexample_env,
    countermodel_search,
    enumerate_structures,
    env_after_subst,
    eval_formula,
    eval_formula_B,
    eval_term,
    finite_meet_property,
    identity_table,
    is_valid,
    perfect_check_bounded,
    qa_law_check,
    table_index,
    zmod_structure,
)
from clonelogic.terms import App, Var, cons_subst, sigma_at, subst_from_list

from strategies import LANG, formulas, substitutions

x1, x2 = Var(1), Var(2)


def r(t):
    return Atom("r", (t,))


def s(t, u):
    return Atom("s", (t, u))


def e(t, u):
    return Atom("e", (t, u))


STRUCT2 = Structure(
    LANG,
    2,
    {"c": (0,), "f": (1, 0), "g": (0, 1, 1, 0)},
    {"r": (1, 0), "s": (0, 1, 1, 0)},
)
STRUCT3 = Structure(
    LANG,
    3,
    {"c": (2,), "f": (1, 2, 0), "g": (1, 1, 1, 1, 2, 0, 1, 0, 2)},
    {"r": (0, 1, 1), "s": (1, 0, 0, 0, 1, 0, 0, 0, 1)},
)
CORPUS = (STRUCT2, STRUCT3)


@st.composite
def structure_env(draw, max_prefix=4):
    structure = draw(st.sampled_from(CORPUS))
    n = structure.size
    prefix = draw(st.lists(st.integers(0, n - 1), max_size=max_prefix))
    default = draw(st.integers(0, n - 1))
    return structure, Env(tuple(prefix), default)


# ------------- environments and tables -------------

def test_env_reads_prefix_then_default() -> None:
    env = Env((3, 1), 7)
    assert [env.at(i) for i in (1, 2, 3, 9)] == [3, 1, 7, 7]
    assert env.cons(0) == Env((0, 3, 1), 7)


def test_env_rejects_negative_entries() -> None:
    with pytest.raises(ValueError):
        Env((-1,), 0)


def test_table_index_is_row_major() -> None:
    assert table_index((1, 2), 3) == 5
    assert identity_table(2) == (1, 0, 0, 1)
    assert identity_table(2, 3) == (3, 0, 0, 3)


def test_structure_validation() -> None:
    lang = Language(FunctionType({"f": 1}), PredicateType({"r": 1}))
    with pytest.raises(ValueError, match="missing function table"):
        Structure(lang, 2, {}, {"r": (0, 0)})
    with pytest.raises(ValueError, match="expected 2"):
        Structure(lang, 2, {"f": (0,)}, {"r": (0, 0)})
    with pytest.raises(ValueError, match="outside"):
        Structure(lang, 2, {"f": (0, 2)}, {"r": (0, 0)})
    with pytest.raises(ValueError, match="outside"):
        Structure(lang, 2, {"f": (0, 1)}, {"r": (0, 2)})
    with pytest.raises(ValueError, match="undeclared"):
        Structure(lang, 2, {"f": (0, 1), "h": (0,)}, {"r": (0, 0)})


def test_equality_table_pinned_to_identity() -> None:
    auto = STRUCT2.rel_tables["e"]
    assert auto == identity_table(2)
    with pytest.raises(ValueError, match="identity"):
        Structure(LANG, 2, dict(STRUCT2.fn_tables),
                  {"r": (1, 0), "s": (0, 1, 1, 0), "e": (1, 1, 0, 1)})
    loose = Structure(LANG, 2, dict(STRUCT2.fn_tables),
                      {"r": (1, 0), "s": (0, 1, 1, 0), "e": (1, 1, 0, 1)},
                      eq_identity=False)
    assert loose.rel_tables["e"] == (1, 1, 0, 1)


def test_env_bound_checked_against_domain() -> None:
    with pytest.raises(ValueError, match="outside domain"):
        eval_term(STRUCT2, x1, Env((2,), 0))


# ------------- term and formula evaluation -------------

def test_variables_read_their_coordinate() -> None:
    assert eval_term(STRUCT2, x2, Env((0, 1), 0)) == 1


def test_zmod_term_values() -> None:
    z3 = zmod_structure(3)
    assert eval_term(z3, App("S", (App("0", ()),)), Env()) == 1
    assert eval_term(z3, App("add", (x1, x1)), Env((2,), 0)) == 1


def test_deep_terms_evaluate_without_recursion() -> None:
    # S applied 5,000 times to x1 over zmod3 is x1 + 5000 = x1 + 2 (mod 3).
    z3 = zmod_structure(3)
    deep = x1
    for _ in range(5000):
        deep = App("S", (deep,))
    assert eval_term(z3, deep, Env((2,), 0)) == 1
    env = Env((1,), 0)
    assert env_after_subst(z3, env, subst_from_list([deep])) == Env((), 0)
    assert env_after_subst(z3, env, cons_subst(deep)) == Env((0, 1), 0)


def test_a_term_without_a_table_is_refused() -> None:
    with pytest.raises(LogicError, match="no function table for 'h'"):
        eval_term(STRUCT2, App("f", (App("h", (x1,)),)), Env((0,), 0))


def test_forall_is_meet_over_the_domain() -> None:
    lang = Language(FunctionType({}), PredicateType({"r": 1}))
    d = Structure(lang, 2, {}, {"r": (1, 0)})
    assert eval_formula(d, Forall(r(x1)), Env()) == 0
    assert eval_formula(d, r(x1), Env((0,), 0)) == 1


def test_reflexivity_is_valid_in_equality_structures() -> None:
    for d in CORPUS:
        assert is_valid(d, Forall(e(x1, x1)))


@given(structure_env(), formulas(max_index=3))
def test_negation_complements(pair, p) -> None:
    d, env = pair
    assert eval_formula(d, FNot(p), env) == 1 - eval_formula(d, p, env)


@given(structure_env(), formulas(max_index=2), formulas(max_index=2))
def test_conjunction_is_pointwise_min(pair, p, q) -> None:
    d, env = pair
    both = eval_formula(d, FAnd(p, q), env)
    assert both == min(eval_formula(d, p, env), eval_formula(d, q, env))


@given(structure_env(), formulas(max_index=3), st.data())
def test_rank_dependence(pair, p, data) -> None:
    d, env = pair
    k = frank(p)
    head = tuple(env.at(i) for i in range(1, k + 1))
    tail = data.draw(st.lists(st.integers(0, d.size - 1), max_size=3))
    default = data.draw(st.integers(0, d.size - 1))
    scrambled = Env(head + tuple(tail), default)
    assert eval_formula(d, p, env) == eval_formula(d, p, scrambled)


@given(structure_env(max_prefix=3), formulas(max_index=3), substitutions(max_index=3))
def test_substitution_compatibility(pair, p, sub) -> None:
    d, env = pair
    composed = env_after_subst(d, env, sub)
    assert eval_formula(d, fsubst(p, sub), env) == eval_formula(d, p, composed)


@given(structure_env(max_prefix=3), substitutions(max_index=3))
def test_env_after_subst_reads_substituted_coordinates(pair, sub) -> None:
    d, env = pair
    composed = env_after_subst(d, env, sub)
    for i in range(1, len(sub.prefix) + len(env.prefix) + 4):
        assert composed.at(i) == eval_term(d, sigma_at(sub, i), env)


@given(structure_env(), formulas(max_index=3))
def test_two_valued_route_matches_one_atom_masks(pair, p) -> None:
    d, env = pair
    assert eval_formula_B(d, TWO, p, env) == eval_formula(d, p, env)


def test_mask_width_mismatch_is_reported() -> None:
    with pytest.raises(ValueError, match="mask width"):
        eval_formula_B(STRUCT2, FOUR, r(x1), Env())
    with pytest.raises(ValueError, match="two-valued"):
        lang = Language(FunctionType({}), PredicateType({"r": 1}))
        wide = Structure(lang, 2, {}, {"r": (3, 2)}, truth_bits=2)
        eval_formula(wide, r(x1), Env())


def test_algebra_valued_forall_is_bitwise_and() -> None:
    lang = Language(FunctionType({}), PredicateType({"r": 1}))
    d = Structure(lang, 2, {}, {"r": (2, 1)}, truth_bits=2)
    env = Env()
    values = [eval_formula_B(d, FOUR, r(x1), env.cons(m)) for m in (0, 1)]
    assert eval_formula_B(d, FOUR, Forall(r(x1)), env) == values[0] & values[1]
    assert eval_formula_B(d, FOUR, Forall(r(x1)), env) == 0


def test_algebra_valued_equality_is_full_or_empty() -> None:
    lang = Language(FunctionType({}), PredicateType({"e": 2}, equality="e"))
    d = Structure(lang, 3, {}, {}, truth_bits=2)
    assert eval_formula_B(d, FOUR, e(x1, x2), Env((2, 2), 0)) == FOUR.top
    assert eval_formula_B(d, FOUR, e(x1, x2), Env((2, 1), 0)) == 0


# ------------- validity and countermodels -------------

@given(structure_env(max_prefix=0), formulas(max_index=2))
def test_excluded_middle_is_valid(pair, p) -> None:
    d, _ = pair
    assert is_valid(d, f_or(p, FNot(p)))


def test_single_element_universal() -> None:
    lang = Language(FunctionType({}), PredicateType({"r": 1}))
    d = Structure(lang, 1, {}, {"r": (1,)})
    assert is_valid(d, Forall(r(x1)))


def test_counterexample_env_is_first_in_ascending_order() -> None:
    lang = Language(FunctionType({}), PredicateType({"s": 2}))
    d = Structure(lang, 2, {}, {"s": (1, 1, 1, 0)})
    assert counterexample_env(d, s(x1, x2)) == Env((1, 1), 0)
    assert counterexample_env(d, Forall(s(x1, x2))) == Env((1,), 0)


def test_validity_agrees_over_longer_prefixes() -> None:
    sample = enumerate_formulas([r(x1), s(x1, x2)], 2)
    for d in CORPUS:
        for p in sample:
            envs = itertools.product(range(d.size), repeat=2)
            pointwise = all(eval_formula(d, p, Env(pre, 0)) for pre in envs)
            assert is_valid(d, p) == pointwise


def test_structure_enumeration_is_deterministic_and_complete() -> None:
    lang = Language(FunctionType({"c": 0}), PredicateType({"r": 1}))
    first = list(enumerate_structures(lang, 2))
    second = list(enumerate_structures(lang, 2))
    assert first == second
    assert len(first) == 2 * 4
    assert first[0].fn_tables == {"c": (0,)}
    assert first[0].rel_tables == {"r": (0, 0)}
    assert first[1].rel_tables == {"r": (0, 1)}
    assert first[4].fn_tables == {"c": (1,)}


def test_countermodel_search_finds_first_and_is_thread_stable() -> None:
    lang = Language(FunctionType({}), PredicateType({"r": 1}))
    phi = f_imp(r(x1), Forall(r(x1)))
    found = countermodel_search(lang, phi, 3)
    assert found is not None
    assert found.size == 2 and found.rel_tables == {"r": (0, 1)}
    assert countermodel_search(lang, phi, 3) == found
    assert countermodel_search(lang, Forall(f_imp(Forall(r(x1)), r(x1))), 3) is None


def test_countermodel_search_none_for_reflexivity() -> None:
    lang = Language(FunctionType({}), PredicateType({"e": 2}, equality="e"))
    assert countermodel_search(lang, Forall(e(x1, x1)), 3) is None


def test_cells_cap_guards_enumeration() -> None:
    lang = Language(FunctionType({"f": 2}), PredicateType({"s": 2}))
    with pytest.raises(BoundExceeded, match="smaller language"):
        list(enumerate_structures(lang, 3, cells_cap=10))
    tautology = f_or(s(x1, x1), FNot(s(x1, x1)))
    with pytest.raises(BoundExceeded):
        countermodel_search(lang, tautology, 3, cells_cap=10)


def test_axiom_instances_are_valid_in_all_small_structures() -> None:
    lang = Language(FunctionType({"g": 1}), PredicateType({"r": 1, "e": 2}, equality="e"))
    g1 = App("g", (x1,))
    specs = [
        AxiomInstanceSpec("A1", p=r(x1)),
        AxiomInstanceSpec("A2", p=r(x1), q=r(g1)),
        AxiomInstanceSpec("A3", p=r(x1), q=r(x2), r=e(x1, x2)),
        AxiomInstanceSpec("A4", p=r(x1), q=e(x1, x2)),
        AxiomInstanceSpec("A5", p=e(x1, x2), subst=subst_from_list([g1, x1])),
        AxiomInstanceSpec("A6", p=r(g1), gen_count=1),
        AxiomInstanceSpec("A7", var_index=3),
        AxiomInstanceSpec("A8", p=r(x1), subst=subst_from_list([x1, g1])),
    ]
    assert sorted(spec.axiom for spec in specs) == list(AXIOM_IDS)
    instances = [instantiate_axiom(spec, lang) for spec in specs]
    for size in (1, 2, 3):
        for d in enumerate_structures(lang, size):
            for inst in instances:
                assert is_valid(d, inst)


# ------------- zmod structures -------------

def test_zmod5_arithmetic_schemata() -> None:
    z5 = zmod_structure(5)
    s1, *rest = peano_core()
    assert counterexample_env(z5, s1) == Env((4,), 0)
    for phi in rest:
        assert is_valid(z5, phi)


def test_zmod_tables() -> None:
    z3 = zmod_structure(3)
    assert z3.fn_tables["S"] == (1, 2, 0)
    assert z3.fn_tables["add"][table_index((2, 2), 3)] == 1
    assert z3.fn_tables["mul"][table_index((2, 2), 3)] == 1
    assert z3.rel_tables["e"] == identity_table(3)


# ------------- quantifier-law checks -------------

QA_LANG = Language(FunctionType({}), PredicateType({"r": 2, "e": 2}, equality="e"))
QA_SAMPLE = enumerate_formulas(
    [Atom("r", (Var(i), Var(j))) for i in (1, 2) for j in (1, 2)], 2
)


def test_qa_sample_size() -> None:
    assert len(QA_SAMPLE) == 268


def test_qa_laws_pass_two_valued() -> None:
    d = Structure(QA_LANG, 2, {}, {"r": (1, 0, 0, 1)})
    report = qa_law_check(d, TWO, list(QA_SAMPLE), 2)
    assert [entry.law for entry in report.laws] == ["Q1", "Q2", "Q3", "Q4", "Q5"]
    assert report.ok


def test_qa_laws_pass_four_valued() -> None:
    d = Structure(QA_LANG, 3, {}, {"r": (3, 1, 0, 2, 2, 0, 1, 3, 2)}, truth_bits=2)
    report = qa_law_check(d, FOUR, list(QA_SAMPLE[:40]), 2)
    assert report.ok


def test_qa_laws_without_equality_skip_q4_q5() -> None:
    lang = Language(FunctionType({}), PredicateType({"r": 2}))
    d = Structure(lang, 2, {}, {"r": (1, 0, 0, 1)})
    report = qa_law_check(d, TWO, [Atom("r", (x1, x2))], 2)
    assert [entry.law for entry in report.laws] == ["Q1", "Q2", "Q3"]
    assert report.ok


def test_qa_rank_bound_enforced() -> None:
    d = Structure(QA_LANG, 2, {}, {"r": (1, 0, 0, 1)})
    with pytest.raises(ValueError, match="rank"):
        qa_law_check(d, TWO, [Atom("r", (Var(3), Var(3)))], 1)


def test_qa_detects_broken_equality() -> None:
    d = Structure(QA_LANG, 2, {}, {"r": (1, 0, 0, 1), "e": (0, 0, 0, 0)},
                  eq_identity=False)
    report = qa_law_check(d, TWO, list(QA_SAMPLE[:10]), 2)
    by_law = {entry.law: entry for entry in report.laws}
    assert not by_law["Q4"].ok
    assert by_law["Q4"].failure is not None
    assert by_law["Q1"].ok and by_law["Q3"].ok


# ------------- perfect valuations and finite meets -------------

def test_witness_search_on_zmod2() -> None:
    z2 = zmod_structure(2)
    zero = App("0", ())
    one = App("S", (zero,))
    report = perfect_check_bounded(
        z2, Env(), [zero, one], [e(x1, zero), e(x1, x1)]
    )
    negated, universal = report.entries
    assert negated.category == "negated-universal"
    assert negated.ok and negated.witness == one and not negated.inconclusive
    assert universal.category == "universal" and universal.ok
    assert report.ok


def test_witness_search_inconclusive_without_candidates() -> None:
    z2 = zmod_structure(2)
    zero = App("0", ())
    report = perfect_check_bounded(z2, Env(), [], [e(x1, zero)])
    entry = report.entries[0]
    assert entry.inconclusive and not entry.ok and entry.witness is None


def test_witness_candidates_must_be_closed() -> None:
    z2 = zmod_structure(2)
    with pytest.raises(ValueError, match="closed"):
        perfect_check_bounded(z2, Env(), [x1], [e(x1, x1)])


def test_finite_meet_property() -> None:
    z5 = zmod_structure(5)
    _, _, s3, s4, _, _ = peano_core()
    closed3 = Forall(s3)
    closed4 = Forall(Forall(s4))
    assert finite_meet_property([closed3, closed4], z5)
    assert finite_meet_property([], z5)
    p = Forall(e(x1, x1))
    assert not finite_meet_property([p, FNot(p)], z5)
    with pytest.raises(ValueError, match="sentence"):
        finite_meet_property([e(x1, x1)], z5)


def test_boolean_algebra_masks() -> None:
    assert FOUR.size == 4 and FOUR.top == 3
    assert FOUR.meet(3, 1) == 1 and FOUR.join(2, 1) == 3
    assert FOUR.complement(2) == 1
    assert FOUR.meet_all([3, 2, 3]) == 2
    assert FiniteBooleanAlg(1).top == 1
    with pytest.raises(ValueError):
        FiniteBooleanAlg(0)
