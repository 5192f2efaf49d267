"""The table evaluator against the recursive oracle in tests/oracle.py."""

from __future__ import annotations

import gc
import itertools
import sys
import threading
import time
import weakref
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from clonelogic.formulas import (
    Atom,
    FAnd,
    FNot,
    Forall,
    FunctionType,
    Language,
    PredicateType,
    close_off,
    enumerate_formulas,
    equality_atom,
    f_imp,
    frank,
    fsubst,
)
from clonelogic import semantics
from clonelogic.checks import qa_fragment
from clonelogic.errors import BoundExceeded, UndeclaredSymbol
from clonelogic.semantics import (
    DEFAULT_ROWS_CAP,
    Env,
    FiniteBooleanAlg,
    Structure,
    counterexample_env,
    countermodel_search,
    eval_formula,
    eval_formula_B,
    finite_meet_property,
    perfect_check_bounded,
    qa_law_check,
    zmod_structure,
)
from clonelogic.terms import SHIFT_UP, STAR, App, Var, lift

from oracle import (
    oracle_counterexample_env,
    oracle_countermodel,
    oracle_eval,
    oracle_perfect_check,
    oracle_qa_law_check,
    rebuild,
)
from strategies import LANG, formulas

# LANG without the binary function g, so that full enumeration at size 2
# stays small: 2 * 4 * 4 * 16 = 512 candidates.
SMALL_LANG = Language(
    FunctionType({"c": 0, "f": 1}), PredicateType({"r": 1, "s": 2, "e": 2}, equality="e")
)
x1 = Var(1)
c = App("c", ())


def profile_examples(default: int) -> int:
    """The example count of a test: ``default`` under hypothesis's default
    profile, and the count of the profile a run loads otherwise, such as
    the "oracle" and "countermodel" profiles CI runs."""
    if settings.default is settings.get_profile("default"):
        return default
    return settings.default.max_examples


closed_terms = st.recursive(
    st.just(c),
    lambda inner: st.builds(lambda a: App("f", (a,)), inner)
    | st.builds(lambda a, b: App("g", (a, b)), inner, inner),
    max_leaves=3,
)


@st.composite
def structures(draw, max_size: int = 3):
    """Random structures over LANG of size 1..max_size with 1- or 2-bit
    relation tables; equality is the identity or an arbitrary table."""
    size = draw(st.integers(1, max_size))
    bits = draw(st.integers(1, 2))
    eq_identity = draw(st.booleans())

    def table(arity, values):
        return tuple(draw(st.lists(values, min_size=size ** arity, max_size=size ** arity)))

    fn_tables = {
        name: table(arity, st.integers(0, size - 1)) for name, arity in LANG.functions.items()
    }
    rel_tables = {
        name: table(arity, st.integers(0, (1 << bits) - 1))
        for name, arity in LANG.predicates.items()
        if not (eq_identity and name == LANG.equality)
    }
    return Structure(LANG, size, fn_tables, rel_tables, eq_identity=eq_identity, truth_bits=bits)


@st.composite
def structure_env(draw):
    structure = draw(structures())
    n = structure.size
    prefix = draw(st.lists(st.integers(0, n - 1), max_size=5))
    return structure, Env(tuple(prefix), draw(st.integers(0, n - 1)))


@given(structure_env(), formulas(max_index=4))
def test_eval_matches_oracle(pair, p) -> None:
    d, env = pair
    algebra = FiniteBooleanAlg(d.truth_bits)
    expected = oracle_eval(d, algebra, p, env)
    assert eval_formula_B(d, algebra, p, env) == expected
    if d.truth_bits == 1:
        assert eval_formula(d, p, env) == expected


def test_eval_under_one_environment_reads_only_its_rows() -> None:
    # The whole table of e(x25, x25) over two elements is over the row
    # cap, but one environment reaches a single row.
    z2 = zmod_structure(2)
    e = equality_atom(z2.language)
    far = Atom(e.symbol, (Var(25), Var(25)))
    assert eval_formula(z2, far, Env()) == 1
    assert eval_formula_B(z2, FiniteBooleanAlg(1), FNot(far), Env((1,) * 30, 1)) == 0
    with pytest.raises(BoundExceeded, match="rows"):
        counterexample_env(z2, far)
    # x(10^12) reads the default, and x40 the last entry of a 40-entry
    # prefix: e(S(x), 0) holds over zmod 2 exactly when x is 1.
    zero = App("0", ())

    def is_one(term):
        return Atom(e.symbol, (App("S", (term,)), zero))

    cases = [
        (is_one(Var(10**12)), Env((0,), 1), 1),
        (is_one(Var(10**12)), Env((1,) * 40, 0), 0),
        (is_one(Var(40)), Env((0,) * 39 + (1,), 0), 1),
        (is_one(Var(40)), Env((1,) * 39 + (0,), 1), 0),
    ]
    for phi, env, want in cases:
        assert eval_formula(z2, phi, env) == want
        assert eval_formula_B(z2, FiniteBooleanAlg(1), FNot(phi), env) == 1 - want
        tables = semantics._Tables(z2, env)
        tables.value(phi)
        assert list(tables.program.ranks) == [0]  # one row per table


def test_law_check_and_search_make_no_element_constants() -> None:
    # Only evaluation under one environment closes formulas by element
    # constants; the law check and the search read whole tables.
    z2 = zmod_structure(2)
    e = equality_atom(z2.language)
    constants = mock.patch.object(
        semantics, "_element_constants", wraps=semantics._element_constants
    )
    semantics._LAW_SLOT.clear()
    with constants as spy:
        qa_law_check(z2, FiniteBooleanAlg(1), [e, FNot(e)], 2)
        qa_law_check(z2, FiniteBooleanAlg(1), [e, FNot(e)], 2)
        countermodel_search(LANG, Forall(Atom("s", (App("f", (x1,)), c))), 2)
        assert spy.call_count == 0
        eval_formula(z2, e, Env())
        assert spy.call_count == 1
    semantics._LAW_SLOT.clear()


def test_eval_under_one_environment_caps_quantified_rows() -> None:
    # Below q binders one environment reaches up to 2^q rows, so the
    # quantifier nesting alone can pass the cap.
    z2 = zmod_structure(2)
    e = equality_atom(z2.language).symbol

    def nested(q):
        phi = Atom(e, (Var(q), Var(q)))
        for _ in range(q):
            phi = Forall(phi)
        return phi

    q = DEFAULT_ROWS_CAP.bit_length() - 1
    assert eval_formula(z2, nested(q), Env()) == 1
    with pytest.raises(BoundExceeded, match="rows"):
        eval_formula(z2, nested(q + 1), Env())


@settings(max_examples=60, deadline=None)
@given(
    structure_env(),
    st.lists(formulas(max_index=3), max_size=4),
    st.lists(closed_terms, max_size=3),
)
def test_witness_and_meet_checks_match_oracle(pair, sample, candidates) -> None:
    d, env = pair
    if d.truth_bits != 1:
        return
    algebra = FiniteBooleanAlg(1)
    expected = oracle_perfect_check(d, algebra, env, candidates, sample)
    assert perfect_check_bounded(d, env, candidates, sample) == expected
    sentences = [close_off(p) for p in sample]
    assert finite_meet_property(sentences, d) == all(
        oracle_eval(d, algebra, s, Env()) == 1 for s in sentences
    )


@given(structure_env(), formulas(max_index=3))
def test_counterexample_env_matches_oracle(pair, p) -> None:
    d, base = pair
    if d.truth_bits != 1:
        with pytest.raises(ValueError, match="two-valued"):
            counterexample_env(d, p, base)
        return
    algebra = FiniteBooleanAlg(1)
    assert counterexample_env(d, p, base) == oracle_counterexample_env(d, algebra, p, base)


def lang_structure(size, bits, rel_tables, eq_identity=True):
    """A structure over LANG: the given relation tables, zeros elsewhere."""
    fn_tables = {name: (0,) * size ** arity for name, arity in LANG.functions.items()}
    rels = {
        name: (0,) * size ** arity for name, arity in LANG.predicates.items()
        if not (eq_identity and name == LANG.equality)
    }
    rels.update(rel_tables)
    return Structure(LANG, size, fn_tables, rels, eq_identity=eq_identity, truth_bits=bits)


s12, r1 = Atom("s", (x1, Var(2))), Atom("r", (x1,))
e12 = Atom("e", (x1, Var(2)))


@settings(max_examples=profile_examples(40), deadline=None)
@given(
    structures(),
    st.lists(formulas(max_index=2), min_size=1, max_size=4),
    st.integers(0, 3),
)
# A duplicate: p is paired with itself at every Q1 offset.
@example(lang_structure(2, 1, {"s": (0, 1, 1, 0), "r": (1, 0)}), [s12, s12], 2)
# One formula: the Q1 offsets 0, 1 % 1 and 1 // 2 collapse to one.
@example(lang_structure(3, 1, {"s": (1, 0, 1, 0, 1, 1, 0, 0, 1)}), [Forall(s12)], 1)
# Two formulas: offsets 1 and 2 // 2 collapse.
@example(lang_structure(2, 2, {"s": (3, 1, 2, 0), "r": (2, 1)}), [r1, FNot(Atom("s", (Var(2), x1)))], 2)
# Five formulas make n // 2 a third offset.  Q1 holds in every
# structure (a meet of meets), so no example can fail it; broken
# equality fails Q4 and Q5 instead, Q5 at its second formula (the
# first does not read x1).
@example(
    lang_structure(2, 1, {"s": (0, 1, 0, 1), "r": (0, 1), "e": (1, 1, 0, 0)}, eq_identity=False),
    [FNot(Atom("r", (Var(2),))), r1, s12, Forall(s12), FAnd(r1, e12)],
    2,
)
# Four-valued with broken equality: e(1, 1) is not top, so Q4 fails at
# x2 = 1, and e(0, 1) meets s(0, 1) = 0 but s(1, 1) = 3, so Q5 fails.
@example(
    lang_structure(2, 2, {"s": (0, 0, 0, 3), "e": (3, 1, 0, 2)}, eq_identity=False),
    [s12, r1],
    2,
)
# Two truth bits with the Q4 sides compared below the rank bound: at
# bound 0 they have rank 2 but only the rows with x2 = 0 count (stride
# 2 or 3).  e(0, 0) = 1 differs from top in truth bit 1 alone, so Q4
# fails at its first row; then e(0, 0) is top and only the rows past the
# truncation differ, in one truth bit each, so Q4 holds.
@example(lang_structure(2, 2, {"e": (1, 0, 0, 3)}, eq_identity=False), [Atom("r", (c,))], 0)
@example(
    lang_structure(3, 2, {"e": (3, 0, 0, 0, 2, 0, 0, 0, 1)}, eq_identity=False),
    [Atom("r", (c,))],
    0,
)
# Two truth bits, no truncation: the Q5 sides e & r(x1) and e & r(x2)
# first differ at row (0, 1), where e(0, 1) = 2 meets r(0) = 1 and
# r(1) = 3 differently in truth bit 1 alone.
@example(lang_structure(2, 2, {"e": (3, 2, 0, 3), "r": (1, 3)}, eq_identity=False), [r1], 1)
def test_qa_law_check_matches_oracle(d, sample, rank_bound) -> None:
    # A structure of another size and truth-bit width checks the sample
    # first, so d is checked on the program compiled for the other one.
    rank_bound = max(rank_bound, *(frank(p) for p in sample))
    other = other_structure(d)
    other_algebra = FiniteBooleanAlg(other.truth_bits)
    first = qa_law_check(other, other_algebra, sample, rank_bound)
    algebra = FiniteBooleanAlg(d.truth_bits)
    expected = oracle_qa_law_check(d, algebra, sample, rank_bound)
    assert qa_law_check(d, algebra, sample, rank_bound) == expected
    assert first == oracle_qa_law_check(other, other_algebra, sample, rank_bound)


def other_structure(d):
    """A structure over LANG of another size and truth-bit width than d,
    with arbitrary but fixed relation tables and broken equality."""
    size, bits = d.size % 3 + 1, 3 - d.truth_bits
    return lang_structure(size, bits, {
        name: tuple((7 * i + 3) % (1 << bits) for i in range(size ** arity))
        for name, arity in LANG.predicates.items()
    }, eq_identity=False)


def test_qa_law_check_warm_slot_matches_cold_calls() -> None:
    # Two samples and three sizes, alternated: whether the sample's
    # program was compiled for another structure or not at all, the
    # reports are the same.  Broken equality and two truth bits make
    # some laws fail.
    structures = [other_structure(lang_structure(size, 2, {})) for size in (3, 1, 2)]
    structures += [lang_structure(2, 2, {"s": (3, 1, 2, 0), "r": (2, 1)})]
    a = [s12, r1, Forall(s12), FNot(FAnd(r1, e12)), Atom("e", (Var(2), c))]
    b = [FNot(Atom("s", (Var(2), x1))), FAnd(r1, Forall(e12))]
    calls = [(d, sample) for d in structures for sample in (a, b, a)]
    calls += [(d, sample) for sample in (a, b) for d in structures]
    semantics._LAW_SLOT.clear()
    warm, programs = [], []
    for d, sample in calls:
        warm.append(qa_law_check(d, FiniteBooleanAlg(d.truth_bits), sample, 2))
        programs.append(semantics._LAW_SLOT[semantics._law_key(d.language, sample, 2)][0])
    cold = []
    for d, sample in calls:
        semantics._LAW_SLOT.clear()
        cold.append(qa_law_check(d, FiniteBooleanAlg(d.truth_bits), sample, 2))
    assert warm == cold
    assert not all(report.ok for report in cold)
    # A sample checked right after itself is not compiled again, nor is
    # A after A, B: the cache holds both.
    again = [i for i in range(1, len(calls)) if calls[i][1] is calls[i - 1][1]]
    assert again and all(programs[i] is programs[i - 1] for i in again)
    assert all(programs[i + 2] is programs[i] for i in range(0, 3 * len(structures), 3))


def test_qa_law_check_from_threads_matches_one_thread() -> None:
    # Threads share the cache and evaluate its program in their own
    # structures; each still gets the report of its own structure.
    structures = [other_structure(lang_structure(size, 2, {})) for size in (3, 1, 2)]
    sample = [s12, FNot(FAnd(r1, e12)), Forall(Atom("s", (x1, Var(2))))]
    _check_from_threads(structures, [sample])


class _YieldingDict(dict):
    """A dict that lets other threads run between listing its keys and
    using them, and before each pop, which widens every race window of
    the law cache."""

    def __iter__(self):
        keys = list(self.keys())  # list(self) would call this method
        time.sleep(0)
        return iter(keys)

    def pop(self, *args):
        time.sleep(0)
        return super().pop(*args)


def test_qa_law_check_evicting_from_threads_matches_one_thread(monkeypatch) -> None:
    # Three samples, alternated, outnumber the two cache entries, so the
    # threads evict and file entries while others read them; a key
    # another thread has dropped must not raise.
    structures = [other_structure(lang_structure(size, 2, {})) for size in (3, 1, 2)]
    samples = [
        [s12, FNot(FAnd(r1, e12)), Forall(Atom("s", (x1, Var(2))))],
        [FNot(Atom("s", (Var(2), x1))), FAnd(r1, Forall(e12))],
        [r1, Atom("e", (Var(2), c)), FNot(Forall(s12))],
    ]
    monkeypatch.setattr(semantics, "_LAW_SLOT", _YieldingDict())
    _check_from_threads(structures, samples, rounds=400)


def _check_from_threads(structures, samples, rounds=30) -> None:
    """Four threads check every sample in every structure, the samples
    in turn, each thread from another start, under a short switch
    interval; every call must return the one-thread report."""
    calls = [(d, sample) for d in structures for sample in samples]
    expected = [qa_law_check(d, FiniteBooleanAlg(d.truth_bits), sample, 2) for d, sample in calls]
    errors, done = [], []

    def work(start):
        for k in range(rounds):
            i = (start + k) % len(calls)
            d, sample = calls[i]
            try:
                report = qa_law_check(d, FiniteBooleanAlg(d.truth_bits), sample, 2)
            except Exception as exc:  # a race error must fail the test, not end the thread
                report = exc
            if report != expected[i]:
                errors.append((start, k, report))
        done.append(start)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(start,)) for start in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and sorted(done) == [0, 1, 2, 3]


TWO_VALUED = FiniteBooleanAlg(1)
# LANG with one more predicate, t, and the same equality symbol, so a
# sample that reads t compiles into the program a LANG structure uses.
WIDE_LANG = Language(
    LANG.functions, PredicateType({"r": 1, "s": 2, "t": 1, "e": 2}, equality="e")
)
t1 = Atom("t", (x1,))


def _wide_structure(size):
    fn_tables = {name: (0,) * size ** arity for name, arity in LANG.functions.items()}
    rel_tables = {"r": (0,) * size, "s": (0,) * size ** 2, "t": (1,) * size}
    return Structure(WIDE_LANG, size, fn_tables, rel_tables)


r20, r21 = Atom("r", (Var(20),)), Atom("r", (Var(21),))


# Each case primes the slot with the sample checked in one structure at
# one bound, then checks it in another, which must refuse as it does
# with an empty slot.
@pytest.mark.parametrize("sample, primer, primer_bound, d, bound, error, match", [
    # The rank bound is part of the key: the slot holds the sample at a
    # larger bound.
    ([s12, r1], lang_structure(2, 1, {}), 2, lang_structure(2, 1, {}), 1,
     ValueError, "rank 2, over the bound 1"),
    ([r1, FAnd(s12, t1)], _wide_structure(2), 2, lang_structure(3, 1, {}), 2,
     UndeclaredSymbol, "'t'"),
    # Both the symbol and the width are wrong; the symbol is named.
    ([t1], _wide_structure(1), 2, lang_structure(2, 2, {}), 2, UndeclaredSymbol, "'t'"),
    ([s12], lang_structure(2, 1, {}), 2, lang_structure(3, 2, {}), 2,
     ValueError, "mask width mismatch"),
    # Compiled over one element, where every table has one row; over two,
    # a rank-21 formula is over the cap of 2^20 rows ...
    ([r1, r21], lang_structure(1, 1, {}), 21, lang_structure(2, 1, {}), 21,
     BoundExceeded, r"2\^21 rows"),
    # ... and so is the shift of a rank-20 one, a law side ...
    ([r20], lang_structure(1, 1, {}), 20, lang_structure(2, 1, {}), 20,
     BoundExceeded, r"2\^21 rows"),
    # ... but an undeclared symbol in an earlier formula comes first.
    ([t1, r21], _wide_structure(1), 21, lang_structure(2, 1, {}), 21, UndeclaredSymbol, "'t'"),
])
def test_warm_and_cold_slots_refuse_alike(
    sample, primer, primer_bound, d, bound, error, match
) -> None:
    semantics._LAW_SLOT.clear()
    with pytest.raises(error, match=match) as cold:
        qa_law_check(d, TWO_VALUED, sample, bound)
    assert semantics._LAW_SLOT == {}
    qa_law_check(primer, TWO_VALUED, sample, primer_bound)
    assert len(semantics._LAW_SLOT) == 1
    with pytest.raises(Exception) as warm:
        qa_law_check(d, TWO_VALUED, sample, bound)
    assert (warm.type, str(warm.value)) == (cold.type, str(cold.value))


def test_a_new_sample_frees_the_previous_one() -> None:
    # The cache holds two compiled samples: a formula that only sample A
    # held outlives sample B, and is gone once B and a third sample C
    # have been checked.
    d = lang_structure(2, 1, {})
    sample = [FNot(Forall(Atom("s", (App("f", (Var(3),)), App("f", (c,))))))]
    probe = weakref.ref(sample[0])
    qa_law_check(d, TWO_VALUED, sample, 3)
    del sample
    gc.collect()
    assert probe() is not None
    qa_law_check(d, TWO_VALUED, [r1], 3)
    gc.collect()
    assert probe() is not None
    qa_law_check(d, TWO_VALUED, [s12], 3)
    gc.collect()
    assert probe() is None


def test_cached_programs_are_stripped_and_refusals_file_nothing() -> None:
    # A cached program keeps what evaluation reads and no hash-cons
    # table.  A refused call files no entry and moves none: a miss drops
    # the least recent entry before its compile, a hit keeps its place.
    d = lang_structure(2, 1, {})
    a, b = [s12, FNot(r1)], [Forall(s12)]
    semantics._LAW_SLOT.clear()
    qa_law_check(d, TWO_VALUED, a, 2)
    qa_law_check(d, TWO_VALUED, b, 2)
    keys = [semantics._law_key(d.language, sample, 2) for sample in (a, b)]
    assert list(semantics._LAW_SLOT) == keys
    for program, laws in semantics._LAW_SLOT.values():
        assert program.nodes and program.atoms and program.ranks and laws
        assert not hasattr(program, "_keys") and not hasattr(program, "_index")
    with pytest.raises(ValueError, match="mask width mismatch"):
        qa_law_check(d, FiniteBooleanAlg(2), a, 2)
    assert list(semantics._LAW_SLOT) == keys
    with pytest.raises(ValueError, match="over the bound 1"):
        qa_law_check(d, TWO_VALUED, a, 1)
    assert list(semantics._LAW_SLOT) == keys[1:]


@settings(deadline=None)
@given(formulas(max_index=3))
def test_q2_side_through_the_binder_is_the_same_node(p) -> None:
    # (forall p)+ built as the shift of a kernel Forall, or as the
    # forall of p under the lifted shift: one formula, one node.
    program = semantics._Program()
    through_kernel = program.add(fsubst(Forall(p), SHIFT_UP))
    assert program.forall(program.add(fsubst(p, lift(SHIFT_UP)))) == through_kernel


@settings(deadline=None)
@given(formulas(max_index=3), formulas(max_index=3))
def test_constructors_match_add(p, q) -> None:
    program = semantics._Program()
    a, b = program.add(p), program.add(q)
    assert program.not_(a) == program.add(FNot(p))
    assert program.and_(a, b) == program.add(FAnd(p, q))
    assert program.forall(a) == program.add(Forall(p))
    for atom, _ in program.atoms:
        assert program.atom(atom) == program.add(atom)
    assert len(program.nodes) == len(program._keys)


@settings(deadline=None)
@given(formulas(max_index=3))
def test_add_finds_a_rebuilt_formula_without_new_entries(p) -> None:
    # Formulas are interned, so a formula built again is the object the
    # program compiled, and finding it is one lookup.
    program = semantics._Program()
    node = program.add(p)
    entries = (len(program._index), len(program.nodes))
    assert program.add(rebuild(p)) == node
    assert (len(program._index), len(program.nodes)) == entries


def test_equal_lifts_are_one_node() -> None:
    # r(x1) & s(x1, x2), s(x1, x2) & r(x1) and the compiled FAnd(s12, r1)
    # lift r(x1) to rank 2 through one node; an operand at the
    # conjunction's rank is not lifted.
    program = semantics._Program()
    r, s = program.add(r1), program.add(s12)
    lifted = program.lift_to(r, 2)
    assert program.nodes[lifted] == (semantics._LIFT, r, 2, 2)
    assert program.lift_to(r, 2) == lifted and program.lift_to(r, 1) == r
    for node in (program.and_(r, s), program.and_(s, r), program.add(FAnd(s12, r1))):
        assert lifted in program.nodes[node][1:3] and s in program.nodes[node][1:3]
    program.add(FAnd(FNot(s12), FNot(r1)))
    kinds = [node[0] for node in program.nodes]
    assert kinds.count(semantics._LIFT) == 2  # r(x1) and ~r(x1), each once
    assert len(program.nodes) == len(program._keys)


@pytest.mark.parametrize("bits", [1, 2])
def test_lifted_law_sides_match_lift(bits) -> None:
    # Each law side below its instance's depth is a lift node, whose
    # plane is the lift of the side's own plane: its row i holds the
    # side's row i // n^(depth - rank), the prefix cut to the side's rank.
    d = other_structure(lang_structure(2, 3 - bits, {}))
    assert d.truth_bits == bits
    sample = [r1, s12, Forall(s12), FAnd(r1, Atom("r", (Var(3),)))]
    program, laws = semantics._compile_laws(d.language, sample, 3)
    tables = semantics._Tables(d, program=program)
    tables.evaluate()
    planes, lanes = tables.planes, tables.shape.lanes
    assert lanes == bits
    lifts = 0
    for _, instances in laws:
        for _, _, left, right, depth, _ in instances:
            for side in (left, right):
                kind, a, _, rank = program.nodes[side]
                assert rank == depth
                if kind != semantics._LIFT:
                    continue
                lifts += 1
                low = program.rank(a)
                assert planes[side] == tables.shape.lift(planes[a], low, depth)
                for row in range(d.size ** depth):
                    assert semantics._value(planes[side], row, lanes) == semantics._value(
                        planes[a], row // d.size ** (depth - low), lanes
                    )
    assert lifts > 0


def mixed_structure(size, bits):
    """A structure over LANG with fixed tables of every kind and broken
    equality, so every symbol's values vary with its arguments."""
    fn_tables = {
        name: tuple((5 * i + 1) % size for i in range(size ** arity))
        for name, arity in LANG.functions.items()
    }
    rel_tables = {
        name: tuple((7 * i + 3) % (1 << bits) for i in range(size ** arity))
        for name, arity in LANG.predicates.items()
    }
    return Structure(LANG, size, fn_tables, rel_tables, eq_identity=False, truth_bits=bits)


@settings(max_examples=30, deadline=None)
@given(st.lists(formulas(max_index=3), min_size=1, max_size=4))
def test_one_program_evaluates_at_every_size_and_lane_count(sample) -> None:
    # The program holds no domain: compiled once, it gives at sizes 1-4
    # with one and two lanes the planes of a program compiled afresh in
    # each structure, and those are the oracle's values row by row.
    program = semantics._Program()
    nodes = [program.add(p) for p in sample]
    compiled = len(program.nodes)
    for size in (1, 2, 3, 4):
        for bits in (1, 2):
            d = mixed_structure(size, bits)
            algebra = FiniteBooleanAlg(bits)
            shared = semantics._Tables(d, program=program)
            shared.evaluate()
            fresh = semantics._Tables(d)
            for p, node in zip(sample, nodes):
                rank, plane = fresh.table(p)
                assert shared.planes[node] == plane
                for row in range(size ** rank):
                    env = Env(semantics._digits(row, size, rank), 0)
                    assert semantics._value(plane, row, bits) == oracle_eval(d, algebra, p, env)
    assert len(program.nodes) == compiled


def check_runs(program) -> None:
    """The runs of a frozen program tile its nodes in order, every node
    has its run's kind, rank and operand rank, and every operand lies
    before the run; the atoms are the first run, atom node i reading
    atom i."""
    nodes, end = program.nodes, 0
    for kind, rank, low, lo, hi in program.runs:
        assert lo == end < hi
        end = hi
        for node in range(lo, hi):
            got, a, b, node_rank = nodes[node]
            assert got == kind
            if kind == semantics._ATOM:
                assert lo == 0 and a == node
                continue
            assert node_rank == rank and program.rank(a) == low and a < lo
            if kind == semantics._AND:
                assert program.rank(b) == low and b < lo
    assert end == len(nodes) and program.runs[0][0] == semantics._ATOM
    assert program.runs[0][4] == len(program.atoms)


def unfrozen_laws(language, sample, rank_bound):
    """The law program and instances that ``_compile_laws`` freezes,
    before it does."""
    with mock.patch.object(semantics._Program, "freeze", lambda program: range(len(program.nodes))):
        return semantics._compile_laws(language, sample, rank_bound)


# Q5 holds at r(c), which reads no variable, and fails at r(x1) in the
# structure of size 2 and one lane below, whose equality is broken: its
# only failing instance is its last one, which _run_law finds past its
# one-pass comparison.
LAST_FAILS = [Atom("r", (c,)), r1]


@settings(max_examples=profile_examples(30), deadline=None)
@given(st.lists(formulas(max_index=3), min_size=1, max_size=4))
@example(LAST_FAILS)
def test_frozen_law_program_matches_the_unfrozen_one(sample) -> None:
    # At sizes 1-4 with one, two and three lanes, the frozen program
    # gives every node the plane the node-by-node loop gives it before
    # the freeze, and each instance's sides are the renumbered nodes.
    # Three lanes make a row chunk whose width is not a power of two, so
    # a lift run's joined text must keep its rows aligned.  Each law's
    # report, from its sides compared in one pass, is that of its
    # instances checked one at a time.
    rank_bound = max(frank(p) for p in sample)
    program, laws = semantics._compile_laws(LANG, sample, rank_bound)
    check_runs(program)
    grown, grown_laws = unfrozen_laws(LANG, sample, rank_bound)
    assert grown.runs is None
    structures = [mixed_structure(size, bits) for size in (1, 2, 3, 4) for bits in (1, 2, 3)]
    before = []
    for d in structures:
        tables = semantics._Tables(d, program=grown)
        tables.evaluate()
        before.append(tables.planes)
    new = grown.freeze()
    assert (grown.nodes, grown.runs) == (program.nodes, program.runs)
    for (law, instances), (grown_law, grown_instances) in zip(laws, grown_laws, strict=True):
        assert law == grown_law
        assert instances == [
            (p, q, new[left], new[right], depth, width)
            for p, q, left, right, depth, width in grown_instances
        ]
    for d, planes in zip(structures, before):
        tables = semantics._Tables(d, program=program)
        tables.evaluate()
        assert [tables.planes[node] for node in new] == planes
        for law, instances in laws:
            checked, failure = 0, None
            for instance in instances:
                one = semantics._run_law(law, semantics._Instances([instance]), tables)
                checked += one.checked
                if not one.ok:
                    failure = one.failure
                    break
            expected = semantics.LawReport(law, failure is None, checked, failure)
            assert semantics._run_law(law, instances, tables) == expected


def test_last_fails_example_fails_only_at_its_last_instance() -> None:
    program, laws = semantics._compile_laws(LANG, LAST_FAILS, 1)
    tables = semantics._Tables(mixed_structure(2, 1), program=program)
    tables.evaluate()
    q5 = dict(laws)["Q5"]
    assert [
        semantics._run_law("Q5", semantics._Instances([instance]), tables).ok
        for instance in q5
    ] == [True, False]


def test_frozen_binder_run_over_a_large_domain() -> None:
    # A binder run ANDs its body's blocks one element at a time.  Over
    # 100,000 elements, where maps nested once per element overflowed the
    # C stack, the frozen program gives every node the plane of the
    # node-by-node loop.
    language = Language(FunctionType({}), PredicateType({"r": 1}))
    size = 100_000
    d = Structure(language, size, {}, {"r": tuple(int(i % 7 != 3) for i in range(size))})
    sample = [Forall(Atom("r", (x1,)))]
    program, _ = semantics._compile_laws(language, sample, 0)
    assert any(kind == semantics._FORALL and low == 1 for kind, _, low, _, _ in program.runs)
    grown, _ = unfrozen_laws(language, sample, 0)
    before = semantics._Tables(d, program=grown)
    before.evaluate()
    new = grown.freeze()
    tables = semantics._Tables(d, program=program)
    tables.evaluate()
    assert [tables.planes[node] for node in new] == before.planes


@pytest.mark.parametrize("size", [100, 300])
@pytest.mark.parametrize("bits", [1, 2])
def test_frozen_lift_run_over_a_large_domain(size, bits) -> None:
    # A lift run is lifted in slices of planes that spread to at most
    # _LIFT_CHARS characters, or one plane if it is wider.  Eight rank-1
    # atoms each ANDed with s(x1, x2) make one run of eight lifts to rank
    # 2, whose lifted text crosses that bound: over 100 elements in
    # slices of several planes, over 300 one plane a slice.  The frozen
    # program gives every node the plane of the node-by-node loop.
    names = [f"r{k}" for k in range(8)]
    language = Language(FunctionType({}), PredicateType({**dict.fromkeys(names, 1), "s": 2}))
    rel_tables = {
        name: tuple((i * (k + 3) + k) % (1 << bits) for i in range(size))
        for k, name in enumerate(names)
    }
    rel_tables["s"] = tuple((5 * i + i // size) % (1 << bits) for i in range(size * size))
    d = Structure(language, size, {}, rel_tables, truth_bits=bits)
    s = Atom("s", (x1, Var(2)))

    def compiled():
        program = semantics._Program()
        for name in names:
            program.add(FAnd(Atom(name, (x1,)), s))
        return program

    lifted = size * size * bits
    assert len(names) * lifted > semantics._LIFT_CHARS
    assert (lifted > semantics._LIFT_CHARS) == (size == 300)
    grown = compiled()
    before = semantics._Tables(d, program=grown)
    before.evaluate()
    new = grown.freeze()
    program = compiled()
    program.freeze()
    assert (semantics._LIFT, 2, 1) in [run[:3] for run in program.runs if run[4] - run[3] == 8]
    tables = semantics._Tables(d, program=program)
    tables.evaluate()
    assert [tables.planes[node] for node in new] == before.planes


def test_cached_law_checks_build_no_getter_and_lift_no_single_plane(monkeypatch) -> None:
    # Once a sample is compiled, its frozen program holds every getter
    # and lifts whole runs: checking it again, at sizes 2 and 3 with one
    # and two lanes, builds no getter and makes no per-plane lift, and
    # gives the reports of the first checks.
    sample = [r1, s12, Forall(s12), FAnd(r1, Atom("r", (Var(3),))), FNot(Atom("s", (Var(2), x1)))]
    structures = [mixed_structure(size, bits) for size in (2, 3) for bits in (1, 2)]
    first = [qa_law_check(d, FiniteBooleanAlg(d.truth_bits), sample, 3) for d in structures]
    assert not all(report.ok for report in first)
    program, _ = semantics._LAW_SLOT[semantics._law_key(LANG, sample, 3)]
    assert any(kind == semantics._LIFT for kind, *_ in program.runs)
    calls = {"_getter": 0, "lift": 0}

    def counted(name, function):
        def spy(*args):
            calls[name] += 1
            return function(*args)
        return spy

    monkeypatch.setattr(semantics, "_getter", counted("_getter", semantics._getter))
    monkeypatch.setattr(semantics._Shape, "lift", counted("lift", semantics._Shape.lift))
    again = [qa_law_check(d, FiniteBooleanAlg(d.truth_bits), sample, 3) for d in structures]
    assert calls == {"_getter": 0, "lift": 0}
    assert again == first


def test_fragment_program_forms_few_runs() -> None:
    # Level order groups the 4,115 nodes of the qa_fragment() law program
    # into a few dozen runs, so a frozen evaluation makes a few dozen
    # passes, not one step per node.
    program, _ = semantics._compile_laws(R2.language, qa_fragment(), 2)
    assert len(program.nodes) == 4115
    assert len(program.runs) <= 70
    check_runs(program)


def test_countermodel_search_compiles_once_per_call(monkeypatch) -> None:
    # One program serves every size the search tries.
    made = []
    init = semantics._Program.__init__

    def spy(program):
        made.append(program)
        init(program)

    monkeypatch.setattr(semantics._Program, "__init__", spy)
    valid = f_imp(Forall(Atom("s", (x1, c))), Atom("s", (c, c)))
    assert countermodel_search(SMALL_LANG, valid, 3) is None
    assert len(made) == 1
    made.clear()
    found = countermodel_search(SMALL_LANG, f_imp(r1, Forall(r1)), 3)
    assert found is not None and found.size == 2
    assert len(made) == 1


def test_add_compiles_deep_chains_without_recursion() -> None:
    # 5,000 levels, a binder every 50th: x150 sits below 100 binders, so
    # the root has rank 50.  Over one element every table has one row,
    # whatever the rank.
    phi = Atom("s", (x1, Var(150)))
    for level in range(5000):
        phi = Forall(phi) if level % 50 == 0 else FNot(phi)
    program = semantics._Program()
    assert program.rank(program.add(phi)) == 50


R2 = Structure(Language(FunctionType({}), PredicateType({"r": 2})), 2, {}, {"r": (0, 1, 1, 0)})
# The sample `qa_laws --structure zmod2` checks at its default depth and
# rank bound.
E_SAMPLE = enumerate_formulas([Atom("e", (Var(i), Var(j))) for i in (1, 2) for j in (1, 2)], 2)


@pytest.mark.parametrize("structure, sample, nodes, instances", [
    (R2, qa_fragment(), 4115, [804, 268, 268]),
    (zmod_structure(2), E_SAMPLE, 4390, [804, 268, 268, 1, 268]),
])
def test_law_compile_acts_on_nodes(monkeypatch, structure, sample, nodes, instances) -> None:
    # p+ and (forall p)+ are fsubst images by the shift, p* and e* by the
    # collapse, each substitution with one images memo across the sample
    # (a memo per call is the slow path).  The node and instance counts
    # pin the compiled program's size.
    memos = {}

    def spy(formula, sub, images=None):
        assert images is not None
        memos.setdefault(sub, {})[id(images)] = images
        return fsubst(formula, sub, images)

    monkeypatch.setattr(semantics, "fsubst", spy)
    program, laws = semantics._compile_laws(structure.language, sample, 2)
    expected = {SHIFT_UP: 1}
    if structure.language.equality is not None:
        expected[STAR] = 1
    assert {sub: len(memo) for sub, memo in memos.items()} == expected
    assert len(program.nodes) == nodes
    assert [len(law) for _, law in laws] == instances


def test_qa_law_check_truncates_sides_past_the_rank_bound() -> None:
    # With rank bound 0 both sides of Q4 have rank 2, over the compared
    # prefix length 1; coordinate 2 then reads the default 0.
    broken = Structure(
        Language(FunctionType({}), PredicateType({"e": 2}, equality="e")),
        2, {}, {"e": (0, 0, 0, 0)}, eq_identity=False,
    )
    algebra = FiniteBooleanAlg(1)
    report = qa_law_check(broken, algebra, [], 0)
    assert report == oracle_qa_law_check(broken, algebra, [], 0)
    q4 = report.laws[3]
    assert q4.law == "Q4" and q4.checked == 1 and q4.failure.env == Env((0,), 0)


@settings(max_examples=30, deadline=None)
@given(formulas(max_index=2, binary=False))
@example(f_imp(Forall(Atom("s", (x1, c))), Atom("s", (c, c))))  # f and r unused, valid
@example(Atom("r", (c,)))  # f and s unused
@example(Atom("e", (App("f", (x1,)), x1)))  # only f and the pinned equality
def test_countermodel_search_matches_full_enumeration(p) -> None:
    expected = oracle_countermodel(SMALL_LANG, FiniteBooleanAlg(1), p, 2)
    assert countermodel_search(SMALL_LANG, p, 2) == expected



def _nested_formulas(symbol: str, arity: int):
    """Formulas over r/1 whose atoms read terms over c, x1, x2 and one
    function symbol, each nested at least two deep."""
    def apply(inner):
        return st.builds(lambda *args: App(symbol, args), *[inner] * arity)

    terms = st.recursive(st.sampled_from([c, x1, Var(2)]), apply, max_leaves=3)
    atoms = apply(apply(terms)).map(lambda t: Atom("r", (t,)))
    small = st.recursive(
        atoms,
        lambda inner: st.one_of(inner.map(FNot), st.builds(FAnd, inner, inner), inner.map(Forall)),
        max_leaves=3,
    )
    # Implications are often valid or first falsified late, so the
    # search runs through many assignments.
    return (
        small
        | st.builds(f_imp, small, small)
        | st.builds(lambda p, q: f_imp(FAnd(p, q), p), small, small)
    )


UNARY_LANG = Language(FunctionType({"c": 0, "f": 1}), PredicateType({"r": 1}))
BINARY_LANG = Language(FunctionType({"c": 0, "h": 2}), PredicateType({"r": 1}))


@pytest.mark.parametrize("lane_bits", [1, semantics._LANE_BITS])
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_kept_columns_match_full_enumeration(monkeypatch, lane_bits, data) -> None:
    # The search keeps term columns and atom entries from one function
    # table assignment to the next and rebuilds only what a changed table
    # reads.  Terms nested two deep read cells other than the one the
    # odometer turns most often; with one lane every relation cell is
    # looped, so kept atom entries meet the looped path too.
    monkeypatch.setattr(semantics, "_LANE_BITS", lane_bits)
    for language, symbol, arity, max_size in ((UNARY_LANG, "f", 1, 3), (BINARY_LANG, "h", 2, 2)):
        p = data.draw(_nested_formulas(symbol, arity))
        expected = oracle_countermodel(language, FiniteBooleanAlg(1), p, max_size)
        assert countermodel_search(language, p, max_size) == expected


# Each example enumerates 682 structures by the oracle, so hypothesis's
# default profile draws 10 examples.
@settings(max_examples=profile_examples(10), deadline=None)
@given(st.data())
def test_symmetry_broken_search_matches_full_enumeration(data) -> None:
    # The search skips every function assignment that a domain
    # transposition maps to an earlier one; the oracle skips none.  At
    # size 3 the oracle enumerates 682 structures over UNARY_LANG.
    for language, symbol, arity, max_size in ((UNARY_LANG, "f", 1, 3), (BINARY_LANG, "h", 2, 2)):
        p = data.draw(_nested_formulas(symbol, arity))
        expected = oracle_countermodel(language, FiniteBooleanAlg(1), p, max_size)
        assert countermodel_search(language, p, max_size) == expected


def _set_tables_per_size(monkeypatch, language, formula, max_size) -> list[int]:
    """The calls of set_tables at each size while ``formula`` is searched
    to the end: the function assignments whose cells are read."""
    calls = []
    set_tables = semantics._Columns.set_tables

    def spy(columns, fn_tables):
        calls.append(columns.size)
        return set_tables(columns, fn_tables)

    monkeypatch.setattr(semantics._Columns, "set_tables", spy)
    assert countermodel_search(language, formula, max_size) is None
    return [calls.count(size) for size in range(1, max_size + 1)]


def test_search_evaluates_only_assignments_least_under_transpositions(monkeypatch) -> None:
    # An A5 instance over {c/0, g/1, s/2} is valid, so every size is
    # searched to the end.  Of the 1 + 8 + 81 function assignments up to
    # size 3, one transposition or another maps all but 1 + 4 + 15 to an
    # earlier one.  The formula reads g at c alone, and of those 4 + 15,
    # only the 2 + 2 that hold 0 at every other cell of g reach
    # set_tables: from each, the odometer turns at g(c)'s cell or before.
    language = Language(FunctionType({"c": 0, "g": 1}), PredicateType({"s": 2}))
    gc_ = App("g", (c,))
    valid = f_imp(Forall(Atom("s", (x1, gc_))), Atom("s", (gc_, gc_)))
    assert _set_tables_per_size(monkeypatch, language, valid, 3) == [1, 2, 2]


def test_fully_read_tables_keep_every_least_assignment(monkeypatch) -> None:
    # g(x1) reads every cell of g, so no cell is pruned and the 1 + 4 + 15
    # assignments least under transpositions all reach set_tables, as
    # they did before cells were pruned.
    language = Language(FunctionType({"c": 0, "g": 1}), PredicateType({"s": 2}))
    gc_ = App("g", (c,))
    valid = f_imp(Forall(Atom("s", (x1, App("g", (x1,))))), Atom("s", (gc_, App("g", (gc_,)))))
    assert _set_tables_per_size(monkeypatch, language, valid, 3) == [1, 4, 15]


def test_transpositions_cost_no_factorial() -> None:
    # A constant and a unary predicate reach size 12 under the candidates
    # cap, and 12! permutations would be 4.8e8; the search reads c's
    # first occurrence, which leaves c = 0 alone of 12 constants.
    language = Language(FunctionType({"c": 0}), PredicateType({"r": 1}))
    valid = f_imp(Forall(Atom("r", (x1,))), Atom("r", (c,)))
    start = time.perf_counter()
    assert countermodel_search(language, valid, 12) is None
    assert time.perf_counter() - start < 2.0


def test_constants_alone_build_no_transposition(monkeypatch) -> None:
    # e(c, c) over {c/0, e/2 equality} is valid, so sizes 1..60 are
    # searched to the end.  With constants alone the first occurrences
    # decide: at each size only c = 0 reaches set_tables, and no
    # transposition's source list is built or compared, where the
    # n(n - 1)/2 transpositions per size took time growing as n^2.
    language = Language(FunctionType({"c": 0}), PredicateType({"e": 2}, equality="e"))
    counts = {"table_index": 0, "_earlier_image": 0, "set_tables": 0}

    def count(owner, name):
        function = getattr(owner, name)

        def spy(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    count(semantics, "table_index")
    count(semantics, "_earlier_image")
    count(semantics._Columns, "set_tables")
    assert countermodel_search(language, Atom("e", (c, c)), 60, cells_cap=4000) is None
    assert counts == {"table_index": 0, "_earlier_image": 0, "set_tables": 60}


def _least_in_orbit(flat, swaps) -> bool:
    """Whether no transposition (a, b, source) maps the function tables
    ``flat`` to a lexicographically earlier assignment: its image holds
    flat[j], a and b swapped, at cell i for the i-th j of source."""
    for a, b, source in swaps:
        swap = {a: b, b: a}
        if [swap.get(flat[j], flat[j]) for j in source] < list(flat):
            return False
    return True


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_first_occurrences_agree_with_transpositions(size) -> None:
    # The cells of constants are not moved by a transposition, so its
    # source list is the identity; over every assignment of one to three
    # constants the first occurrences skip exactly what the
    # transpositions do.
    for constants in (1, 2, 3):
        swaps = [(a, b, list(range(constants))) for a, b in itertools.combinations(range(size), 2)]
        for flat in itertools.product(range(size), repeat=constants):
            assert semantics._first_occurrences_ascend(list(flat)) == _least_in_orbit(flat, swaps)


# Languages whose terms may read a table only in part: a closed term
# such as g(g(c)) reads the cells its values reach, and a diagonal one
# such as h(x1, x1) or h(x1, c) one line of h.  Full enumeration finds
# 682 structures up to size 3 over GE_LANG and 514 up to size 2 over
# HGE_LANG; the equality e is pinned to the identity.  HGE_LANG declares
# c last, so the odometer turns c's cell fastest and moves h and g in
# assignments it does not evaluate.
GE_LANG = Language(FunctionType({"c": 0, "g": 1}), PredicateType({"r": 1, "e": 2}, equality="e"))
HGE_LANG = Language(
    FunctionType({"h": 2, "g": 1, "c": 0}), PredicateType({"r": 1, "e": 2}, equality="e")
)
g_c = App("g", (c,))
gg_c = App("g", (g_c,))


def h(a, b):
    return App("h", (a, b))


def _partly_read_formulas(binary: bool):
    """Formulas over r/1 and e whose terms are built from c, x1 and x2 by
    g and, when ``binary`` is set, h."""
    def extend(inner):
        applied = inner.map(lambda a: App("g", (a,)))
        if binary:
            applied |= st.builds(h, inner, inner)
        return applied

    terms = st.recursive(st.sampled_from([c, x1, Var(2)]), extend, max_leaves=3)
    atoms = st.builds(lambda a: Atom("r", (a,)), terms) | st.builds(
        lambda a, b: Atom("e", (a, b)), terms, terms
    )
    small = st.recursive(
        atoms,
        lambda inner: st.one_of(inner.map(FNot), st.builds(FAnd, inner, inner), inner.map(Forall)),
        max_leaves=4,
    )
    return small | st.builds(f_imp, small, small)


# Each example enumerates up to 682 structures by the oracle, so
# hypothesis's default profile draws 10 examples.
@settings(max_examples=profile_examples(10), deadline=None)
@given(_partly_read_formulas(binary=False))
# g(c) != c = g(g(c)): g swaps c with another element, first at size 2.
@example(f_imp(FAnd(Atom("e", (gg_c, c)), Atom("r", (c,))), Atom("r", (g_c,))))
# Valid: every size is searched to the end, reading g at c only.
@example(f_imp(Forall(Atom("r", (g_c,))), Atom("r", (g_c,))))
# Valid at sizes 1 and 2: c, g(c) and g(g(c)) pairwise distinct.
@example(FNot(FAnd(FNot(Atom("e", (c, g_c))), FAnd(
    FNot(Atom("e", (g_c, gg_c))), FNot(Atom("e", (c, gg_c)))))))
def test_partly_read_unary_search_matches_full_enumeration(p) -> None:
    # The search evaluates only function tables that are zero on every
    # cell no term reads, and turns its odometer at the last read cell;
    # the oracle enumerates every structure.
    expected = oracle_countermodel(GE_LANG, FiniteBooleanAlg(1), p, 3)
    assert countermodel_search(GE_LANG, p, 3) == expected


@settings(max_examples=profile_examples(10), deadline=None)
@given(_partly_read_formulas(binary=True))
@example(Atom("e", (h(x1, x1), x1)))  # h idempotent: reads the diagonal only
@example(f_imp(Forall(Atom("r", (h(x1, c),))), Atom("r", (h(c, c),))))  # valid
@example(FNot(FAnd(Atom("r", (h(g_c, x1),)), FNot(Atom("r", (h(x1, gg_c),))))))
# h moves in assignments not evaluated: see the kept-entries test below.
@example(f_imp(Forall(Atom("r", (h(x1, x1),))), Atom("r", (h(c, x1),))))
def test_partly_read_binary_search_matches_full_enumeration(p) -> None:
    expected = oracle_countermodel(HGE_LANG, FiniteBooleanAlg(1), p, 2)
    assert countermodel_search(HGE_LANG, p, 2) == expected


@pytest.mark.parametrize(("arity", "size"), [(1, 2), (1, 3), (2, 2)])
def test_earlier_image_skips_only_assignments_a_transposition_maps_earlier(arity, size) -> None:
    # _earlier_image agrees with the direct orbit test, and every assignment
    # that agrees with a skipped one up to the cell it returns is skipped
    # too, over the tables of a constant and a function of the arity.
    cells = 1 + size ** arity
    swaps = []
    for a, b in itertools.combinations(range(size), 2):
        swap = {a: b, b: a}
        source = [0] + [
            1 + semantics.table_index([swap.get(v, v) for v in cell], size)
            for cell in itertools.product(range(size), repeat=arity)
        ]
        swaps.append((a, b, source))
    for flat in itertools.product(range(size), repeat=cells):
        last = semantics._earlier_image(list(flat), swaps)
        assert (last < 0) == _least_in_orbit(flat, swaps)
        for rest in itertools.product(range(size), repeat=cells - 1 - last) if last >= 0 else ():
            assert not _least_in_orbit(flat[:last + 1] + rest, swaps)


def test_kept_entries_follow_the_moves_of_assignments_not_evaluated() -> None:
    # Over {h/2, c/0} h's cells come before c's.  At size 2 the odometer
    # moves h from (0, 0, 0, 1) to (0, 0, 1, 0) at c = 0, where h(1, 0)
    # is unread, so that assignment is not evaluated; the next, with
    # c = 1, is, and set_tables reports only c as moved since the one
    # before.  The kept entry of r(h(x1, x1)) was made under h = (0, 0,
    # 0, 1), so it must be made again: kept, it gives h = (0, 1, 0, 0).
    language = Language(FunctionType({"h": 2, "c": 0}), PredicateType({"r": 1}))
    p = f_imp(Forall(Atom("r", (h(x1, x1),))), Atom("r", (h(c, x1),)))
    found = countermodel_search(language, p, 2)
    assert found == oracle_countermodel(language, FiniteBooleanAlg(1), p, 2)
    assert found.fn_tables == {"h": (0, 0, 1, 0), "c": (1,)}



# Relation candidates over SMALL_LANG are r's cells, then s's; equality
# is pinned.  At size 1 that is two cells, so four lanes hold both r and
# s in one block; at size 2 it is six, and one, two or four lanes leave
# the r cells and the first s cells to the looped path.
r_c, s_cc = Atom("r", (c,)), Atom("s", (c, c))


@pytest.mark.parametrize("lane_bits", [1, 2, 4, 64])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(formulas(max_index=2, binary=False))
@example(FNot(FAnd(r_c, s_cc)))  # only the last candidate at size 1, r = s = 1
# Equivalent to ~r(c): at size 1 both candidates with r = 1 fail, so a
# two-lane block holds two countermodels and the lower one is first.
@example(FNot(FAnd(r_c, FNot(FAnd(s_cc, FNot(s_cc))))))
# Valid at size 1; at size 2 first falsified by r = (0, 1) and
# s = (0, 0, 0, 1), candidate 17: past the first block for up to 16 lanes.
@example(f_imp(FAnd(Atom("r", (x1,)), Atom("s", (x1, x1))), Forall(Atom("r", (x1,)))))
# The pinned equality: valid at size 1, where no x1 differs from c; at
# size 2 first falsified by r = (0, 1) and s = (0, 0, 1, 0).
@example(FNot(FAnd(FNot(Atom("e", (x1, c))), FAnd(Atom("r", (x1,)), Atom("s", (x1, c))))))
@example(FNot(FAnd(Atom("e", (c, App("f", (c,)))), Forall(FAnd(Atom("r", (x1,)), Atom("s", (x1, c)))))))
@example(f_imp(Forall(Atom("s", (x1, c))), Atom("s", (c, c))))  # valid: every block holds
def test_lane_blocks_match_full_enumeration(monkeypatch, lane_bits, p) -> None:
    # With the plane cut to lane_bits bits, a block holds at most that
    # many candidates: 1, 2 and 4 lanes loop over most cells, and 64
    # bits put every cell of a rank-0 formula in one block.
    monkeypatch.setattr(semantics, "_LANE_BITS", lane_bits)
    expected = oracle_countermodel(SMALL_LANG, FiniteBooleanAlg(1), p, 2)
    assert countermodel_search(SMALL_LANG, p, 2) == expected


@pytest.mark.parametrize("lane_bits", [1, 2, 4, 64])
def test_lane_count_follows_the_widest_table(monkeypatch, lane_bits) -> None:
    # A block has the most lanes, a power of two, that fit beside the
    # widest table in lane_bits bits; at least one, and no more than
    # there are candidates (2^2 at size 1, 2^6 at size 2).
    monkeypatch.setattr(semantics, "_LANE_BITS", lane_bits)
    seen = []
    init = semantics._Shape.__init__

    def spy(shape, size, lanes=1):
        seen.append((size, lanes))
        init(shape, size, lanes)

    monkeypatch.setattr(semantics._Shape, "__init__", spy)
    # Both use r and s; the widest table at size 2 has 1 row, then 2.
    for p, rows in ((FAnd(r_c, s_cc), 1), (FAnd(r_c, Atom("s", (x1, c))), 2)):
        seen.clear()
        assert countermodel_search(SMALL_LANG, f_imp(p, p), 2) is None
        assert seen == [(1, min(lane_bits, 4)), (2, max(min(lane_bits // rows, 64), 1))]
