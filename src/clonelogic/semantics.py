"""Finite structures and evaluation of terms and formulas.

A structure interprets every function symbol as a finite operation table
and every predicate symbol as a truth table over tuples of domain
elements, all stored row-major.  Environments are eventually-constant
sequences of domain elements, so a finite prefix plus a default element
describes a total assignment.

Formulas are evaluated by one table evaluator.  A formula of rank r is a
function from D^r to a finite Boolean algebra, and an algebra with b
atoms is b copies of the two-element one, so the whole table is stored
as b bit planes and every connective is a bitwise operation on them.
Two-valued evaluation is the one-atom case.

On top of evaluation sit validity checking, deterministic countermodel
search over enumerated structures, quantifier-law checks on the
function algebras induced by formulas, and bounded witness checks for
perfect valuations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import BoundExceeded, LogicError
from .formulas import (
    Atom,
    FAnd,
    FNot,
    Forall,
    Formula,
    Language,
    arithmetic_language,
    check_formula,
    equality_atom,
    frank,
    fsubst,
)
from .terms import (
    SHIFT_UP,
    STAR,
    App,
    Const,
    Substitution,
    Term,
    Var,
    apply as term_apply,
    cons_subst,
    is_closed,
    lift as term_lift,
    rank as term_rank,
    sigma_at,
)

DEFAULT_CELLS_CAP = 64
# Rows of any one formula table: a rank-r table over a domain of size n
# holds n**r rows per bit plane.  It also caps the m**2-entry tables of
# zmod_structure(m).
DEFAULT_ROWS_CAP = 1 << 20
# Candidate structures the countermodel search may try at one domain
# size: every function table times every 0/1 filling of the relation
# cells, over the symbols the formula uses.
CANDIDATES_CAP = 1 << 20


@dataclass(frozen=True)
class Env:
    """Eventually-constant assignment of domain elements to variables.

    Coordinate i reads prefix[i-1] when available and the default
    element afterwards.
    """

    prefix: tuple[int, ...] = ()
    default: int = 0

    def __post_init__(self):
        for value in (*self.prefix, self.default):
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"environment entries must be >= 0, got {value!r}")

    def at(self, index: int) -> int:
        if index <= len(self.prefix):
            return self.prefix[index - 1]
        return self.default

    def cons(self, element: int) -> "Env":
        """Prepend one element, shifting every coordinate up by one."""
        return Env((element,) + self.prefix, self.default)


@dataclass(frozen=True)
class FiniteBooleanAlg:
    """Boolean algebra of bitmasks over a fixed number of atoms.

    Elements are the integers 0 .. 2**atom_count - 1; meet, join, and
    complement are bitwise.  Every meet exists, so the universal
    quantifier is defined everywhere.
    """

    atom_count: int

    def __post_init__(self):
        if self.atom_count < 1 or self.atom_count > 16:
            raise ValueError("atom_count must be between 1 and 16")

    @property
    def size(self) -> int:
        return 1 << self.atom_count

    @property
    def top(self) -> int:
        return (1 << self.atom_count) - 1

    def check(self, value: int) -> None:
        if not 0 <= value < self.size:
            raise ValueError(f"value {value} outside the {self.size}-element algebra")

    def meet(self, a: int, b: int) -> int:
        return a & b

    def join(self, a: int, b: int) -> int:
        return a | b

    def complement(self, a: int) -> int:
        return self.top ^ a

    def meet_all(self, values) -> int:
        out = self.top
        for v in values:
            out &= v
        return out


TWO = FiniteBooleanAlg(1)
FOUR = FiniteBooleanAlg(2)


@dataclass
class Structure:
    """Finite interpretation of a language over the domain {0..size-1}.

    Function tables map argument tuples (read row-major) to domain
    elements.  Relation tables hold truth values: plain 0/1 when
    truth_bits is 1, and truth_bits-wide bitmasks when the structure is
    meant to pair with a FiniteBooleanAlg of that many atoms.  When
    eq_identity is set (the default for equality languages) the
    equality table is pinned to the identity relation and may be
    omitted from the constructor.
    """

    language: Language
    size: int
    fn_tables: dict[str, tuple[int, ...]] = field(default_factory=dict)
    rel_tables: dict[str, tuple[int, ...]] = field(default_factory=dict)
    eq_identity: bool = True
    truth_bits: int = 1

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("domain size must be >= 1")
        if self.truth_bits < 1:
            raise ValueError("truth_bits must be >= 1")
        full = (1 << self.truth_bits) - 1
        eq = self.language.equality
        if eq is not None and self.eq_identity and eq not in self.rel_tables:
            self.rel_tables = dict(self.rel_tables)
            self.rel_tables[eq] = identity_table(self.size, full)
        self._check_tables(self.fn_tables, self.language.functions, self.size - 1, "function")
        self._check_tables(self.rel_tables, self.language.predicates, full, "relation")
        if eq is not None and self.eq_identity:
            if self.rel_tables[eq] != identity_table(self.size, full):
                raise ValueError(
                    "structure is flagged equality-preserving but the "
                    "equality table is not the identity relation"
                )

    def _check_tables(self, tables, symbols, top_value, kind) -> None:
        for name in tables:
            if name not in symbols:
                raise ValueError(f"table for undeclared {kind} symbol {name!r}")
        for name, arity in symbols.items():
            if name not in tables:
                raise ValueError(f"missing {kind} table for {name!r}")
            table = tables[name]
            want = self.size ** arity
            if len(table) != want:
                raise ValueError(
                    f"{kind} table for {name!r} has {len(table)} entries, expected {want}"
                )
            for value in table:
                if not 0 <= value <= top_value:
                    raise ValueError(
                        f"{kind} table for {name!r} holds {value}, outside 0..{top_value}"
                    )

    def check_env(self, env: Env) -> None:
        for value in (*env.prefix, env.default):
            if value >= self.size:
                raise ValueError(
                    f"environment element {value} outside domain of size {self.size}"
                )

    def cell_count(self) -> int:
        total = sum(len(t) for t in self.fn_tables.values())
        return total + sum(len(t) for t in self.rel_tables.values())


def identity_table(size: int, diagonal_value: int = 1) -> tuple[int, ...]:
    """Row-major table of the identity relation on {0..size-1}."""
    return tuple(
        diagonal_value if i == j else 0 for i in range(size) for j in range(size)
    )


def table_index(values: tuple[int, ...], size: int) -> int:
    index = 0
    for v in values:
        index = index * size + v
    return index


def eval_term(structure: Structure, term: Term, env: Env) -> int:
    structure.check_env(env)
    return _eval_term(structure, term, env)


def _eval_term(structure: Structure, term: Term, env: Env) -> int:
    match term:
        case Var(index):
            return env.at(index)
        case App(symbol, args):
            table = structure.fn_tables.get(symbol)
            if table is None:
                raise LogicError(f"no function table for {symbol!r}")
            values = tuple(_eval_term(structure, a, env) for a in args)
            return table[table_index(values, structure.size)]
    raise TypeError(f"not a term: {term!r}")


# ------------------------------------------------------------------
# formula tables
# ------------------------------------------------------------------
#
# A rank-r table has one row per prefix in D^r, in itertools.product
# order: coordinate 1 is the most significant digit, so row i is the
# i-th prefix.  A value with b truth bits is stored as b bit planes, one
# Python int each, where bit i of plane k is bit k of the value at row
# i.  The connectives act on each plane alone: negation is XOR with the
# all-ones plane, conjunction is AND after lifting the lower-rank side,
# and the binder is the AND of the n contiguous blocks of its body's
# plane, one block per value of coordinate 1.
#
# A plane may also carry L lanes: bit row * L + lane holds the row's
# value in lane ``lane``.  L structures that share their function tables
# make one structure valued in the algebra 2^L, and since each
# connective acts on every bit alike, one pass evaluates all L of them.
# Only the row arithmetic changes: the all-ones plane has rows * L bits,
# a binder block is n^rank * L bits, and lifting repeats each L-bit row
# chunk.  Countermodel search puts relation candidates in lanes; every
# other caller uses one lane, where this is the layout above.
#
# Evaluating under one environment uses the same tables, cut down to
# the rows that environment reaches: below q binders a subformula of
# rank r is read only at prefixes (d1..dq, e1, e2, ...), so its table
# covers D^min(r, q) and every coordinate i past q reads e_(i-q).  At
# q = 0 the whole formula is a one-row table, and the work is that of
# walking the tree once per quantified environment.

_ATOM, _NOT, _AND, _FORALL = range(4)
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _bitset(flags: bytes, stride: int = 1) -> int:
    """The int whose bit i * stride is flags[i] (each 0 or 1), with every
    other bit 0."""
    if stride % 8 == 0:
        spaced = bytearray(len(flags) * (stride // 8))
        spaced[::stride // 8] = flags
        return int.from_bytes(spaced, "little")
    if stride > 1:
        spaced = bytearray(len(flags) * stride)
        spaced[::stride] = flags
        flags = spaced
    return int(flags[::-1].translate(_DIGITS), 2)


def _row_sets(column: list[int], lanes: int = 1) -> tuple[list[int], list[int]]:
    """The distinct values of a column in ascending order, and for each
    the bitset of the rows that hold it, at lane stride (one bit per
    row).  An atom's plane is the union of the row sets of the cells
    whose value has that plane's bit set; with lanes, each row set is
    first multiplied by its cell's L-bit lane chunk."""
    cells = sorted(set(column))
    return cells, [_bitset(bytes(map(c.__eq__, column)), lanes) for c in cells]


def _repeat_rows(text: str, width: int, copies: int) -> str:
    """Each ``width``-character row of the text repeated ``copies`` times."""
    return "".join([text[i:i + width] * copies for i in range(0, len(text), width)])


def _digits(row: int, size: int, length: int) -> tuple[int, ...]:
    """The prefix of the given length at a table row."""
    out = []
    for _ in range(length):
        row, digit = divmod(row, size)
        out.append(digit)
    return tuple(reversed(out))


def _value(planes: tuple[int, ...], row: int) -> int:
    """The bitmask a table holds at one row."""
    return sum(((plane >> row) & 1) << k for k, plane in enumerate(planes))


class _Program:
    """A formula DAG compiled for tables over domains of one size.

    Nodes are kept in post-order as (kind, a, b, rank): for an atom, a
    indexes ``atoms``; otherwise a and b are operand node ids.  The
    constructors ``atom``, ``not_``, ``and_`` and ``forall`` hash-cons
    on the key (kind, a, b), the atom itself and its rank standing in
    for a and b, so structurally equal formulas get one node and no key
    hashes a whole subtree; ``add`` compiles a formula object through
    them.  Every node's rank is checked against the row cap when the
    node is made, before any table is built.

    The clone acts on the nodes: ``subst`` maps a node through a
    substitution, applying it to the atoms' terms and lifting it under
    each binder, to the node ``add`` would give the substituted formula.
    ``lanes`` is the number of lanes per plane.
    """

    def __init__(self, size: int):
        self.size = size
        self.lanes = 1
        self.nodes: list[tuple[int, int, int, int]] = []
        self.atoms: list[tuple[Atom, int]] = []
        self.full: dict[int, int] = {}
        self._keys: dict = {}
        self._by_id: dict[tuple[int, int | None], tuple[int, Formula]] = {}
        self._spreaders: dict[int, dict[int, str]] = {}
        # Substitutions numbered as first met, the number and value of
        # each one's lift, and the image of each (node, number) pair.
        self._subs: dict[Substitution, int] = {}
        self._lifts: dict[int, tuple[int, Substitution]] = {}
        self._images: dict[tuple[int, int], int] = {}

    def rank(self, node: int) -> int:
        return self.nodes[node][3]

    def _node(self, kind: int, a, b, rank: int) -> int:
        """Id of the node keyed (kind, a, b), made with this rank if new."""
        key = (kind, a, b)
        node = self._keys.get(key)
        if node is None:
            if rank not in self.full:
                self.full[rank] = (1 << self.rows(rank) * self.lanes) - 1
            if kind == _ATOM:
                self.atoms.append((a, rank))
                a, b = len(self.atoms) - 1, 0
            node = self._keys[key] = len(self.nodes)
            self.nodes.append((kind, a, b, rank))
        return node

    def atom(self, phi: Atom, depth: int | None = None) -> int:
        """Node of an atom; below ``depth`` binders its rank is clipped
        there (see the notes above)."""
        rank = max((term_rank(t) for t in phi.args), default=0)
        if depth is not None:
            rank = min(rank, depth)
        return self._node(_ATOM, phi, rank, rank)

    def not_(self, a: int) -> int:
        return self._node(_NOT, a, 0, self.nodes[a][3])

    def and_(self, a: int, b: int) -> int:
        return self._node(_AND, a, b, max(self.nodes[a][3], self.nodes[b][3]))

    def forall(self, a: int) -> int:
        return self._node(_FORALL, a, 0, max(self.nodes[a][3] - 1, 0))

    def add(self, formula: Formula, depth: int | None = None) -> int:
        """Node id of the formula, compiling its new subformulas.

        With a depth, the formula sits below that many binders and each
        table keeps only the rows an environment reaches (see above);
        without one, tables are whole.  Formula objects already compiled
        at a depth are found by id(); the memo holds each one, so its id
        stays unique while the program lives.
        """
        by_id = self._by_id
        stack = [(formula, depth)]
        while stack:
            phi, d = stack[-1]
            if (id(phi), d) in by_id:
                stack.pop()
                continue
            inner = None if d is None else d + 1
            match phi:
                case Atom():
                    node = self.atom(phi, d)
                case FNot(body) if (id(body), d) not in by_id:
                    stack.append((body, d))
                    continue
                case Forall(body) if (id(body), inner) not in by_id:
                    stack.append((body, inner))
                    continue
                case FNot(body):
                    node = self.not_(by_id[id(body), d][0])
                case Forall(body):
                    node = self.forall(by_id[id(body), inner][0])
                case FAnd(left, right) if (
                    (id(left), d) not in by_id or (id(right), d) not in by_id
                ):
                    stack.extend((p, d) for p in (left, right) if (id(p), d) not in by_id)
                    continue
                case FAnd(left, right):
                    node = self.and_(by_id[id(left), d][0], by_id[id(right), d][0])
                case _:
                    raise TypeError(f"not a formula: {phi!r}")
            stack.pop()
            by_id[id(phi), d] = (node, phi)
        return by_id[id(formula), depth][0]

    def subst(self, node: int, sigma: Substitution) -> int:
        """Node of the formula at ``node`` with ``sigma`` applied, for
        whole tables.  Each atom's terms go through ``terms.apply``, and
        under a binder the walk goes on with ``terms.lift(sigma)``.
        Images are memoized per (node, substitution), so shared
        subformulas and repeated calls are mapped once."""
        subs, lifts, images, nodes = self._subs, self._lifts, self._images, self.nodes
        s = subs.setdefault(sigma, len(subs))
        stack = [(node, s, sigma)]
        while stack:
            n, s, sigma = stack[-1]
            if (n, s) in images:
                stack.pop()
                continue
            kind, a, b, _ = nodes[n]
            if kind == _ATOM:
                phi = self.atoms[a][0]
                image = self.atom(Atom(phi.symbol, tuple(term_apply(t, sigma) for t in phi.args)))
            elif kind == _FORALL:
                if s not in lifts:
                    lifted = term_lift(sigma)
                    lifts[s] = (subs.setdefault(lifted, len(subs)), lifted)
                inner, lifted = lifts[s]
                if (a, inner) not in images:
                    stack.append((a, inner, lifted))
                    continue
                image = self.forall(images[a, inner])
            elif (a, s) not in images:
                stack.append((a, s, sigma))
                continue
            elif kind == _NOT:
                image = self.not_(images[a, s])
            elif (b, s) not in images:
                stack.append((b, s, sigma))
                continue
            else:
                image = self.and_(images[a, s], images[b, s])
            stack.pop()
            images[n, s] = image
        return images[node, subs[sigma]]

    def rows(self, rank: int) -> int:
        """Rows of a rank-``rank`` table; BoundExceeded past the cap."""
        n, cap = self.size, DEFAULT_ROWS_CAP
        if n > 1 and (rank >= cap.bit_length() or n ** rank > cap):
            raise BoundExceeded(
                f"a formula table needs {n}^{rank} rows, over the cap of {cap}"
            )
        return n ** rank

    def set_lanes(self, lanes: int) -> None:
        """Evaluate with ``lanes`` lanes per plane from now on."""
        self.lanes = lanes
        self.full = {rank: (1 << self.rows(rank) * lanes) - 1 for rank in self.full}

    def lift(self, plane: int, rank: int, to: int) -> int:
        """The same plane read at a higher rank: each row of the lower
        table, an L-bit chunk, becomes a run of size**(to - rank) equal
        rows.  With one lane a row is one binary digit, so a single
        translate repeats them all."""
        if rank == to:
            return plane
        copies, lanes = self.size ** (to - rank), self.lanes
        text = format(plane, f"0{self.size ** rank * lanes}b")
        if lanes > 1:
            return int(_repeat_rows(text, lanes, copies), 2)
        spread = self._spreaders.get(copies)
        if spread is None:
            spread = str.maketrans({"0": "0" * copies, "1": "1" * copies})
            self._spreaders[copies] = spread
        return int(text.translate(spread), 2)

    def evaluate(self, planes: list[int], atom_planes: list[int]) -> None:
        """Extend ``planes``, one bit plane per node, to the nodes that
        it does not cover yet, given the plane of each atom."""
        nodes, full, n, lanes = self.nodes, self.full, self.size, self.lanes
        for node in range(len(planes), len(nodes)):
            kind, a, b, rank = nodes[node]
            if kind == _ATOM:
                plane = atom_planes[a]
            elif kind == _NOT:
                plane = planes[a] ^ full[rank]
            elif kind == _AND:
                left, right = planes[a], planes[b]
                if nodes[a][3] != rank:
                    left = self.lift(left, nodes[a][3], rank)
                if nodes[b][3] != rank:
                    right = self.lift(right, nodes[b][3], rank)
                plane = left & right
            elif nodes[a][3] == 0:
                plane = planes[a]
            else:
                body, block, plane = planes[a], n ** rank * lanes, full[rank]
                for k in range(n):
                    plane &= body >> (k * block)
            planes.append(plane)


class _Columns:
    """Values of terms at each row of a table, under one assignment of
    function tables.  Coordinates past a table's rank read ``tail``
    shifted down by that rank (see the notes above); whole tables never
    read it."""

    def __init__(self, size: int, fn_tables, tail: Env = Env()):
        self.size = size
        self.fn_tables = fn_tables
        self.tail = tail
        self._memo: dict = {}

    def term(self, term: Term, rank: int) -> list[int]:
        """Value of the term at each row of a rank-``rank`` table."""
        key = (term, rank)
        column = self._memo.get(key)
        if column is None:
            size = self.size
            match term:
                case Var(index) if index > rank:
                    column = [self.tail.at(index - rank)] * size ** rank
                case Var(index):
                    repeat = size ** (rank - index)
                    column = [
                        v for _ in range(size ** (index - 1))
                        for v in range(size) for _ in range(repeat)
                    ]
                case App(symbol, args):
                    table = self.fn_tables[symbol]
                    column = [table[c] for c in self.cells(args, rank)]
                case _:
                    raise TypeError(f"not a term: {term!r}")
            self._memo[key] = column
        return column

    def cells(self, args, rank: int) -> list[int]:
        """Row-major table index of the argument tuple at each row of a
        rank-``rank`` table."""
        size = self.size
        cells = [0] * size ** rank
        for arg in args:
            values = self.term(arg, rank)
            cells = [c * size + v for c, v in zip(cells, values)]
        return cells


class _Tables:
    """Tables of formulas in one structure, one compiled program for all,
    so structurally equal subformulas are evaluated once.  ``env`` is
    the environment that ``value`` evaluates under."""

    def __init__(self, structure: Structure, env: Env = Env()):
        self.structure = structure
        self.program = _Program(structure.size)
        self.planes: list[list[int]] = [[] for _ in range(structure.truth_bits)]
        self.atom_planes: list[list[int]] = [[] for _ in range(structure.truth_bits)]
        self.columns = _Columns(structure.size, structure.fn_tables, env)

    def table(self, formula: Formula, depth: int | None = None) -> tuple[int, tuple[int, ...]]:
        """Rank and bit planes of the formula's table, cut down to the
        rows the environment reaches below ``depth`` binders if given."""
        node = self.program.add(formula, depth)
        self.evaluate()
        return self.program.rank(node), self.node_planes(node)

    def evaluate(self) -> None:
        """Extend the planes to every node of the program."""
        program = self.program
        for atom, rank in program.atoms[len(self.atom_planes[0]):]:
            cells, rows = _row_sets(self.columns.cells(atom.args, rank))
            table = self.structure.rel_tables[atom.symbol]
            for k, atom_planes in enumerate(self.atom_planes):
                bits = [(table[c] >> k) & 1 for c in cells]
                atom_planes.append(sum(itertools.compress(rows, bits)))
        for planes, atom_planes in zip(self.planes, self.atom_planes):
            program.evaluate(planes, atom_planes)

    def node_planes(self, node: int) -> tuple[int, ...]:
        """The bit planes of an evaluated node's table."""
        return tuple(planes[node] for planes in self.planes)

    def value(self, formula: Formula) -> int:
        """The formula's value under the environment, as a bitmask."""
        return _value(self.table(formula, 0)[1], 0)


def _check_two_valued(structure: Structure, formula: Formula) -> None:
    if structure.truth_bits != 1:
        raise ValueError("two-valued evaluation needs 1-bit relation tables")
    check_formula(formula, structure.language)


def eval_formula(structure: Structure, formula: Formula, env: Env) -> int:
    """Two-valued truth of a formula, 0 or 1.

    The binder quantifies the first coordinate: its value is the meet
    of the body's values with each domain element in that coordinate.
    """
    _check_two_valued(structure, formula)
    structure.check_env(env)
    return _Tables(structure, env).value(formula)


def eval_formula_B(
    structure: Structure, algebra: FiniteBooleanAlg, formula: Formula, env: Env
) -> int:
    """Algebra-valued truth of a formula, as a bitmask in the algebra.

    Negation is complement, conjunction is meet, and the binder is the
    meet of the body's values over all domain elements.
    """
    if structure.truth_bits != algebra.atom_count:
        raise ValueError(
            f"mask width mismatch: relation tables use {structure.truth_bits} "
            f"bits but the algebra has {algebra.atom_count} atoms"
        )
    check_formula(formula, structure.language)
    structure.check_env(env)
    return _Tables(structure, env).value(formula)


def env_after_subst(structure: Structure, env: Env, sub: Substitution) -> Env:
    """The environment that reads coordinate i as the value of sub(i).

    Evaluating a substituted formula under env agrees with evaluating
    the original under this environment.
    """
    n = len(sub.prefix)
    if isinstance(sub.tail, Const):
        constant = eval_term(structure, sub.tail.term, env)
        values = tuple(eval_term(structure, t, env) for t in sub.prefix)
        return Env(values, constant)
    upto = max(n, len(env.prefix) - sub.tail.offset, 0)
    values = tuple(
        eval_term(structure, sigma_at(sub, i), env) for i in range(1, upto + 1)
    )
    return Env(values, env.default)


def counterexample_env(
    structure: Structure, formula: Formula, base: Env | None = None
) -> Env | None:
    """First environment falsifying the formula, in ascending prefix
    order over prefixes of length frank(formula).

    Coordinates past the searched prefix come from ``base`` (default:
    all zero).  Returns None when the formula is valid in the
    structure.  Only prefixes up to the formula's rank matter: truth
    cannot depend on later coordinates.
    """
    _check_two_valued(structure, formula)
    tail = Env() if base is None else base
    rank = frank(formula)
    rest = tail.prefix[rank:]
    structure.check_env(Env(rest, tail.default))
    _, (plane,) = _Tables(structure).table(formula)
    falsified = plane ^ ((1 << structure.size ** rank) - 1)
    if not falsified:
        return None
    row = (falsified & -falsified).bit_length() - 1
    return Env(_digits(row, structure.size, rank) + rest, tail.default)


def is_valid(structure: Structure, formula: Formula) -> bool:
    return counterexample_env(structure, formula) is None


def _check_cells(language: Language, size: int, cells_cap: int) -> None:
    cells = sum(size ** a for _, a in language.functions.items())
    cells += sum(size ** a for _, a in language.predicates.items())
    if cells > cells_cap:
        raise BoundExceeded(
            f"candidate structures need {cells} table cells, over the cap of "
            f"{cells_cap}; use a smaller language or a lower size bound"
        )


def enumerate_structures(
    language: Language,
    size: int,
    truth_bits: int = 1,
    eq_identity: bool = True,
    cells_cap: int = DEFAULT_CELLS_CAP,
):
    """All structures of one domain size, in a reproducible order.

    Function tables vary before relation tables, each in declaration
    order, and each table runs through its entries row-major
    lexicographically.  When the language declares equality and
    eq_identity is set, the equality table is pinned to the identity
    relation rather than enumerated.
    """
    eq = language.equality
    fn_symbols = list(language.functions.items())
    rel_symbols = [
        (name, arity)
        for name, arity in language.predicates.items()
        if not (eq_identity and name == eq)
    ]
    _check_cells(language, size, cells_cap)
    full = (1 << truth_bits) - 1
    table_spaces = [
        itertools.product(range(size), repeat=size ** arity)
        for _, arity in fn_symbols
    ]
    table_spaces += [
        itertools.product(range(full + 1), repeat=size ** arity)
        for _, arity in rel_symbols
    ]
    for combo in itertools.product(*table_spaces):
        fn_tables = {
            name: combo[i] for i, (name, _) in enumerate(fn_symbols)
        }
        rel_tables = {
            name: combo[len(fn_symbols) + i]
            for i, (name, _) in enumerate(rel_symbols)
        }
        yield Structure(
            language, size, fn_tables, rel_tables,
            eq_identity=eq_identity, truth_bits=truth_bits,
        )


def _term_symbols(term: Term, out: set[str]) -> None:
    if isinstance(term, App):
        out.add(term.symbol)
        for arg in term.args:
            _term_symbols(arg, out)


def countermodel_search(
    language: Language,
    formula: Formula,
    max_size: int,
    threads: int = 1,
    cells_cap: int = DEFAULT_CELLS_CAP,
) -> Structure | None:
    """First structure falsifying the formula, sizes 1..max_size.

    The result is the first countermodel in the enumeration order of
    enumerate_structures, so results are reproducible.  Only the tables
    of symbols that occur in the formula are enumerated; the others stay
    all zero.  That finds the same structure: zeroing the unused tables
    of a countermodel gives a countermodel no later in the order, so the
    first one has them zero.

    Relation candidates are evaluated a block at a time, one candidate
    per lane (see the notes on tables above): the last relation cells in
    enumeration order are the lanes, so a block is a run of consecutive
    candidates, and the lowest lane that fails is the first countermodel
    in the block.  A size with more than ``CANDIDATES_CAP`` candidates
    raises ``BoundExceeded`` before any is tried.  ``threads`` is
    accepted for compatibility and ignored: the search runs on the
    calling thread.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    check_formula(formula, language)
    for size in range(1, max_size + 1):
        _check_cells(language, size, cells_cap)
        found = _search_size(language, formula, size)
        if found is not None:
            return found
    return None


# Bits per plane in countermodel search: a block holds as many
# candidates as fit beside the formula's widest table.
_LANE_BITS = 1 << 14


def _lane_pattern(bit: int, lanes: int) -> int:
    """The lanes whose index has the given bit set, as an L-bit chunk."""
    half = 1 << bit
    return int(("1" * half + "0" * half) * (lanes // (2 * half)), 2)


def _search_size(language: Language, formula: Formula, size: int) -> Structure | None:
    program = _Program(size)
    root = program.add(formula)
    used = {atom.symbol for atom, _ in program.atoms}
    for atom, _ in program.atoms:
        for arg in atom.args:
            _term_symbols(arg, used)
    eq = language.equality
    fn_free = [(name, a) for name, a in language.functions.items() if name in used]
    rel_free = [
        (name, a) for name, a in language.predicates.items()
        if name in used and name != eq
    ]
    # A relation candidate is one 0/1 value per cell of the enumerated
    # tables, concatenated in order; the first cell is the most
    # significant.  The last ``inner`` cells are lanes: lane k reads
    # bit (inner - 1 - j) of k at inner cell j.  The others are looped.
    start = {}
    cells = 0
    for name, arity in rel_free:
        start[name] = cells
        cells += size ** arity
    candidates = math.prod(size ** size ** a for _, a in fn_free) << cells
    if candidates > CANDIDATES_CAP:
        raise BoundExceeded(
            f"size {size} has {candidates} candidate structures, over the cap "
            f"of {CANDIDATES_CAP}"
        )
    widest = max(program.rows(rank) for rank in program.full)
    inner = 0
    while inner < cells and (2 << inner) * widest <= _LANE_BITS:
        inner += 1
    outer = cells - inner
    lanes = 1 << inner
    program.set_lanes(lanes)
    ones = (1 << lanes) - 1
    chunks = [_lane_pattern(inner - 1 - j, lanes) for j in range(inner)]
    root_rank = program.rank(root)
    top = program.full[root_rank]
    identity = identity_table(size)
    zeros = {
        name: (0,) * size ** arity
        for name, arity in (*language.functions.items(), *language.predicates.items())
    }
    fn_space = itertools.product(*(
        itertools.product(range(size), repeat=size ** a) for _, a in fn_free
    ))
    for fn_combo in fn_space:
        # Term columns depend only on the function tables, so they are
        # computed once per assignment.  An atom's plane is the sum over
        # its cells of the cell's rows times the cell's chunk: a fixed
        # part from the lanes and the pinned equality, plus the looped
        # cells that hold 1.
        fns = {name: zeros[name] for name in language.functions}
        fns.update(zip((name for name, _ in fn_free), fn_combo))
        columns = _Columns(size, fns)
        atoms = []
        for atom, rank in program.atoms:
            fixed, looped, parts = 0, [], []
            for cell, rows in zip(*_row_sets(columns.cells(atom.args, rank), lanes)):
                if atom.symbol == eq:
                    fixed += rows * ones * identity[cell]
                elif (g := start[atom.symbol] + cell) < outer:
                    looped.append(g)
                    parts.append(rows * ones)
                else:
                    fixed += rows * chunks[g - outer]
            atoms.append((fixed, looped, parts))
        for bits in itertools.product((0, 1), repeat=outer):
            atom_planes = [
                fixed + sum(itertools.compress(parts, map(bits.__getitem__, looped)))
                for fixed, looped, parts in atoms
            ]
            planes: list[int] = []
            program.evaluate(planes, atom_planes)
            plane = planes[root]
            if plane == top:
                continue
            passed = ones
            for row in range(program.rows(root_rank)):
                passed &= plane >> (row * lanes)
            failed = ones ^ passed
            lane = (failed & -failed).bit_length() - 1
            values = bits + tuple((lane >> (inner - 1 - j)) & 1 for j in range(inner))
            rel_tables = {name: zeros[name] for name in language.predicates if name != eq}
            for name, arity in rel_free:
                rel_tables[name] = values[start[name]:start[name] + size ** arity]
            return Structure(language, size, fns, rel_tables)
    return None


def zmod_structure(m: int) -> Structure:
    """Modular arithmetic on {0..m-1} for the arithmetic language."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if m * m > DEFAULT_ROWS_CAP:
        raise BoundExceeded(
            f"zmod{m} needs {m}^2 table entries, over the cap of {DEFAULT_ROWS_CAP}"
        )
    language = arithmetic_language()
    fn_tables = {
        "0": (0,),
        "S": tuple((i + 1) % m for i in range(m)),
        "add": tuple((i + j) % m for i in range(m) for j in range(m)),
        "mul": tuple((i * j) % m for i in range(m) for j in range(m)),
    }
    return Structure(language, m, fn_tables, {})


@dataclass(frozen=True)
class LawFailure:
    """Witness for one failed law instance."""

    p: Formula
    q: Formula | None
    env: Env
    left: int
    right: int


@dataclass(frozen=True)
class LawReport:
    law: str
    ok: bool
    checked: int
    failure: LawFailure | None = None


@dataclass(frozen=True)
class QAReport:
    laws: tuple[LawReport, ...]

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.laws)


# Formulas in one qa_law_check sample.  Its cost grows with the sample,
# and each connective more in enumerate_formulas' budget makes the
# sample over ten times larger: 268, 3,244 and 44,524 formulas over
# four atoms at budgets 2, 3 and 4.
_MAX_LAW_SAMPLE = 1 << 13


def qa_law_check(
    structure: Structure,
    algebra: FiniteBooleanAlg,
    sample: list[Formula],
    rank_bound: int,
) -> QAReport:
    """Check the quantifier laws pointwise on formula-induced functions.

    Q1  forall(p & q) = forall(p) & forall(q)
    Q2  (forall p)+   = (forall p)+ & p
    Q3  forall(p+)    = p
    Q4  e*            = top            (equality languages only)
    Q5  e & p         = e & p*         (equality languages only)

    Each sampled formula must have rank at most rank_bound; both sides
    of every law are compared under all environments whose prefix has
    length rank_bound + 1.  For the two-formula law Q1 each p is paired
    with the sample rotated by a few fixed offsets, which keeps the
    check quadratic-free while still exercising every formula in both
    positions.  The sample holds at most 2^13 formulas; a larger one
    raises BoundExceeded before any work.

    The laws are built in the compiled program, not as formulas: each
    sampled formula is compiled once, and each side is a node made by
    the program's constructors, with p+ and p* as the clone's action
    ``subst`` on p's node.  Structurally equal sides, such as p inside
    Q1, Q2 and Q5, share one node, and the program is evaluated once
    per truth bit before the pairs are compared in law order.
    """
    if rank_bound < 0:
        raise ValueError("rank_bound must be >= 0")
    if len(sample) > _MAX_LAW_SAMPLE:
        raise BoundExceeded(
            f"the law sample holds {len(sample)} formulas, over the cap of "
            f"{_MAX_LAW_SAMPLE}"
        )
    tables = _Tables(structure)
    program = tables.program
    nodes = []
    for p in sample:
        node = program.add(p)
        if program.rank(node) > rank_bound:
            raise ValueError(
                f"sample formula has rank {program.rank(node)}, over the bound {rank_bound}"
            )
        check_formula(p, structure.language)
        nodes.append(node)
    if structure.truth_bits != algebra.atom_count:
        raise ValueError(
            f"mask width mismatch: relation tables use {structure.truth_bits} "
            f"bits but the algebra has {algebra.atom_count} atoms"
        )
    forall, and_, subst = program.forall, program.and_, program.subst
    laws = []
    m = len(sample)
    q1 = []
    for offset in sorted({0, 1 % m, m // 2}) if m else []:
        for i, (p, a) in enumerate(zip(sample, nodes)):
            j = (i + offset) % m
            b = nodes[j]
            q1.append((p, sample[j], forall(and_(a, b)), and_(forall(a), forall(b))))
    laws.append(("Q1", q1))
    halves = [subst(forall(a), SHIFT_UP) for a in nodes]
    laws.append(("Q2", [
        (p, None, half, and_(half, a)) for p, a, half in zip(sample, nodes, halves)
    ]))
    laws.append(("Q3", [
        (p, None, forall(subst(a, SHIFT_UP)), a) for p, a in zip(sample, nodes)
    ]))
    if structure.language.equality is not None:
        e_atom = equality_atom(structure.language)
        e = program.atom(e_atom)
        top = program.not_(and_(e, program.not_(e)))
        laws.append(("Q4", [(e_atom, None, subst(e, STAR), top)]))
        laws.append(("Q5", [
            (p, None, and_(e, a), and_(e, subst(a, STAR))) for p, a in zip(sample, nodes)
        ]))
    tables.evaluate()
    n = structure.size
    lift = program.lift

    def at_width(planes, rank, depth, width):
        """The table lifted to rank depth, restricted to the rows whose
        coordinates past width are 0."""
        planes = tuple(lift(p, rank, depth) for p in planes)
        if width == depth:
            return planes
        rows, stride = n ** depth, n ** (depth - width)
        return tuple(
            int(format(p, f"0{rows}b")[::-1][::stride][::-1], 2) for p in planes
        )

    def run_law(law: str, instances) -> LawReport:
        # Both sides ignore env coordinates beyond their rank, so
        # comparing over prefixes of the larger side rank decides
        # equality over every longer environment as well.  Environments
        # are compared in ascending prefix order, each with default 0.
        checked = 0
        for p, q, left, right in instances:
            left_rank, right_rank = program.rank(left), program.rank(right)
            depth = max(left_rank, right_rank)
            width = min(depth, rank_bound + 1)
            lv = at_width(tables.node_planes(left), left_rank, depth, width)
            rv = at_width(tables.node_planes(right), right_rank, depth, width)
            differ = 0
            for a, b in zip(lv, rv):
                differ |= a ^ b
            if not differ:
                checked += n ** width
                continue
            row = (differ & -differ).bit_length() - 1
            checked += row + 1
            env = Env(_digits(row, n, width), 0)
            failure = LawFailure(p, q, env, _value(lv, row), _value(rv, row))
            return LawReport(law, False, checked, failure)
        return LawReport(law, True, checked)

    return QAReport(tuple(run_law(law, instances) for law, instances in laws))


@dataclass(frozen=True)
class WitnessEntry:
    """Outcome of the witness check for one sampled formula.

    A formula whose universal closure holds locally lands in the
    "universal" category and ok records the sound direction: every
    candidate instance holds too.  Otherwise the negated universal
    holds and ok records whether some candidate witnesses the negated
    body; when none does the search was merely too small, which
    inconclusive flags.
    """

    formula: Formula
    category: str
    ok: bool
    witness: Term | None = None
    inconclusive: bool = False


@dataclass(frozen=True)
class PerfectReport:
    entries: tuple[WitnessEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok or e.inconclusive for e in self.entries)


def perfect_check_bounded(
    structure: Structure,
    env: Env,
    candidates: list[Term],
    sample: list[Formula],
) -> PerfectReport:
    """Bounded witness checks against one local valuation.

    The valuation is the set of formulas true in the structure under
    the given environment.  For each sampled p, either forall(p) holds
    there, and then p must hold with each closed candidate term in the
    first slot, or its negation holds, and then the candidates are
    searched for one making the negated body true.
    """
    for term in candidates:
        if not is_closed(term):
            raise ValueError(f"candidate term is not closed: {term!r}")
    holds = _evaluator(structure, env)
    entries = []
    for p in sample:
        if holds(Forall(p)):
            ok = all(holds(fsubst(p, cons_subst(a))) for a in candidates)
            entries.append(WitnessEntry(p, "universal", ok))
            continue
        witness = None
        for a in candidates:
            if holds(fsubst(FNot(p), cons_subst(a))):
                witness = a
                break
        entries.append(
            WitnessEntry(
                p,
                "negated-universal",
                witness is not None,
                witness,
                inconclusive=witness is None,
            )
        )
    return PerfectReport(tuple(entries))


def finite_meet_property(sentences: list[Formula], structure: Structure) -> bool:
    """Whether all the sentences hold jointly in the structure.

    This witnesses consistency of a finite set at desk scale: the
    conjunction of the sentences evaluates to true under the empty
    environment.  The empty set passes vacuously.
    """
    for phi in sentences:
        if frank(phi) != 0:
            raise ValueError(f"not a sentence (rank {frank(phi)}): {phi!r}")
    holds = _evaluator(structure, Env((), 0))
    return all(holds(phi) for phi in sentences)


def _evaluator(structure: Structure, env: Env):
    """Two-valued truth under one environment, as eval_formula gives it,
    with one set of tables shared by every formula asked about."""
    tables = _Tables(structure, env)

    def holds(formula: Formula) -> bool:
        _check_two_valued(structure, formula)
        structure.check_env(env)
        return tables.value(formula) == 1

    return holds
