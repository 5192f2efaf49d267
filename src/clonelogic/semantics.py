"""Finite structures and evaluation of terms and formulas.

A structure interprets every function symbol as a finite operation table
and every predicate symbol as a truth table over tuples of domain
elements, all stored row-major.  Environments are eventually-constant
sequences of domain elements, so a finite prefix plus a default element
describes a total assignment.

Formulas are evaluated by one table evaluator.  A formula of rank r is a
function from D^r to a finite Boolean algebra, and an algebra with b
atoms is b copies of the two-element one, so the whole table is stored
as one plane of b lanes and every connective is a bitwise operation on
it.  Two-valued evaluation is the one-lane case.

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
    apply,
    cons_subst,
    is_closed,
    lift as lift_subst,
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
# Truth bits of a Boolean-valued structure: the atoms of its
# FiniteBooleanAlg, and the widest relation tables a structure file holds.
MAX_TRUTH_BITS = 16


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
        if self.atom_count < 1 or self.atom_count > MAX_TRUTH_BITS:
            raise ValueError(f"atom_count must be between 1 and {MAX_TRUTH_BITS}")

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
        eq = self.language.equality if self.eq_identity else None
        if eq is not None:
            if self.size * self.size > DEFAULT_ROWS_CAP:
                raise BoundExceeded(
                    f"the equality table needs {self.size}^2 entries, over the cap "
                    f"of {DEFAULT_ROWS_CAP}"
                )
            identity = identity_table(self.size, full)
            if eq not in self.rel_tables:
                self.rel_tables = dict(self.rel_tables)
                self.rel_tables[eq] = identity
        self._check_tables(self.fn_tables, self.language.functions, self.size - 1, "function")
        self._check_tables(self.rel_tables, self.language.predicates, full, "relation")
        if eq is not None and self.rel_tables[eq] != identity:
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
    """Value of the term under the environment: the one row of its
    rank-0 column, so a term of any depth is read."""
    structure.check_env(env)
    return _Columns(structure.size, structure.fn_tables, env).term(term, 0)[0]


# ------------------------------------------------------------------
# formula tables
# ------------------------------------------------------------------
#
# A rank-r table has one row per prefix in D^r, in itertools.product
# order: coordinate 1 is the most significant digit, so row i is the
# i-th prefix.  A table is one Python int, its plane, of L lanes: bit
# i * L + k holds the row-i value in lane k, so each row is an L-bit
# chunk.  The connectives act on every bit alike: negation is XOR with
# the all-ones plane of rows * L bits, conjunction is AND, and the
# binder is the AND of the n contiguous blocks of n^rank * L bits of its
# body's plane, one block per value of coordinate 1.  An operand of
# lower rank than its conjunction is first lifted, each row chunk
# repeated once per row it stands for, by a lift node of the program.
#
# A value with b truth bits is b lanes, lane k holding truth bit k, so a
# row's chunk is the value itself: b copies of the two-element algebra
# evaluate in one pass.  Countermodel search puts two-valued relation
# candidates in the lanes instead: L structures that share their
# function tables make one structure valued in the algebra 2^L.
#
# Evaluating under one environment uses the same tables, cut down to
# the rows that environment reaches: below q binders a subformula of
# rank r is read only at prefixes (d1..dq, e1, e2, ...), so its table
# covers D^min(r, q) and every coordinate i past q reads e_(i-q).  At
# q = 0 the whole formula is a one-row table, and the work is that of
# walking the tree once per quantified environment.

_ATOM, _NOT, _AND, _FORALL, _LIFT = range(5)
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
    row).  Each row set scans the whole column, so only the search, whose
    domains are small, builds atom planes from them."""
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


def _value(plane: int, row: int, lanes: int) -> int:
    """The bitmask a table holds at one row: that row's lane chunk."""
    return (plane >> row * lanes) & ((1 << lanes) - 1)


def _rows(size: int, rank: int) -> int:
    """Rows of a rank-``rank`` table over a domain of ``size`` elements;
    BoundExceeded past the cap."""
    cap = DEFAULT_ROWS_CAP
    if size > 1 and (rank >= cap.bit_length() or size ** rank > cap):
        raise BoundExceeded(
            f"a formula table needs {size}^{rank} rows, over the cap of {cap}"
        )
    return size ** rank


class _Program:
    """A formula DAG, compiled free of any domain.

    Nodes are kept in post-order as (kind, a, b, rank): for an atom, a
    indexes ``atoms``; otherwise a and b are operand node ids.  The
    constructors ``atom``, ``not_``, ``and_``, ``forall`` and ``lift_to``
    hash-cons on the key (kind, a, b), the atom itself and its rank
    standing in for a and b, so structurally equal formulas get one node
    and no key hashes a whole subtree; ``add`` compiles a formula through
    them and remembers the node of each (formula, depth) pair it
    compiled, and ``image`` maps a node by a substitution through them.
    A lift node is keyed (kind, node, rank): ``and_`` lifts
    its lower-rank operand through one, so each distinct lift is
    computed once per evaluation.  ``ranks`` holds the nodes' ranks in
    the order they first appeared.  A domain enters only when a
    ``_Shape`` evaluates the program, so one program serves every size
    and lane count.
    """

    def __init__(self):
        self.nodes: list[tuple[int, int, int, int]] = []
        self.atoms: list[tuple[Atom, int]] = []
        self.ranks: dict[int, None] = {}
        self._keys: dict = {}
        self._index: dict[tuple[Formula, int | None], int] = {}

    def rank(self, node: int) -> int:
        return self.nodes[node][3]

    def _node(self, kind: int, a, b, rank: int) -> int:
        """Id of the node keyed (kind, a, b), made with this rank if new."""
        key = (kind, a, b)
        node = self._keys.get(key)
        if node is None:
            self.ranks[rank] = None
            if kind == _ATOM:
                self.atoms.append((a, rank))
                a, b = len(self.atoms) - 1, 0
            node = self._keys[key] = len(self.nodes)
            self.nodes.append((kind, a, b, rank))
        return node

    def atom(self, phi: Atom, depth: int | None = None) -> int:
        """Node of an atom; below ``depth`` binders its rank is clipped
        there (see the notes above)."""
        rank = phi.rank
        if depth is not None:
            rank = min(rank, depth)
        return self._node(_ATOM, phi, rank, rank)

    def not_(self, a: int) -> int:
        return self._node(_NOT, a, 0, self.nodes[a][3])

    def and_(self, a: int, b: int) -> int:
        # lift_to written out: this is the constructor a law compile
        # calls most, and the two calls cost it about a fifth.
        rank, other = self.nodes[a][3], self.nodes[b][3]
        if rank < other:
            rank, a = other, self._node(_LIFT, a, other, other)
        elif other < rank:
            b = self._node(_LIFT, b, rank, rank)
        return self._node(_AND, a, b, rank)

    def forall(self, a: int) -> int:
        return self._node(_FORALL, a, 0, max(self.nodes[a][3] - 1, 0))

    def lift_to(self, a: int, rank: int) -> int:
        """Node of a's table read at a rank no lower than its own."""
        if self.nodes[a][3] == rank:
            return a
        return self._node(_LIFT, a, rank, rank)

    def add(self, formula: Formula, depth: int | None = None) -> int:
        """Node id of the formula, compiling its new subformulas.

        With a depth, the formula sits below that many binders and each
        table keeps only the rows an environment reaches (see above);
        without one, tables are whole.  Formulas are interned and hash by
        identity, so a (formula, depth) pair compiled before is one
        lookup.
        """
        index = self._index
        stack = [(formula, depth)]
        while stack:
            key = stack[-1]
            if key in index:
                stack.pop()
                continue
            phi, d = key
            kind = type(phi)
            if kind is Atom:
                node = self.atom(phi, d)
            elif kind is FAnd:
                left, right = (phi.left, d), (phi.right, d)
                if left not in index or right not in index:
                    stack.extend(p for p in (left, right) if p not in index)
                    continue
                node = self.and_(index[left], index[right])
            elif kind is FNot:
                body = (phi.body, d)
                if body not in index:
                    stack.append(body)
                    continue
                node = self.not_(index[body])
            elif kind is Forall:
                body = (phi.body, None if d is None else d + 1)
                if body not in index:
                    stack.append(body)
                    continue
                node = self.forall(index[body])
            else:
                raise TypeError(f"not a formula: {phi!r}")
            stack.pop()
            index[key] = node
        return index[formula, depth]

    def image(self, node: int, sub: Substitution, memo: dict[tuple[int, int], int]) -> int:
        """Node of the formula of ``node`` under ``sub``: the clone's
        action on compiled nodes, the same node as ``add(fsubst(p, sub))``
        for the formula p compiled whole (with no depth) as ``node``.

        An explicit-stack walk over (node, depth) pairs, shaped like
        ``fsubst``: a node of rank at most ``depth`` is its own image, and
        an atom's terms are mapped by ``terms.apply`` under ``depth``
        binders.  A lift node's image is its operand's, since ``and_``
        lifts again by the new ranks.  ``memo`` maps each pair already
        visited to its image under ``sub``; a caller applying one
        substitution to many nodes may share it across calls.
        """
        nodes, atoms = self.nodes, self.atoms
        stack = [(node, 0)]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            n, depth = key
            kind, a, b, rank = nodes[n]
            if rank <= depth:
                out = n
            elif kind == _ATOM:
                phi = atoms[a][0]
                out = self.atom(Atom(phi.symbol, tuple([apply(t, sub, depth) for t in phi.args])))
            elif kind == _AND:
                left, right = (a, depth), (b, depth)
                if left not in memo or right not in memo:
                    stack += (right, left)
                    continue
                out = self.and_(memo[left], memo[right])
            else:  # a lift or a negation, or a binder one level deeper
                inner = (a, depth + 1 if kind == _FORALL else depth)
                if inner not in memo:
                    stack.append(inner)
                    continue
                out = memo[inner]
                if kind == _NOT:
                    out = self.not_(out)
                elif kind == _FORALL:
                    out = self.forall(out)
            memo[key] = out
            stack.pop()
        return memo[node, 0]


class _Shape:
    """Evaluation of compiled programs over a domain of ``size``
    elements, with ``lanes`` lanes per plane.

    ``fit`` makes the all-ones plane of each rank a program holds, under
    the row cap, walking the ranks in the order they first appeared: the
    rank that BoundExceeded names is that of the first node over the
    cap.  It runs before any table or column is built.
    """

    def __init__(self, size: int, lanes: int = 1):
        self.size = size
        self.lanes = lanes
        self.full: dict[int, int] = {}
        self._spreaders: dict[int, dict[int, str]] = {}

    def fit(self, program: _Program) -> None:
        full, size, lanes = self.full, self.size, self.lanes
        for rank in program.ranks:
            if rank not in full:
                full[rank] = (1 << _rows(size, rank) * lanes) - 1

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

    def evaluate(self, program: _Program, planes: list[int], atom_planes: list[int]) -> None:
        """Extend ``planes``, one plane per node, to the program's nodes
        that it does not cover yet, given the plane of each atom.  The
        program has been fitted."""
        nodes, full, n, lanes = program.nodes, self.full, self.size, self.lanes
        for node in range(len(planes), len(nodes)):
            kind, a, b, rank = nodes[node]
            if kind == _AND:
                plane = planes[a] & planes[b]
            elif kind == _NOT:
                plane = planes[a] ^ full[rank]
            elif kind == _LIFT:
                plane = self.lift(planes[a], nodes[a][3], rank)
            elif kind == _ATOM:
                plane = atom_planes[a]
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
    read it.

    A column is built once and kept, keyed by (term, rank), with the set
    of function symbols its term reads.  ``set_tables`` moves the
    columns to other function tables, dropping only those whose term
    reads a table that changed.
    """

    def __init__(self, size: int, fn_tables, tail: Env = Env()):
        self.size = size
        self.fn_tables = fn_tables
        self.tail = tail
        self._memo: dict[tuple[Term, int], list[int]] = {}
        self._reads: dict[Term, frozenset[str]] = {}

    def set_tables(self, fn_tables) -> set[str]:
        """Read these function tables from now on, and return the symbols
        whose table changed: those not the same object as before.  The
        columns of terms that read one of them are dropped."""
        old = self.fn_tables
        changed = {name for name, table in fn_tables.items() if old.get(name) is not table}
        self.fn_tables = fn_tables
        if changed:
            memo, reads = self._memo, self._reads
            for key in [key for key in memo if not changed.isdisjoint(reads[key[0]])]:
                del memo[key]
        return changed

    def term(self, term: Term, rank: int) -> list[int]:
        """Value of the term at each row of a rank-``rank`` table.

        Missing columns are built by an explicit-stack walk, arguments
        first, so a term of any depth is read.  A symbol with no table
        raises LogicError, the outermost and leftmost first.  A kept
        column's arguments are kept too: an argument reads no symbol its
        term does not.
        """
        memo = self._memo
        column = memo.get((term, rank))
        if column is not None:
            return column
        size, reads = self.size, self._reads
        stack = [term]
        while stack:
            node = stack[-1]
            if (node, rank) in memo:
                stack.pop()
                continue
            if isinstance(node, Var):
                index = node.index
                if index > rank:
                    column = [self.tail.at(index - rank)] * size ** rank
                else:
                    repeat = size ** (rank - index)
                    column = [
                        v for _ in range(size ** (index - 1))
                        for v in range(size) for _ in range(repeat)
                    ]
                reads[node] = frozenset()
            elif isinstance(node, App):
                table = self.fn_tables.get(node.symbol)
                if table is None:
                    raise LogicError(f"no function table for {node.symbol!r}")
                missing = [arg for arg in node.args if (arg, rank) not in memo]
                if missing:
                    stack.extend(reversed(missing))
                    continue
                column = [table[c] for c in self.cells(node.args, rank)]
                if node not in reads:
                    reads[node] = frozenset((node.symbol,)).union(
                        *(reads[arg] for arg in node.args)
                    )
            else:
                raise TypeError(f"not a term: {node!r}")
            memo[node, rank] = column
            stack.pop()
        return memo[term, rank]

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
    so structurally equal subformulas are evaluated once.  Each truth bit
    of the structure is a lane, so one pass over the program evaluates
    all of them.  ``env`` is the environment that ``value`` evaluates
    under.  ``program`` is a program compiled before; by default the
    tables start with an empty one."""

    def __init__(self, structure: Structure, env: Env = Env(), program: _Program | None = None):
        self.structure = structure
        self.program = _Program() if program is None else program
        self.shape = _Shape(structure.size, structure.truth_bits)
        self.planes: list[int] = []
        self.atom_planes: list[int] = []
        self.columns = _Columns(structure.size, structure.fn_tables, env)

    def table(self, formula: Formula, depth: int | None = None) -> tuple[int, int]:
        """Rank and plane of the formula's table, cut down to the rows the
        environment reaches below ``depth`` binders if given."""
        node = self.program.add(formula, depth)
        self.evaluate()
        return self.program.rank(node), self.planes[node]

    def evaluate(self) -> None:
        """Extend the planes to every node of the program, after the row
        cap.  An atom's plane is built from its value column, one pass per
        truth bit: bit k of each row's value, at lane stride, shifted up
        by k."""
        program, shape, lanes = self.program, self.shape, self.shape.lanes
        shape.fit(program)
        for atom, rank in program.atoms[len(self.atom_planes):]:
            table = self.structure.rel_tables[atom.symbol]
            values = list(map(table.__getitem__, self.columns.cells(atom.args, rank)))
            self.atom_planes.append(sum(
                _bitset(bytes([v >> bit & 1 for v in values]), lanes) << bit
                for bit in range(lanes)
            ))
        shape.evaluate(program, self.planes, self.atom_planes)

    def value(self, formula: Formula) -> int:
        """The formula's value under the environment, as a bitmask."""
        return _value(self.table(formula, 0)[1], 0, self.shape.lanes)


def _check_width(structure: Structure, algebra: FiniteBooleanAlg) -> None:
    if structure.truth_bits != algebra.atom_count:
        raise ValueError(
            f"mask width mismatch: relation tables use {structure.truth_bits} "
            f"bits but the algebra has {algebra.atom_count} atoms"
        )


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
    _check_width(structure, algebra)
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
    _, plane = _Tables(structure).table(formula)
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
    """Add the function symbols the term reads to ``out``, by an
    explicit-stack walk."""
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, App):
            out.add(node.symbol)
            stack.extend(node.args)


def countermodel_search(
    language: Language,
    formula: Formula,
    max_size: int,
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
    raises ``BoundExceeded`` before any is tried.

    The formula is compiled once, with its closure: ``forall`` applied
    once per free coordinate, so a block's verdict is the closure's
    rank-0 plane, one bit per lane.  Past the row cap's bit length no
    domain of two or more elements fits the formula's table, and over
    one element every table is one row, so the closure stops there.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    check_formula(formula, language)
    program = _Program()
    root = program.add(formula)
    for _ in range(min(program.rank(root), DEFAULT_ROWS_CAP.bit_length())):
        root = program.forall(root)
    for size in range(1, max_size + 1):
        _check_cells(language, size, cells_cap)
        found = _search_size(language, program, root, size)
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


def _search_size(
    language: Language, program: _Program, root: int, size: int
) -> Structure | None:
    # The widest table sets the lanes.  Its rows are counted first, so the
    # row cap refuses a size before the candidates cap does.
    widest = max(_rows(size, rank) for rank in program.ranks)
    used = {atom.symbol for atom, _ in program.atoms}
    # The function symbols each atom's arguments read.
    reads = []
    for atom, _ in program.atoms:
        symbols: set[str] = set()
        for arg in atom.args:
            _term_symbols(arg, symbols)
        reads.append(symbols)
        used |= symbols
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
    inner = 0
    while inner < cells and (2 << inner) * widest <= _LANE_BITS:
        inner += 1
    outer = cells - inner
    lanes = 1 << inner
    shape = _Shape(size, lanes)
    shape.fit(program)
    ones = (1 << lanes) - 1
    chunks = [_lane_pattern(inner - 1 - j, lanes) for j in range(inner)]
    identity = identity_table(size)
    zeros = {
        name: (0,) * size ** arity
        for name, arity in (*language.functions.items(), *language.predicates.items())
    }
    fn_space = itertools.product(*(
        itertools.product(range(size), repeat=size ** a) for _, a in fn_free
    ))
    # Term columns and atom entries depend only on the function tables,
    # and consecutive assignments of the odometer below mostly differ in
    # the last table.  An unchanged table is the same tuple object, so
    # the columns are kept across assignments and ``set_tables`` drops
    # those of terms that read a changed table.  Each atom keeps its
    # cell column and its entry: its plane is the sum over its cells of
    # the cell's rows times the cell's chunk, a fixed part from the
    # lanes and the pinned equality, plus the looped cells that hold 1.
    # The entry is made again only when the cell column changed, so an
    # atom whose arguments read no function symbol makes it once.  What
    # is kept is one column per distinct (term, rank) and one cell column
    # and entry per atom, whatever the number of assignments.
    columns = _Columns(size, {})
    kept: list = [None] * len(program.atoms)
    entries: list = [None] * len(program.atoms)
    for fn_combo in fn_space:
        fns = {name: zeros[name] for name in language.functions}
        fns.update(zip((name for name, _ in fn_free), fn_combo))
        changed = columns.set_tables(fns)
        for i, (atom, rank) in enumerate(program.atoms):
            if kept[i] is not None and changed.isdisjoint(reads[i]):
                continue
            cells = columns.cells(atom.args, rank)
            if cells == kept[i]:
                continue
            kept[i] = cells
            fixed, looped, parts = 0, [], []
            for cell, rows in zip(*_row_sets(cells, lanes)):
                if atom.symbol == eq:
                    fixed += rows * ones * identity[cell]
                elif (g := start[atom.symbol] + cell) < outer:
                    looped.append(g)
                    parts.append(rows * ones)
                else:
                    fixed += rows * chunks[g - outer]
            entries[i] = (fixed, looped, parts)
        for bits in itertools.product((0, 1), repeat=outer):
            atom_planes = [
                fixed + sum(itertools.compress(parts, map(bits.__getitem__, looped)))
                for fixed, looped, parts in entries
            ]
            planes: list[int] = []
            shape.evaluate(program, planes, atom_planes)
            failed = ones ^ planes[root]
            if not failed:
                continue
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


# The compiled Q1–Q5 program of the last sample checked, at most one
# entry: {(tuple(sample), rank_bound, function items, predicate items,
# equality symbol): (program, laws)}.  The key holds everything the
# compile checks, so a hit skips it.  Formulas are interned, so the key
# hashes and compares the sample by identity.  One entry bounds the
# memory the cache holds to one compiled sample.  A compiled program is
# never changed: each call evaluates it in tables of its own, so threads
# share the slot without a lock.  A race at most compiles twice, or
# leaves two entries until the next miss clears them.
_LAW_SLOT: dict = {}


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

    The sides of the laws depend only on the sample, the rank bound and
    the language, not on the structure, which supplies only the domain
    and the values of the atoms.  So they are compiled once per sample
    (see ``_compile_laws``) and kept in a one-entry cache: a call with
    the same sample, bound and language evaluates the compiled program
    in this structure, and a call with another key drops the entry
    before compiling its own.  The entry is filed only once its program
    has been evaluated, so a refused call leaves the cache empty.
    Every call refuses what a first call would, with the same error in
    the same order: a negative bound, then the sample cap; then, formula
    by formula, a rank over the bound, then an undeclared symbol; then a
    truth-bit width other than the algebra's; then a table over the row
    cap at this structure's size.

    The program is evaluated once, with a lane per truth bit, and then
    each instance's sides are compared in law order, all truth bits at
    once.
    """
    if rank_bound < 0:
        raise ValueError("rank_bound must be >= 0")
    if len(sample) > _MAX_LAW_SAMPLE:
        raise BoundExceeded(
            f"the law sample holds {len(sample)} formulas, over the cap of "
            f"{_MAX_LAW_SAMPLE}"
        )
    language = structure.language
    key = (
        tuple(sample), rank_bound, tuple(language.functions.items()),
        tuple(language.predicates.items()), language.equality,
    )
    compiled = _LAW_SLOT.get(key)
    if compiled is None:
        _LAW_SLOT.clear()
        compiled = _compile_laws(language, sample, rank_bound)
    _check_width(structure, algebra)
    program, laws = compiled
    tables = _Tables(structure, program=program)
    tables.evaluate()
    _LAW_SLOT[key] = compiled
    return QAReport(tuple(_run_law(law, instances, tables) for law, instances in laws))


def _compile_laws(
    language: Language, sample: list[Formula], rank_bound: int
) -> tuple[_Program, list[tuple[str, list[tuple]]]]:
    """The program of the Q1–Q5 sides for the sample, each formula
    checked against the bound and the language as qa_law_check
    describes, and each law's instances as (p, q, left node, right node,
    depth, width): both sides are lifted to rank ``depth`` and compared
    over the rows of that table whose coordinates past ``width`` are 0.

    Each sampled formula is compiled once, and p+, (forall p)+ and p*
    are the clone's action on its node, ``_Program.image``, by the shift,
    the lifted shift under the binder and the collapse, so no kernel
    formula is built for a side.  Every other side is a node made by the
    program's constructors.  Each substitution keeps one ``image`` memo
    across the sample, whose formulas share subformulas, and structurally
    equal sides, such as p inside Q1, Q2 and Q5, share one node.
    """
    program = _Program()
    nodes = []
    seen = set()
    for p in sample:
        node = program.add(p)
        if program.rank(node) > rank_bound:
            raise ValueError(
                f"sample formula has rank {program.rank(node)}, over the bound {rank_bound}"
            )
        check_formula(p, language, seen)
        nodes.append(node)
    forall, and_, image, made = program.forall, program.and_, program.image, program.nodes
    lift_to = program.lift_to

    def instance(p, q, left, right):
        # Most sides have equal ranks, so lift_to runs only on the lower.
        depth, other = made[left][3], made[right][3]
        if depth < other:
            depth, left = other, lift_to(left, other)
        elif other < depth:
            right = lift_to(right, depth)
        return p, q, left, right, depth, depth if depth <= rank_bound else rank_bound + 1

    shifted, lifted, collapsed = {}, {}, {}
    lifted_shift = lift_subst(SHIFT_UP)
    laws = []
    m = len(sample)
    foralls = [forall(a) for a in nodes]
    q1 = []
    for offset in sorted({0, 1 % m, m // 2}) if m else []:
        for i, (p, a, all_a) in enumerate(zip(sample, nodes, foralls)):
            j = (i + offset) % m
            b = nodes[j]
            q1.append(instance(p, sample[j], forall(and_(a, b)), and_(all_a, foralls[j])))
    laws.append(("Q1", q1))
    halves = [forall(image(a, lifted_shift, lifted)) for a in nodes]
    laws.append(("Q2", [
        instance(p, None, half, and_(half, a)) for p, a, half in zip(sample, nodes, halves)
    ]))
    laws.append(("Q3", [
        instance(p, None, forall(image(a, SHIFT_UP, shifted)), a)
        for p, a in zip(sample, nodes)
    ]))
    if language.equality is not None:
        e_atom = equality_atom(language)
        e = program.atom(e_atom)
        top = program.not_(and_(e, program.not_(e)))
        laws.append(("Q4", [instance(e_atom, None, image(e, STAR, collapsed), top)]))
        laws.append(("Q5", [
            instance(p, None, and_(e, a), and_(e, image(a, STAR, collapsed)))
            for p, a in zip(sample, nodes)
        ]))
    return program, laws


def _run_law(law: str, instances: list[tuple], tables: _Tables) -> LawReport:
    """The report of one law: its instances compared in order up to the
    first that fails.

    Both sides ignore env coordinates beyond their rank, so comparing
    over prefixes of the larger side rank decides equality over every
    longer environment as well.  Environments are compared in ascending
    prefix order, each with default 0.  Both sides are lifted to that
    rank in the program, so an instance holds when the XOR of their
    planes is 0.  Otherwise the sides differ at a row when some lane of
    it does: the lanes of each row are ORed into its lowest bit, and
    only the bits of the rows whose coordinates past ``width`` are 0 are
    kept.
    """
    n, lanes, planes = tables.structure.size, tables.shape.lanes, tables.planes
    checked = 0
    for p, q, left, right, depth, width in instances:
        differ = planes[left] ^ planes[right]
        if differ:
            stride = n ** (depth - width)
            step = stride * lanes
            if step > 1:
                rows = differ
                for k in range(1, lanes):
                    rows |= differ >> k
                differ = rows & _bitset(b"\x01" * n ** width, step)
        if not differ:
            checked += n ** width
            continue
        row = ((differ & -differ).bit_length() - 1) // step
        checked += row + 1
        # Row ``row`` of the restricted table is row row * stride of the
        # rank-depth one.
        at = row * stride
        failure = LawFailure(
            p, q, Env(_digits(row, n, width), 0),
            _value(planes[left], at, lanes), _value(planes[right], at, lanes),
        )
        return LawReport(law, False, checked, failure)
    return LawReport(law, True, checked)


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
