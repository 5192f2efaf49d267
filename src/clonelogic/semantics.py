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

import functools
import itertools
import math
from collections import Counter
from itertools import compress, count, repeat
from operator import and_, itemgetter, rshift, xor

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
    FunctionType,
    Record,
    Substitution,
    Term,
    Var,
    _set,
    apply,
    cons_subst,
    is_closed,
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


class Env(Record):
    """Eventually-constant assignment of domain elements to variables.

    Coordinate i reads prefix[i-1] when available and the default
    element afterwards.
    """

    __slots__ = __match_args__ = ("prefix", "default")

    def __init__(self, prefix: tuple[int, ...] = (), default: int = 0):
        prefix = tuple(prefix)
        for value in (*prefix, default):
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"environment entries must be >= 0, got {value!r}")
        _set(self, "prefix", prefix)
        _set(self, "default", default)

    def at(self, index: int) -> int:
        if index <= len(self.prefix):
            return self.prefix[index - 1]
        return self.default

    def cons(self, element: int) -> "Env":
        """Prepend one element, shifting every coordinate up by one."""
        return Env((element,) + self.prefix, self.default)


class FiniteBooleanAlg(Record):
    """Boolean algebra of bitmasks over a fixed number of atoms.

    Elements are the integers 0 .. 2**atom_count - 1; meet, join, and
    complement are bitwise.  Every meet exists, so the universal
    quantifier is defined everywhere.
    """

    __slots__ = __match_args__ = ("atom_count",)

    def __init__(self, atom_count: int):
        if atom_count < 1 or atom_count > MAX_TRUTH_BITS:
            raise ValueError(f"atom_count must be between 1 and {MAX_TRUTH_BITS}")
        _set(self, "atom_count", atom_count)

    @property
    def size(self) -> int:
        return 1 << self.atom_count

    @property
    def top(self) -> int:
        return (1 << self.atom_count) - 1

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


class Structure(Record):
    """Finite interpretation of a language over the domain {0..size-1}.

    Function tables map argument tuples (read row-major) to domain
    elements.  Relation tables hold truth values: plain 0/1 when
    truth_bits is 1, and truth_bits-wide bitmasks when the structure is
    meant to pair with a FiniteBooleanAlg of that many atoms.  When
    eq_identity is set (the default for equality languages) the
    equality table is pinned to the identity relation and may be
    omitted from the constructor.  Unlike the other records, a structure
    may be assigned to, so it is unhashable.
    """

    __slots__ = __match_args__ = (
        "language", "size", "fn_tables", "rel_tables", "eq_identity", "truth_bits"
    )
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        language: Language,
        size: int,
        fn_tables: dict[str, tuple[int, ...]] | None = None,
        rel_tables: dict[str, tuple[int, ...]] | None = None,
        eq_identity: bool = True,
        truth_bits: int = 1,
    ):
        if fn_tables is None:
            fn_tables = {}
        if rel_tables is None:
            rel_tables = {}
        if size < 1:
            raise ValueError("domain size must be >= 1")
        if truth_bits < 1:
            raise ValueError("truth_bits must be >= 1")
        full = (1 << truth_bits) - 1
        eq = language.equality if eq_identity else None
        if eq is not None:
            if size * size > DEFAULT_ROWS_CAP:
                raise BoundExceeded(
                    f"the equality table needs {size}^2 entries, over the cap "
                    f"of {DEFAULT_ROWS_CAP}"
                )
            if eq not in rel_tables:
                rel_tables = dict(rel_tables)
                rel_tables[eq] = identity_table(size, full)
        for kind, tables, symbols, top in (
            ("function", fn_tables, language.functions, size - 1),
            ("relation", rel_tables, language.predicates, full),
        ):
            for name, table in tables.items():
                check_table(kind, symbols, size, top, name, table, name == eq)
            for name in symbols:
                if name not in tables:
                    raise ValueError(f"missing {kind} table for {name!r}")
        self.language = language
        self.size = size
        self.fn_tables = fn_tables
        self.rel_tables = rel_tables
        self.eq_identity = eq_identity
        self.truth_bits = truth_bits

    def check_env(self, env: Env) -> None:
        for value in (*env.prefix, env.default):
            if value >= self.size:
                raise ValueError(
                    f"environment element {value} outside domain of size {self.size}"
                )


def check_table(
    kind: str, symbols: FunctionType, size: int, top: int, name: str, table, identity: bool
) -> None:
    """Refuse the ``kind`` table of ``name`` over a domain of ``size``: a
    symbol ``symbols`` does not declare, a count other than size^arity,
    an entry outside 0..top, or, when ``identity`` is set, a table other
    than the identity relation."""
    if name not in symbols:
        raise ValueError(f"table for undeclared {kind} symbol {name!r}")
    want = size ** symbols.arity(name)
    if len(table) != want:
        raise ValueError(f"{kind} table for {name!r} has {len(table)} entries, expected {want}")
    for value in table:
        if not 0 <= value <= top:
            raise ValueError(f"{kind} table for {name!r} holds {value}, outside 0..{top}")
    if identity and table != identity_table(size, top):
        raise ValueError(
            "structure is flagged equality-preserving but the "
            "equality table is not the identity relation"
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
    """Value of the term under the environment (see ``_eval_terms``)."""
    return _eval_terms(structure, [term], env)[0]


def _eval_terms(structure: Structure, terms: list[Term], env: Env) -> tuple[int, ...]:
    """Values of the terms under the environment: the rank-0 columns of
    their closed instances (see ``_element_constants``), read at any
    depth, with one set of constants and columns for all of them."""
    structure.check_env(env)
    tables, sigma = _element_constants(structure, env)
    columns = _Columns(structure.size, tables)
    return tuple([columns.term(apply(t, sigma), 0)[0] for t in terms])


def _element_constants(structure: Structure, env: Env) -> tuple[dict, Substitution]:
    """The function tables with a nullary table c(v) added per element v
    the environment holds, and the environment as the substitution
    [c(e1), ..., c(ek) ; const c(default)]: truth under it is truth of
    the closed instance, as in Robinson's diagram.  c(v) is named
    ``x{v+1}``, a name FunctionType refuses, so no table of a structure
    has it."""
    constants = {v: App(f"x{v + 1}", ()) for v in (*env.prefix, env.default)}
    tables = {**structure.fn_tables, **{c.symbol: (v,) for v, c in constants.items()}}
    sigma = Substitution(tuple([constants[v] for v in env.prefix]), Const(constants[env.default]))
    return tables, sigma


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
# Evaluating under one environment reads the one-row table of the
# formula's closed instance (see ``_element_constants``): below q
# binders its subformulas have rank at most q, so n^q rows at most.

_ATOM, _NOT, _AND, _FORALL, _LIFT = range(5)
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
# The lifted binary text one pass of a frozen lift run may build: a run
# is lifted in slices of planes that spread to at most this many
# characters, or of one plane if that plane alone spreads to more.
_LIFT_CHARS = 1 << 16


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


_FIRST, _SECOND = itemgetter(1), itemgetter(2)


def _getter(ids: list[int]):
    """The function from a list to the tuple of its items at the ids:
    one C-level pass for two ids or more.  The ids come as a list, whose
    tuple is made at its exact size: a tuple built from an iterator is
    resized, and the tuples that frees pile up in CPython's free lists,
    which held 2 MB more in a worker checking laws at the benchmark's
    rate.  A getter is built once per use and kept, as ``freeze`` keeps
    each run's and ``_Instances`` each law's: evaluation only calls them."""
    if len(ids) > 1:
        return itemgetter(*ids)
    return lambda seq: tuple([seq[i] for i in ids])


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
    hash-cons on the key (kind, a, b), the atom itself standing in for a,
    so structurally equal formulas get one node and no key hashes a whole
    subtree; ``add`` compiles a formula through them and remembers the
    node of each formula it compiled.
    A lift node is keyed (kind, node, rank): ``and_`` lifts
    its lower-rank operand through one, so each distinct lift is
    computed once per evaluation.  ``ranks`` holds the nodes' ranks in
    the order they first appeared.  A domain enters only when a
    ``_Shape`` evaluates the program, so one program serves every size
    and lane count.

    A program that is complete can be frozen (``freeze``): its nodes are
    renumbered in level order and cut into ``runs``, stretches of
    consecutive nodes of one kind, rank and operand rank whose operands
    all come before the stretch, so ``_Shape.evaluate`` does one pass per
    run instead of one step per node.  Beside each run, ``gathers`` holds
    the getters of its operands' planes, built once by the freeze.  A
    frozen program has no hash-cons tables and is never extended;
    ``runs`` and ``gathers`` are None until then.
    """

    def __init__(self):
        self.nodes: list[tuple[int, int, int, int]] = []
        self.atoms: list[tuple[Atom, int]] = []
        self.ranks: dict[int, None] = {}
        self.runs: list[tuple[int, int, int, int, int]] | None = None
        self.gathers: list[tuple] | None = None
        self._keys: dict = {}
        self._index: dict[Formula, int] = {}

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
                a = len(self.atoms) - 1
            node = self._keys[key] = len(self.nodes)
            self.nodes.append((kind, a, b, rank))
        return node

    def atom(self, phi: Atom) -> int:
        return self._node(_ATOM, phi, 0, phi.rank)

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

    def add(self, formula: Formula) -> int:
        """Node id of the formula, compiling its new subformulas.
        Formulas are interned and hash by identity, so a formula compiled
        before is one lookup."""
        index = self._index
        stack = [formula]
        while stack:
            phi = stack[-1]
            if phi in index:
                stack.pop()
                continue
            kind = type(phi)
            if kind is Atom:
                node = self.atom(phi)
            elif kind is FAnd:
                left, right = phi.left, phi.right
                if left not in index or right not in index:
                    stack.extend(p for p in (left, right) if p not in index)
                    continue
                node = self.and_(index[left], index[right])
            elif kind is FNot or kind is Forall:
                body = phi.body
                if body not in index:
                    stack.append(body)
                    continue
                node = self.not_(index[body]) if kind is FNot else self.forall(index[body])
            else:
                raise TypeError(f"not a formula: {phi!r}")
            stack.pop()
            index[phi] = node
        return index[formula]

    def freeze(self) -> list[int]:
        """Renumber the nodes in level order, cut them into runs, drop the
        hash-cons tables, and return the new id of each old node.

        An atom is at level 0 and any other node one level above its
        highest operand, so no node reads a node of its own level or a
        later one.  Nodes are ordered by (level, kind, rank, operand
        rank), each key's nodes in their old order, and the nodes of one
        key are a run: (kind, rank, operand rank, lo, hi) for the nodes
        lo..hi-1.  The atoms are the first run, in the order of
        ``atoms``, so atom node i reads atom i.  ``ranks`` keeps the order
        in which ranks first appeared, and with it the rank that
        BoundExceeded names.

        Each run's entry in ``gathers`` is (first, second): the getter of
        its nodes' first operands, and for an AND run that of their
        second, else None; the atom run's is (None, None).  They are
        built here, before the program is shared, so a frozen program
        never changes.
        """
        # Evaluation never reads the hash-cons tables, which are about
        # half of the program's memory and would name the old ids; they
        # go first, so the old and the new nodes are not held beside them.
        del self._keys, self._index
        nodes = self.nodes
        levels: list[int] = []
        buckets: dict[tuple[int, int, int, int], list[int]] = {}
        for node, (kind, a, b, rank) in enumerate(nodes):
            if kind == _AND:  # both operands at its rank, lifted if need be
                level = levels[a] if levels[a] > levels[b] else levels[b]
                key = (level + 1, kind, rank, rank)
            elif kind == _ATOM:
                level, key = -1, (0, _ATOM, 0, 0)
            else:
                level = levels[a]
                key = (level + 1, kind, rank, nodes[a][3])
            levels.append(level + 1)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [node]
            else:
                bucket.append(node)
        order: list[int] = []
        runs = []
        for key in sorted(buckets):
            bucket = buckets[key]
            runs.append((*key[1:], len(order), len(order) + len(bucket)))
            order += bucket
        new = [0] * len(nodes)
        for node, old in enumerate(order):
            new[old] = node
        # Each run's nodes rebuilt at C level, their operands renumbered.
        # The old nodes are let go run by run, so the new ones reuse
        # their memory and the program is never held twice.
        frozen: list[tuple[int, int, int, int]] = []
        gathers: list[tuple] = []
        renumber = new.__getitem__
        for kind, rank, _, lo, hi in runs:
            ids = order[lo:hi]
            old = _getter(ids)(nodes)
            for node in ids:
                nodes[node] = None
            if kind == _ATOM:
                frozen += old
                gathers.append((None, None))
                continue
            left, right = list(map(renumber, map(_FIRST, old))), map(_SECOND, old)
            if kind == _AND:
                right = list(map(renumber, right))
            gathers.append((_getter(left), _getter(right) if kind == _AND else None))
            frozen += zip(repeat(kind), left, right, repeat(rank))
        self.nodes = frozen
        self.runs = runs
        self.gathers = gathers
        return new


class _Shape:
    """Evaluation of compiled programs over a domain of ``size``
    elements, with ``lanes`` lanes per plane.

    ``fit`` makes the all-ones plane of each rank a program holds, under
    the row cap, walking the ranks in the order they first appeared: the
    rank that BoundExceeded names is that of the first node over the
    cap.  It runs before any table or column is built.  ``evaluate``
    steps node by node through a program that is still growing, and
    makes one pass per run of a frozen one.
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
        rows."""
        text = format(plane, f"0{self.size ** rank * self.lanes}b")
        return int(self._spread(text, self.size ** (to - rank)), 2)

    def _spread(self, text: str, copies: int) -> str:
        """The binary text of planes with each row's L-character chunk
        repeated ``copies`` times.  With one lane a row is one digit, so a
        single translate repeats them all."""
        if self.lanes > 1:
            return _repeat_rows(text, self.lanes, copies)
        spread = self._spreaders.get(copies)
        if spread is None:
            spread = str.maketrans({"0": "0" * copies, "1": "1" * copies})
            self._spreaders[copies] = spread
        return text.translate(spread)

    def _lift_run(self, body: tuple[int, ...], rank: int, to: int) -> list[int]:
        """``lift`` of each plane of a run, a slice of planes at a time:
        their binary texts are joined, spread in one pass and cut at the
        lifted width.  Every text is a whole number of rows wide, so the
        rows of the joined text are those of the planes.  A slice spreads
        to at most _LIFT_CHARS characters, or is one plane if that plane
        spreads to more, so at a large domain a pass holds the text of
        lifting one plane, as ``lift`` does."""
        width, copies = self.size ** rank * self.lanes, self.size ** (to - rank)
        lifted = width * copies
        step, spec = max(_LIFT_CHARS // lifted, 1), f"0{width}b"
        out: list[int] = []
        for i in range(0, len(body), step):
            text = self._spread("".join(map(format, body[i:i + step], repeat(spec))), copies)
            out += map(int, [text[j:j + lifted] for j in range(0, len(text), lifted)], repeat(2))
        return out

    def evaluate(self, program: _Program, planes: list[int], atom_planes: list[int]) -> None:
        """Extend ``planes``, one plane per node, to the program's nodes
        that it does not cover yet, given the plane of each atom.  The
        program has been fitted.

        A program that is still growing is evaluated one node at a time,
        and so is a frozen one whose planes were begun, since level order
        puts operands first.  Otherwise a frozen program is evaluated one
        pass per run: each run's operand planes are gathered by the
        getters the freeze built (``_Program.gathers``) and combined by
        ``map`` over the ``operator`` functions, so the loop runs at C
        level, and a lift run is lifted a slice of planes at a time
        (``_lift_run``).  The node-by-node loop lifts one plane per call,
        which is faster for a single plane.  The search's programs, of 8
        to 18 nodes, are never frozen: most of their runs would hold one
        or two nodes, and a pass per run made its rounds 3-8 % slower.
        """
        nodes, full, n, lanes = program.nodes, self.full, self.size, self.lanes
        if program.runs is not None and not planes:
            for (kind, rank, low, lo, hi), (first, second) in zip(program.runs, program.gathers):
                if kind == _ATOM:
                    planes += atom_planes[lo:hi]
                    continue
                body = first(planes)
                if kind == _AND:
                    planes += map(and_, body, second(planes))
                elif kind == _NOT:
                    planes += map(xor, body, repeat(full[rank]))
                elif kind == _LIFT:  # over one element, a lift is its operand
                    planes += body if n == 1 else self._lift_run(body, low, rank)
                elif low == 0:
                    planes += body
                else:
                    # One list per element, so the maps never nest more
                    # than two deep, whatever the domain's size.
                    block = n ** rank * lanes
                    out = list(map(and_, body, repeat(full[rank])))
                    for k in range(1, n):
                        out = list(map(and_, out, map(rshift, body, repeat(k * block))))
                    planes += out
            return
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
    function tables.  A term's variables are all coordinates of the
    table: no term is read at a rank below its own.

    A column is built once and kept, keyed by (term, rank), with the set
    of function symbols its term reads.  ``set_tables`` moves the
    columns to other function tables, dropping only those whose term
    reads a table that changed.
    """

    def __init__(self, size: int, fn_tables):
        self.size = size
        self.fn_tables = fn_tables
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
    all of them.  ``value`` evaluates under ``env``, by the closed
    instance (see ``_element_constants``), made with one ``fsubst`` memo.
    ``program`` is a program compiled before; by default the tables
    start with an empty one."""

    def __init__(self, structure: Structure, env: Env = Env(), program: _Program | None = None):
        self.structure = structure
        self.env = env
        self.program = _Program() if program is None else program
        self.shape = _Shape(structure.size, structure.truth_bits)
        self.planes: list[int] = []
        self.atom_planes: list[int] = []
        self.columns = _Columns(structure.size, structure.fn_tables)
        self._sigma, self._images = None, {}

    def table(self, formula: Formula) -> tuple[int, int]:
        """Rank and plane of the formula's whole table."""
        node = self.program.add(formula)
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
        if self._sigma is None:
            tables, self._sigma = _element_constants(self.structure, self.env)
            self.columns.set_tables(tables)
        closed = fsubst(formula, self._sigma, self._images)
        return _value(self.table(closed)[1], 0, self.shape.lanes)


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
    if isinstance(sub.tail, Const):
        constant, *values = _eval_terms(structure, [sub.tail.term, *sub.prefix], env)
        return Env(tuple(values), constant)
    upto = max(len(sub.prefix), len(env.prefix) - sub.tail.offset, 0)
    terms = [sigma_at(sub, i) for i in range(1, upto + 1)]
    return Env(_eval_terms(structure, terms, env) if terms else (), env.default)


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
    cells_cap: int = DEFAULT_CELLS_CAP,
):
    """All structures of one domain size, in a reproducible order.

    Function tables vary before relation tables, each in declaration
    order, and each table runs through its entries row-major
    lexicographically.  When the language declares equality, the
    equality table is pinned to the identity relation rather than
    enumerated.
    """
    eq = language.equality
    fn_symbols = list(language.functions.items())
    rel_symbols = [
        (name, arity) for name, arity in language.predicates.items() if name != eq
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
        yield Structure(language, size, fn_tables, rel_tables, truth_bits=truth_bits)


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

    Function assignments are pruned by symmetry.  A bijection of domains
    commutes with the clone's action on environments, so isomorphic
    structures satisfy the same formulas.  The function tables F are the
    order's major key and the relation cells its minor key.  If (F, R)
    is a countermodel and a domain transposition tau maps F to an
    earlier tau(F), then (tau(F), tau(R)) with its unused tables zeroed
    again is a countermodel that comes earlier; the pinned identity
    table of equality is fixed by every tau.  So each F that some
    transposition maps earlier is skipped: only an F that is not least
    in its orbit is ever skipped, and the first countermodel is the same.
    The n(n-1)/2 transpositions cost no factorial, and pruning by any
    subset of the permutations is exact.  ``CANDIDATES_CAP`` counts the
    candidates before pruning.

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


def _least_in_orbit(flat: list[int], swaps) -> bool:
    """Whether no transposition maps the function tables ``flat`` to an
    earlier assignment, comparing each image cell by cell up to the first
    cell where it differs."""
    for a, b, source in swaps:
        for value, j in zip(flat, source):
            image = flat[j]
            image = b if image == a else a if image == b else image
            if image != value:
                if image < value:
                    return False
                break
    return True


def _first_occurrences_ascend(flat: list[int]) -> bool:
    """Whether the values first occur in the order 0, 1, 2, ...  For
    constants alone, whose cells no transposition moves, that is
    ``_least_in_orbit`` over all transpositions: (a b) with a < b maps
    the values to earlier ones exactly when b occurs before a does."""
    seen = list(dict.fromkeys(flat))
    return seen == list(range(len(seen)))


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
    # An assignment F that some domain transposition maps earlier is
    # skipped (see countermodel_search); ``least`` tells the others, and
    # is None when no transposition moves anything.  With constants alone
    # it reads F's first occurrences, with no transposition built.
    # Otherwise each transposition (a b) comes with the cell of the
    # concatenated tables of fn_free that each cell of its image of F
    # reads: the image holds F[j], a and b swapped, at cell i for the
    # i-th j.
    least = None
    if size > 1 and fn_free and not any(arity for _, arity in fn_free):
        least = _first_occurrences_ascend
    elif size > 1 and fn_free:
        swaps = []
        for a, b in itertools.combinations(range(size), 2):
            source: list[int] = []
            for _, arity in fn_free:
                base = len(source)
                source += [
                    base + table_index([b if v == a else a if v == b else v for v in cell], size)
                    for cell in itertools.product(range(size), repeat=arity)
                ]
            swaps.append((a, b, source))
        least = functools.partial(_least_in_orbit, swaps=swaps)
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
        if least is not None and not least(list(itertools.chain.from_iterable(fn_combo))):
            continue
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


class LawFailure(Record):
    """Witness for one failed law instance."""

    __slots__ = __match_args__ = ("p", "q", "env", "left", "right")


class LawReport(Record):
    __slots__ = __match_args__ = ("law", "ok", "checked", "failure")
    _defaults = {"failure": None}


class QAReport(Record):
    __slots__ = __match_args__ = ("laws",)

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.laws)


# Formulas in one qa_law_check sample.  Its cost grows with the sample,
# and each connective more in enumerate_formulas' budget makes the
# sample over ten times larger: 268, 3,244 and 44,524 formulas over
# four atoms at budgets 2, 3 and 4.
_MAX_LAW_SAMPLE = 1 << 13


# The compiled Q1–Q5 programs of the last _LAW_ENTRIES samples checked,
# least recent first: {_law_key(language, sample, rank_bound): (program,
# laws)}.  The key holds everything the compile checks, so a hit skips
# it.  Formulas are interned, so the key hashes and compares the sample
# by identity.  Two entries hold both samples a caller alternates
# between, such as a language's relation sample and its equality
# sample.  Each program is stripped of its hash-cons tables once
# compiled, which about halves it, and a miss drops all entries but the
# newest before it compiles, so at most one other program is held
# during a compile.  A compiled program is never changed: each call
# evaluates it in tables of its own, so threads share the cache without
# a lock.  Eviction reads a snapshot of the keys and pops with a
# default, so a race at most compiles twice, loses an entry, or leaves
# an extra entry until the next miss.
_LAW_ENTRIES = 2
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
    (see ``_compile_laws``) and kept in a cache of the last two samples
    checked, each stripped to what evaluation reads: a call with a
    cached sample, bound and language evaluates that compiled program in
    this structure, and a call with another key drops all entries but
    the newest before compiling its own, so the least recent goes first.
    An entry is filed, as the newest, only once its program has been
    evaluated, so a refused call files nothing.
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
    key = _law_key(structure.language, sample, rank_bound)
    compiled = _LAW_SLOT.get(key)
    if compiled is None:
        # Only the newest _LAW_ENTRIES - 1 entries stay while it compiles.
        stale = list(_LAW_SLOT)
        for old in stale[:max(len(stale) - _LAW_ENTRIES + 1, 0)]:
            _LAW_SLOT.pop(old, None)
        compiled = _compile_laws(structure.language, sample, rank_bound)
    _check_width(structure, algebra)
    program, laws = compiled
    tables = _Tables(structure, program=program)
    tables.evaluate()
    _LAW_SLOT.pop(key, None)  # filed again as the newest
    _LAW_SLOT[key] = compiled
    return QAReport(tuple(_run_law(law, instances, tables) for law, instances in laws))


def _law_key(language: Language, sample: list[Formula], rank_bound: int) -> tuple:
    """The ``_LAW_SLOT`` key of a sample: everything its compile checks."""
    return (
        tuple(sample), rank_bound, tuple(language.functions.items()),
        tuple(language.predicates.items()), language.equality,
    )


def _compile_laws(
    language: Language, sample: list[Formula], rank_bound: int
) -> tuple[_Program, list[tuple[str, _Instances]]]:
    """The program of the Q1–Q5 sides for the sample, each formula
    checked against the bound and the language as qa_law_check
    describes, and each law's instances as (p, q, left node, right node,
    depth, width): both sides are lifted to rank ``depth`` and compared
    over the rows of that table whose coordinates past ``width`` are 0.

    Each sampled formula is compiled once.  p+, (forall p)+ and p* are
    the clone's action on the formula, ``fsubst`` by the shift and the
    collapse, each compiled with ``add``; every other side is a node made
    by the program's constructors.  Each substitution keeps one
    ``images`` memo across the sample, whose formulas share subformulas,
    and structurally equal sides, such as p inside Q1, Q2 and Q5, share
    one node.  The program is returned frozen (see ``_Program.freeze``),
    with the instances' node ids renumbered to match, so it can be
    evaluated a run at a time but not extended.
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
    forall, and_, add, made = program.forall, program.and_, program.add, program.nodes
    lift_to = program.lift_to

    def instance(p, q, left, right):
        # In every law the right side's rank is at least the left's:
        # Q2's right side is the left and p, the others' ranks are equal.
        depth, other = made[left][3], made[right][3]
        if depth < other:
            depth, left = other, lift_to(left, other)
        return p, q, left, right, depth, depth if depth <= rank_bound else rank_bound + 1

    shifted, collapsed = {}, {}
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
    halves = [add(fsubst(Forall(p), SHIFT_UP, shifted)) for p in sample]
    laws.append(("Q2", [
        instance(p, None, half, and_(half, a)) for p, a, half in zip(sample, nodes, halves)
    ]))
    laws.append(("Q3", [
        instance(p, None, forall(add(fsubst(p, SHIFT_UP, shifted))), a)
        for p, a in zip(sample, nodes)
    ]))
    if language.equality is not None:
        e_atom = equality_atom(language)
        e = program.atom(e_atom)
        top = program.not_(and_(e, program.not_(e)))
        e_star = add(fsubst(e_atom, STAR, collapsed))
        laws.append(("Q4", [instance(e_atom, None, e_star, top)]))
        laws.append(("Q5", [
            instance(p, None, and_(e, a), and_(e, add(fsubst(p, STAR, collapsed))))
            for p, a in zip(sample, nodes)
        ]))
    # From here the program is only evaluated, in runs.  Each instance
    # is renumbered in place, so the old and new are not held together.
    new = program.freeze()
    for _, instances in laws:
        for i, (p, q, left, right, depth, width) in enumerate(instances):
            instances[i] = p, q, new[left], new[right], depth, width
    return program, [(law, _Instances(instances)) for law, instances in laws]


class _Instances(list):
    """One law's instances, each (p, q, left node, right node, depth,
    width), with what ``_run_law`` reads of all of them at once: the
    getters of their left and right sides' planes, and how many
    instances have each width."""

    def __init__(self, instances):
        super().__init__(instances)
        self.lefts = _getter([left for _, _, left, _, _, _ in self])
        self.rights = _getter([right for _, _, _, right, _, _ in self])
        self.widths = Counter([width for *_, width in self])


def _run_law(law: str, instances: _Instances, tables: _Tables) -> LawReport:
    """The report of one law: its instances compared in order up to the
    first that fails.

    Both sides ignore env coordinates beyond their rank, so comparing
    over prefixes of the larger side rank decides equality over every
    longer environment as well.  Environments are compared in ascending
    prefix order, each with default 0.  Both sides are lifted to that
    rank in the program, so an instance holds when the XOR of their
    planes is 0.  All the law's sides are compared in one pass, and only
    from the first instance whose XOR is not 0 are the instances looked
    at one by one.  There the sides differ at a row when some lane of it
    does: the lanes of each row are ORed into its lowest bit, and only
    the bits of the rows whose coordinates past ``width`` are 0 are kept.
    """
    n, lanes, planes = tables.structure.size, tables.shape.lanes, tables.planes
    lefts, rights = instances.lefts(planes), instances.rights(planes)
    if lefts == rights:
        return LawReport(law, True, sum([k * n ** w for w, k in instances.widths.items()]))
    first = next(compress(count(), map(xor, lefts, rights)))
    checked = sum([n ** width for *_, width in instances[:first]])
    for p, q, left, right, depth, width in instances[first:]:
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


class WitnessEntry(Record):
    """Outcome of the witness check for one sampled formula.

    A formula whose universal closure holds locally lands in the
    "universal" category and ok records the sound direction: every
    candidate instance holds too.  Otherwise the negated universal
    holds and ok records whether some candidate witnesses the negated
    body; when none does the search was merely too small, which
    inconclusive flags.
    """

    __slots__ = __match_args__ = ("formula", "category", "ok", "witness", "inconclusive")
    _defaults = {"witness": None, "inconclusive": False}


class PerfectReport(Record):
    __slots__ = __match_args__ = ("entries",)

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
