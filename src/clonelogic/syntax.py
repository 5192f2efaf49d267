"""Surface syntax: an offset parser, printers, and file loaders.

The grammar keeps binary connectives fully parenthesized, so no
precedence table is needed.  Printers emit only the core connectives
(negation, conjunction, the positional binder); the parsers also accept
the sugared forms |, ->, <-> and named binders, which desugar on the
spot.  parse(print(x)) is the identity on every term, formula,
substitution, and environment.
"""

from __future__ import annotations

import re
import string
from functools import partial

from .errors import ParseError
from .formulas import (
    Atom,
    FAnd,
    FNot,
    Forall,
    Formula,
    Language,
    PredicateType,
    f_iff,
    f_imp,
    f_or,
    exists,
)
from .propositional import FinitePropAlgebra, check_row
from .proofs import (
    AXIOM_IDS,
    AxiomInstanceSpec,
    ByAxiom,
    ByGen,
    ByHyp,
    ByMP,
    BySubst,
    Proof,
    ProofStep,
    Theory,
)
from .semantics import MAX_TRUTH_BITS, Env, Structure, check_table
from .terms import (
    App,
    Const,
    FunctionType,
    Shift,
    Substitution,
    Term,
    Var,
    _VARIABLE_SHAPE,
    check_symbol,
)

# The token alternatives: words, punctuation (longest first), negative
# integers.  Any other visible character is an error: one outside the
# alphabet, or a lone '-', '<' or '>'.
_WORD = r"[A-Za-z0-9_']+"
_PUNCT = r"<->|->|[()\[\],;.~&|/:=]"
_INT = r"-[0-9]+"
# A match runs over whitespace and good tokens and stops at the first bad
# character, the one a left-to-right token scan would stop at.
_GOOD_RE = re.compile(rf"(?:[\sA-Za-z0-9_'()\[\],;.~&|/:=]+|{_PUNCT}|{_INT})*")
# The token at an offset, after any whitespace.  Once a text has passed
# the good-text check, the empty alternative matches only at its end.
_TOKEN_RE = re.compile(rf"\s*({_WORD}|{_PUNCT}|{_INT}|)")
_WORD_START = frozenset(string.ascii_letters + string.digits + "_'")

# Binary connective text -> formula builder.
_CONNECTIVES = {"&": FAnd, "|": f_or, "->": f_imp, "<->": f_iff}

# Group frames nested deeper than this inside other groups skip the memo:
# an entry holds its group's source text, so one stack of nested groups
# copies the line at most this many times.
_MEMO_NESTING = 32
# The memo files each group or atom under at most this many characters of
# its text, cut after the first ')': a fixed-length window would take in
# what follows a short group, and a restated short group would then miss.
_MEMO_PREFIX = 32


def _recall(memo: dict, source: str, start: int):
    """The memo key of the source at ``start``, and the (text, node) entry
    filed under it whose text the source goes on with, or None."""
    key = source[start:source.find(")", start, start + _MEMO_PREFIX) + 1 or start + _MEMO_PREFIX]
    for entry in memo.get(key, ()):
        if source.startswith(entry[0], start):
            return key, entry
    return key, None


def _position(names: dict, depth: int, shift: int, index: int) -> Var:
    """``x<index>`` read in a named scope (see ``_Parser.formula``)."""
    depths = names.get(index - shift)
    return Var(depth - depths[-1] + 1 if depths else index - shift + depth)


class _Parser:
    """Cursor over the tokens of one source text, read by offset.

    ``m`` is the match of the current token: ``m[1]`` is its text, empty
    only at the end of the source, and ``m.end()`` is where the next token
    is read, after any whitespace.  Tokens are read one at a time, where
    the parser stands; a token's kind follows from its text, and no
    punctuation text is also a word or an integer.  The whole source is
    checked for bad characters first, so the first one on a line is
    reported before any other error on it.  The cursor never moves past
    the end: every step forward follows a test that the current token is
    not the end.

    Formulas, propositions and terms are read by explicit-stack loops, so
    nesting costs no recursion.  ``memo`` maps a key to the (source text,
    node) pairs of the parenthesized formula groups ``( … )`` and of the
    atoms with an argument list ``r(…)`` read successfully so far, and
    each propositional letter to its ``Atom``.  An entry's key is the
    start of its text: at most ``_MEMO_PREFIX`` characters, cut after the
    first ')'.  At a '(' or a predicate name the parser looks up the key
    of the source from there and takes the pair whose text the source
    goes on with (``str.startswith``).  Such a text is balanced, so at
    most one pair matches and a hit ends exactly where the restated group
    or atom does.  Parsers of the lines of one file share the memo, so a
    group or atom restated on many lines is read once.  Only successful
    reads enter it, so errors keep their messages and positions.  One
    memo serves one grammar: formulas over one language, or propositions.
    Argument lists never consult it, so atoms never nest in atoms, and
    each atom's text is copied once.
    """

    __slots__ = ("source", "start_line", "m", "memo")

    def __init__(self, source: str, start_line: int = 1, memo: dict | None = None):
        self.source = source
        self.start_line = start_line
        bad = _GOOD_RE.match(source).end()
        if bad < len(source):
            raise self.error(f"unexpected character {source[bad]!r}", bad)
        self.m = _TOKEN_RE.match(source)
        self.memo = {} if memo is None else memo

    @property
    def pos(self) -> int:
        """Source offset of the current token."""
        return self.m.start(1)

    def text(self) -> str:
        """Text of the current token."""
        return self.m[1]

    def advance(self) -> None:
        self.m = _TOKEN_RE.match(self.source, self.m.end())

    def error(self, message: str, offset: int) -> ParseError:
        """A ParseError at a source offset: its line is the start line plus
        the newlines before it, and its column counts from the last one."""
        line = self.start_line + self.source.count("\n", 0, offset)
        return ParseError(message, line, offset - self.source.rfind("\n", 0, offset))

    def fail(self, message: str) -> ParseError:
        return self.error(message, self.pos)

    def check(self, offset: int, fn, *args):
        """``fn(*args)``; a ValueError it raises is a ParseError at ``offset``."""
        try:
            return fn(*args)
        except ValueError as err:
            raise self.error(str(err), offset) from None

    def at_punct(self, text: str) -> bool:
        return self.m[1] == text

    def at_end(self) -> bool:
        return self.m[1] == ""

    def at_word(self) -> bool:
        return self.m[1][:1] in _WORD_START

    def expect_punct(self, text: str) -> None:
        if self.m[1] != text:
            raise self.fail(f"expected {text!r}")
        self.advance()

    def expect_word(self, text: str | None = None) -> str:
        found = self.m[1]
        if found[:1] not in _WORD_START or (text is not None and found != text):
            what = repr(text) if text is not None else "a name"
            raise self.fail(f"expected {what}")
        self.advance()
        return found

    def expect_int(self) -> int:
        text = self.m[1]
        if text.isdigit() or (text[:1] == "-" and text[1:].isdigit()):
            self.advance()
            return int(text)
        raise self.fail("expected an integer")

    def expect_end(self) -> None:
        if self.m[1] != "":
            raise self.fail("expected end of input")

    def ints(self) -> tuple[int, ...]:
        """The integers from here to the end of the source."""
        values = []
        while not self.at_end():
            values.append(self.expect_int())
        return tuple(values)

    # ----- terms -----

    def application(self, functions: FunctionType, name: str, at, args) -> App:
        """The application of ``name``, read at the match ``at``, to ``args``."""
        want = functions.arity(name)
        if len(args) != want:
            raise self.error(
                f"{name!r} expects {want} argument(s), got {len(args)}", at.start(1)
            )
        return App(name, tuple(args))

    def term(
        self, functions: FunctionType, outer: list[Term] | None = None, var=Var
    ) -> Term | list[Term]:
        """A term; or, given a list ``outer``, the rest of an argument list
        whose '(' is read, appended to ``outer``, which is returned.  Each
        stack frame is an argument list being read: its function symbol
        (None for ``outer``), the symbol's match and the arguments read so
        far.  ``var`` maps a variable's index to its term."""
        source, match = self.source, _TOKEN_RE.match
        m = self.m
        stack: list[tuple[str | None, object, list[Term]]] = []
        if outer is not None:
            stack.append((None, None, outer))
        while True:
            name = m[1]
            if name[:1] not in _WORD_START:
                raise self.error("expected a term", m.start(1))
            at = m
            m = match(source, m.end())
            if _VARIABLE_SHAPE.match(name):
                value = var(int(name[1:]))
            elif name not in functions:
                raise self.error(f"unknown function symbol {name!r}", at.start(1))
            else:
                if m[1] == "(":
                    m = match(source, m.end())
                    if m[1] != ")":
                        stack.append((name, at, []))
                        continue
                    m = match(source, m.end())  # an empty argument list
                value = self.application(functions, name, at, ())
            # Hand the finished term to the argument lists waiting for it.
            while stack:
                name, at, args = stack[-1]
                args.append(value)
                text = m[1]
                if text == ",":
                    m = match(source, m.end())
                    break
                if text != ")":
                    raise self.error("expected ')'", m.start(1))
                m = match(source, m.end())
                stack.pop()
                if name is None:
                    self.m = m
                    return args
                value = self.application(functions, name, at, args)
            else:
                self.m = m
                return value

    # ----- formulas and propositions -----

    def formula(self, language: Language | None) -> Formula:
        """A formula over ``language``, or when it is None a proposition: a
        formula over letters, without binders.

        Prefix operators (``~`` and the binders) push a one-argument
        builder; an open group pushes a list frame ``[prefix, start]``
        that becomes ``[prefix, start, builder, left]`` once its
        connective is read, where ``start`` is the offset of its '(' and
        ``prefix`` its memo key, or None when the group skips the memo.
        Binary connectives are always parenthesized, so no precedence is
        needed.

        Named binders become positions as they are read, to the node
        ``formulas.forall_xi`` builds.  From the outermost open named
        binder on, each binder pushes ``(builder, key, step)``; ``depth``
        counts them and ``shift`` the positional ones (``step`` 1).  ``xj``
        read under ``shift`` has the key ``j - shift``, a binder ``xN``
        the key ``N - shift``, a positional one ``1 - shift`` (itself
        counted).  ``names`` maps a key to its open binders' depths: the
        innermost binds ``xj`` as ``x(depth - d + 1)``, else it is free,
        ``x(key + depth)``.  Groups and atoms read in a scope skip the
        memo; a binder closes before its group, so other groups enter it.
        """
        source, memo, match = self.source, self.memo, _TOKEN_RE.match
        m = self.m
        stack: list = []
        groups = depth = shift = 0
        names: dict[int, list[int]] = {}
        while True:
            # Read prefixes down to an atom, a letter or a memoized group.
            while True:
                text = m[1]
                if text == "~":
                    m = match(source, m.end())
                    stack.append(FNot)
                    continue
                if text == "(":
                    start = m.end() - 1
                    prefix = None
                    if groups < _MEMO_NESTING and not depth:
                        prefix, hit = _recall(memo, source, start)
                        if hit is not None:
                            m = match(source, start + len(hit[0]))
                            value = hit[1]
                            break
                    m = match(source, m.end())
                    stack.append([prefix, start])
                    groups += 1
                    continue
                if text[:1] not in _WORD_START:
                    what = "a formula" if language is not None else "a propositional term"
                    raise self.error(f"expected {what}", m.start(1))
                at = m
                m = match(source, m.end())
                if language is None:
                    value = memo.get(text)
                    if value is None:
                        value = memo[text] = Atom(text, ())
                    break
                if text == "forall" or text == "exists":
                    builder = Forall if text == "forall" else exists
                    if _VARIABLE_SHAPE.match(m[1]) and (after := match(source, m.end()))[1] == ".":
                        key, step = int(m[1][1:]) - shift, 0
                        m = match(source, after.end())
                    elif not depth:
                        stack.append(builder)
                        continue
                    else:
                        shift += 1
                        key, step = 1 - shift, 1
                    depth += 1
                    names.setdefault(key, []).append(depth)
                    stack.append((builder, key, step))
                    continue
                start = at.start(1)
                prefix, hit = (None, None) if depth else _recall(memo, source, start)
                if hit is not None:
                    m = match(source, start + len(hit[0]))
                    value = hit[1]
                    break
                if text not in language.predicates:
                    raise self.error(f"unknown predicate symbol {text!r}", start)
                args, atom = (), None
                if m[1] == "(":
                    m = match(source, m.end())
                    if m[1] == ")":
                        m = match(source, m.end())
                    else:
                        self.m = m
                        var = partial(_position, names, depth, shift) if depth else Var
                        args = self.term(language.functions, [], var)
                        m = self.m
                    # The text ends at its ')', where the next token's match starts.
                    atom = source[start:m.start()]
                want = language.predicates.arity(text)
                if len(args) != want:
                    raise self.error(f"{text!r} expects {want} argument(s), got {len(args)}", start)
                value = Atom(text, tuple(args))
                if atom is not None and prefix is not None:
                    memo.setdefault(prefix, []).append((atom, value))
                break
            # Hand the finished formula to the frames waiting for it.
            while stack:
                frame = stack[-1]
                if type(frame) is not list:
                    stack.pop()
                    if type(frame) is tuple:
                        frame, key, step = frame
                        names[key].pop()
                        depth, shift = depth - 1, shift - step
                    value = frame(value)
                    continue
                text = m[1]
                if len(frame) == 2:
                    builder = _CONNECTIVES.get(text)
                    if builder is not None:
                        m = match(source, m.end())
                        frame += (builder, value)
                        break
                if text != ")":
                    raise self.error("expected ')'", m.start(1))
                end = m.end()
                m = match(source, end)
                stack.pop()
                if len(frame) == 4:
                    value = frame[2](frame[3], value)
                if frame[0] is not None:
                    memo.setdefault(frame[0], []).append((source[frame[1]:end], value))
                groups -= 1
            else:
                self.m = m
                return value

    # ----- substitutions and environments -----

    def subst(self, functions: FunctionType) -> Substitution:
        opener = self.pos
        self.expect_punct("[")
        prefix: list[Term] = []
        if not self.at_punct(";") and not self.at_punct("]"):
            prefix.append(self.term(functions))
            while self.at_punct(","):
                self.advance()
                prefix.append(self.term(functions))
        tail = None
        if self.at_punct(";"):
            self.advance()
            at = self.pos
            keyword = self.expect_word()
            if keyword == "shift":
                tail = Shift(self.expect_int())
            elif keyword == "const":
                tail = Const(self.term(functions))
            else:
                raise self.error("substitution tail must be 'shift' or 'const'", at)
        self.expect_punct("]")
        if tail is None:
            if not prefix:
                raise self.error("empty substitution needs an explicit tail", opener)
            tail = Const(prefix.pop())
        return self.check(opener, Substitution, tuple(prefix), tail)

    def env(self) -> Env:
        opener = self.pos
        self.expect_punct("[")
        values: list[int] = []
        if not self.at_punct(";"):
            values.append(self.expect_int())
            while self.at_punct(","):
                self.advance()
                values.append(self.expect_int())
        self.expect_punct(";")
        default = self.expect_int()
        self.expect_punct("]")
        return self.check(opener, Env, tuple(values), default)

    # ----- proof steps -----

    def step(self, count: int, language: Language | None) -> Formula:
        """The formula of the head ``N. formula by`` of the step after
        ``count`` steps; ``language`` is None for propositions."""
        at = self.pos
        if self.expect_int() != count + 1:
            raise self.error(f"expected step number {count + 1}", at)
        self.expect_punct(".")
        formula = self.formula(language)
        self.expect_word("by")
        return formula

    def hyp(self) -> ByHyp:
        """The reference ``k`` of ``hyp k``, its keyword read."""
        at = self.pos
        value = self.expect_int()
        if value < 1:
            raise self.error("hypothesis references are 1-based", at)
        return ByHyp(value - 1)

    # ----- axiom instance recipes -----

    def axiom_spec(self, language: Language) -> AxiomInstanceSpec:
        at = self.pos
        axiom = self.expect_word()
        if axiom not in AXIOM_IDS:
            raise self.error(f"unknown axiom {axiom!r}", at)
        fields: dict[str, object] = {}
        if self.at_punct("("):
            self.advance()
            while not self.at_punct(")"):
                at = self.pos
                field = self.expect_word()
                self.expect_punct("=")
                if field in ("p", "q", "r"):
                    fields[field] = self.formula(language)
                elif field == "subst":
                    fields[field] = self.subst(language.functions)
                elif field == "i":
                    fields["var_index"] = self.expect_int()
                elif field == "n":
                    fields["gen_count"] = self.expect_int()
                else:
                    raise self.error(f"unknown axiom parameter {field!r}", at)
                if self.at_punct(","):
                    self.advance()
                elif not self.at_punct(")"):
                    raise self.fail("expected ',' or ')'")
            self.expect_punct(")")
        return AxiomInstanceSpec(axiom, **fields)

    def prop_axiom(self) -> AxiomInstanceSpec:
        """An A1/A2/A3 recipe; the caller has checked the axiom's name."""
        axiom = self.expect_word()
        fields: dict[str, Formula] = {}
        self.expect_punct("(")
        while not self.at_punct(")"):
            at = self.pos
            field = self.expect_word()
            if field not in ("p", "q", "r"):
                raise self.error(f"unknown axiom parameter {field!r}", at)
            self.expect_punct("=")
            fields[field] = self.formula(None)
            if self.at_punct(","):
                self.advance()
            elif not self.at_punct(")"):
                raise self.fail("expected ',' or ')'")
        self.expect_punct(")")
        return AxiomInstanceSpec(axiom, **fields)


def _parse_all(text: str, grab) -> object:
    parser = _Parser(text)
    value = grab(parser)
    parser.expect_end()
    return value


def parse_term(text: str, language: Language) -> Term:
    return _parse_all(text, lambda p: p.term(language.functions))


def parse_formula(text: str, language: Language) -> Formula:
    return _parse_all(text, lambda p: p.formula(language))


def parse_subst(text: str, language: Language) -> Substitution:
    return _parse_all(text, lambda p: p.subst(language.functions))


def parse_env(text: str) -> Env:
    return _parse_all(text, lambda p: p.env())


def parse_prop(text: str) -> Formula:
    return _parse_all(text, lambda p: p.formula(None))


def parse_axiom_spec(text: str, language: Language) -> AxiomInstanceSpec:
    return _parse_all(text, lambda p: p.axiom_spec(language))


# ---------------------------------------------------------------------------
# printers
# ---------------------------------------------------------------------------

def _format(node) -> str:
    """The text of a term or formula, by one explicit-stack walk: each
    node's text is emitted before its children's, and the stack holds the
    nodes and the literal text still to come, the next on top."""
    out: list[str] = []
    stack = [node]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is str:
            out.append(node)
        elif kind is Var:
            out.append(f"x{node.index}")
        elif kind is FNot or kind is Forall:
            out.append("~" if kind is FNot else "forall ")
            stack.append(node.body)
        elif kind is FAnd:
            out.append("(")
            stack += (")", node.right, " & ", node.left)
        else:  # App or Atom
            out.append(node.symbol)
            if node.args:
                stack.append(")")
                for arg in reversed(node.args):
                    stack += (arg, ", ")
                stack[-1] = "("  # in place of a separator before the first
    return "".join(out)


def format_term(term: Term) -> str:
    if type(term) is not Var and type(term) is not App:
        raise TypeError(f"not a term: {term!r}")
    return _format(term)


def format_formula(formula: Formula) -> str:
    if type(formula) not in (Atom, FNot, FAnd, Forall):
        raise TypeError(f"not a formula: {formula!r}")
    return _format(formula)


def format_subst(sub: Substitution) -> str:
    inside = ", ".join(format_term(t) for t in sub.prefix)
    if isinstance(sub.tail, Shift):
        tail = f"shift {sub.tail.offset}"
    else:
        tail = f"const {format_term(sub.tail.term)}"
    if inside:
        return f"[{inside} ; {tail}]"
    return f"[; {tail}]"


def format_env(env: Env) -> str:
    inside = ", ".join(str(v) for v in env.prefix)
    if inside:
        return f"[{inside} ; {env.default}]"
    return f"[; {env.default}]"


# Propositions are formulas; the old name stays because
# perfbench/tracer.py wraps it by name.
format_prop_term = format_formula


def format_axiom_spec(spec: AxiomInstanceSpec) -> str:
    parts = []
    if spec.p is not None:
        parts.append(f"p={format_formula(spec.p)}")
    if spec.q is not None:
        parts.append(f"q={format_formula(spec.q)}")
    if spec.r is not None:
        parts.append(f"r={format_formula(spec.r)}")
    if spec.subst is not None:
        parts.append(f"subst={format_subst(spec.subst)}")
    if spec.var_index is not None:
        parts.append(f"i={spec.var_index}")
    if spec.gen_count:
        parts.append(f"n={spec.gen_count}")
    return f"{spec.axiom}({', '.join(parts)})"


def format_structure(structure: Structure) -> str:
    """Structure in file form, deterministic line order; the `bits` line
    only for multi-bit tables."""
    lines = [f"domain {structure.size}"]
    if structure.truth_bits > 1:
        lines.append(f"bits {structure.truth_bits}")
    for name in structure.language.functions:
        row = " ".join(str(v) for v in structure.fn_tables[name])
        lines.append(f"fn {name}: {row}")
    eq = structure.language.equality
    for name in structure.language.predicates:
        if name == eq and structure.eq_identity:
            continue
        row = " ".join(str(v) for v in structure.rel_tables[name])
        lines.append(f"rel {name}: {row}")
    if eq is not None and structure.eq_identity:
        lines.append("equality identity")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# file loaders
# ---------------------------------------------------------------------------

def _lines(text: str, memo: dict | None = None):
    """A parser for each line of ``text`` that is not blank or a comment,
    sharing ``memo`` if one is given.  Each line must be read to its end:
    that is checked when the next line is asked for."""
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            parser = _Parser(line, number, memo)
            yield parser
            parser.expect_end()


def load_signature(text: str) -> Language:
    """Language from `fn name/arity` and `rel name/arity [equality]` lines."""
    functions: dict[str, int] = {}
    predicates: dict[str, int] = {}
    equality = None
    for parser in _lines(text):
        at = parser.pos
        head = parser.expect_word()
        if head not in ("fn", "rel"):
            raise parser.error("expected 'fn' or 'rel'", at)
        at = parser.pos
        name = parser.expect_word()
        if name in functions or name in predicates:
            raise parser.error(f"duplicate symbol {name!r}", at)
        parser.check(at, check_symbol, name)
        parser.expect_punct("/")
        at = parser.pos
        arity = parser.expect_int()
        parser.check(at, check_symbol, name, arity)
        if head == "fn":
            functions[name] = arity
        else:
            predicates[name] = arity
            if parser.at_word():
                at = parser.pos
                parser.expect_word("equality")
                if equality is not None:
                    raise parser.error(f"{equality!r} is already the equality symbol", at)
                # The one-symbol signature refuses a non-binary equality.
                parser.check(at, PredicateType, {name: arity}, name)
                equality = name
    return Language(FunctionType(functions), PredicateType(predicates, equality=equality))


def load_structure(text: str, language: Language) -> Structure:
    """Structure from `domain`, `bits`, `fn`, `rel`, and `equality identity`
    lines.  `bits N` makes relation tables N-bit masks, for the
    2^N-element Boolean algebra; without it they hold 0 or 1.  Each line
    appears once and each table once per symbol.  Tables may come before
    the `domain` line, so they are checked after the last line, in file
    order, each at its name."""
    size = None
    bits = 1
    seen: set[str] = set()
    tables: dict[str, dict[str, tuple[int, ...]]] = {"fn": {}, "rel": {}}
    rows = []  # (parser, offset of the name, head, name) of each table
    for parser in _lines(text):
        at = parser.pos
        head = parser.expect_word()
        if head in ("domain", "bits", "equality"):
            if head in seen:
                raise parser.error(f"duplicate {head!r} line", at)
            seen.add(head)
        if head == "domain":
            at = parser.pos
            size = parser.expect_int()
            if size < 1:
                raise parser.error("domain size must be >= 1", at)
        elif head == "bits":
            at = parser.pos
            bits = parser.expect_int()
            if not 1 <= bits <= MAX_TRUTH_BITS:
                raise parser.error(f"bits must be between 1 and {MAX_TRUTH_BITS}", at)
        elif head in ("fn", "rel"):
            at = parser.pos
            name = parser.expect_word()
            if name in tables[head]:
                raise parser.error(f"duplicate table for {name!r}", at)
            parser.expect_punct(":")
            tables[head][name] = parser.ints()
            rows.append((parser, at, head, name))
        elif head == "equality":
            parser.expect_word("identity")
        else:
            raise parser.error(
                "expected 'domain', 'bits', 'fn', 'rel', or 'equality'", at
            )
    if size is None:
        raise ParseError("missing 'domain' line", 1, 1)
    eq = language.equality
    eq_identity = eq is not None and ("equality" in seen or eq not in tables["rel"])
    kinds = {
        "fn": ("function", language.functions, size - 1),
        "rel": ("relation", language.predicates, (1 << bits) - 1),
    }
    for parser, at, head, name in rows:
        kind, symbols, top = kinds[head]
        identity = eq_identity and name == eq
        parser.check(at, check_table, kind, symbols, size, top, name, tables[head][name], identity)
    return Structure(
        language, size, tables["fn"], tables["rel"], eq_identity=eq_identity, truth_bits=bits
    )


def load_prop_algebra(text: str) -> FinitePropAlgebra:
    """Proposition algebra from `size`, `not:`, and `and i:` rows, each
    once.  Once the rows are all there, each is checked at its line."""
    size = None
    seen: set[str] = set()
    not_table: tuple[int, ...] | None = None
    and_rows: dict[int, tuple[int, ...]] = {}
    rows = []  # (parser, table, row) of each table row, in file order
    for parser in _lines(text):
        at = parser.pos
        head = parser.expect_word()
        if head in ("size", "not"):
            if head in seen:
                raise parser.error(f"duplicate {head!r} line", at)
            seen.add(head)
        if head == "size":
            size = parser.expect_int()
        elif head == "not":
            parser.expect_punct(":")
            not_table = parser.ints()
            rows.append((parser, "negation", not_table))
        elif head == "and":
            at = parser.pos
            index = parser.expect_int()
            if index in and_rows:
                raise parser.error(f"duplicate 'and' row {index}", at)
            parser.expect_punct(":")
            and_rows[index] = parser.ints()
            rows.append((parser, "conjunction", and_rows[index]))
        else:
            raise parser.error("expected 'size', 'not', or 'and'", at)
    if size is None or not_table is None:
        raise ParseError("algebra file needs 'size' and 'not' lines", 1, 1)
    # The count first: the row list is as long as the file, not the size.
    if len(and_rows) != size or sorted(and_rows) != list(range(size)):
        raise ParseError(f"expected 'and' rows 0..{size - 1}", 1, 1)
    for parser, table, row in rows:
        parser.check(0, check_row, table, row, size)  # at its head word
    return FinitePropAlgebra(not_table, tuple(and_rows[i] for i in range(size)))


def format_prop_algebra(algebra: FinitePropAlgebra) -> str:
    lines = [f"size {algebra.size}"]
    lines.append("not: " + " ".join(str(v) for v in algebra.not_table))
    for i, row in enumerate(algebra.and_table):
        lines.append(f"and {i}: " + " ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def load_theory(text: str, language: Language) -> Theory:
    """Theory from a `theory NAME` header and one formula per line."""
    name = None
    formulas = []
    for parser in _lines(text, {}):
        if name is None:
            parser.expect_word("theory")
            name = parser.expect_word()
        else:
            formulas.append(parser.formula(language))
    if name is None:
        raise ParseError("missing 'theory NAME' header", 1, 1)
    return Theory(name, language, tuple(formulas))


def load_proof(text: str, language: Language) -> tuple[Proof, str | None]:
    """Proof from a kind header, optional theory name, and numbered steps.

    Step references in files are 1-based; the returned Proof uses
    0-based indices.
    """
    kind = None
    theory_name = None
    steps: list[ProofStep] = []

    def step_ref(parser: _Parser) -> int:
        at = parser.pos
        value = parser.expect_int()
        if not 1 <= value <= len(steps):
            raise parser.error(
                f"step reference {value} out of range (references are 1-based "
                f"and must point at an earlier step)",
                at,
            )
        return value - 1

    for parser in _lines(text, {}):
        if kind is None:
            at = parser.pos
            kind = parser.expect_word()
            if kind not in ("local", "global"):
                raise parser.error("expected 'local' or 'global'", at)
            continue
        if theory_name is None and not steps and parser.text() == "theory":
            parser.expect_word("theory")
            theory_name = parser.expect_word()
            continue
        formula = parser.step(len(steps), language)
        at = parser.pos
        keyword = parser.expect_word()
        if keyword == "axiom":
            by = ByAxiom(parser.axiom_spec(language))
        elif keyword == "hyp":
            by = parser.hyp()
        elif keyword == "mp":
            by = ByMP(step_ref(parser), step_ref(parser))
        elif keyword == "subst":
            source = step_ref(parser)
            by = BySubst(source, parser.subst(language.functions))
        elif keyword == "gen":
            by = ByGen(step_ref(parser))
        else:
            raise parser.error(
                "expected 'axiom', 'hyp', 'mp', 'subst', or 'gen'", at
            )
        steps.append(ProofStep(formula, by))
    if kind is None:
        raise ParseError("missing proof kind header ('local' or 'global')", 1, 1)
    return Proof(kind, tuple(steps)), theory_name


def load_prop_proof(text: str) -> Proof:
    """Local proof over letters: numbered steps with A1/A2/A3, hyp, and mp."""
    steps: list[ProofStep] = []
    for parser in _lines(text, {}):
        formula = parser.step(len(steps), None)
        if parser.text() in ("A1", "A2", "A3"):
            by = ByAxiom(parser.prop_axiom())
        else:
            at = parser.pos
            keyword = parser.expect_word()
            if keyword == "hyp":
                by = parser.hyp()
            elif keyword == "mp":
                refs = []
                for _ in range(2):
                    at = parser.pos
                    value = parser.expect_int()
                    if not 1 <= value <= len(steps):
                        raise parser.error(f"step reference {value} out of range", at)
                    refs.append(value - 1)
                by = ByMP(refs[0], refs[1])
            else:
                raise parser.error(
                    "expected 'A1', 'A2', 'A3', 'hyp', or 'mp'", at
                )
        steps.append(ProofStep(formula, by))
    return Proof("local", tuple(steps))
