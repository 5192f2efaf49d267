"""Surface syntax: tokenizer, parsers, printers, and file loaders.

The grammar keeps binary connectives fully parenthesized, so no
precedence table is needed.  Printers emit only the core connectives
(negation, conjunction, the positional binder); the parsers also accept
the sugared forms |, ->, <-> and named binders, which desugar on the
spot.  parse(print(x)) is the identity on every term, formula,
substitution, and environment.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .errors import ParseError
from .formulas import (
    Atom,
    FAnd,
    FNot,
    Forall,
    Formula,
    Language,
    PredicateType,
    exists_xi,
    f_iff,
    f_imp,
    f_or,
    forall_xi,
    exists,
)
from .propositional import (
    FinitePropAlgebra,
    PAnd,
    PNot,
    PropAxiom,
    PropHyp,
    PropMP,
    PropStep,
    PropTerm,
    PVar,
    piff,
    pimp,
    por,
)
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
from .semantics import Env, Structure
from .terms import (
    App,
    Const,
    FunctionType,
    Shift,
    Substitution,
    Term,
    Var,
    _VARIABLE_SHAPE,
)

# One pass over the text: punctuation (longest first), negative integers,
# words, and, last, any other visible character, which is an error.
# Whitespace matches no alternative, so finditer skips it.
_TOKEN_RE = re.compile(
    r"""(?P<punct><->|->|[()\[\],;.~&|/:=])
      | (?P<int>-[0-9]+)
      | (?P<word>[A-Za-z0-9_']+)
      | (?P<bad>\S)
    """,
    re.VERBOSE,
)

# A token is a (kind, text, offset) tuple; kind is "punct", "int", "word"
# or "end", and offset indexes the source text.  No punctuation text is
# also a word or an integer, so the parser tests punctuation by text alone.
Token = tuple[str, str, int]

# Binary connective text -> (formula builder, propositional builder).
_CONNECTIVES = {
    "&": (FAnd, PAnd),
    "|": (f_or, por),
    "->": (f_imp, pimp),
    "<->": (f_iff, piff),
}


def _position(source: str, start_line: int, offset: int) -> tuple[int, int]:
    """1-based (line, column) of an offset; only errors need it."""
    line = start_line + source.count("\n", 0, offset)
    return line, offset - source.rfind("\n", 0, offset)


def tokenize(text: str, start_line: int = 1) -> list[Token]:
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
    if "bad" in map(itemgetter(0), tokens):
        _, char, offset = next(token for token in tokens if token[0] == "bad")
        raise ParseError(
            f"unexpected character {char!r}", *_position(text, start_line, offset)
        )
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent cursor over the token tuples of one source text.

    The cursor never moves past the end token: every step forward follows
    a test that the current token is not the end.
    """

    __slots__ = ("source", "start_line", "tokens", "pos")

    def __init__(self, source: str, start_line: int = 1):
        self.source = source
        self.start_line = start_line
        self.tokens = tokenize(source, start_line)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def error(self, message: str, offset: int) -> ParseError:
        return ParseError(message, *_position(self.source, self.start_line, offset))

    def fail(self, message: str) -> ParseError:
        return self.error(message, self.tokens[self.pos][2])

    def at_punct(self, text: str) -> bool:
        return self.tokens[self.pos][1] == text

    def expect_punct(self, text: str) -> Token:
        token = self.tokens[self.pos]
        if token[1] != text:
            raise self.error(f"expected {text!r}", token[2])
        self.pos += 1
        return token

    def expect_word(self, text: str | None = None) -> Token:
        token = self.tokens[self.pos]
        if token[0] != "word" or (text is not None and token[1] != text):
            what = repr(text) if text is not None else "a name"
            raise self.error(f"expected {what}", token[2])
        self.pos += 1
        return token

    def expect_int(self) -> int:
        kind, text, offset = self.tokens[self.pos]
        if kind == "int" or (kind == "word" and text.isdigit()):
            self.pos += 1
            return int(text)
        raise self.error("expected an integer", offset)

    def expect_end(self) -> None:
        if self.tokens[self.pos][0] != "end":
            raise self.fail("expected end of input")

    def args(self, functions: FunctionType) -> list[Term]:
        """An optional parenthesized, comma-separated term list."""
        tokens = self.tokens
        args: list[Term] = []
        if tokens[self.pos][1] == "(":
            self.pos += 1
            if tokens[self.pos][1] != ")":
                args.append(self.term(functions))
                while tokens[self.pos][1] == ",":
                    self.pos += 1
                    args.append(self.term(functions))
            self.expect_punct(")")
        return args

    # ----- terms -----

    def term(self, functions: FunctionType) -> Term:
        kind, name, offset = self.tokens[self.pos]
        if kind != "word":
            raise self.error("expected a term", offset)
        self.pos += 1
        if _VARIABLE_SHAPE.match(name):
            return Var(int(name[1:]))
        if name not in functions:
            raise self.error(f"unknown function symbol {name!r}", offset)
        args = self.args(functions)
        want = functions.arity(name)
        if len(args) != want:
            raise self.error(
                f"{name!r} expects {want} argument(s), got {len(args)}", offset
            )
        return App(name, tuple(args))

    # ----- formulas -----

    def formula(self, language: Language) -> Formula:
        tokens = self.tokens
        kind, text, offset = tokens[self.pos]
        if text == "~":
            self.pos += 1
            return FNot(self.formula(language))
        if text == "(":
            self.pos += 1
            left = self.formula(language)
            builders = _CONNECTIVES.get(tokens[self.pos][1])
            if builders is not None:
                self.pos += 1
                right = self.formula(language)
                self.expect_punct(")")
                return builders[0](left, right)
            self.expect_punct(")")
            return left
        if kind != "word":
            raise self.error("expected a formula", offset)
        self.pos += 1
        if text == "forall" or text == "exists":
            index = None
            next_kind, next_text, _ = tokens[self.pos]
            # A word is never the last token, so pos + 1 is in range.
            if (
                next_kind == "word"
                and _VARIABLE_SHAPE.match(next_text)
                and tokens[self.pos + 1][1] == "."
            ):
                index = int(next_text[1:])
                self.pos += 2
            body = self.formula(language)
            if text == "forall":
                return Forall(body) if index is None else forall_xi(index, body)
            return exists(body) if index is None else exists_xi(index, body)
        if text not in language.predicates:
            raise self.error(f"unknown predicate symbol {text!r}", offset)
        args = self.args(language.functions)
        want = language.predicates.arity(text)
        if len(args) != want:
            raise self.error(
                f"{text!r} expects {want} argument(s), got {len(args)}", offset
            )
        return Atom(text, tuple(args))

    # ----- substitutions and environments -----

    def subst(self, functions: FunctionType) -> Substitution:
        opener = self.expect_punct("[")[2]
        prefix: list[Term] = []
        if not self.at_punct(";") and not self.at_punct("]"):
            prefix.append(self.term(functions))
            while self.at_punct(","):
                self.pos += 1
                prefix.append(self.term(functions))
        tail = None
        if self.at_punct(";"):
            self.pos += 1
            _, keyword, offset = self.expect_word()
            if keyword == "shift":
                tail = Shift(self.expect_int())
            elif keyword == "const":
                tail = Const(self.term(functions))
            else:
                raise self.error("substitution tail must be 'shift' or 'const'", offset)
        self.expect_punct("]")
        if tail is None:
            if not prefix:
                raise self.error("empty substitution needs an explicit tail", opener)
            tail = Const(prefix.pop())
        try:
            return Substitution(tuple(prefix), tail)
        except ValueError as err:
            raise self.error(str(err), opener) from err

    def env(self) -> Env:
        opener = self.expect_punct("[")[2]
        values: list[int] = []
        if not self.at_punct(";"):
            values.append(self.expect_int())
            while self.at_punct(","):
                self.pos += 1
                values.append(self.expect_int())
        self.expect_punct(";")
        default = self.expect_int()
        self.expect_punct("]")
        try:
            return Env(tuple(values), default)
        except ValueError as err:
            raise self.error(str(err), opener) from err

    # ----- propositional terms -----

    def prop(self) -> PropTerm:
        tokens = self.tokens
        kind, text, offset = tokens[self.pos]
        if text == "~":
            self.pos += 1
            return PNot(self.prop())
        if text == "(":
            self.pos += 1
            left = self.prop()
            builders = _CONNECTIVES.get(tokens[self.pos][1])
            if builders is not None:
                self.pos += 1
                right = self.prop()
                self.expect_punct(")")
                return builders[1](left, right)
            self.expect_punct(")")
            return left
        if kind == "word":
            self.pos += 1
            return PVar(text)
        raise self.error("expected a propositional term", offset)

    # ----- axiom instance recipes -----

    def axiom_spec(self, language: Language) -> AxiomInstanceSpec:
        _, axiom, offset = self.expect_word()
        if axiom not in AXIOM_IDS:
            raise self.error(f"unknown axiom {axiom!r}", offset)
        fields: dict[str, object] = {}
        if self.at_punct("("):
            self.pos += 1
            while not self.at_punct(")"):
                _, field, field_offset = self.expect_word()
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
                    raise self.error(f"unknown axiom parameter {field!r}", field_offset)
                if self.at_punct(","):
                    self.pos += 1
                elif not self.at_punct(")"):
                    raise self.fail("expected ',' or ')'")
            self.expect_punct(")")
        return AxiomInstanceSpec(axiom, **fields)

    def prop_axiom(self) -> PropAxiom:
        _, axiom, offset = self.expect_word()
        if axiom not in ("A1", "A2", "A3"):
            raise self.error(f"unknown propositional axiom {axiom!r}", offset)
        fields: dict[str, PropTerm] = {}
        self.expect_punct("(")
        while not self.at_punct(")"):
            _, field, field_offset = self.expect_word()
            if field not in ("p", "q", "r"):
                raise self.error(f"unknown axiom parameter {field!r}", field_offset)
            self.expect_punct("=")
            fields[field] = self.prop()
            if self.at_punct(","):
                self.pos += 1
            elif not self.at_punct(")"):
                raise self.fail("expected ',' or ')'")
        self.expect_punct(")")
        return PropAxiom(int(axiom[1]), **fields)


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


def parse_prop(text: str) -> PropTerm:
    return _parse_all(text, lambda p: p.prop())


def parse_axiom_spec(text: str, language: Language) -> AxiomInstanceSpec:
    return _parse_all(text, lambda p: p.axiom_spec(language))


# ---------------------------------------------------------------------------
# printers
# ---------------------------------------------------------------------------

def format_term(term: Term) -> str:
    match term:
        case Var(index):
            return f"x{index}"
        case App(symbol, ()):
            return symbol
        case App(symbol, args):
            return f"{symbol}({', '.join(format_term(a) for a in args)})"
    raise TypeError(f"not a term: {term!r}")


def format_formula(formula: Formula) -> str:
    match formula:
        case Atom(symbol, ()):
            return symbol
        case Atom(symbol, args):
            return f"{symbol}({', '.join(format_term(a) for a in args)})"
        case FNot(body):
            return f"~{format_formula(body)}"
        case FAnd(left, right):
            return f"({format_formula(left)} & {format_formula(right)})"
        case Forall(body):
            return f"forall {format_formula(body)}"
    raise TypeError(f"not a formula: {formula!r}")


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


def format_prop_term(term: PropTerm) -> str:
    match term:
        case PVar(name):
            return name
        case PNot(body):
            return f"~{format_prop_term(body)}"
        case PAnd(left, right):
            return f"({format_prop_term(left)} & {format_prop_term(right)})"
    raise TypeError(f"not a propositional term: {term!r}")


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
    """Structure in file form, deterministic line order."""
    lines = [f"domain {structure.size}"]
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

def _content_lines(text: str):
    """(line_number, stripped_text) pairs, skipping blanks and comments."""
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            yield number, stripped


def _line_parser(line: str, number: int) -> _Parser:
    return _Parser(line, number)


def load_signature(text: str) -> Language:
    """Language from `fn name/arity` and `rel name/arity [equality]` lines."""
    functions: dict[str, int] = {}
    predicates: dict[str, int] = {}
    equality = None
    for number, line in _content_lines(text):
        parser = _line_parser(line, number)
        _, head, offset = parser.expect_word()
        if head not in ("fn", "rel"):
            raise parser.error("expected 'fn' or 'rel'", offset)
        _, name, offset = parser.expect_word()
        if name in functions or name in predicates:
            raise parser.error(f"duplicate symbol {name!r}", offset)
        parser.expect_punct("/")
        arity = parser.expect_int()
        if head == "fn":
            functions[name] = arity
        else:
            predicates[name] = arity
            if parser.peek()[0] == "word":
                parser.expect_word("equality")
                equality = name
        parser.expect_end()
    try:
        return Language(
            FunctionType(functions), PredicateType(predicates, equality=equality)
        )
    except ValueError as err:
        raise ParseError(str(err), 1, 1) from err


def load_structure(text: str, language: Language) -> Structure:
    """Structure from `domain`, `fn`, `rel`, and `equality identity` lines."""
    size = None
    fn_tables: dict[str, tuple[int, ...]] = {}
    rel_tables: dict[str, tuple[int, ...]] = {}
    identity_flag = False
    for number, line in _content_lines(text):
        parser = _line_parser(line, number)
        _, head, offset = parser.expect_word()
        if head == "domain":
            size = parser.expect_int()
        elif head in ("fn", "rel"):
            name = parser.expect_word()[1]
            parser.expect_punct(":")
            values = []
            while parser.peek()[0] != "end":
                values.append(parser.expect_int())
            if head == "fn":
                fn_tables[name] = tuple(values)
            else:
                rel_tables[name] = tuple(values)
        elif head == "equality":
            parser.expect_word("identity")
            identity_flag = True
        else:
            raise parser.error("expected 'domain', 'fn', 'rel', or 'equality'", offset)
        parser.expect_end()
    if size is None:
        raise ParseError("missing 'domain' line", 1, 1)
    eq = language.equality
    eq_identity = eq is not None and (identity_flag or eq not in rel_tables)
    return Structure(language, size, fn_tables, rel_tables, eq_identity=eq_identity)


def load_prop_algebra(text: str) -> FinitePropAlgebra:
    """Proposition algebra from `size`, `not:`, and `and i:` rows."""
    size = None
    not_table: tuple[int, ...] | None = None
    and_rows: dict[int, tuple[int, ...]] = {}
    for number, line in _content_lines(text):
        parser = _line_parser(line, number)
        _, head, offset = parser.expect_word()
        if head == "size":
            size = parser.expect_int()
        elif head == "not":
            parser.expect_punct(":")
            values = []
            while parser.peek()[0] != "end":
                values.append(parser.expect_int())
            not_table = tuple(values)
        elif head == "and":
            row = parser.expect_int()
            parser.expect_punct(":")
            values = []
            while parser.peek()[0] != "end":
                values.append(parser.expect_int())
            and_rows[row] = tuple(values)
        else:
            raise parser.error("expected 'size', 'not', or 'and'", offset)
        parser.expect_end()
    if size is None or not_table is None:
        raise ParseError("algebra file needs 'size' and 'not' lines", 1, 1)
    if sorted(and_rows) != list(range(size)):
        raise ParseError(f"expected 'and' rows 0..{size - 1}", 1, 1)
    try:
        return FinitePropAlgebra(not_table, tuple(and_rows[i] for i in range(size)))
    except ValueError as err:
        raise ParseError(str(err), 1, 1) from err


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
    for number, line in _content_lines(text):
        parser = _line_parser(line, number)
        if name is None:
            parser.expect_word("theory")
            name = parser.expect_word()[1]
            parser.expect_end()
            continue
        formulas.append(parser.formula(language))
        parser.expect_end()
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
        offset = parser.peek()[2]
        value = parser.expect_int()
        if not 1 <= value <= len(steps):
            raise parser.error(
                f"step reference {value} out of range (references are 1-based "
                f"and must point at an earlier step)",
                offset,
            )
        return value - 1

    for number, line in _content_lines(text):
        parser = _line_parser(line, number)
        if kind is None:
            _, head, offset = parser.expect_word()
            if head not in ("local", "global"):
                raise parser.error("expected 'local' or 'global'", offset)
            kind = head
            parser.expect_end()
            continue
        if theory_name is None and not steps and parser.peek()[1] == "theory":
            parser.expect_word("theory")
            theory_name = parser.expect_word()[1]
            parser.expect_end()
            continue
        offset = parser.peek()[2]
        index = parser.expect_int()
        if index != len(steps) + 1:
            raise parser.error(f"expected step number {len(steps) + 1}", offset)
        parser.expect_punct(".")
        formula = parser.formula(language)
        parser.expect_word("by")
        _, keyword, offset = parser.expect_word()
        if keyword == "axiom":
            by = ByAxiom(parser.axiom_spec(language))
        elif keyword == "hyp":
            offset = parser.peek()[2]
            value = parser.expect_int()
            if value < 1:
                raise parser.error("hypothesis references are 1-based", offset)
            by = ByHyp(value - 1)
        elif keyword == "mp":
            by = ByMP(step_ref(parser), step_ref(parser))
        elif keyword == "subst":
            source = step_ref(parser)
            by = BySubst(source, parser.subst(language.functions))
        elif keyword == "gen":
            by = ByGen(step_ref(parser))
        else:
            raise parser.error(
                "expected 'axiom', 'hyp', 'mp', 'subst', or 'gen'", offset
            )
        parser.expect_end()
        steps.append(ProofStep(formula, by))
    if kind is None:
        raise ParseError("missing proof kind header ('local' or 'global')", 1, 1)
    return Proof(kind, tuple(steps)), theory_name


def load_prop_proof(text: str) -> list[PropStep]:
    """Propositional proof: numbered steps with A1/A2/A3, hyp, and mp."""
    steps: list[PropStep] = []
    for number, line in _content_lines(text):
        parser = _line_parser(line, number)
        offset = parser.peek()[2]
        index = parser.expect_int()
        if index != len(steps) + 1:
            raise parser.error(f"expected step number {len(steps) + 1}", offset)
        parser.expect_punct(".")
        formula = parser.prop()
        parser.expect_word("by")
        kind, keyword, _ = parser.peek()
        if kind == "word" and keyword in ("A1", "A2", "A3"):
            by = parser.prop_axiom()
        else:
            _, keyword, offset = parser.expect_word()
            if keyword == "hyp":
                offset = parser.peek()[2]
                value = parser.expect_int()
                if value < 1:
                    raise parser.error("hypothesis references are 1-based", offset)
                by = PropHyp(value - 1)
            elif keyword == "mp":
                refs = []
                for _ in range(2):
                    offset = parser.peek()[2]
                    value = parser.expect_int()
                    if not 1 <= value <= len(steps):
                        raise parser.error(f"step reference {value} out of range", offset)
                    refs.append(value - 1)
                by = PropMP(refs[0], refs[1])
            else:
                raise parser.error(
                    "expected 'A1', 'A2', 'A3', 'hyp', or 'mp'", offset
                )
        parser.expect_end()
        steps.append(PropStep(formula, by))
    return steps
