"""The tokenizer and recursive-descent parser as they were before tokens
became offset tuples: the oracle for the differential tests of
``clonelogic.syntax``.

Each token here is a frozen ``Token`` carrying its line and column, which
the tokenizer counts for every lexeme.  The builders (``FNot``,
``forall_xi``, ``Substitution`` and the rest) are the package's own, so
the two parsers differ only in how they read text and where they report
errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from clonelogic.errors import ParseError
from clonelogic.formulas import (
    Atom,
    FAnd,
    FNot,
    Forall,
    Formula,
    Language,
    PredicateType,
    exists,
    exists_xi,
    f_iff,
    f_imp,
    f_or,
    forall_xi,
)
from clonelogic.proofs import (
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
from clonelogic.propositional import FinitePropAlgebra, check_row
from clonelogic.semantics import MAX_TRUTH_BITS, Env, Structure, check_table
from clonelogic.terms import (
    App,
    Const,
    FunctionType,
    Shift,
    Substitution,
    Term,
    Var,
    check_symbol,
)

_VAR_SHAPE = re.compile(r"^x[1-9][0-9]*$")
_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<iff><->)
      | (?P<imp>->)
      | (?P<negint>-[0-9]+)
      | (?P<word>[A-Za-z0-9_']+)
      | (?P<punct>[()\[\],;.~&|/:=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "word", "int", "punct", or "end"
    text: str
    line: int
    col: int


def tokenize(text: str, start_line: int = 1) -> list[Token]:
    tokens: list[Token] = []
    line, col = start_line, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        kind = m.lastgroup
        if kind == "negint":
            tokens.append(Token("int", lexeme, line, col))
        elif kind == "word":
            tokens.append(Token("word", lexeme, line, col))
        elif kind in ("iff", "imp", "punct"):
            tokens.append(Token("punct", lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("end", "", line, col))
    return tokens


class _Parser:
    """Recursive-descent cursor over a token list."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "end":
            self.pos += 1
        return token

    def fail(self, message: str) -> ParseError:
        token = self.peek()
        return ParseError(message, token.line, token.col)

    def at_punct(self, text: str) -> bool:
        token = self.peek()
        return token.kind == "punct" and token.text == text

    def expect_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            raise self.fail(f"expected {text!r}")
        return self.advance()

    def expect_word(self, text: str | None = None) -> Token:
        token = self.peek()
        if token.kind != "word" or (text is not None and token.text != text):
            what = repr(text) if text is not None else "a name"
            raise self.fail(f"expected {what}")
        return self.advance()

    def expect_int(self) -> int:
        token = self.peek()
        if token.kind == "int":
            self.advance()
            return int(token.text)
        if token.kind == "word" and token.text.isdigit():
            self.advance()
            return int(token.text)
        raise self.fail("expected an integer")

    def expect_end(self) -> None:
        if self.peek().kind != "end":
            raise self.fail("expected end of input")

    # ----- terms -----

    def term(self, functions: FunctionType) -> Term:
        token = self.peek()
        if token.kind != "word":
            raise self.fail("expected a term")
        self.advance()
        if _VAR_SHAPE.match(token.text):
            return Var(int(token.text[1:]))
        name = token.text
        if name not in functions:
            raise ParseError(
                f"unknown function symbol {name!r}", token.line, token.col
            )
        args: list[Term] = []
        if self.at_punct("("):
            self.advance()
            if not self.at_punct(")"):
                args.append(self.term(functions))
                while self.at_punct(","):
                    self.advance()
                    args.append(self.term(functions))
            self.expect_punct(")")
        want = functions.arity(name)
        if len(args) != want:
            raise ParseError(
                f"{name!r} expects {want} argument(s), got {len(args)}",
                token.line,
                token.col,
            )
        return App(name, tuple(args))

    # ----- formulas -----

    def formula(self, language: Language) -> Formula:
        token = self.peek()
        if self.at_punct("~"):
            self.advance()
            return FNot(self.formula(language))
        if token.kind == "word" and token.text in ("forall", "exists"):
            self.advance()
            index = None
            nxt = self.peek()
            if (
                nxt.kind == "word"
                and _VAR_SHAPE.match(nxt.text)
                and self.peek(1).kind == "punct"
                and self.peek(1).text == "."
            ):
                index = int(nxt.text[1:])
                self.advance()
                self.advance()
            body = self.formula(language)
            if token.text == "forall":
                return Forall(body) if index is None else forall_xi(index, body)
            return exists(body) if index is None else exists_xi(index, body)
        if self.at_punct("("):
            self.advance()
            left = self.formula(language)
            connective = self.peek()
            if connective.kind == "punct" and connective.text in ("&", "|", "->", "<->"):
                self.advance()
                right = self.formula(language)
                self.expect_punct(")")
                builder = {"&": FAnd, "|": f_or, "->": f_imp, "<->": f_iff}
                return builder[connective.text](left, right)
            self.expect_punct(")")
            return left
        if token.kind == "word":
            self.advance()
            name = token.text
            if name not in language.predicates:
                raise ParseError(
                    f"unknown predicate symbol {name!r}", token.line, token.col
                )
            args: list[Term] = []
            if self.at_punct("("):
                self.advance()
                if not self.at_punct(")"):
                    args.append(self.term(language.functions))
                    while self.at_punct(","):
                        self.advance()
                        args.append(self.term(language.functions))
                self.expect_punct(")")
            want = language.predicates.arity(name)
            if len(args) != want:
                raise ParseError(
                    f"{name!r} expects {want} argument(s), got {len(args)}",
                    token.line,
                    token.col,
                )
            return Atom(name, tuple(args))
        raise self.fail("expected a formula")

    # ----- substitutions and environments -----

    def subst(self, functions: FunctionType) -> Substitution:
        opener = self.expect_punct("[")
        prefix: list[Term] = []
        if not self.at_punct(";") and not self.at_punct("]"):
            prefix.append(self.term(functions))
            while self.at_punct(","):
                self.advance()
                prefix.append(self.term(functions))
        tail = None
        if self.at_punct(";"):
            self.advance()
            keyword = self.expect_word()
            if keyword.text == "shift":
                tail = Shift(self.expect_int())
            elif keyword.text == "const":
                tail = Const(self.term(functions))
            else:
                raise ParseError(
                    "substitution tail must be 'shift' or 'const'",
                    keyword.line,
                    keyword.col,
                )
        self.expect_punct("]")
        if tail is None:
            if not prefix:
                raise ParseError(
                    "empty substitution needs an explicit tail",
                    opener.line,
                    opener.col,
                )
            tail = Const(prefix.pop())
        try:
            return Substitution(tuple(prefix), tail)
        except ValueError as err:
            raise ParseError(str(err), opener.line, opener.col) from err

    def env(self) -> Env:
        opener = self.expect_punct("[")
        values: list[int] = []
        if not self.at_punct(";"):
            values.append(self.expect_int())
            while self.at_punct(","):
                self.advance()
                values.append(self.expect_int())
        self.expect_punct(";")
        default = self.expect_int()
        self.expect_punct("]")
        try:
            return Env(tuple(values), default)
        except ValueError as err:
            raise ParseError(str(err), opener.line, opener.col) from err

    # ----- propositional terms -----

    def prop(self) -> Formula:
        token = self.peek()
        if self.at_punct("~"):
            self.advance()
            return FNot(self.prop())
        if self.at_punct("("):
            self.advance()
            left = self.prop()
            connective = self.peek()
            if connective.kind == "punct" and connective.text in ("&", "|", "->", "<->"):
                self.advance()
                right = self.prop()
                self.expect_punct(")")
                builder = {"&": FAnd, "|": f_or, "->": f_imp, "<->": f_iff}
                return builder[connective.text](left, right)
            self.expect_punct(")")
            return left
        if token.kind == "word":
            self.advance()
            return Atom(token.text, ())
        raise self.fail("expected a propositional term")

    # ----- axiom instance recipes -----

    def axiom_spec(self, language: Language) -> AxiomInstanceSpec:
        token = self.expect_word()
        if token.text not in AXIOM_IDS:
            raise ParseError(f"unknown axiom {token.text!r}", token.line, token.col)
        fields: dict[str, object] = {}
        if self.at_punct("("):
            self.advance()
            while not self.at_punct(")"):
                name_token = self.expect_word()
                field = name_token.text
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
                    raise ParseError(
                        f"unknown axiom parameter {field!r}",
                        name_token.line,
                        name_token.col,
                    )
                if self.at_punct(","):
                    self.advance()
                elif not self.at_punct(")"):
                    raise self.fail("expected ',' or ')'")
            self.expect_punct(")")
        return AxiomInstanceSpec(token.text, **fields)

    def prop_axiom(self) -> AxiomInstanceSpec:
        token = self.expect_word()
        if token.text not in ("A1", "A2", "A3"):
            raise ParseError(
                f"unknown propositional axiom {token.text!r}", token.line, token.col
            )
        fields: dict[str, Formula] = {}
        self.expect_punct("(")
        while not self.at_punct(")"):
            name_token = self.expect_word()
            if name_token.text not in ("p", "q", "r"):
                raise ParseError(
                    f"unknown axiom parameter {name_token.text!r}",
                    name_token.line,
                    name_token.col,
                )
            self.expect_punct("=")
            fields[name_token.text] = self.prop()
            if self.at_punct(","):
                self.advance()
            elif not self.at_punct(")"):
                raise self.fail("expected ',' or ')'")
        self.expect_punct(")")
        return AxiomInstanceSpec(token.text, **fields)


def _parse_all(text: str, grab) -> object:
    parser = _Parser(tokenize(text))
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
    return _parse_all(text, lambda p: p.prop())


def parse_axiom_spec(text: str, language: Language) -> AxiomInstanceSpec:
    return _parse_all(text, lambda p: p.axiom_spec(language))



def _content_lines(text: str):
    """(line_number, stripped_text) pairs, skipping blanks and comments."""
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            yield number, stripped


def _line_parser(line: str, number: int) -> _Parser:
    return _Parser(tokenize(line, start_line=number))


def load_signature(text: str) -> Language:
    """Language from `fn name/arity` and `rel name/arity [equality]` lines."""
    functions: dict[str, int] = {}
    predicates: dict[str, int] = {}
    equality = None
    for number, line in _content_lines(text):
        parser = _line_parser(line, number)
        head = parser.expect_word()
        if head.text not in ("fn", "rel"):
            raise ParseError("expected 'fn' or 'rel'", head.line, head.col)
        name_token = parser.peek()
        name = parser.expect_word().text
        if name in functions or name in predicates:
            raise ParseError(
                f"duplicate symbol {name!r}", name_token.line, name_token.col
            )
        _check_at(name_token, check_symbol, name)
        parser.expect_punct("/")
        arity_token = parser.peek()
        arity = parser.expect_int()
        _check_at(arity_token, check_symbol, name, arity)
        if head.text == "fn":
            functions[name] = arity
        else:
            predicates[name] = arity
            if parser.peek().kind == "word":
                flag = parser.expect_word("equality")
                if equality is not None:
                    raise ParseError(
                        f"{equality!r} is already the equality symbol", flag.line, flag.col
                    )
                _check_at(flag, PredicateType, {name: arity}, name)
                equality = name
        parser.expect_end()
    return Language(
        FunctionType(functions), PredicateType(predicates, equality=equality)
    )


def _check_at(token: Token, check, *args) -> None:
    """Call ``check(*args)``, raising its ValueError as a ParseError at ``token``."""
    try:
        check(*args)
    except ValueError as err:
        raise ParseError(str(err), token.line, token.col) from None


def load_structure(text: str, language: Language) -> Structure:
    """Structure from `domain`, `fn`, `rel`, and `equality identity` lines,
    each line once and each table once per symbol; the tables are checked
    after the last line, in file order, each at its name."""
    size = None
    bits = 1
    seen: set[str] = set()
    tables: dict[str, dict[str, tuple[int, ...]]] = {"fn": {}, "rel": {}}
    rows = []  # (name token, head, name) of each table, in file order
    for number, line in _content_lines(text):
        parser = _line_parser(line, number)
        head = parser.expect_word()
        if head.text in ("domain", "bits", "equality"):
            if head.text in seen:
                raise ParseError(f"duplicate {head.text!r} line", head.line, head.col)
            seen.add(head.text)
        if head.text == "domain":
            token = parser.peek()
            size = parser.expect_int()
            if size < 1:
                raise ParseError("domain size must be >= 1", token.line, token.col)
        elif head.text == "bits":
            token = parser.peek()
            bits = parser.expect_int()
            if not 1 <= bits <= MAX_TRUTH_BITS:
                raise ParseError(
                    f"bits must be between 1 and {MAX_TRUTH_BITS}", token.line, token.col
                )
        elif head.text in ("fn", "rel"):
            token = parser.expect_word()
            name = token.text
            if name in tables[head.text]:
                raise ParseError(f"duplicate table for {name!r}", token.line, token.col)
            parser.expect_punct(":")
            values = []
            while parser.peek().kind != "end":
                values.append(parser.expect_int())
            tables[head.text][name] = tuple(values)
            rows.append((token, head.text, name))
        elif head.text == "equality":
            parser.expect_word("identity")
        else:
            raise ParseError(
                "expected 'domain', 'bits', 'fn', 'rel', or 'equality'",
                head.line,
                head.col,
            )
        parser.expect_end()
    if size is None:
        raise ParseError("missing 'domain' line", 1, 1)
    eq = language.equality
    eq_identity = eq is not None and ("equality" in seen or eq not in tables["rel"])
    for token, head, name in rows:
        if head == "fn":
            kind, symbols, top = "function", language.functions, size - 1
        else:
            kind, symbols, top = "relation", language.predicates, (1 << bits) - 1
        identity = eq_identity and name == eq
        _check_at(token, check_table, kind, symbols, size, top, name, tables[head][name], identity)
    return Structure(
        language, size, tables["fn"], tables["rel"], eq_identity=eq_identity, truth_bits=bits
    )


def load_prop_algebra(text: str) -> FinitePropAlgebra:
    """Proposition algebra from `size`, `not:`, and `and i:` rows, each
    once; after the whole-file refusals, each row is checked at its line."""
    size = None
    seen: set[str] = set()
    not_table: tuple[int, ...] | None = None
    and_rows: dict[int, tuple[int, ...]] = {}
    rows = []  # (head token, table, row) of each table row, in file order
    for number, line in _content_lines(text):
        parser = _line_parser(line, number)
        head = parser.expect_word()
        if head.text in ("size", "not"):
            if head.text in seen:
                raise ParseError(f"duplicate {head.text!r} line", head.line, head.col)
            seen.add(head.text)
        if head.text == "size":
            size = parser.expect_int()
        elif head.text == "not":
            parser.expect_punct(":")
            values = []
            while parser.peek().kind != "end":
                values.append(parser.expect_int())
            not_table = tuple(values)
            rows.append((head, "negation", not_table))
        elif head.text == "and":
            token = parser.peek()
            index = parser.expect_int()
            if index in and_rows:
                raise ParseError(f"duplicate 'and' row {index}", token.line, token.col)
            parser.expect_punct(":")
            values = []
            while parser.peek().kind != "end":
                values.append(parser.expect_int())
            and_rows[index] = tuple(values)
            rows.append((head, "conjunction", and_rows[index]))
        else:
            raise ParseError("expected 'size', 'not', or 'and'", head.line, head.col)
        parser.expect_end()
    if size is None or not_table is None:
        raise ParseError("algebra file needs 'size' and 'not' lines", 1, 1)
    if sorted(and_rows) != list(range(size)):
        raise ParseError(f"expected 'and' rows 0..{size - 1}", 1, 1)
    for head, table, row in rows:
        _check_at(head, check_row, table, row, size)
    return FinitePropAlgebra(not_table, tuple(and_rows[i] for i in range(size)))


def load_theory(text: str, language: Language) -> Theory:
    """Theory from a `theory NAME` header and one formula per line."""
    name = None
    formulas = []
    for number, line in _content_lines(text):
        parser = _line_parser(line, number)
        if name is None:
            parser.expect_word("theory")
            name = parser.expect_word().text
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
        token = parser.peek()
        value = parser.expect_int()
        if not 1 <= value <= len(steps):
            raise ParseError(
                f"step reference {value} out of range (references are 1-based "
                f"and must point at an earlier step)",
                token.line,
                token.col,
            )
        return value - 1

    for number, line in _content_lines(text):
        parser = _line_parser(line, number)
        if kind is None:
            head = parser.expect_word()
            if head.text not in ("local", "global"):
                raise ParseError("expected 'local' or 'global'", head.line, head.col)
            kind = head.text
            parser.expect_end()
            continue
        if theory_name is None and not steps and parser.peek().text == "theory":
            parser.expect_word("theory")
            theory_name = parser.expect_word().text
            parser.expect_end()
            continue
        index_token = parser.peek()
        index = parser.expect_int()
        if index != len(steps) + 1:
            raise ParseError(
                f"expected step number {len(steps) + 1}",
                index_token.line,
                index_token.col,
            )
        parser.expect_punct(".")
        formula = parser.formula(language)
        parser.expect_word("by")
        keyword = parser.expect_word()
        if keyword.text == "axiom":
            by = ByAxiom(parser.axiom_spec(language))
        elif keyword.text == "hyp":
            token = parser.peek()
            value = parser.expect_int()
            if value < 1:
                raise ParseError(
                    "hypothesis references are 1-based", token.line, token.col
                )
            by = ByHyp(value - 1)
        elif keyword.text == "mp":
            by = ByMP(step_ref(parser), step_ref(parser))
        elif keyword.text == "subst":
            source = step_ref(parser)
            by = BySubst(source, parser.subst(language.functions))
        elif keyword.text == "gen":
            by = ByGen(step_ref(parser))
        else:
            raise ParseError(
                "expected 'axiom', 'hyp', 'mp', 'subst', or 'gen'",
                keyword.line,
                keyword.col,
            )
        parser.expect_end()
        steps.append(ProofStep(formula, by))
    if kind is None:
        raise ParseError("missing proof kind header ('local' or 'global')", 1, 1)
    return Proof(kind, tuple(steps)), theory_name


def load_prop_proof(text: str) -> Proof:
    """Propositional proof: numbered steps with A1/A2/A3, hyp, and mp."""
    steps: list[ProofStep] = []
    for number, line in _content_lines(text):
        parser = _line_parser(line, number)
        index_token = parser.peek()
        index = parser.expect_int()
        if index != len(steps) + 1:
            raise ParseError(
                f"expected step number {len(steps) + 1}",
                index_token.line,
                index_token.col,
            )
        parser.expect_punct(".")
        formula = parser.prop()
        parser.expect_word("by")
        keyword = parser.peek()
        if keyword.kind == "word" and keyword.text in ("A1", "A2", "A3"):
            by = ByAxiom(parser.prop_axiom())
        else:
            keyword = parser.expect_word()
            if keyword.text == "hyp":
                token = parser.peek()
                value = parser.expect_int()
                if value < 1:
                    raise ParseError(
                        "hypothesis references are 1-based", token.line, token.col
                    )
                by = ByHyp(value - 1)
            elif keyword.text == "mp":
                refs = []
                for _ in range(2):
                    token = parser.peek()
                    value = parser.expect_int()
                    if not 1 <= value <= len(steps):
                        raise ParseError(
                            f"step reference {value} out of range",
                            token.line,
                            token.col,
                        )
                    refs.append(value - 1)
                by = ByMP(refs[0], refs[1])
            else:
                raise ParseError(
                    "expected 'A1', 'A2', 'A3', 'hyp', or 'mp'",
                    keyword.line,
                    keyword.col,
                )
        parser.expect_end()
        steps.append(ProofStep(formula, by))
    return Proof("local", tuple(steps))
