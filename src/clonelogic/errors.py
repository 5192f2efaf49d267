"""Shared exception types."""


class LogicError(Exception):
    """Base class for errors raised by this package."""


class UndeclaredSymbol(LogicError):
    """A term or formula uses a symbol absent from the signature."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"undeclared symbol: {name!r}")


class ArityMismatch(LogicError):
    """A symbol is applied to the wrong number of arguments."""

    def __init__(self, name: str, expected: int, got: int):
        self.name = name
        self.expected = expected
        self.got = got
        super().__init__(f"symbol {name!r} expects {expected} argument(s), got {got}")


class BoundExceeded(LogicError):
    """A brute-force enumeration would exceed its configured bound."""


class ParseError(LogicError, ValueError):
    """Malformed input text, with a 1-based source position.  It is also a
    ValueError: a loader raises the ValueError of a value check it runs,
    such as a structure's table check, as a ParseError at the value."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")
