"""Equation words: letters, parsing, printing.

Grammar for a word (see also the system-file format in `equations`):

    word    := atom+                      juxtaposition is the group product
    atom    := item ( '^' suffix )*       '^' binds tighter than juxtaposition
    suffix  := integer                    power (may be negative)
             | '(' word ')'              conjugation: t^(u) = u^-1 t u
    item    := identifier                 a declared variable or coefficient
             | '(' word ')'              grouping
             | '[' word ',' word ']'     commutator [u,v] = u^-1 v^-1 u v

Chained '^' is left-associative, so x^2^(a) is (x^2)^(a). Parsing fully
expands powers, conjugations and commutators; a parsed word is a flat
sequence of signed letters of length at most MAX_WORD_LENGTH (10^7); each
step computes the length it would reach and raises CapExceeded above it.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .errors import CapExceeded, ParseError, int_literal

VAR = "v"
COEFF = "c"
MAX_WORD_LENGTH = 10 ** 7


def strip_comment(line: str) -> str:
    """Cut a '#' comment: only at line start or after whitespace, so tokens
    like '#3' (element-index references) survive."""
    if line.startswith("#"):
        return ""
    for i, ch in enumerate(line):
        if ch == "#" and line[i - 1].isspace():
            return line[:i]
    return line


class Letter(NamedTuple):
    kind: str   # VAR or COEFF
    name: str
    sign: int   # +1 or -1


Word = tuple[Letter, ...]


def word_inverse(word: Word) -> Word:
    return tuple(Letter(l.kind, l.name, -l.sign) for l in reversed(word))


def _check_length(length: int) -> None:
    if length > MAX_WORD_LENGTH:
        raise CapExceeded(f"word would have {length} letters (limit {MAX_WORD_LENGTH})")


def word_power(word: Word, k: int) -> Word:
    _check_length(len(word) * abs(k))
    if k < 0:
        word, k = word_inverse(word), -k
    return word * k


def word_conjugate(word: Word, by: Word) -> Word:
    _check_length(len(word) + 2 * len(by))
    return word_inverse(by) + word + by


def word_commutator(u: Word, v: Word) -> Word:
    _check_length(2 * (len(u) + len(v)))
    return word_inverse(u) + word_inverse(v) + u + v


def exponent_sum(word: Word, var: str) -> int:
    return sum(l.sign for l in word if l.kind == VAR and l.name == var)


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|-?\d+|\^|\(|\)|\[|\]|,|=)")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at column {pos + 1}: "
                                 f"{text[pos:].strip()[0]!r}")
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, symbols: dict[str, str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.symbols = symbols  # identifier -> VAR | COEFF

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, int]:
        if self.i >= len(self.tokens):
            raise ParseError(f"unexpected end of word in {self.text!r}")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, want: str) -> None:
        tok, col = self.next()
        if tok != want:
            raise ParseError(
                f"expected {want!r} at column {col + 1} of {self.text!r}, got {tok!r}")

    def parse_word(self, stop: tuple[str, ...] = ()) -> Word:
        letters: list[Letter] = []
        while True:
            nxt = self.peek()
            if nxt is None or nxt in stop:
                break
            atom = self.parse_atom()
            _check_length(len(letters) + len(atom))
            letters += atom
        return tuple(letters)

    def parse_atom(self) -> Word:
        word = self.parse_item()
        while self.peek() == "^":
            self.next()
            tok, col = self.next()
            if re.fullmatch(r"-?\d+", tok):
                word = word_power(word, int_literal(tok))
            elif tok == "(":
                by = self.parse_word(stop=(")",))
                self.expect(")")
                word = word_conjugate(word, by)
            else:
                raise ParseError(
                    f"'^' needs an integer or a parenthesized word at column "
                    f"{col + 1} of {self.text!r}")
        return word

    def parse_item(self) -> Word:
        tok, col = self.next()
        if tok == "(":
            word = self.parse_word(stop=(")",))
            self.expect(")")
            return word
        if tok == "[":
            u = self.parse_word(stop=(",",))
            self.expect(",")
            v = self.parse_word(stop=("]",))
            self.expect("]")
            return word_commutator(u, v)
        if _IDENT_RE.match(tok):
            kind = self.symbols.get(tok)
            if kind is None:
                raise ParseError(
                    f"undeclared identifier {tok!r} at column {col + 1} of {self.text!r}")
            return (Letter(kind, tok, +1),)
        raise ParseError(
            f"unexpected token {tok!r} at column {col + 1} of {self.text!r}")


def symbol_kinds(variables: Iterable[str], coefficients: Iterable[str],
                 error: type[Exception] = ParseError) -> dict[str, str]:
    """Each declared symbol's kind; the first symbol declared twice raises *error*."""
    symbols: dict[str, str] = {}
    for kind, names in ((VAR, variables), (COEFF, coefficients)):
        for name in names:
            if name in symbols:
                case = ("declared twice" if symbols[name] == kind
                        else "both a variable and a coefficient")
                raise error(f"symbol {name!r} is {case}")
            symbols[name] = kind
    return symbols


def parse_word(text: str, variables: Iterable[str],
               coefficients: Iterable[str]) -> Word:
    """Parse one equation word; ``u = v`` is normalized to ``u v^-1``."""
    parser = _Parser(text, symbol_kinds(variables, coefficients))
    left = parser.parse_word(stop=("=",))
    if parser.peek() == "=":
        parser.next()
        right = parser.parse_word()
        _check_length(len(left) + len(right))
        word = left + word_inverse(right)
    else:
        word = left
    if parser.i != len(parser.tokens):
        tok, col = parser.tokens[parser.i]
        raise ParseError(f"trailing input {tok!r} at column {col + 1} of {text!r}")
    return word


def format_word(word: Word) -> str:
    """Compact printable form; reparsing it yields the identical word."""
    if not word:
        return ""
    parts = []
    i = 0
    while i < len(word):
        letter = word[i]
        j = i
        while j < len(word) and word[j] == letter:
            j += 1
        run = j - i
        exp = letter.sign * run
        parts.append(letter.name if exp == 1 else f"{letter.name}^{exp}")
        i = j
    return " ".join(parts)
