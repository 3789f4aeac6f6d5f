"""Exception types shared across the package, and the readers that turn
undecodable bytes and unconvertible integer literals into one of them."""

from __future__ import annotations

import os


class GroupEqError(Exception):
    """Base class for all groupeq errors."""


class ParseError(GroupEqError):
    """Malformed input text (group files, system files, algebra files)."""


class ValidationError(GroupEqError):
    """A structural invariant failed (group axioms, binding, action, ...)."""


class CapExceeded(GroupEqError):
    """A configured size or work cap would be exceeded."""


def int_literal(tok: str) -> int:
    """int(tok) for a matched integer token; past 4,300 digits, a ParseError."""
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"integer literal {tok[:12]}... is {len(tok)} characters long") from None


def read_text_file(path: str | os.PathLike) -> str:
    """Read a UTF-8 text file; undecodable bytes raise a ParseError naming it. An
    empty path is a missing file, as open() finds, not Path(""), the current directory."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at offset "
                         f"{exc.start})") from None
