"""Exception types shared across the package, and the text-file reader
that turns undecodable bytes into one of them."""

from __future__ import annotations

import os
from pathlib import Path


class GroupEqError(Exception):
    """Base class for all groupeq errors."""


class ParseError(GroupEqError):
    """Malformed input text (group files, system files, algebra files)."""


class ValidationError(GroupEqError):
    """A structural invariant failed (group axioms, binding, action, ...)."""


class CapExceeded(GroupEqError):
    """A configured size or work cap would be exceeded."""


def read_text_file(path: str | os.PathLike) -> str:
    """Read a UTF-8 text file; undecodable bytes raise a ParseError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at offset "
                         f"{exc.start})") from None
