"""Runtime configuration: size caps, job count, output options.

Values resolve in three layers: hard-coded defaults, then an optional
config file (``groupeq.conf`` in the working directory, or the file named
by the ``GROUPEQ_CONFIG`` environment variable), then command-line flags.
The file format is one ``key = value`` pair per line; blank lines and
``#`` comments are ignored.
"""

from __future__ import annotations

import os
from pathlib import Path

from .errors import ParseError, ValidationError, read_text_file
from .record import Record

CONFIG_ENV_VAR = "GROUPEQ_CONFIG"
CONFIG_FILE_NAME = "groupeq.conf"


class Config(Record):
    # caps: exceeding any of them raises CapExceeded, never truncates
    subgroup_order_cap: int = 512      # all_subgroups / normal_subgroups
    iso_order_cap: int = 128           # isomorphism search
    wreath_order_cap: int = 10**6      # wreath product element count
    brute_force_cap: int = 10**6       # assignments scanned by brute_force_solve
    enumeration_cap: int = 12          # exhaustive small-group enumeration
    classify_primes: tuple[int, ...] = (2, 3, 5, 7, 11, 13)
    jobs: int = 1
    output_format: str = "text"        # "text" | "structured"

    def __post_init__(self) -> None:
        for name in self._fields:
            if name.endswith("_cap") and getattr(self, name) <= 0:
                raise ValidationError(f"cap {name} must be positive")
        if self.jobs < 1:
            raise ValidationError("jobs must be >= 1")
        if self.output_format not in ("text", "structured"):
            raise ValidationError(f"unknown output format {self.output_format!r}")


DEFAULT_CONFIG = Config()

_INT_KEYS = {name for name, kind in Config.__annotations__.items() if kind == "int"}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key == "classify_primes":
        return tuple(int(tok) for tok in raw.replace(",", " ").split())
    if key in _INT_KEYS:
        return int(raw)
    return raw


def parse_config_text(text: str, base: Config = DEFAULT_CONFIG) -> Config:
    """Parse ``key = value`` lines into a Config derived from *base*."""
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"config line {lineno}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in Config._fields:
            raise ParseError(f"config line {lineno}: unknown key {key!r}")
        try:
            updates[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ParseError(f"config line {lineno}: bad value for {key}: {exc}") from exc
    return base.replace(**updates)


def load_config(path: str | os.PathLike | None = None) -> Config:
    """Resolve the effective config from defaults, env var, and file."""
    if path is None:
        env = os.environ.get(CONFIG_ENV_VAR)
        if env:
            path = env
        elif Path(CONFIG_FILE_NAME).is_file():
            path = CONFIG_FILE_NAME
    if path is None:
        return DEFAULT_CONFIG
    return parse_config_text(read_text_file(path))
