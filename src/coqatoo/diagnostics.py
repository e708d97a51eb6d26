"""Diagnostics shared by every pipeline stage.

Each input (the script, a fixture, a template file) is read as bytes, where
a failure is IO (exit 2) but for a missing template file, and decoded
strictly by `decode_utf8` under the name its diagnostics use (`standard
input` for `-`).
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class Diagnostic(namedtuple("Diagnostic", "severity message code span", defaults=(None,))):
    """severity: Severity; message, code: str; span: tuple[int, int] | None."""
    __slots__ = ()

    def format(self) -> str:
        """The diagnostic as one line: each line break of the message, as `str.splitlines`
        breaks lines, prints as one space together with the blanks around it."""
        loc = f" at {self.span[0]}..{self.span[1]}" if self.span else ""
        lines = self.message.splitlines()
        lines[1:] = map(str.lstrip, lines[1:])
        lines[:-1] = map(str.rstrip, lines[:-1])
        return f"{self.severity.value}[{self.code}]{loc}: {' '.join(lines)}"


class CoqatooError(Exception):
    """Raised by pipeline stages when an Error diagnostic aborts them."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.format())
        self.diagnostic = diagnostic


def error(code: str, message: str, span: tuple[int, int] | None = None) -> Diagnostic:
    return Diagnostic(Severity.ERROR, message, code, span)


def warning(code: str, message: str, span: tuple[int, int] | None = None) -> Diagnostic:
    return Diagnostic(Severity.WARNING, message, code, span)


def decode_utf8(data: bytes, name: str, code: str, offset: int = 0) -> str:
    """`data` as text; a byte that is not UTF-8 raises `code`, naming `name` and the byte's offset
    in `name`, where `data` starts at `offset`."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CoqatooError(error(code, f"{name} is not valid UTF-8: byte 0x{data[exc.start]:02x} "
                                       f"at offset {offset + exc.start} ({exc.reason})")) from None
