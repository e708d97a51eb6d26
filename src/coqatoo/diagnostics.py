"""Diagnostics shared by every pipeline stage."""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from typing import Optional, Tuple


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class Diagnostic(namedtuple("Diagnostic", "severity message code span", defaults=(None,))):
    """severity: Severity; message, code: str; span: Optional[Tuple[int, int]]."""
    __slots__ = ()

    def format(self) -> str:
        loc = f" at {self.span[0]}..{self.span[1]}" if self.span else ""
        return f"{self.severity.value}[{self.code}]{loc}: {self.message}"


class CoqatooError(Exception):
    """Raised by pipeline stages when an Error diagnostic aborts them."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.format())
        self.diagnostic = diagnostic


def error(code: str, message: str, span: Optional[Tuple[int, int]] = None) -> Diagnostic:
    return Diagnostic(Severity.ERROR, message, code, span)


def warning(code: str, message: str, span: Optional[Tuple[int, int]] = None) -> Diagnostic:
    return Diagnostic(Severity.WARNING, message, code, span)


def decode_utf8(data: bytes, name: str, code: str, offset: int = 0) -> str:
    """`data` as text; a byte that is not UTF-8 raises `code`, naming `name` and the byte's offset
    in `name`, where `data` starts at `offset`."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CoqatooError(error(code, f"{name} is not valid UTF-8: byte 0x{data[exc.start]:02x} "
                                       f"at offset {offset + exc.start} ({exc.reason})")) from None
