"""Tokenizer for Coq vernacular proof scripts.

Splits a script into lemma header, Proof/Qed markers, tactic sentences,
comments, bullet glyphs and focus braces.  A "." terminates a sentence
only when followed by whitespace or end of input, so qualified names
survive.  Comments nest.
`parse_script` is the one place that selects the lemma and the tactics
the later stages run; they take its `Script`, never the item list.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum
from typing import List, Tuple

from .diagnostics import Diagnostic, CoqatooError, error, warning
from .goal_parser import IDENT
from .rewriter import RULES


class ItemKind(Enum):
    LEMMA_HEADER = "lemma_header"
    PROOF_BEGIN = "proof_begin"
    TACTIC = "tactic"
    COMMENT = "comment"
    BULLET = "bullet"
    FOCUS = "focus"
    PROOF_END = "proof_end"


LEMMA_KEYWORDS = {"Lemma", "Theorem", "Corollary", "Fact", "Remark", "Proposition", "Example"}
PROOF_END_KEYWORDS = {"Qed", "Defined", "Admitted", "Save"}

# N:, N-M:, N, M:, all:, par:, !: and [name]: in front of a tactic
_SELECTOR = re.compile(r"(?:\d[\d\s,-]*|all|par|!|\[\s*[\w']+\s*\])\s*:(?!=)")
_NON_SPACE = re.compile(r"\S")
# what the scanners stop at: a string or comment opening, a comment end, ";"
# and a sentence-ending "."; regex \s is exactly str.isspace(), so a "." ends
# a sentence before whitespace or the end
_TOKENS = re.compile(r'"|\(\*|\*\)|;|\.(?=\s|\Z)')


class ScriptItem(namedtuple("ScriptItem", "kind text span seq")):
    """One item of the script, with its text as written.
    kind: ItemKind; text: str; span: Tuple[int, int]; seq: int."""
    __slots__ = ()

    @property
    def command(self) -> str:
        """Sentence text without the trailing terminator."""
        return self.text[:-1].strip() if self.text.endswith(".") else self.text.strip()

    @property
    def head(self) -> str:
        return _head(self.command)

    @property
    def prover_text(self) -> str:
        """The text the prover runs: an `auto` is run as `info_auto`, which
        reports the tactics it used."""
        if "auto" in self.text and self.head == "auto":
            return self.text.replace("auto", "info_auto", 1)
        return self.text


def _head(command: str) -> str:
    """The tactic name a command starts with, or the whole command."""
    m = IDENT.match(command)
    return m.group(0) if m else command


def _scan_comment(source: str, i: int) -> int:
    """Return index just past the comment opening at i; raises if unterminated."""
    depth = 0
    for m in _TOKENS.finditer(source, i):
        token = m.group()
        if token == "(*":
            depth += 1
        elif token == "*)":
            depth -= 1
            if depth == 0:
                return m.end()
    raise CoqatooError(error("UNTERMINATED_COMMENT", "comment opened here is never closed", (i, len(source))))


def _scan_string(source: str, i: int) -> int:
    """Skip a Coq string literal starting at the quote; "" escapes a quote."""
    i = source.find('"', i + 1)
    while i >= 0 and source.startswith('""', i):
        i = source.find('"', i + 2)
    return len(source) if i < 0 else i + 1


def _find_stop(source: str, i: int, stop: str) -> int:
    """Index of the first `stop` (";", or a "." that ends a sentence) at or
    after i that lies outside string literals and comments, or -1."""
    while True:
        m = _TOKENS.search(source, i)
        if m is None:
            return -1
        token = m.group()
        if token == stop:
            return m.start()
        if token == '"':
            i = _scan_string(source, m.start())
        elif token == "(*":
            i = _scan_comment(source, m.start())
        else:
            i = m.end()


def _classify(sentence: str) -> ItemKind:
    m = IDENT.match(sentence)
    word = m.group(0) if m else ""
    if word in LEMMA_KEYWORDS:
        return ItemKind.LEMMA_HEADER
    if word == "Proof":
        return ItemKind.PROOF_BEGIN
    if word in PROOF_END_KEYWORDS:
        return ItemKind.PROOF_END
    return ItemKind.TACTIC


def tokenize_script(source: str) -> List[ScriptItem]:
    """Tokenize a proof script into document-ordered items.

    Raises CoqatooError with UNTERMINATED_COMMENT or NO_LEMMA.
    """
    items: List[ScriptItem] = []
    n = len(source)
    at = _NON_SPACE.search(source)
    while at is not None:
        start = i = at.start()
        if source.startswith("(*", i):
            i = _scan_comment(source, i)
            items.append(ScriptItem(ItemKind.COMMENT, source[start:i], (start, i), len(items)))
            at = _NON_SPACE.search(source, i)
            continue
        if source[i] in "-+*{}":
            glyph = source[i]
            focus = glyph in "{}"   # a brace is one glyph, and needs no blank after it
            j = i + 1
            while not focus and j < n and source[j] == glyph:
                j += 1
            if focus or j >= n or source[j].isspace():
                kind = ItemKind.FOCUS if focus else ItemKind.BULLET
                items.append(ScriptItem(kind, source[start:j], (start, j), len(items)))
                at = _NON_SPACE.search(source, j)
                continue
        stop = _find_stop(source, i, ".")
        j = n if stop < 0 else stop + 1
        sentence = source[start:j]
        items.append(ScriptItem(_classify(sentence), sentence, (start, j), len(items)))
        at = _NON_SPACE.search(source, j)
    if not any(it.kind is ItemKind.LEMMA_HEADER for it in items):
        raise CoqatooError(error("NO_LEMMA", "no lemma statement found in input"))
    return items


def _has_toplevel_semicolon(text: str) -> bool:
    if ";" not in text:
        return False
    try:
        return _find_stop(text, 0, ";") >= 0
    except CoqatooError:   # an unterminated comment hides the rest
        return False


def detect_unsupported(items: List[ScriptItem]) -> List[Diagnostic]:
    """Flag chained tactics and goal selectors (fatal), and heads without a
    rewriting rule (warning)."""
    diags: List[Diagnostic] = []
    for it in items:
        if it.kind is not ItemKind.TACTIC:
            continue
        command = it.command
        if _has_toplevel_semicolon(it.text):
            diags.append(error("UNSUPPORTED_CHAIN", f'chained tactics are not supported: "{command}"', it.span))
        elif ":" in command and _SELECTOR.match(command):   # every selector form ends in ":"
            diags.append(error("UNSUPPORTED_SELECTOR", f'goal selectors are not supported: "{command}"', it.span))
        else:
            head = _head(command)
            if head not in RULES:
                diags.append(warning("UNSUPPORTED_TACTIC", f'no rewriting rule for tactic "{head}"', it.span))
    return diags


class Script(namedtuple("Script", "lemma tactics")):
    """The first lemma of a source file and the tactics of its proof.
    lemma: ScriptItem; tactics: Tuple[ScriptItem, ...]."""
    __slots__ = ()


def parse_script(source: str) -> Tuple[Script, List[Diagnostic]]:
    """Tokenize, keep the first lemma through its proof end, and check its
    tactics.

    Raises CoqatooError with UNTERMINATED_COMMENT or NO_LEMMA.  The
    diagnostics returned are MULTIPLE_LEMMAS and detect_unsupported's.
    """
    items = tokenize_script(source)
    start = next(i for i, it in enumerate(items) if it.kind is ItemKind.LEMMA_HEADER)
    end = next((i + 1 for i in range(start, len(items)) if items[i].kind is ItemKind.PROOF_END), len(items))
    diags: List[Diagnostic] = []
    rest = [it for it in items[end:] if it.kind is ItemKind.LEMMA_HEADER]
    if rest:
        diags.append(warning("MULTIPLE_LEMMAS", f"processing the first lemma only ({len(rest)} more ignored)",
                             rest[0].span))
    tactics = [it for it in items[start:end] if it.kind is ItemKind.TACTIC]
    diags += detect_unsupported(tactics)
    return Script(items[start], tuple(tactics)), diags
