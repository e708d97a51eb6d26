"""Tokenizer for Coq vernacular proof scripts.

Splits a script into lemma header, Proof/Qed markers, tactic sentences,
comments, bullet glyphs and focus braces.  A "." terminates a sentence
only when followed by whitespace or end of input, so qualified names
survive.  Comments nest.
`parse_script` is the one place that selects the lemma and the tactics
the later stages run; they take its `Script`, never the item list.
"""

import re
from enum import Enum
from typing import List, NamedTuple, Tuple

from .diagnostics import Diagnostic, CoqatooError, error, warning
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

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
# N:, N-M:, N, M:, all:, par:, !: and [name]: in front of a tactic
_SELECTOR = re.compile(r"(?:\d[\d\s,-]*|all|par|!|\[\s*[\w']+\s*\])\s*:(?!=)")


class _ScriptItemFields(NamedTuple):
    kind: ItemKind
    text: str
    span: Tuple[int, int]
    seq: int
    original: str = ""


class ScriptItem(_ScriptItemFields):
    """One item of the script; `original` is the text as written, and
    defaults to `text`."""
    __slots__ = ()

    def __new__(cls, kind: ItemKind, text: str, span: Tuple[int, int], seq: int, original: str = ""):
        return super().__new__(cls, kind, text, span, seq, original or text)

    @property
    def command(self) -> str:
        """Sentence text without the trailing terminator."""
        return self.text[:-1].strip() if self.text.endswith(".") else self.text.strip()

    @property
    def head(self) -> str:
        m = _IDENT.match(self.command)
        return m.group(0) if m else self.command


def _scan_comment(source: str, i: int) -> int:
    """Return index just past the comment opening at i; raises if unterminated."""
    start = i
    depth = 0
    n = len(source)
    while i < n:
        if source.startswith("(*", i):
            depth += 1
            i += 2
        elif source.startswith("*)", i):
            depth -= 1
            i += 2
            if depth == 0:
                return i
        else:
            i += 1
    raise CoqatooError(error("UNTERMINATED_COMMENT", "comment opened here is never closed", (start, n)))


def _scan_string(source: str, i: int) -> int:
    """Skip a Coq string literal starting at the quote; "" escapes a quote."""
    n = len(source)
    i += 1
    while i < n:
        if source[i] == '"':
            if i + 1 < n and source[i + 1] == '"':
                i += 2
                continue
            return i + 1
        i += 1
    return n


def _classify(sentence: str) -> ItemKind:
    m = _IDENT.match(sentence.lstrip())
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
    i = 0
    n = len(source)
    while i < n:
        if source[i].isspace():
            i += 1
            continue
        start = i
        if source.startswith("(*", i):
            i = _scan_comment(source, i)
            items.append(ScriptItem(ItemKind.COMMENT, source[start:i], (start, i), len(items)))
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
                i = j
                continue
        # scan one sentence up to "." followed by whitespace/EOF
        j = i
        while j < n:
            if source[j] == '"':
                j = _scan_string(source, j)
                continue
            if source.startswith("(*", j):
                j = _scan_comment(source, j)
                continue
            if source[j] == "." and (j + 1 >= n or source[j + 1].isspace()):
                j += 1
                break
            j += 1
        sentence = source[start:j]
        items.append(ScriptItem(_classify(sentence), sentence, (start, j), len(items)))
        i = j
    if not any(it.kind is ItemKind.LEMMA_HEADER for it in items):
        raise CoqatooError(error("NO_LEMMA", "no lemma statement found in input"))
    return items


def preprocess_auto(items: List[ScriptItem]) -> List[ScriptItem]:
    """Rewrite the head of every `auto` tactic to `info_auto`.

    The original text is kept on the item for round-trip rendering.
    Idempotent.
    """
    out = []
    for it in items:
        if it.kind is ItemKind.TACTIC and it.head == "auto":
            rewritten = it.text.replace("auto", "info_auto", 1)
            out.append(it._replace(text=rewritten))
        else:
            out.append(it)
    return out


def _has_toplevel_semicolon(text: str) -> bool:
    i = 0
    n = len(text)
    while i < n:
        if text[i] == '"':
            i = _scan_string(text, i)
        elif text.startswith("(*", i):
            try:
                i = _scan_comment(text, i)
            except CoqatooError:
                return False
        elif text[i] == ";":
            return True
        else:
            i += 1
    return False


def detect_unsupported(items: List[ScriptItem]) -> List[Diagnostic]:
    """Flag chained tactics and goal selectors (fatal), and heads without a
    rewriting rule (warning)."""
    diags: List[Diagnostic] = []
    for it in items:
        if it.kind is not ItemKind.TACTIC:
            continue
        if _has_toplevel_semicolon(it.text):
            diags.append(error("UNSUPPORTED_CHAIN", f'chained tactics are not supported: "{it.command}"', it.span))
        elif _SELECTOR.match(it.command):
            diags.append(error("UNSUPPORTED_SELECTOR", f'goal selectors are not supported: "{it.command}"', it.span))
        elif it.head not in RULES:
            diags.append(warning("UNSUPPORTED_TACTIC", f'no rewriting rule for tactic "{it.head}"', it.span))
    return diags


class Script(NamedTuple):
    """The first lemma of a source file and the tactics of its proof."""
    lemma: ScriptItem
    tactics: Tuple[ScriptItem, ...]


def parse_script(source: str) -> Tuple[Script, List[Diagnostic]]:
    """Tokenize, keep the first lemma through its proof end, check and
    preprocess its tactics.

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
    return Script(items[start], tuple(preprocess_auto(tactics))), diags
