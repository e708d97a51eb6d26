"""Tokenizer for Coq vernacular proof scripts.

Splits a script into its sentences; comments, bullet glyphs and focus
braces end and separate sentences but are skipped.  A "." terminates a
sentence only when followed by whitespace or end of input, and never
inside a string or a comment, so qualified names survive.  Comments nest.
`parse_script` is the one place that reads a sentence's role from its
head and selects the lemma and the tactics the later stages run; they
take its `Script`, never the sentence list.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache

from .diagnostics import Diagnostic, CoqatooError, error, warning
from .goal_parser import IDENT

LEMMA_KEYWORDS = {"Lemma", "Theorem", "Corollary", "Fact", "Remark", "Proposition", "Example"}
PROOF_END_KEYWORDS = {"Qed", "Defined", "Admitted", "Save"}

# N:, N-M:, N, M:, all:, par:, !: and [name]: in front of a tactic
_SELECTOR = re.compile(r"(?:\d[\d\s,-]*|all|par|!|\[\s*[\w']+\s*\])\s*:(?!=)")
_NON_SPACE = re.compile(r"\S")
# what the scanners stop at: a string or comment opening, a comment end, ";"
# and a sentence-ending "."; regex \s is exactly str.isspace(), so a "." ends
# a sentence before whitespace or the end
_TOKENS = re.compile(r'"|\(\*|\*\)|;|\.(?=\s|\Z)')


class ScriptItem(namedtuple("ScriptItem", "text span")):
    """One sentence of the script, with its text as written.
    text: str; span: tuple[int, int]."""
    __slots__ = ()

    @property
    def command(self) -> str:
        return sentence_command(self.text)

    @property
    def head(self) -> str:
        return _head(self.text)

    @property
    def argument(self) -> str | None:
        """The command's second word, or None.  A comment separates words as a
        blank does, so `apply (* by H *) H` has the argument `H`; an
        unterminated one hides the rest."""
        command, words, i = self.command, [], 0
        try:
            while (at := _find_stop(command, i, "(*")) >= 0:
                words += command[i:at].split()
                i = _scan_comment(command, at)
            words += command[i:].split()
        except CoqatooError:
            pass
        return words[1] if len(words) > 1 else None

    @property
    def prover_text(self) -> str:
        """The text the prover runs: an `auto` is run as `info_auto`, which
        reports the tactics it used."""
        if "auto" in self.text and self.head == "auto":
            return self.text.replace("auto", "info_auto", 1)
        return self.text


def sentence_command(text: str) -> str:
    """A sentence's text without its final "." and its outer blanks."""
    return text[:-1].strip() if text.endswith(".") else text.strip()


@lru_cache(maxsize=1024)
def _head(text: str) -> str:
    """The tactic name a sentence starts with, or its whole command."""
    command = sentence_command(text)
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


def tokenize_script(source: str) -> list[ScriptItem]:
    """Tokenize a proof script into its sentences in document order.

    Raises CoqatooError with UNTERMINATED_COMMENT.
    """
    items: list[ScriptItem] = []
    n = len(source)
    at = _NON_SPACE.search(source)
    while at is not None:
        i = at.start()
        if source.startswith("(*", i):
            at = _NON_SPACE.search(source, _scan_comment(source, i))
            continue
        if source[i] in "-+*{}":
            glyph = source[i]
            focus = glyph in "{}"   # a brace is one glyph, and needs no blank after it
            j = i + 1
            while not focus and j < n and source[j] == glyph:
                j += 1
            if focus or j >= n or source[j].isspace():
                at = _NON_SPACE.search(source, j)
                continue
        stop = _find_stop(source, i, ".")
        j = n if stop < 0 else stop + 1
        items.append(ScriptItem(source[i:j], (i, j)))
        at = _NON_SPACE.search(source, j)
    return items


def _has_toplevel_semicolon(text: str) -> bool:
    try:
        return _find_stop(text, 0, ";") >= 0
    except CoqatooError:   # an unterminated comment hides the rest
        return False


def detect_unsupported(items: list[ScriptItem]) -> list[Diagnostic]:
    """Flag what the prover cannot be given one tactic at a time: chained
    tactics and goal selectors (fatal).  Whether a tactic can be explained
    is `rewrite_step`'s to say."""
    diags: list[Diagnostic] = []
    for it in items:
        text = it.text
        if ";" in text and _has_toplevel_semicolon(text):
            diags.append(error("UNSUPPORTED_CHAIN", f'chained tactics are not supported: "{it.command}"', it.span))
        elif ":" in text and _SELECTOR.match(text):   # every selector form ends in ":"
            diags.append(error("UNSUPPORTED_SELECTOR", f'goal selectors are not supported: "{it.command}"',
                               it.span))
    return diags


class Script(namedtuple("Script", "lemma tactics")):
    """The first lemma of a source file and the tactics of its proof.
    lemma: ScriptItem; tactics: tuple[ScriptItem, ...]."""
    __slots__ = ()


def parse_script(source: str) -> tuple[Script, list[Diagnostic]]:
    """Tokenize, keep the first lemma through its proof end, and check its
    tactics.  A sentence's role is its head: the lemma is the first sentence
    led by a lemma keyword, and its proof ends at the first proof-end keyword
    after it; every sentence in between not led by a lemma keyword or `Proof`
    is a tactic.

    One leading byte-order mark (U+FEFF) is dropped, so spans count from the
    character after it.

    Raises CoqatooError with UNTERMINATED_COMMENT or NO_LEMMA.  The
    diagnostics returned are MULTIPLE_LEMMAS and detect_unsupported's.
    """
    sentences = tokenize_script(source.removeprefix("\ufeff"))
    heads = [it.head for it in sentences]
    start = next((i for i, head in enumerate(heads) if head in LEMMA_KEYWORDS), None)
    if start is None:
        raise CoqatooError(error("NO_LEMMA", "no lemma statement found in input"))
    end = next((i for i in range(start + 1, len(heads)) if heads[i] in PROOF_END_KEYWORDS), len(heads))
    diags: list[Diagnostic] = []
    rest = [it for it, head in zip(sentences[end:], heads[end:]) if head in LEMMA_KEYWORDS]
    if rest:
        diags.append(warning("MULTIPLE_LEMMAS", f"processing the first lemma only ({len(rest)} more ignored)",
                             rest[0].span))
    tactics = [it for it, head in zip(sentences[start + 1:end], heads[start + 1:end])
               if head not in LEMMA_KEYWORDS and head != "Proof"]
    diags += detect_unsupported(tactics)
    return Script(sentences[start], tuple(tactics)), diags
