"""Parser for coqtop's plain goal display, the one module that knows the prover's wording.

Understands the "N subgoals" header, the hypothesis block above the
"====" separator, the focused goal below it, and trailing
"subgoal K is:" blocks; ahead of the header, a finished proof's marker
and the "(* info auto: *)" report of the tactics an `auto` used.

Hypothesis types are stored normalized (wrapped lines joined, whitespace
runs collapsed), so later stages compare and print them as they are.
Goals are only joined: they are most of a long proof's bytes and few are
printed, so the stages that print or compare a goal normalize it there.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache

from .diagnostics import CoqatooError, error

# where a state starts: its subgoal header, or a marker that the proof is finished
SUBGOAL_HEADER = re.compile(r"^\s*(\d+)\s+(?:focused\s+)?subgoals?\b", re.M)
FINISHED_MARKERS = ("No more subgoals", "Proof completed")
# a line that starts with one of these reports that the prover rejected the sentence
FAILURE_MARKERS = ("Error", "Toplevel input")
# the line that opens an info_auto report, then the hint database that ends a reported command
_AUTO_REPORT = re.compile(r"\(\*\s*info\s+e?auto\s*:\s*\*\)")
_AUTO_DB = re.compile(r"\s*\(in \w+\)$")
# a "subgoal K is:" line, from the line break ahead of it, which ends the goal above it
_SUBGOAL_K = re.compile(r"\n[^\S\n]*subgoal[^\S\n]+\d+[^\S\n]+is[^\S\n]*:[^\S\n]*(?=\n|\Z)")
# a Coq identifier: a letter (Unicode ones too) or "_", then letters, digits, "_" and "'";
# the one definition every stage reads: match() finds the name a text starts with, fullmatch() checks one
IDENT = re.compile(r"[^\W\d][\w']*")


def normalize_text(text: str) -> str:
    """Collapse all whitespace runs to single spaces and strip the ends:
    `" ".join(text.split())`.

    Text already in that form comes back as it is, without a split: text
    whose only blank is " " is in normal form when it has no double space
    and no blank at either end.  ASCII text is searched for the nine other
    ASCII blanks, one `in` each, which is faster than `isprintable()`;
    other text must be printable, since " " is the only whitespace that
    `str.isprintable()` accepts.
    """
    if ("  " in text or text[:1] == " " or text[-1:] == " "
            or (("\n" in text or "\t" in text or "\r" in text or "\x0b" in text or "\x0c" in text
                 or "\x1c" in text or "\x1d" in text or "\x1e" in text or "\x1f" in text)
                if text.isascii() else not text.isprintable())):
        return " ".join(text.split())
    return text


# one binding of the context: name: str; type_expr: str
Hypothesis = namedtuple("Hypothesis", "name type_expr")
# hypotheses: tuple[Hypothesis, ...]; goals: tuple[str, ...];
# auto: tuple[str, ...], the commands of an info_auto report, each without "simple ", "(in <db>)" or "."
ProofState = namedtuple("ProofState", "hypotheses goals auto")


@lru_cache(maxsize=256)
def _parse_context(block: str) -> tuple[Hypothesis, ...]:
    """Parse the "\n"-separated hypothesis lines above the separator into one
    binding per name, in display order: `P, Q : Prop` gives two of type `Prop`.

    A line opens a hypothesis only when it is indented no deeper than the
    block's first hypothesis line and the text before its first " : " is
    a comma-separated identifier list; otherwise it is a wrapped
    continuation, which may itself contain " : " (as in a binder).
    Cached by the block's text: the states that print one block share its tuple.
    """
    pending: list[tuple[tuple[str, ...], list[str]]] = []
    indent = -1
    for line in block.split("\n"):
        text = line.lstrip()
        if not text:
            continue
        depth = len(line) - len(text)
        if indent < 0:
            indent = depth
        names_part, sep, type_part = line.partition(" : ")
        names = tuple(n.strip() for n in names_part.split(","))
        if sep and depth <= indent and all(IDENT.fullmatch(n) for n in names):
            pending.append((names, [type_part]))
        elif pending:
            pending[-1][1].append(line)
        elif sep:
            raise CoqatooError(error("MALFORMED_HYP", f"cannot parse hypothesis names in: {line!r}"))
        else:
            raise CoqatooError(error("MALFORMED_HYP", f"hypothesis line without ' : ': {line!r}"))
    return tuple(Hypothesis(name, type_expr) for names, parts in pending
                 for type_expr in (normalize_text(" ".join(parts)),) for name in names)


def _find_separator(text: str) -> tuple[int, int]:
    """Start and end of the first line of `text` that is only "=" (four or
    more) between blanks, or (-1, -1)."""
    at = text.find("====")
    while at >= 0:
        start = text.rfind("\n", 0, at) + 1
        end = text.find("\n", at)
        if end < 0:
            end = len(text)
        if not text[start:end].strip().strip("="):
            return start, end
        at = text.find("====", end)
    return -1, -1


def parse_state(raw: str) -> ProofState:
    """Parse one complete prover response block into a ProofState.  States
    that print the same hypothesis block share one `hypotheses` tuple."""
    m = SUBGOAL_HEADER.search(raw)
    # the proof is finished when a marker starts a line ahead of the first subgoal header;
    # an info_auto report there ends at a blank line, a finished marker or the header
    head = raw[:m.start()] if m else raw
    auto: list[str] = []
    if head:
        report = None   # None ahead of the report, True within it, False after it
        for line in head.splitlines():
            text = line.strip()
            if text.startswith(FINISHED_MARKERS):
                return ProofState((), (), tuple(auto))
            if report:
                if not text:
                    report = False
                elif not _AUTO_REPORT.match(text):
                    auto.append(_AUTO_DB.sub("", text.rstrip(".")).removeprefix("simple "))
            elif report is None and _AUTO_REPORT.match(text):
                report = True
    if not m:
        raise CoqatooError(error("MALFORMED_STATE", "no subgoal header found in prover output"))
    count = int(m.group(1))
    text = raw[m.end():]
    # where str.splitlines() breaks a line besides "\n": six ASCII characters, and three
    # others that only a text that is not ASCII can hold
    if ("\r" in text or "\x0b" in text or "\x0c" in text or "\x1c" in text or "\x1d" in text or "\x1e" in text
            or not text.isascii() and ("\x85" in text or "\u2028" in text or "\u2029" in text)):
        # one line break, so that find() sees the lines str.splitlines() sees
        text = "\n".join(text.splitlines())
    start, end = _find_separator(text)
    if start < 0:
        _parse_context(text)  # a bad hypothesis line is reported before the missing separator
        raise CoqatooError(error("MALFORMED_STATE", "missing ==== separator in prover output"))
    hyps = _parse_context(text[:start])

    goal = text[end:].strip()
    if "\n" in goal or goal.startswith("subgoal"):   # lines to join, or a "subgoal K is:" line that ends a goal
        goals = tuple(map(_joined, _SUBGOAL_K.split(text[end:])))
    else:
        goals = (goal,)
    if len(goals) != count:
        raise CoqatooError(error(
            "MALFORMED_STATE",
            f"header announces {count} subgoal(s) but {len(goals)} goal block(s) found"))
    return ProofState(hyps, goals, tuple(auto))


def _joined(text: str) -> str:
    """The lines of a goal, stripped, the blank ones dropped, joined by " ".  A goal
    of one line is split by no str.split, which costs a step per character."""
    text = text.strip()
    return " ".join(filter(None, map(str.strip, text.split("\n")))) if "\n" in text else text
