"""Parser for coqtop's plain goal display.

Understands the "N subgoals" header, the hypothesis block above the
"====" separator, the focused goal below it, and trailing
"subgoal K is:" blocks.

Hypothesis types are stored normalized (wrapped lines joined, whitespace
runs collapsed), so later stages compare and print them as they are.
Goals are only joined: they are most of a long proof's bytes and few are
printed, so the stages that print or compare a goal normalize it there.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Dict, List, Optional, Tuple

from .diagnostics import CoqatooError, error

# where a state starts: its subgoal header, or a marker that the proof is finished
SUBGOAL_HEADER = re.compile(r"^\s*(\d+)\s+(?:focused\s+)?subgoals?\b", re.M)
FINISHED_MARKERS = ("No more subgoals", "Proof completed")
_SUBGOAL_K = re.compile(r"^\s*subgoal\s+(\d+)\s+is\s*:\s*$")
# a Coq identifier: a letter (Unicode ones too) or "_", then letters, digits, "_" and "'";
# the one definition every stage reads: IDENT.match() finds the name a text starts with
IDENT = re.compile(r"[^\W\d][\w']*")
_IDENT = re.compile(f"^{IDENT.pattern}$")   # match() checks a whole name
# where str.splitlines() breaks a line besides "\n"
_OTHER_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# below this length the normal-form check costs more than the split it saves
_SHORT_TEXT = 16


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
    if (len(text) < _SHORT_TEXT or "  " in text or text[0] == " " or text[-1] == " "
            or (("\n" in text or "\t" in text or "\r" in text or "\x0b" in text or "\x0c" in text
                 or "\x1c" in text or "\x1d" in text or "\x1e" in text or "\x1f" in text)
                if text.isascii() else not text.isprintable())):
        return " ".join(text.split())
    return text


# names: Tuple[str, ...]; type_expr: str
Hypothesis = namedtuple("Hypothesis", "names type_expr")
# subgoal_count: int; hypotheses: Tuple[Hypothesis, ...]; goals: Tuple[str, ...]; raw: str
ProofState = namedtuple("ProofState", "subgoal_count hypotheses goals raw")


def _parse_context(block: str) -> Tuple[Hypothesis, ...]:
    """Parse the "\n"-separated hypothesis lines above the separator.

    A line opens a hypothesis only when it is indented no deeper than the
    block's first hypothesis line and the text before its first " : " is
    a comma-separated identifier list; otherwise it is a wrapped
    continuation, which may itself contain " : " (as in a binder).
    """
    pending: List[Tuple[Tuple[str, ...], List[str]]] = []
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
        if sep and depth <= indent and all(_IDENT.match(n) for n in names):
            pending.append((names, [type_part]))
        elif pending:
            pending[-1][1].append(line)
        elif sep:
            raise CoqatooError(error("MALFORMED_HYP", f"cannot parse hypothesis names in: {line!r}"))
        else:
            raise CoqatooError(error("MALFORMED_HYP", f"hypothesis line without ' : ': {line!r}"))
    return tuple(Hypothesis(names, normalize_text(" ".join(parts))) for names, parts in pending)


def _find_separator(text: str) -> Tuple[int, int]:
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


def parse_state(raw: str, contexts: Optional[Dict[str, Tuple[Hypothesis, ...]]] = None) -> ProofState:
    """Parse one complete prover response block into a ProofState.

    `contexts` maps a hypothesis block's text to its parsed hypotheses.
    The caller owns it; a block already in it is not parsed again, so
    states with the same block share one `hypotheses` tuple.
    """
    m = SUBGOAL_HEADER.search(raw)
    # the proof is finished when a marker starts a line ahead of the first subgoal header
    head = raw[:m.start()] if m else raw
    if any(line.lstrip().startswith(FINISHED_MARKERS) for line in head.splitlines()):
        return ProofState(0, (), (), raw)
    if not m:
        raise CoqatooError(error("MALFORMED_STATE", "no subgoal header found in prover output"))
    count = int(m.group(1))
    text = raw[m.end():]
    if any(brk in text for brk in _OTHER_BREAKS):
        # one line break, so that find() sees the lines str.splitlines() sees
        text = "\n".join(text.splitlines())
    start, end = _find_separator(text)
    if start < 0:
        _parse_context(text)  # a bad hypothesis line is reported before the missing separator
        raise CoqatooError(error("MALFORMED_STATE", "missing ==== separator in prover output"))
    block = text[:start]
    if contexts is None:
        contexts = {}
    hyps = contexts.get(block)
    if hyps is None:
        hyps = contexts[block] = _parse_context(block)

    goals: List[str] = []
    current: List[str] = []
    for line in text[end + 1:].split("\n"):
        line = line.strip()
        if line.startswith("subgoal") and _SUBGOAL_K.match(line):
            goals.append(" ".join(current))
            current = []
        elif line:
            current.append(line)
    goals.append(" ".join(current))
    if len(goals) != count:
        raise CoqatooError(error(
            "MALFORMED_STATE",
            f"header announces {count} subgoal(s) but {len(goals)} goal block(s) found"))
    return ProofState(count, hyps, tuple(goals), raw)
