"""Parser for coqtop's plain goal display.

Understands the "N subgoals" header, the hypothesis block above the
"====" separator, the focused goal below it, and trailing
"subgoal K is:" blocks.

Hypothesis types are stored normalized (wrapped lines joined, whitespace
runs collapsed), so later stages compare and print them as they are.
Goals are only joined: they are most of a long proof's bytes and few are
printed, so the stages that print or compare a goal normalize it there.
"""

import re
from dataclasses import dataclass
from typing import List, Tuple

from .diagnostics import CoqatooError, error

_HEADER = re.compile(r"^\s*(\d+)\s+(?:focused\s+)?subgoals?\b", re.M)
_SEPARATOR = re.compile(r"^\s*={4,}\s*$")
_SUBGOAL_K = re.compile(r"^\s*subgoal\s+(\d+)\s+is\s*:\s*$")
_NO_MORE = re.compile(r"No more subgoals|Proof completed")
_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_']*$")


def normalize_text(text: str) -> str:
    """Collapse all whitespace runs to single spaces."""
    return " ".join(text.split())


@dataclass(frozen=True)
class Hypothesis:
    names: Tuple[str, ...]
    type_expr: str


@dataclass(frozen=True)
class ProofState:
    subgoal_count: int
    hypotheses: Tuple[Hypothesis, ...]
    goals: Tuple[str, ...]
    raw: str


def _parse_hypothesis_line(line: str, pending: List[Tuple[Tuple[str, ...], List[str]]]) -> None:
    """Open a new (names, lines) entry, or continue the previous one.

    A line opens a hypothesis only when the text before its first " : "
    is a comma-separated identifier list; otherwise it is a wrapped
    continuation, which may itself contain " : " (as in a binder).
    """
    names_part, sep, type_part = line.partition(" : ")
    names = tuple(n.strip() for n in names_part.split(","))
    if sep and all(_IDENT.match(n) for n in names):
        pending.append((names, [type_part]))
    elif pending:
        pending[-1][1].append(line)
    elif sep:
        raise CoqatooError(error("MALFORMED_HYP", f"cannot parse hypothesis names in: {line!r}"))
    else:
        raise CoqatooError(error("MALFORMED_HYP", f"hypothesis line without ' : ': {line!r}"))


def parse_state(raw: str) -> ProofState:
    """Parse one complete prover response block into a ProofState."""
    if _NO_MORE.search(raw):
        return ProofState(0, (), (), raw)
    m = _HEADER.search(raw)
    if not m:
        raise CoqatooError(error("MALFORMED_STATE", "no subgoal header found in prover output"))
    count = int(m.group(1))
    lines = raw[m.end():].splitlines()

    pending: List[Tuple[Tuple[str, ...], List[str]]] = []
    for sep, line in enumerate(lines):
        if _SEPARATOR.match(line):
            break
        if line.strip():
            _parse_hypothesis_line(line, pending)
    else:
        raise CoqatooError(error("MALFORMED_STATE", "missing ==== separator in prover output"))
    hyps = tuple(Hypothesis(names, normalize_text(" ".join(parts))) for names, parts in pending)

    goals: List[str] = []
    current: List[str] = []
    for line in lines[sep + 1:]:
        if _SUBGOAL_K.match(line):
            goals.append(" ".join(current))
            current = []
            continue
        if line.strip():
            current.append(line.strip())
    goals.append(" ".join(current))
    if len(goals) != count:
        raise CoqatooError(error(
            "MALFORMED_STATE",
            f"header announces {count} subgoal(s) but {len(goals)} goal block(s) found"))
    return ProofState(count, hyps, tuple(goals), raw)


def equal_states(a: ProofState, b: ProofState) -> bool:
    """Structural equality modulo whitespace normalization."""
    return (a.subgoal_count == b.subgoal_count and a.hypotheses == b.hypotheses
            and tuple(normalize_text(g) for g in a.goals) == tuple(normalize_text(g) for g in b.goals))
