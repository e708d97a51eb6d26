"""Parser for coqtop's plain goal display.

Understands the "N subgoals" header, the hypothesis block above the
"====" separator, the focused goal below it, and trailing
"subgoal K is:" blocks.  Goal and type texts are kept verbatim apart
from line joining; comparisons normalize whitespace runs.
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


def _parse_hypothesis_line(line: str, hyps: List[Hypothesis], raw: str) -> None:
    if " : " in line:
        names_part, type_part = line.split(" : ", 1)
        names = tuple(n.strip() for n in names_part.split(","))
        if not names or not all(_IDENT.match(n) for n in names):
            raise CoqatooError(error("MALFORMED_HYP", f"cannot parse hypothesis names in: {line!r}"))
        hyps.append(Hypothesis(names, type_part.strip()))
    elif hyps:
        # wrapped type continuation
        prev = hyps.pop()
        hyps.append(Hypothesis(prev.names, prev.type_expr + " " + line.strip()))
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

    hyps: List[Hypothesis] = []
    idx = 0
    saw_separator = False
    while idx < len(lines):
        line = lines[idx]
        idx += 1
        if _SEPARATOR.match(line):
            saw_separator = True
            break
        if not line.strip():
            continue
        _parse_hypothesis_line(line, hyps, raw)
    if not saw_separator:
        raise CoqatooError(error("MALFORMED_STATE", "missing ==== separator in prover output"))

    goals: List[str] = []
    current: List[str] = []
    for line in lines[idx:]:
        k = _SUBGOAL_K.match(line)
        if k:
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
    return ProofState(count, tuple(hyps), tuple(goals), raw)


def equal_states(a: ProofState, b: ProofState) -> bool:
    """Structural equality modulo whitespace normalization."""
    if a.subgoal_count != b.subgoal_count:
        return False
    if tuple(normalize_text(g) for g in a.goals) != tuple(normalize_text(g) for g in b.goals):
        return False
    ah = [(h.names, normalize_text(h.type_expr)) for h in a.hypotheses]
    bh = [(h.names, normalize_text(h.type_expr)) for h in b.hypotheses]
    return ah == bh
