"""State diffing: what did one tactic change between two proof states."""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from typing import List, Sequence, Tuple

from .goal_parser import _IDENT, Hypothesis, ProofState

SORT_KEYWORDS = {"Prop", "Set", "Type"}


class Classification(Enum):
    INTRO = "intro"
    BRANCH = "branch"
    CLOSE = "close"
    TRANSFORM = "transform"


# added: Tuple[Hypothesis, ...]; subgoal_delta: int; classification: Classification
StateDiff = namedtuple("StateDiff", "added subgoal_delta classification")


def _binding_set(state: ProofState):
    return {(name, h.type_expr) for h in state.hypotheses for name in h.names}


def _only_new(hyps: Sequence[Hypothesis], present) -> Tuple[Hypothesis, ...]:
    out = []
    for h in hyps:
        names = tuple(n for n in h.names if (n, h.type_expr) not in present)
        if names:
            out.append(Hypothesis(names, h.type_expr))
    return tuple(out)


def diff_states(before: ProofState, after: ProofState) -> StateDiff:
    """Diff two consecutive states of the focused goal."""
    delta = after.subgoal_count - before.subgoal_count
    if before.hypotheses == after.hypotheses:
        # the common case, a tactic that leaves the context as it was;
        # states parsed together share the tuple, so this compares pointers
        added = ()
    else:
        added = _only_new(after.hypotheses, _binding_set(before))
    if delta >= 1:
        classification = Classification.BRANCH
    elif delta <= -1:
        classification = Classification.CLOSE
    else:
        classification = Classification.INTRO if added else Classification.TRANSFORM
    return StateDiff(added, delta, classification)


def classify_bindings(added: Sequence[Hypothesis],
                      before: ProofState) -> Tuple[List[Hypothesis], List[Hypothesis]]:
    """Partition introduced bindings into (variables, hypotheses).

    A binding is a variable when its type is a sort keyword, or an
    identifier bound in the prior context as a Set/Type variable
    (i.e. the new binding is an element of that type, not a proof).
    Everything else is a proof hypothesis.
    """
    type_vars = {name for h in before.hypotheses if h.type_expr in {"Set", "Type"} for name in h.names}
    variables: List[Hypothesis] = []
    hypotheses: List[Hypothesis] = []
    for h in added:
        if h.type_expr in SORT_KEYWORDS or h.type_expr in type_vars:
            variables.append(h)
        else:
            hypotheses.append(h)
    return variables, hypotheses


def is_heuristic(h: Hypothesis) -> bool:
    """True when classify_bindings calls h a hypothesis only by default:
    its type is neither an identifier nor built from a logical connective."""
    t = h.type_expr
    return not (_IDENT.match(t.replace(" ", ""))
                or any(op in t for op in ("->", "/\\", "\\/", "<->", "~", "=", "forall", "exists")))
