"""State diffing: what did one tactic change between two proof states."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .goal_parser import _IDENT, Hypothesis, ProofState

SORT_KEYWORDS = {"Prop", "Set", "Type"}


def diff_states(before: ProofState, after: ProofState) -> Tuple[Hypothesis, ...]:
    """The hypotheses that one tactic added to the context of the focused goal."""
    if before.hypotheses == after.hypotheses:
        # the common case, a tactic that leaves the context as it was;
        # states parsed together share the tuple, so this compares pointers
        return ()
    present = {(name, h.type_expr) for h in before.hypotheses for name in h.names}
    added = []
    for h in after.hypotheses:
        names = tuple(n for n in h.names if (n, h.type_expr) not in present)
        if names:
            added.append(Hypothesis(names, h.type_expr))
    return tuple(added)


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
