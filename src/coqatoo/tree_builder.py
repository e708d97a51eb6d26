"""Proof tree reconstruction from the linear (tactic, state) trace.

Simulates the prover's goal stack from the goal counts alone: a tactic
that leaves k more goals than it found branches and opens k + 1 child
nodes, one that leaves fewer closes its case and pops back to the nearest
ancestor that still has unfilled children.  A node holds only its steps
and children: its depth is counted from `walk`'s events, and its case
goal is the focused goal its first step starts from.

Each tactic starts from the goals the last one left and acts on the first
alone, so the rest must end the goal list it leaves, unchanged: a tactic
that closes two goals at once is malformed.  A goal with an evar (`?`),
which a tactic on another goal may fill, may change.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .diagnostics import CoqatooError, error
from .goal_parser import normalize_text

# one tactic: its item: ScriptItem, the states around it, before and after: ProofState,
# and the hypotheses it added: tuple[Hypothesis, ...]
AnalyzedStep = namedtuple("AnalyzedStep", "item before after added")


class ProofNode:
    """One case of the proof: its tactics in order, then its sub-cases."""
    __slots__ = ("steps", "children")

    def __init__(self):
        self.steps: list[AnalyzedStep] = []
        self.children: list[ProofNode] = []


def build_tree(steps: Sequence[AnalyzedStep]) -> ProofNode:
    """Rebuild the proof tree; raises INCOMPLETE_PROOF / MALFORMED_TRACE."""
    if not steps:
        raise CoqatooError(error("INCOMPLETE_PROOF", "no tactics were executed"))
    goals = steps[0].before.goals   # the goals the last step left: the next one starts from them
    if len(goals) > 1:
        raise CoqatooError(error("MALFORMED_TRACE", f"the proof starts with {len(goals)} goals", steps[0].item.span))
    root = current = ProofNode()
    parents: list[ProofNode] = []   # the parent of each case still to open, the next one last

    for step in steps:
        before, after = step.before.goals, step.after.goals
        if not goals:
            raise CoqatooError(error("MALFORMED_TRACE", "tactic after the proof was complete", step.item.span))
        # analyze_trace hands each step the state object the last one left, so this compares pointers
        if before is not goals and before != goals:
            raise CoqatooError(error("MALFORMED_TRACE", "the tactic does not start where the last one ended", step.item.span))
        delta = len(after) - len(before)
        # the goals behind the focused one, if any, end `after` as they were, in the common case as the same text
        if (len(before) > 1 and before[1:] != after[delta + 1:]
                and (changed := _changed_goal(before, after)) is not None):
            raise CoqatooError(error("MALFORMED_TRACE", f"goal {changed!r}, which the tactic does not "
                                     "focus, was changed or closed", step.item.span))
        current.steps.append(step)
        goals = after
        if delta > 0:
            parents += [current] * delta
            parent = current
        elif not delta or not parents:   # a step within the case, or the close of the last case
            continue
        else:
            parent = parents.pop()
        current = ProofNode()
        parent.children.append(current)

    if goals:
        raise CoqatooError(error("INCOMPLETE_PROOF", f"proof ends with {len(goals)} open subgoal(s)"))
    return root


def _changed_goal(before: tuple[str, ...], after: tuple[str, ...]) -> str | None:
    """The first goal behind the focused one in `before` that is not in its
    place at the end of `after`, normalized, or None: `before[1:]` must be a
    suffix of `after`, whitespace aside, but a goal with an evar may change."""
    offset = len(after) - len(before)
    for i in range(1, len(before)):
        goal, j = before[i], i + offset
        if j < 0 or (goal != after[j] and "?" not in goal
                     and normalize_text(goal) != normalize_text(after[j])):
            return normalize_text(goal)
    return None


def walk(root: ProofNode) -> list[tuple[bool, ProofNode]]:
    """(True, node) on entering each node in pre-order, (False, node) after its subtree.

    `_visit` is the only code that recurses over `children`, one Python frame
    per tree level, so every output breaks at the same depth.
    """
    events: list[tuple[bool, ProofNode]] = []
    _visit(root, events)
    return events


def _visit(node: ProofNode, events: list[tuple[bool, ProofNode]]) -> None:
    events.append((True, node))
    for child in node.children:
        _visit(child, events)
    events.append((False, node))


def to_dot(root: ProofNode) -> list[str]:
    """The lines of the tree as a DOT digraph for debugging, each without its "\n"."""
    lines = ["digraph proof {", "  node [shape=box];"]
    open_ids: list[int] = []   # ids of the nodes entered and not yet left
    count = 0
    for entering, node in walk(root):
        if not entering:
            nid = open_ids.pop()
            if open_ids:
                lines.append(f"  n{open_ids[-1]} -> n{nid};")
            continue
        first = node.steps[0]   # every node build_tree makes has one; below the root, it focuses the case goal
        case = f"\\ncase: {normalize_text(first.before.goals[0])}" if open_ids else ""
        label = (normalize_text(first.item.command) + case).replace('"', '\\"')
        lines.append(f'  n{count} [label="{label}"];')
        open_ids.append(count)
        count += 1
    lines.append("}")
    return lines
