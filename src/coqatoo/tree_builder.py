"""Proof tree reconstruction from the linear (tactic, state) trace.

Simulates the prover's goal stack from the goal counts alone: a tactic
that leaves k more goals than it found branches and opens k + 1 child
nodes, one that leaves fewer closes its case and pops back to the nearest
ancestor that still has unfilled children.  Bullet depth falls out of the
nesting.
"""

from __future__ import annotations

from collections import namedtuple
from typing import List, Optional, Sequence, Tuple

from .diagnostics import CoqatooError, error

# one tactic: its item: ScriptItem, the states around it, before and after: ProofState,
# and the hypotheses it added: Tuple[Hypothesis, ...]
AnalyzedStep = namedtuple("AnalyzedStep", "item before after added")


class ProofNode:
    """One case of the proof: its tactics in order, then its sub-cases."""
    __slots__ = ("depth", "case_goal", "steps", "children")

    def __init__(self, depth: int, case_goal: Optional[str] = None):
        self.depth = depth
        self.case_goal = case_goal
        self.steps: List[AnalyzedStep] = []
        self.children: List[ProofNode] = []


def build_tree(steps: Sequence[AnalyzedStep]) -> ProofNode:
    """Rebuild the proof tree; raises INCOMPLETE_PROOF / MALFORMED_TRACE."""
    if steps and len(steps[0].before.goals) > 1:
        raise CoqatooError(error("MALFORMED_TRACE", f"the proof starts with {len(steps[0].before.goals)} goals",
                                 steps[0].item.span))
    root = ProofNode(depth=0)
    current: Optional[ProofNode] = root
    parents: List[ProofNode] = []   # the parent of each case still to open, the next one last

    for step in steps:
        if current is None or not step.before.goals:
            raise CoqatooError(error("MALFORMED_TRACE", "tactic after the proof was complete", step.item.span))
        current.steps.append(step)
        delta = len(step.after.goals) - len(step.before.goals)
        if delta > 0:
            parents += [current] * delta
            parent = current
        elif not delta:
            continue
        elif not parents:
            current = None   # the last case is closed: the proof is done
            continue
        elif not step.after.goals:
            raise CoqatooError(error("MALFORMED_TRACE", "proof closed with a branch case unfilled",
                                     step.item.span))
        else:
            parent = parents.pop()
        current = ProofNode(depth=parent.depth + 1, case_goal=step.after.goals[0])
        parent.children.append(current)

    if steps and steps[-1].after.goals:
        raise CoqatooError(error("INCOMPLETE_PROOF",
                                 f"proof ends with {len(steps[-1].after.goals)} open subgoal(s)"))
    if not steps:
        raise CoqatooError(error("INCOMPLETE_PROOF", "no tactics were executed"))
    return root


def walk(root: ProofNode) -> List[Tuple[bool, ProofNode]]:
    """(True, node) on entering each node in pre-order, (False, node) after its subtree.

    `_visit` is the only code that recurses over `children`, one Python frame
    per tree level, so every output breaks at the same depth.
    """
    events: List[Tuple[bool, ProofNode]] = []
    _visit(root, events)
    return events


def _visit(node: ProofNode, events: List[Tuple[bool, ProofNode]]) -> None:
    events.append((True, node))
    for child in node.children:
        _visit(child, events)
    events.append((False, node))


def to_dot(root: ProofNode) -> List[str]:
    """The lines of the tree as a DOT digraph for debugging, each without its "\n"."""
    lines = ["digraph proof {", "  node [shape=box];"]
    open_ids: List[int] = []   # ids of the nodes entered and not yet left
    count = 0
    for entering, node in walk(root):
        if not entering:
            nid = open_ids.pop()
            if open_ids:
                lines.append(f"  n{open_ids[-1]} -> n{nid};")
            continue
        first = node.steps[0].item.command if node.steps else "(empty)"
        label = first if node.case_goal is None else f"{first}\\ncase: {node.case_goal}"
        label = label.replace('"', '\\"')
        lines.append(f'  n{count} [label="{label}"];')
        open_ids.append(count)
        count += 1
    lines.append("}")
    return lines
