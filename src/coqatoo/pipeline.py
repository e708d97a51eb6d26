"""Glue: script + session trace -> diffs -> tree -> rendered proof."""

from __future__ import annotations

from typing import List, Tuple

from .diagnostics import CoqatooError, Diagnostic, error
from .goal_parser import Hypothesis, ProofState
from .rewriter import OutputMode, TemplateSet, render, rewrite_step
from .script_parser import Script
from .state_provider import SessionTrace
from .tree_builder import AnalyzedStep, ProofNode, build_tree


def diff_states(before: ProofState, after: ProofState) -> Tuple[Hypothesis, ...]:
    """The bindings that one tactic added to the focused goal's context: those of `after` that `before` lacks."""
    if before.hypotheses == after.hypotheses:
        # the common case, a tactic that leaves the context as it was;
        # states parsed together share the tuple, so this compares pointers
        return ()
    present = set(before.hypotheses)
    return tuple(h for h in after.hypotheses if h not in present)


def analyze_trace(script: Script, trace: SessionTrace) -> List[AnalyzedStep]:
    """Pair each tactic with the states around it and the hypotheses it added."""
    tactics = script.tactics
    if len(trace.responses) != len(tactics) + 1:
        raise CoqatooError(error("FIXTURE_MISMATCH", f"trace has {len(trace.responses)} responses "
                                 f"for a lemma and {len(tactics)} tactics"))
    states = trace.states()
    return [AnalyzedStep(item, before, after, diff_states(before, after))
            for item, before, after in zip(tactics, states, states[1:])]


def build_proof_tree(script: Script, trace: SessionTrace) -> ProofNode:
    return build_tree(analyze_trace(script, trace))


def generate(script: Script, trace: SessionTrace, templates: TemplateSet,
             mode: OutputMode) -> Tuple[List[str], List[Diagnostic]]:
    """The rendered proof's lines, and the warnings its rewriting raised."""
    steps = analyze_trace(script, trace)
    tree = build_tree(steps)
    annotations = [rewrite_step(step, templates) for step in steps]   # in trace order, as render reads them
    diagnostics = [d for annotation in annotations for d in annotation.diagnostics]
    return render(tree, annotations, mode, script.lemma.text, templates), diagnostics
