"""Glue: script + session trace -> diffs -> tree -> rendered proof."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .diagnostics import CoqatooError, Diagnostic, error
from .diff_engine import diff_states
from .rewriter import Annotation, OutputMode, TemplateSet, render, rewrite_step
from .script_parser import Script
from .state_provider import SessionTrace
from .tree_builder import AnalyzedStep, ProofNode, build_tree


def analyze_trace(script: Script, trace: SessionTrace) -> List[AnalyzedStep]:
    """Pair each tactic with the states around it and the resulting diff."""
    tactics = script.tactics
    if len(tactics) != len(trace.steps):
        raise CoqatooError(error("FIXTURE_MISMATCH",
                                 f"script has {len(tactics)} tactics but trace has {len(trace.steps)} steps"))
    states = trace.states()
    for item, before in zip(tactics, states):
        if before.subgoal_count == 0:
            raise CoqatooError(error("MALFORMED_TRACE", "tactic after the proof was complete", item.span))
    return [AnalyzedStep(item, states[i], states[i + 1], diff_states(states[i], states[i + 1]))
            for i, item in enumerate(tactics)]


def annotate_steps(steps: Sequence[AnalyzedStep], templates: TemplateSet) -> Dict[int, Annotation]:
    return {step.item.seq: rewrite_step(step, templates) for step in steps}


def build_proof_tree(script: Script, trace: SessionTrace) -> ProofNode:
    return build_tree(analyze_trace(script, trace))


def generate(script: Script, trace: SessionTrace, templates: TemplateSet,
             mode: OutputMode) -> Tuple[List[str], List[Diagnostic]]:
    """The rendered proof's lines, and the warnings its rewriting raised."""
    steps = analyze_trace(script, trace)
    tree = build_tree(steps)
    annotations = annotate_steps(steps, templates)
    diagnostics = [d for annotation in annotations.values() for d in annotation.diagnostics]
    return render(tree, annotations, mode, script.lemma.text, templates), diagnostics
