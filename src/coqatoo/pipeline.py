"""Glue: script items + session trace -> diffs -> tree -> rendered proof."""

from typing import Dict, List, Sequence

from .diagnostics import CoqatooError, error
from .diff_engine import diff_states
from .rewriter import Annotation, OutputMode, TemplateSet, render, rewrite_step
from .script_parser import ItemKind, ScriptItem
from .state_provider import SessionTrace
from .tree_builder import AnalyzedStep, ProofNode, build_tree


def analyze_trace(items: Sequence[ScriptItem], trace: SessionTrace) -> List[AnalyzedStep]:
    """Pair each tactic with the states around it and the resulting diff."""
    tactics = [it for it in items if it.kind is ItemKind.TACTIC]
    if len(tactics) != len(trace.steps):
        raise CoqatooError(error("FIXTURE_MISMATCH",
                                 f"script has {len(tactics)} tactics but trace has {len(trace.steps)} steps"))
    states = [trace.initial_state()] + [s.state_after() for s in trace.steps]
    for item, before in zip(tactics, states):
        if before.subgoal_count == 0:
            raise CoqatooError(error("MALFORMED_TRACE", "tactic after the proof was complete", item.span))
    return [AnalyzedStep(item, states[i], states[i + 1], diff_states(states[i], states[i + 1]))
            for i, item in enumerate(tactics)]


def annotate_steps(steps: Sequence[AnalyzedStep], templates: TemplateSet) -> Dict[int, Annotation]:
    return {step.item.seq: rewrite_step(step.item, step.diff, step.before, templates,
                                        response_raw=step.after.raw)
            for step in steps}


def lemma_text(items: Sequence[ScriptItem]) -> str:
    for it in items:
        if it.kind is ItemKind.LEMMA_HEADER:
            return it.original
    raise CoqatooError(error("NO_LEMMA", "no lemma statement found"))


def build_proof_tree(items: Sequence[ScriptItem], trace: SessionTrace) -> ProofNode:
    return build_tree(analyze_trace(items, trace))


def generate(items: Sequence[ScriptItem], trace: SessionTrace,
             templates: TemplateSet, mode: OutputMode) -> str:
    steps = analyze_trace(items, trace)
    tree = build_tree(steps)
    annotations = annotate_steps(steps, templates)
    return render(tree, annotations, mode, lemma_text(items), templates)
