"""coqatoo: natural-language rendering of Coq proof scripts."""

from __future__ import annotations

from .diagnostics import CoqatooError, Diagnostic, Severity
from .goal_parser import Hypothesis, ProofState, parse_state
from .rewriter import OutputMode, TemplateSet, load_templates, render, rewrite_step
from .script_parser import ItemKind, Script, ScriptItem, detect_unsupported, parse_script, tokenize_script
from .state_provider import SessionTrace, TraceStep, record_session, run_live, run_replay
from .diff_engine import Classification, StateDiff, classify_bindings, diff_states
from .tree_builder import ProofNode, build_tree, to_dot

__version__ = "0.1.0"

__all__ = [
    "CoqatooError", "Diagnostic", "Severity",
    "Hypothesis", "ProofState", "parse_state",
    "OutputMode", "TemplateSet", "load_templates", "render", "rewrite_step",
    "ItemKind", "Script", "ScriptItem", "detect_unsupported", "parse_script", "tokenize_script",
    "SessionTrace", "TraceStep", "record_session", "run_live", "run_replay",
    "Classification", "StateDiff", "classify_bindings", "diff_states",
    "ProofNode", "build_tree", "to_dot",
]
