"""coqatoo: natural-language rendering of Coq proof scripts."""

from __future__ import annotations

from .diagnostics import CoqatooError, Diagnostic, Severity
from .goal_parser import Hypothesis, ProofState, parse_state
from .pipeline import diff_states
from .rewriter import OutputMode, TemplateSet, classify_bindings, load_templates, render, rewrite_step
from .script_parser import Script, ScriptItem, detect_unsupported, parse_script, tokenize_script
from .state_provider import SessionTrace, record_session, run_live, run_replay
from .tree_builder import ProofNode, build_tree, to_dot

__version__ = "0.1.0"

__all__ = [
    "CoqatooError", "Diagnostic", "Severity",
    "Hypothesis", "ProofState", "parse_state",
    "OutputMode", "TemplateSet", "load_templates", "render", "rewrite_step",
    "Script", "ScriptItem", "detect_unsupported", "parse_script", "tokenize_script",
    "SessionTrace", "record_session", "run_live", "run_replay",
    "classify_bindings", "diff_states",
    "ProofNode", "build_tree", "to_dot",
]
