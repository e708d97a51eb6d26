"""coqatoo: natural-language rendering of Coq proof scripts.

The pipeline: `parse_script` -> a state provider (`run_live`, or
`run_replay` of a `.cqtrace`) -> `parse_state` -> `diff_states` ->
`build_tree` -> `rewrite_step` -> `render` or `to_dot`.  Each input is
parsed once, where it enters, and later stages use what the parser returned.

The records are `collections.namedtuple`s, immutable and compared by value;
one with methods subclasses its tuple with `__slots__ = ()`.  No module
imports `typing`, `pathlib` or `dataclasses`.  Annotations are written with
builtin generics (`list[str]`, `str | None`), `Callable` and `Sequence` come
from `collections.abc` and stream types from `io`, and every module takes
`from __future__ import annotations`, so an import evaluates no annotation.
A cache is a bounded `lru_cache` on the module-level function of the one
text it speeds up, so a later run in the same process prints what a fresh
process prints.
"""

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
