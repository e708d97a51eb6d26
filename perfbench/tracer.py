"""Spans and counts recorded from outside the program.

The traced run calls `coqatoo.cli.main` in-process after replacing the
module-level names that the callers look up (for example `pipeline.render`,
which `pipeline.generate` calls through its own module globals) with thin
wrappers.  A name a later version no longer has is skipped, so its metric
reads 0 rather than the run failing.
"""

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Tuple

# (module, attribute as its caller looks it up, span name)
SPANNED = [
    ("script_parser", "tokenize_script", "script_parser.tokenize"),
    ("script_parser", "detect_unsupported", "script_parser.check"),
    ("script_parser", "preprocess_auto", "script_parser.check"),
    ("state_provider", "run_replay", "state_provider.replay"),
    ("state_provider", "run_live", "state_provider.live"),
    ("state_provider", "record_session", "state_provider.record"),
    ("state_provider", "parse_state", "goal_parser.parse"),
    ("pipeline", "generate", "pipeline"),
    ("pipeline", "build_proof_tree", "pipeline"),
    ("pipeline", "diff_states", "diff_engine.diff"),
    ("pipeline", "build_tree", "tree_builder.build"),
    ("pipeline", "rewrite_step", "rewriter.rewrite"),
    ("pipeline", "render", "rewriter.render"),
    ("cli", "load_templates", "rewriter.load_templates"),
    ("cli", "to_dot", "rewriter.render"),   # the render walk of --dot runs
]
ROOT_SPAN = "cli"


def _lookup(module: str, attr: str):
    try:
        mod = importlib.import_module(f"coqatoo.{module}")
    except ModuleNotFoundError:
        return None, None
    return mod, getattr(mod, attr, None)


@contextmanager
def patched(replacements: List[Tuple[object, str, Callable]]) -> Iterator[None]:
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, fn in replacements:
            setattr(mod, attr, fn)
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


@dataclass(slots=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int       # index into Tracer.spans, -1 for a root
    proof: str


@dataclass
class Tracer:
    """Keeps every span in memory; nothing is written until the run ends."""
    spans: List[Span] = field(default_factory=list)
    _open: List[int] = field(default_factory=list)
    _proof: str = ""

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self._proof))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _leave(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        self._open.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(index)
        return wrapper

    def replacements(self):
        out = []
        for module, attr, name in SPANNED:
            mod, fn = _lookup(module, attr)
            if fn is not None:
                out.append((mod, attr, self._wrap(name, fn)))
        return out

    def call(self, proof: str, fn: Callable, *args):
        """Run fn(*args) as the root span of one proof."""
        self._proof = proof
        index = self._enter(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._leave(index)

    def self_ns(self) -> List[int]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end_ns - s.start_ns for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end_ns - s.start_ns
        return own

    def totals(self, proofs) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(inclusive ms, self ms) per span name over the spans of `proofs`."""
        inclusive: Dict[str, float] = {}
        own: Dict[str, float] = {}
        for span, self_time in zip(self.spans, self.self_ns()):
            if span.proof in proofs:
                inclusive[span.name] = inclusive.get(span.name, 0.0) + (span.end_ns - span.start_ns) / 1e6
                own[span.name] = own.get(span.name, 0.0) + self_time / 1e6
        return inclusive, own

    def records(self) -> Iterator[dict]:
        for s in self.spans:
            yield {"name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                   "parent": s.parent, "proof": s.proof}


@dataclass
class Counts:
    """Work counts from a separate pass that takes no timings."""
    normalize_calls: int = 0
    states: int = 0
    hypotheses: int = 0
    raw_bytes: int = 0
    diffs: int = 0
    sentences: int = 0
    max_depth: int = 0

    def replacements(self):
        out = []
        _, normalize = _lookup("goal_parser", "normalize_text")
        if normalize is not None:
            def counted_normalize(text):
                self.normalize_calls += 1
                return normalize(text)
            for module in ("goal_parser", "state_provider", "diff_engine", "rewriter",
                           "tree_builder", "pipeline", "cli", "script_parser"):
                mod, fn = _lookup(module, "normalize_text")
                if fn is normalize:
                    out.append((mod, "normalize_text", counted_normalize))
        mod, parse = _lookup("state_provider", "parse_state")
        if parse is not None:
            def counted_parse(raw, *args, **kwargs):
                state = parse(raw, *args, **kwargs)
                self.states += 1
                self.raw_bytes += len(raw.encode("utf-8"))
                self.hypotheses += len(getattr(state, "hypotheses", ()))
                return state
            out.append((mod, "parse_state", counted_parse))
        mod, diff = _lookup("pipeline", "diff_states")
        if diff is not None:
            def counted_diff(*args, **kwargs):
                self.diffs += 1
                return diff(*args, **kwargs)
            out.append((mod, "diff_states", counted_diff))
        mod, rewrite = _lookup("pipeline", "rewrite_step")
        if rewrite is not None:
            def counted_rewrite(*args, **kwargs):
                annotation = rewrite(*args, **kwargs)
                self.sentences += len(getattr(annotation, "sentences", ()))
                return annotation
            out.append((mod, "rewrite_step", counted_rewrite))
        mod, build = _lookup("pipeline", "build_tree")
        if build is not None:
            def counted_build(*args, **kwargs):
                tree = build(*args, **kwargs)
                self.max_depth = max(self.max_depth, tree_depth(tree))
                return tree
            out.append((mod, "build_tree", counted_build))
        return out


def tree_depth(root) -> int:
    """Deepest node below `root`, walked without recursion."""
    best, todo = 0, [(root, 0)]
    while todo:
        node, depth = todo.pop()
        best = max(best, depth)
        todo.extend((child, depth + 1) for child in getattr(node, "children", ()))
    return best
