"""Per-tactic rewriting rules and output rendering.

`RULES` is the one table of tactics: it maps a tactic head to the rule
that explains it and the template keys that rule fills.  The script
parser warns about any head without a row, and `rewrite_step` looks the
head up there.

Sentence templates live in data files (templates/<lang>.properties) so
wording can change, or a new language can be added, without touching
code.  `load_templates` requires every language to define each key of
`REQUIRED_KEYS` (the table's keys plus those `render` fills) and to use
only the placeholders in `ALLOWED_PLACEHOLDERS`; further keys are allowed.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .diagnostics import CoqatooError, decode_utf8, error, warning
from .diff_engine import Classification, classify_bindings, is_heuristic
from .goal_parser import FINISHED_MARKERS, SUBGOAL_HEADER, ProofState, normalize_text
from .tree_builder import AnalyzedStep, ProofNode, walk

REFERENCE_LANGUAGE = "en"

ALLOWED_PLACEHOLDERS = {"list", "type", "goal", "hyp", "consequent", "antecedents"}

_PLACEHOLDER = re.compile(r"\{(\w+)\}")
_SENTENCE_SPLIT = re.compile(r"(?<=\.)\s+")


class AnnotationKind(Enum):
    EXPLAIN = "explain"
    OMITTED = "omitted"


class OutputMode(Enum):
    ANNOTATED = "annotated"
    PLAIN = "plain"
    LATEX = "latex"


# sentences: tuple; kind: AnnotationKind; diagnostics: Tuple[Diagnostic, ...]
Annotation = namedtuple("Annotation", "sentences kind diagnostics", defaults=(AnnotationKind.EXPLAIN, ()))


class TemplateSet(namedtuple("TemplateSet", "language entries")):
    """language: str; entries: Mapping[str, str]."""
    __slots__ = ()

    def fill(self, key: str, **values: str) -> str:
        if key not in self.entries:
            raise CoqatooError(error("TEMPLATE_MISSING_KEY",
                                     f"template key {key!r} missing for language {self.language!r}"))
        template = self.entries[key]
        if len(values) == 1:
            # the pattern maps a placeholder without a value to itself, so one value is one replace
            (name, value), = values.items()
            return template.replace(f"{{{name}}}", value)
        return _PLACEHOLDER.sub(lambda m: values.get(m.group(1), m.group(0)), template)

    def join(self, parts: Sequence[str]) -> str:
        """Build "A, B and C" with the language's joiner word."""
        parts = list(parts)
        if len(parts) <= 1:
            return "".join(parts)
        joiner = self.entries["list.joiner"]
        return ", ".join(parts[:-1]) + f" {joiner} " + parts[-1]


def _parse_properties(path: Path) -> Dict[str, str]:
    entries: Dict[str, str] = {}
    for line in decode_utf8(path.read_bytes(), str(path), "TEMPLATE_PARSE").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CoqatooError(error("TEMPLATE_PARSE", f"line without '=' in {path.name}: {line!r}"))
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def load_templates(directory: Optional[str] = None, language: str = REFERENCE_LANGUAGE) -> TemplateSet:
    """Load one language's templates, checking completeness and placeholders."""
    base = Path(directory) if directory else Path(__file__).parent / "templates"
    path = base / f"{language}.properties"
    if not path.is_file():
        raise CoqatooError(error("TEMPLATE_MISSING_KEY",
                                 f"no template file for language {language!r} in {base}"))
    entries = _parse_properties(path)
    missing = sorted(REQUIRED_KEYS - entries.keys())
    if missing:
        raise CoqatooError(error("TEMPLATE_MISSING_KEY",
                                 f"template key {missing[0]!r} missing for language {language!r}"))
    for key, value in entries.items():
        for placeholder in _PLACEHOLDER.findall(value):
            if placeholder not in ALLOWED_PLACEHOLDERS:
                raise CoqatooError(error("TEMPLATE_BAD_PLACEHOLDER",
                                         f"unknown placeholder {{{placeholder}}} in key {key!r} ({language})"))
    return TemplateSet(language, entries)


def _sentences(text: str) -> tuple:
    return tuple(s for s in _SENTENCE_SPLIT.split(text.strip()) if s)


def split_implication(text: str) -> List[str]:
    """Split a normalized type on top-level "->", respecting brackets."""
    parts: List[str] = []
    depth = 0
    start = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif depth == 0 and text.startswith("->", i):
            parts.append(text[start:i].strip())
            i += 2
            start = i
            continue
        i += 1
    parts.append(text[start:].strip())
    return parts


def _binding_types(ctx: ProofState) -> Dict[str, str]:
    return {name: h.type_expr for h in ctx.hypotheses for name in h.names}


def _tactic_arg(command: str) -> Optional[str]:
    tokens = command.split()
    return tokens[1] if len(tokens) > 1 else None


def _extract_auto_trace(response_raw: str) -> List[str]:
    """Pull the tactic sequence out of an info_auto response; it ends at a
    blank line or where goal_parser sees a state start."""
    tactics: List[str] = []
    in_trace = False
    for line in response_raw.splitlines():
        stripped = line.strip()
        if re.match(r"\(\*\s*info\s+e?auto\s*:\s*\*\)", stripped):
            in_trace = True
            continue
        if in_trace:
            if not stripped or SUBGOAL_HEADER.match(stripped) or stripped.startswith(FINISHED_MARKERS):
                break
            tactic = stripped.rstrip(".")
            tactic = re.sub(r"\s*\(in \w+\)$", "", tactic)
            if tactic.startswith("simple "):
                tactic = tactic[len("simple "):]
            tactics.append(tactic)
    return tactics


def rewrite_step(step: AnalyzedStep, templates: TemplateSet) -> Annotation:
    """Produce the explanatory sentences for one executed tactic."""
    row = RULES.get(step.item.head)
    if row is not None:
        return row[0](step, templates)
    if step.diff.classification is Classification.BRANCH:
        return Annotation(())
    return Annotation((), AnnotationKind.OMITTED)


def _silent(step: AnalyzedStep, templates: TemplateSet) -> Annotation:
    return Annotation(())


def _rewrite_info_auto(step: AnalyzedStep, templates: TemplateSet) -> Annotation:
    """Explain each tactic that `auto`, run as info_auto, reports it used.

    A reported tactic without a row in RULES makes the annotation OMITTED,
    as that tactic would be if the script named it, and warns
    UNSUPPORTED_TACTIC with the span of the `auto`.
    """
    subs = [step.item._replace(text=sub + ".") for sub in _extract_auto_trace(step.after.raw)]
    # a reported auto or info_auto explains nothing; rewriting it would read this same trace again
    annotations = [rewrite_step(step._replace(item=sub), templates) for sub in subs
                   if sub.head not in ("auto", "info_auto")]
    unruled = [warning("UNSUPPORTED_TACTIC", f'no rewriting rule for tactic "{sub.head}", which auto used',
                       step.item.span)
               for sub in subs if sub.head not in RULES]
    return Annotation(tuple(s for a in annotations for s in a.sentences),
                      AnnotationKind.OMITTED if unruled else AnnotationKind.EXPLAIN,
                      tuple(d for a in annotations for d in a.diagnostics) + tuple(unruled))


def _rewrite_assumption(step: AnalyzedStep, templates: TemplateSet) -> Annotation:
    return Annotation(_sentences(templates.fill("assumption.default")))


def _rewrite_intros(step: AnalyzedStep, templates: TemplateSet) -> Annotation:
    variables, hypotheses = classify_bindings(step.diff.added, step.before)
    diagnostics = tuple(warning("HEURISTIC_CLASSIFICATION",
                                f"treating {', '.join(h.names)} : {h.type_expr} as a hypothesis", step.item.span)
                        for h in hypotheses if is_heuristic(h))
    # the goal the tactic leaves, unless it closed its goal or left an empty one
    goal = normalize_text(step.diff.subgoal_delta >= 0 and step.after.goals[0] or step.before.goals[0])
    var_names = [n for h in variables for n in h.names]
    hyp_types = sorted((h.type_expr for h in hypotheses for _ in h.names), key=len)
    if variables and hypotheses:
        key = ("intros.mixed" + ("_one_variable" if len(var_names) == 1 else "")
               + ("_one_hypothesis" if len(hyp_types) == 1 else ""))
        text = templates.fill(key,
                              list=templates.join(var_names),
                              type=variables[0].type_expr,
                              hyp=templates.join(hyp_types),
                              goal=goal)
    elif variables:
        key = "intros.variables" if len(var_names) > 1 else "intros.variables_one"
        text = templates.fill(key, list=templates.join(var_names),
                              type=variables[0].type_expr, goal=goal)
    elif hypotheses:
        key = "intros.hypotheses" if len(hyp_types) > 1 else "intros.hypotheses_one"
        text = templates.fill(key, list=templates.join(hyp_types), goal=goal)
    else:
        return Annotation(())
    return Annotation(_sentences(text), diagnostics=diagnostics)


def _rewrite_apply(step: AnalyzedStep, templates: TemplateSet) -> Annotation:
    arg = _tactic_arg(step.item.command)
    types = _binding_types(step.before)
    if arg is None or arg not in types:
        # applying a global constant is rendered silently
        return Annotation(())
    hyp_type = types[arg]
    segments = split_implication(hyp_type)
    if len(segments) < 2:
        return Annotation(())
    consequent = segments[-1]
    antecedents = segments[:-1]
    key = "apply.hypothesis_many" if len(antecedents) > 1 else "apply.hypothesis_one"
    text = templates.fill(key, hyp=hyp_type, consequent=consequent,
                          antecedents=templates.join(antecedents))
    return Annotation(_sentences(text))


def _rewrite_inversion(step: AnalyzedStep, templates: TemplateSet) -> Annotation:
    arg = _tactic_arg(step.item.command)
    types = _binding_types(step.before)
    subject = types.get(arg, arg or "")
    added_types = [h.type_expr for h in step.diff.added for _ in h.names]
    text = templates.fill("inversion.default", hyp=subject, list=", ".join(added_types))
    return Annotation(_sentences(text))


_INTROS_KEYS = ("intros.variables", "intros.variables_one", "intros.hypotheses", "intros.hypotheses_one",
                "intros.mixed", "intros.mixed_one_variable", "intros.mixed_one_hypothesis",
                "intros.mixed_one_variable_one_hypothesis")

# tactic head -> (rule, template keys the rule fills); `auto` reaches the
# prover as `info_auto` (ScriptItem.prover_text)
RULES: Dict[str, Tuple[Callable[..., Annotation], Tuple[str, ...]]] = {
    "intros": (_rewrite_intros, _INTROS_KEYS),
    "intro": (_rewrite_intros, _INTROS_KEYS),
    "split": (_silent, ()),
    "apply": (_rewrite_apply, ("apply.hypothesis_one", "apply.hypothesis_many")),
    "assumption": (_rewrite_assumption, ("assumption.default",)),
    "inversion": (_rewrite_inversion, ("inversion.default",)),
    "auto": (_rewrite_info_auto, ()),
    "info_auto": (_rewrite_info_auto, ()),
}

# the table's keys, the list joiner, and the keys `render` fills
REQUIRED_KEYS = {"list.joiner", "case.label", "plain.omitted"} | {k for _, keys in RULES.values() for k in keys}


def render(tree: ProofNode, annotations: Mapping[int, Annotation], mode: OutputMode,
           lemma: str, templates: TemplateSet) -> List[str]:
    """The lines of the annotated, plain-text or LaTeX version of the proof,
    each without its "\n"."""
    annotated, latex = mode is OutputMode.ANNOTATED, mode is OutputMode.LATEX
    lines = [normalize_text(lemma), "Proof."] if annotated else []
    for entering, node in walk(tree):
        if not entering:
            if latex and node.children:
                lines.append(r"\end{itemize}")
            continue
        indent = ""
        if node.case_goal is not None:
            label = templates.fill("case.label", goal=normalize_text(node.case_goal))
            if annotated:
                glyph = "-" * node.depth
                lines.append(f"{' ' * (2 * node.depth)}{glyph} (* {label} *)")
                indent = " " * (2 * node.depth + len(glyph) + 1)
            else:
                lines.append(r"\item \textbf{" + latex_escape(label) + "}" if latex else label)
        for step in node.steps:
            ann = annotations[step.item.seq]
            text = " ".join(ann.sentences) if ann.sentences else None
            if annotated:
                tactic = normalize_text(step.item.text)
                lines.append(f"{indent}{tactic}" if text is None else f"{indent}(* {text} *) {tactic}")
                continue
            if text is None and ann.kind is AnnotationKind.OMITTED:
                text = templates.fill("plain.omitted")
            if text is not None:
                lines.append(latex_escape(text) if latex else text)
        if latex and node.children:
            lines.append(r"\begin{itemize}")
    if annotated:
        lines.append("Qed.")
    if not lines:
        lines.append("")   # an empty body prints as one empty line
    if latex:
        lines.insert(0, r"\begin{proof}")
        lines.append(r"\end{proof}")
    return lines


_LATEX_SPECIALS = {
    "\\": r"\textbackslash{}",
    "{": r"\{", "}": r"\}",
    "_": r"\_", "%": r"\%", "&": r"\&", "#": r"\#", "$": r"\$",
    "~": r"\textasciitilde{}", "^": r"\textasciicircum{}",
}


def latex_escape(text: str) -> str:
    """`text` with each character of `_LATEX_SPECIALS` spelled as it says.

    One `str.replace` per special character.  A backslash first becomes a
    bare `\\textbackslash`, so that escaping the braces leaves its own `{}`
    out; they are added after.  No later escape holds a character escaped
    after it.
    """
    text = text.replace("\\", r"\textbackslash")
    for ch in "{}":
        text = text.replace(ch, _LATEX_SPECIALS[ch])
    text = text.replace(r"\textbackslash", _LATEX_SPECIALS["\\"])
    for ch in "_%&#$~^":
        text = text.replace(ch, _LATEX_SPECIALS[ch])
    return text
