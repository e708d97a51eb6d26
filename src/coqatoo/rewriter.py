"""Per-tactic rewriting rules and output rendering.

`RULES` is the one table of tactics: it maps a tactic head to the rule
that explains it and the template keys that rule fills.  `rewrite_step`
looks each head up there, and is the one place that warns
UNSUPPORTED_TACTIC, for a head without a row.

Sentence templates live in data files (templates/<lang>.properties) so
wording can change, or a new language can be added, without touching
code.  `load_templates` requires every language to define each key of
`REQUIRED_KEYS` (the table's keys plus those `render` fills) and to use
only the placeholders in `ALLOWED_PLACEHOLDERS`; further keys are allowed.
"""

from __future__ import annotations

import os
import re
from collections import namedtuple
from collections.abc import Callable, Sequence
from enum import Enum
from functools import lru_cache

from .diagnostics import CoqatooError, decode_utf8, error, warning
from .goal_parser import IDENT, Hypothesis, ProofState, normalize_text
from .tree_builder import AnalyzedStep, ProofNode, walk

REFERENCE_LANGUAGE = "en"

ALLOWED_PLACEHOLDERS = {"list", "type", "goal", "hyp", "consequent", "antecedents"}

_PLACEHOLDER = re.compile(r"\{(\w+)\}")
_SENTENCE_SPLIT = re.compile(r"(?<=\.)\s+")
# a quantifier's scope runs to the end of the type, so its "->" are not top level
_BINDER = re.compile(r"\s*(?:forall|exists)(?![\w'])")


class OutputMode(Enum):
    ANNOTATED = "annotated"
    PLAIN = "plain"
    LATEX = "latex"


# sentences: tuple; diagnostics: tuple[Diagnostic, ...]
Annotation = namedtuple("Annotation", "sentences diagnostics", defaults=((),))
_SILENT = Annotation(())   # one for every rule that explains nothing


class TemplateSet(namedtuple("TemplateSet", "language entries")):
    """language: str; entries: Mapping[str, str]."""
    __slots__ = ()

    def fill(self, key: str, **values: str) -> str:
        if key not in self.entries:
            raise CoqatooError(error("TEMPLATE_MISSING_KEY",
                                     f"template key {key!r} missing for language {self.language!r}"))
        template = self.entries[key]
        # the pattern maps a placeholder without a value to itself: no value is the template, one is one replace
        if not values:
            return template
        if len(values) == 1:
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


def load_templates(directory: str | None = None, language: str = REFERENCE_LANGUAGE) -> TemplateSet:
    """Load one language's templates, checking completeness and placeholders.
    A leading byte-order mark is not part of the first line."""
    base = directory or os.path.join(os.path.dirname(__file__), "templates")
    path = os.path.join(base, f"{language}.properties")
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise CoqatooError(error("TEMPLATE_MISSING_KEY",
                                 f"no template file for language {language!r} in {base}"))
    except OSError as exc:
        raise CoqatooError(error("IO", f"cannot read {path}: {exc}"))
    entries: dict[str, str] = {}
    for line in decode_utf8(data, path, "TEMPLATE_PARSE").removeprefix("\ufeff").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CoqatooError(error("TEMPLATE_PARSE", f"line without '=' in {os.path.basename(path)}: {line!r}"))
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
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


@lru_cache(maxsize=256)
def _sentences(text: str) -> tuple:
    return tuple(s for s in _SENTENCE_SPLIT.split(text.strip()) if s)


def split_implication(text: str) -> list[str]:
    """Split a normalized type on top-level "->", respecting brackets; a
    segment that starts with `forall` or `exists` runs to the end."""
    parts: list[str] = []
    depth = 0
    start = 0
    i = 0
    while i < len(text) and not (i == start and _BINDER.match(text, i)):
        ch = text[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif depth == 0 and text.startswith("->", i) and text[i - 1:i] != "<":   # not the arrow of "<->"
            parts.append(text[start:i].strip())
            i += 2
            start = i
            continue
        i += 1
    parts.append(text[start:].strip())
    return parts


def rewrite_step(step: AnalyzedStep, templates: TemplateSet) -> Annotation:
    """Produce the explanatory sentences for one executed tactic; a head
    without a row in RULES explains nothing and warns UNSUPPORTED_TACTIC."""
    row = RULES.get(step.item.head)
    if row is None:
        return Annotation((), (warning("UNSUPPORTED_TACTIC", f'no rewriting rule for tactic "{step.item.head}"',
                                       step.item.span),))
    return row[0](step, templates)


def _silent(step: AnalyzedStep, templates: TemplateSet) -> Annotation:
    return _SILENT


def _rewrite_info_auto(step: AnalyzedStep, templates: TemplateSet) -> Annotation:
    """Explain each tactic that `auto`, run as info_auto, reports it used,
    as `rewrite_step` explains it in a script: a reported tactic without a
    row in RULES explains nothing and warns, at the span of the `auto`.
    """
    subs = [step.item._replace(text=sub) for sub in step.after.auto]
    # a reported auto or info_auto explains nothing; rewriting it would read this same trace again
    annotations = [rewrite_step(step._replace(item=sub), templates) for sub in subs
                   if sub.head not in ("auto", "info_auto")]
    return Annotation(tuple(s for a in annotations for s in a.sentences),
                      tuple(d for a in annotations for d in a.diagnostics))


def _rewrite_assumption(step: AnalyzedStep, templates: TemplateSet) -> Annotation:
    return Annotation(_sentences(templates.fill("assumption.default")))


SORT_KEYWORDS = {"Prop", "Set", "Type"}


def classify_bindings(added: Sequence[Hypothesis],
                      before: ProofState) -> tuple[list[Hypothesis], list[Hypothesis]]:
    """Partition introduced bindings into (variables, hypotheses).

    A binding is a variable when its type is a sort keyword, or an
    identifier bound in the prior context as a Set/Type variable
    (i.e. the new binding is an element of that type, not a proof).
    Everything else is a proof hypothesis.
    """
    type_vars = {h.name for h in before.hypotheses if h.type_expr in {"Set", "Type"}}
    variables: list[Hypothesis] = []
    hypotheses: list[Hypothesis] = []
    for h in added:
        if h.type_expr in SORT_KEYWORDS or h.type_expr in type_vars:
            variables.append(h)
        else:
            hypotheses.append(h)
    return variables, hypotheses


def is_heuristic(h: Hypothesis) -> bool:
    """True when classify_bindings calls h a hypothesis only by default:
    its type is neither an identifier nor built from a logical connective."""
    t = h.type_expr
    return not (IDENT.fullmatch(t.replace(" ", ""))
                or any(op in t for op in ("->", "/\\", "\\/", "<->", "~", "=", "forall", "exists")))


def _rewrite_intros(step: AnalyzedStep, templates: TemplateSet) -> Annotation:
    variables, hypotheses = classify_bindings(step.added, step.before)
    diagnostics = tuple(warning("HEURISTIC_CLASSIFICATION",
                                f"treating {h.name} : {h.type_expr} as a hypothesis", step.item.span)
                        for h in hypotheses if is_heuristic(h))
    # the goal the tactic leaves, unless it closed its goal or left an empty one
    goal = normalize_text(len(step.after.goals) >= len(step.before.goals) and step.after.goals[0]
                         or step.before.goals[0])
    names = templates.join([h.name for h in variables])
    hyp_types = templates.join(sorted((h.type_expr for h in hypotheses), key=len))
    if variables and hypotheses:
        key = ("intros.mixed" + ("_one_variable" if len(variables) == 1 else "")
               + ("_one_hypothesis" if len(hypotheses) == 1 else ""))
        text = templates.fill(key, list=names, type=variables[0].type_expr, hyp=hyp_types, goal=goal)
    elif variables:
        key = "intros.variables" if len(variables) > 1 else "intros.variables_one"
        text = templates.fill(key, list=names, type=variables[0].type_expr, goal=goal)
    elif hypotheses:
        key = "intros.hypotheses" if len(hypotheses) > 1 else "intros.hypotheses_one"
        text = templates.fill(key, list=hyp_types, goal=goal)
    else:
        return _SILENT
    return Annotation(_sentences(text), diagnostics=diagnostics)


def _rewrite_apply(step: AnalyzedStep, templates: TemplateSet) -> Annotation:
    hyp_type = dict(step.before.hypotheses).get(step.item.argument)
    if hyp_type is None:
        # applying a global constant is rendered silently
        return _SILENT
    segments = split_implication(hyp_type)
    if len(segments) < 2:
        return _SILENT
    consequent = segments[-1]
    antecedents = segments[:-1]
    key = "apply.hypothesis_many" if len(antecedents) > 1 else "apply.hypothesis_one"
    text = templates.fill(key, hyp=hyp_type, consequent=consequent,
                          antecedents=templates.join(antecedents))
    return Annotation(_sentences(text))


def _rewrite_inversion(step: AnalyzedStep, templates: TemplateSet) -> Annotation:
    arg = step.item.argument
    added_types = [h.type_expr for h in step.added]
    if arg is None or not added_types:   # no subject, or e.g. `inversion H` with `H : False`, which adds nothing
        return _SILENT
    key = "inversion.default" if len(added_types) > 1 else "inversion.one"
    text = templates.fill(key, hyp=dict(step.before.hypotheses).get(arg, arg), list=templates.join(added_types))
    return Annotation(_sentences(text))


_INTROS_KEYS = ("intros.variables", "intros.variables_one", "intros.hypotheses", "intros.hypotheses_one",
                "intros.mixed", "intros.mixed_one_variable", "intros.mixed_one_hypothesis",
                "intros.mixed_one_variable_one_hypothesis")

# tactic head -> (rule, template keys the rule fills); `auto` reaches the
# prover as `info_auto` (ScriptItem.prover_text)
RULES: dict[str, tuple[Callable[..., Annotation], tuple[str, ...]]] = {
    "intros": (_rewrite_intros, _INTROS_KEYS),
    "intro": (_rewrite_intros, _INTROS_KEYS),
    "split": (_silent, ()),
    "apply": (_rewrite_apply, ("apply.hypothesis_one", "apply.hypothesis_many")),
    "assumption": (_rewrite_assumption, ("assumption.default",)),
    "inversion": (_rewrite_inversion, ("inversion.default", "inversion.one")),
    "auto": (_rewrite_info_auto, ()),
    "info_auto": (_rewrite_info_auto, ()),
}

# the table's keys, the list joiner, and the keys `render` fills
REQUIRED_KEYS = {"list.joiner", "case.label", "plain.omitted"} | {k for _, keys in RULES.values() for k in keys}


def render(tree: ProofNode, annotations: Sequence[Annotation], mode: OutputMode,
           lemma: str, templates: TemplateSet) -> list[str]:
    """The lines of the annotated, plain-text or LaTeX version of the proof,
    each without its "\n"; `annotations` holds one per step, in trace order."""
    annotated, latex = mode is OutputMode.ANNOTATED, mode is OutputMode.LATEX
    lines = [normalize_text(lemma), "Proof."] if annotated else []
    case_label = templates.fill("case.label")
    pending, depth = iter(annotations), -1   # depth: the number of the current node's ancestors
    for entering, node in walk(tree):
        if not entering:
            depth -= 1
            if latex and node.children:
                lines.append(r"\end{itemize}")
            continue
        depth += 1
        indent = ""
        if depth:   # a case, whose goal is the one its first step focuses
            label = case_label.replace("{goal}", normalize_text(node.steps[0].before.goals[0]))
            if annotated:
                lines.append(f"{' ' * (2 * depth)}{'-' * depth} (* {label} *)")
                indent = " " * (3 * depth + 1)
            else:
                lines.append(r"\item \textbf{" + latex_escape(label) + "}" if latex else label)
        for step, (sentences, _) in zip(node.steps, pending):   # pre-order is trace order: each takes the next
            item = step.item
            text = " ".join(sentences) if sentences else None
            if annotated:
                tactic = normalize_text(item.text)
                lines.append(f"{indent}{tactic}" if text is None else f"{indent}(* {text} *) {tactic}")
                continue
            if text is None:
                if len(step.after.goals) > len(step.before.goals):
                    continue   # a branch: its case labels say what it did
                text = templates.fill("plain.omitted")
            lines.append(latex_escape(text) if latex else text)
        if latex and node.children:
            lines.append(r"\begin{itemize}")
    if annotated:
        lines.append("Qed.")
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

    One `str.replace` per special character.  A backslash is held as a lone
    surrogate until the other nine are escaped, then spelled in full.  No
    input holds a lone surrogate: the script and template readers decode
    strictly, a fixture string holding one is rejected, and the live reader
    decodes with `errors="replace"`.
    """
    text = text.replace("\\", "\ud800")
    for ch in "{}_%&#$~^":
        text = text.replace(ch, _LATEX_SPECIALS[ch])
    return text.replace("\ud800", _LATEX_SPECIALS["\\"])
