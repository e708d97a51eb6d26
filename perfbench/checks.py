"""Output checks that do not use the program under test.

A proof's output is judged against what the generator built: the tactic
order, the number of case nodes and their nesting.  Each check returns
None when the output is right, else a one-line reason.
"""

import re
from typing import List, Optional

_COMMENT = re.compile(r"\(\*.*?\*\)", re.S)
_SENTENCE_END = re.compile(r"\.(?=\s|$)")
_BULLET = re.compile(r"^[-+*]+\s+")
_ANNOTATED_CASE = re.compile(r"^\s*(-+) \(\*")
_PLAIN_CASE = {"en": re.compile(r"^Case .*:$"), "fr": re.compile(r"^Cas .* :$")}
_DOT_NODE = re.compile(r"^\s+n\d+ \[label=")
_DOT_EDGE = re.compile(r"^\s+n\d+ -> n\d+;$")
_NOT_TACTICS = ("Lemma", "Theorem", "Proof", "Qed")


def tactic_sentences(text: str) -> List[str]:
    """Tactic sentences of a script or annotated output, comments and bullets removed."""
    out = []
    for sentence in _SENTENCE_END.split(_COMMENT.sub(" ", text)):
        sentence = _BULLET.sub("", " ".join(sentence.split()))
        if sentence and not sentence.startswith(_NOT_TACTICS):
            out.append(sentence)
    return out


def case_shape(counts: List[int]):
    """(case nodes, deepest nesting) from the subgoal count before and after each tactic.

    A tactic that raises the count by d opens d + 1 cases; one that lowers
    it fills the innermost open case, as the tree builder nests them.
    """
    children, depth, best, stack = 0, 0, 0, []
    for before, after in zip(counts, counts[1:]):
        if after > before:
            children += after - before + 1
            stack.append(after - before + 1)
            depth += 1
            best = max(best, depth)
        elif after < before:
            while stack:
                stack[-1] -= 1
                if stack[-1] > 0:
                    break
                stack.pop()
                depth -= 1
    return children, best


def golden_form(text: str) -> str:
    """The committed golden file keeps a double space from the paper, so it is
    compared, as the test suite compares it, with space runs after the
    indentation collapsed and trailing blanks dropped."""
    lines = []
    for line in text.rstrip().splitlines():
        body = line.rstrip().lstrip(" ")
        lines.append(line[:len(line) - len(line.lstrip(" "))] + re.sub(" {2,}", " ", body))
    return "\n".join(lines)


def check_output(proof, text: str) -> Optional[str]:
    if proof.golden is not None:
        golden = proof.golden.read_text(encoding="utf-8")
        return None if golden_form(text) == golden_form(golden) else "differs from golden output"
    lines = text.splitlines()
    if proof.dot:
        nodes = sum(1 for ln in lines if _DOT_NODE.match(ln))
        edges = sum(1 for ln in lines if _DOT_EDGE.match(ln))
        if not text.startswith("digraph proof {") or lines[-1:] != ["}"]:
            return "not a DOT digraph"
        if (nodes, edges) != (proof.branch_children + 1, proof.branch_children):
            return f"DOT has {nodes} nodes / {edges} edges, expected {proof.branch_children + 1} / {proof.branch_children}"
        return None
    if proof.mode == "annotated":
        if lines[1:2] != ["Proof."] or lines[-1:] != ["Qed."]:
            return "annotated output lacks Proof./Qed."
        got = tactic_sentences(text)
        if got != proof.tactics:
            first = next((i for i, (a, b) in enumerate(zip(got, proof.tactics)) if a != b),
                         min(len(got), len(proof.tactics)))
            return f"round-trip tactic order differs at tactic {first}"
        bullets = [len(m.group(1)) for m in map(_ANNOTATED_CASE.match, lines) if m]
        return _case_check(len(bullets), max(bullets, default=0), proof)
    if proof.mode == "plain":
        if not text.strip():
            return "empty plain output"
        labels = sum(1 for ln in lines if _PLAIN_CASE[proof.lang].match(ln))
        return _case_check(labels, proof.depth, proof)
    if not text.startswith("\\begin{proof}\n") or not text.endswith("\\end{proof}\n"):
        return "LaTeX output is not a proof environment"
    level, deepest, items = 0, 0, 0
    for ln in lines:
        if ln == r"\begin{itemize}":
            level += 1
            deepest = max(deepest, level)
        elif ln == r"\end{itemize}":
            level -= 1
            if level < 0:
                return "LaTeX itemize closed before it was opened"
        elif ln.startswith(r"\item "):
            items += 1
    if level:
        return "LaTeX itemize left open"
    return _case_check(items, deepest, proof)


def _case_check(cases: int, depth: int, proof) -> Optional[str]:
    if cases != proof.branch_children:
        return f"{cases} case labels, expected {proof.branch_children}"
    if depth != proof.depth:
        return f"case nesting {depth}, expected {proof.depth}"
    return None
