"""Shared helpers for the test suite.

The suite tests whichever `coqatoo` Python imports: `src/` when it is on
PYTHONPATH, otherwise an installed copy.  PACKAGE is that package's
directory, and PACKAGE_PATH the directory that holds it, which a child
process needs on PYTHONPATH to import the same package.  ROOT is the
checkout, which the tests read for their fixtures, scripts and README.
"""

import importlib.util
import json
import re
import shlex
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import coqatoo
from coqatoo import (CoqatooError, Diagnostic, ProofState, Script, ScriptItem, SessionTrace, detect_unsupported,
                     parse_script, run_replay, tokenize_script)
from coqatoo.diagnostics import error, warning
from coqatoo.goal_parser import FINISHED_MARKERS, IDENT, SUBGOAL_HEADER, normalize_text
from coqatoo.script_parser import LEMMA_KEYWORDS, PROOF_END_KEYWORDS
from coqatoo.pipeline import analyze_trace
from coqatoo.tree_builder import ProofNode, walk

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(coqatoo.__file__).resolve().parent
PACKAGE_PATH = PACKAGE.parent
FIXTURE_DIR = Path(__file__).parent / "fixtures"
FAKE_COQTOP = ROOT / "perfbench" / "fake_coqtop.py"
SPLIT_WRITES = Path(__file__).parent / "split_writes.py"
GOLDEN_DIR = FIXTURE_DIR / "golden"
CORPUS = ["conj_imp_equiv", "and_commutes", "modus_ponens"]

LISTING_1 = """\
  1 subgoal

  ============================
  forall P Q R : Prop, (P /\\ Q -> R) <-> (P -> Q -> R)
"""

LISTING_2 = """\
  1 subgoal

  P, Q, R : Prop
  ============================
  (P /\\ Q -> R) <-> (P -> Q -> R)
"""


def script_path(name: str) -> Path:
    return FIXTURE_DIR / f"{name}.v"


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / f"{name}.cqtrace"


def load_script(name: str) -> Script:
    script, _ = parse_script(script_path(name).read_text(encoding="utf-8"))
    return script


def load_trace(name: str) -> Tuple[Script, SessionTrace]:
    script = load_script(name)
    return script, run_replay(script, str(fixture_path(name)))


def all_fixture_states(name: str) -> List[ProofState]:
    _, trace = load_trace(name)
    return trace.states()


def analyzed_steps(name: str):
    return analyze_trace(*load_trace(name))


def flatten(root: ProofNode) -> List[ScriptItem]:
    """The tree's tactics in depth-first order, which must be the script's order."""
    return [step.item for entering, node in walk(root) if entering for step in node.steps]


def cases(root: ProofNode) -> Dict[ProofNode, Tuple[int, Optional[str]]]:
    """Each node's depth, counted from walk's enter and leave events with the
    root at 0, and its case goal, the focused goal its first step starts from,
    None for the root."""
    found, depth = {}, -1
    for entering, node in walk(root):
        depth += 1 if entering else -1
        if entering:
            found[node] = (depth, node.steps[0].before.goals[0] if depth else None)
    return found


def leaves(root: ProofNode) -> List[ProofNode]:
    return [node for entering, node in walk(root) if entering and not node.children]


def output_text(lines: Sequence[str]) -> str:
    """Output lines as the CLI prints them: each followed by "\n"."""
    return "".join(line + "\n" for line in lines)


def tactic_commands(tactics: Sequence[ScriptItem]) -> List[str]:
    return [" ".join(it.command.split()) for it in tactics]


def roundtrip_tactics(rendered: str) -> List[str]:
    """Re-parse rendered output and keep only the tactic sentences."""
    return tactic_commands(parse_script(rendered)[0].tactics)


def _classify(sentence: str) -> str:
    m = IDENT.match(sentence)
    word = m.group(0) if m else ""
    if word in LEMMA_KEYWORDS:
        return "lemma_header"
    if word == "Proof":
        return "proof_begin"
    if word in PROOF_END_KEYWORDS:
        return "proof_end"
    return "tactic"


def reference_parse(source: str) -> Tuple[Script, List[Diagnostic]]:
    """`parse_script` as it was when the tokenizer gave each sentence a kind
    by `_classify`, kept as the reference for the role a head gives.  The
    comment, bullet and brace items of that tokenizer were never selected,
    so the sentences alone give the same result."""
    items = [(_classify(it.text), it) for it in tokenize_script(source)]
    if not any(kind == "lemma_header" for kind, _ in items):
        raise CoqatooError(error("NO_LEMMA", "no lemma statement found in input"))
    start = next(i for i, (kind, _) in enumerate(items) if kind == "lemma_header")
    end = next((i + 1 for i in range(start, len(items)) if items[i][0] == "proof_end"), len(items))
    diags: List[Diagnostic] = []
    rest = [it for kind, it in items[end:] if kind == "lemma_header"]
    if rest:
        diags.append(warning("MULTIPLE_LEMMAS", f"processing the first lemma only ({len(rest)} more ignored)",
                             rest[0].span))
    tactics = [it for kind, it in items[start:end] if kind == "tactic"]
    diags += detect_unsupported(tactics)
    return Script(items[start][1], tuple(tactics)), diags


def reference_sentences(source: str) -> List[Tuple[str, Tuple[int, int]]]:
    """`tokenize_script`'s sentences as (text, span), read one character at a
    time by the lexical rules of Coq's reference manual, kept as the reference
    for its scanners: comments nest, a comment may hold string literals, which
    must be closed, and "" is a quote within a string.  Blanks, comments,
    focus braces and bullets (a run of "-", "+" or "*" before a blank) are
    skipped between sentences; a sentence ends at a "." before a blank or at
    the end, outside strings and comments.

    Raises CoqatooError with UNTERMINATED_COMMENT, spanning the comment that
    is never closed to the end.
    """
    n = len(source)

    def string_end(i):
        """Just past the string whose quote is at i, or None if it is never closed."""
        i += 1
        while i < n:
            if source[i] == '"':
                if source[i + 1:i + 2] != '"':
                    return i + 1
                i += 1
            i += 1
        return None

    def comment_end(opened):
        """Just past the comment that opens at `opened`."""
        depth, i = 0, opened
        while i is not None and i < n:
            if source.startswith("(*", i):
                depth, i = depth + 1, i + 2
            elif source.startswith("*)", i):
                depth, i = depth - 1, i + 2
                if depth == 0:
                    return i
            else:
                i = string_end(i) if source[i] == '"' else i + 1
        raise CoqatooError(error("UNTERMINATED_COMMENT", "comment opened here is never closed", (opened, n)))

    sentences, i = [], 0
    while True:
        while i < n and source[i].isspace():
            i += 1
        if i == n:
            return sentences
        if source.startswith("(*", i):
            i = comment_end(i)
            continue
        if source[i] in "{}":
            i += 1
            continue
        run = i
        while run < n and source[run] == source[i]:
            run += 1
        if source[i] in "-+*" and (run == n or source[run].isspace()):
            i = run
            continue
        start = i
        while i < n:
            if source.startswith("(*", i):
                i = comment_end(i)
            elif source[i] == '"':
                i = string_end(i) or n
            else:
                i += 1
                if source[i - 1] == "." and (i == n or source[i].isspace()):
                    break
        sentences.append((source[start:i], (start, i)))


def _load_fixture_builder():
    spec = importlib.util.spec_from_file_location("build_fixtures", ROOT / "scripts" / "build_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the coqtop-style state printer and "No more subgoals" block of the committed fixtures, each
# of which takes the word a goal is named by; and each committed fixture's name -> its builder
_builder = _load_fixture_builder()
state, done, DONE, FIXTURE_BUILDERS = _builder.state, _builder.done, _builder.DONE, _builder.BUILDERS


def extract_auto_trace(response_raw: str) -> List[str]:
    """The rewriter's former reader of an info_auto report, kept as the reference for
    `ProofState.auto`: the report ends at a blank line or where a state starts."""
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


_SUBGOAL_K = re.compile(r"^\s*(?:sub)?goal\s+(\d+)\s+is\s*:\s*$")


def reference_goals(body: str) -> List[str]:
    """`goal_parser.parse_state`'s goal loop as it was when it read the text
    below the separator line one line at a time, kept as the reference for its
    goal join: each line stripped, a "subgoal K is:" or "goal K is:" line
    ending a goal, the other non-blank lines of a goal joined by " "."""
    goals: List[str] = []
    current: List[str] = []
    for line in body.split("\n"):
        line = line.strip()
        if line.startswith(("subgoal", "goal")) and _SUBGOAL_K.match(line):
            goals.append(" ".join(current))
            current = []
        elif line:
            current.append(line)
    goals.append(" ".join(current))
    return goals


def grouped_context(block: str) -> List[Tuple[Tuple[str, ...], str]]:
    """`goal_parser._parse_context` as it was when a record held a display group,
    kept as the reference for the bindings it now gives one per name: each group's
    names and normalized type, `P, Q : Prop` as (("P", "Q"), "Prop")."""
    pending: List[Tuple[Tuple[str, ...], List[str]]] = []
    indent = -1
    for line in block.split("\n"):
        text = line.lstrip()
        if not text:
            continue
        depth = len(line) - len(text)
        if indent < 0:
            indent = depth
        names_part, sep, type_part = line.partition(" : ")
        names = tuple(n.strip() for n in names_part.split(","))
        if sep and depth <= indent and all(IDENT.fullmatch(n) for n in names):
            pending.append((names, [type_part]))
        elif pending:
            pending[-1][1].append(line)
        elif sep:
            raise CoqatooError(error("MALFORMED_HYP", f"cannot parse hypothesis names in: {line!r}"))
        else:
            raise CoqatooError(error("MALFORMED_HYP", f"hypothesis line without ' : ': {line!r}"))
    return [(names, normalize_text(" ".join(parts))) for names, parts in pending]


def write_replay_pair(directory: Path, lemma: str, initial: str, steps: Sequence[Tuple[str, str]],
                      header_lemma: Optional[str] = None) -> Tuple[Path, Path]:
    """Write a script proving `lemma` with the steps' tactics, and its .cqtrace."""
    script = directory / "proof.v"
    script.write_text(f"{lemma}\nProof.\n" + "".join(f"  {t}.\n" for t, _ in steps) + "Qed.\n",
                      encoding="utf-8")
    trace = directory / "proof.cqtrace"
    records = [{"lemma": header_lemma or lemma, "initial_raw_state": initial}]
    records += [{"tactic": t, "raw_state": raw} for t, raw in steps]
    trace.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return script, trace


def _split_chain(variables: List[str], names: List[str], atoms: List[str]
                 ) -> Tuple[str, str, List[Tuple[str, str]]]:
    """Lemma, initial state and steps proving atoms[0] /\\ ... /\\ atoms[-1] by intros,
    then split/assumption, from one hypothesis names[i] : variables[i] per variable."""
    ctx = [", ".join(variables) + " : Prop"] + [f"{h} : {v}" for h, v in zip(names, variables)]
    conj = [" /\\ ".join(atoms[i:]) for i in range(len(atoms))]  # conj[i] = atoms[i] /\\ ...
    statement = f"forall {' '.join(variables)} : Prop, {' -> '.join(variables)} -> {conj[0]}"
    steps = [("intros", state(ctx, [conj[0]]))]
    for i in range(len(atoms) - 1):
        steps.append(("split", state(ctx, [atoms[i], conj[i + 1]])))
        steps.append(("assumption", state(ctx, [conj[i + 1]])))
    steps.append(("assumption", DONE))
    return f"Lemma chain : {statement}.", state([], [statement]), steps


def conjunction_chain(n: int) -> Tuple[str, str, List[Tuple[str, str]]]:
    """A1 /\\ ... /\\ An from one hypothesis Hi : Ai per conjunct: the context grows with n."""
    atoms = [f"A{i}" for i in range(1, n + 1)]
    return _split_chain(atoms, [f"H{i}" for i in range(1, n + 1)], atoms)


def narrow_chain(n: int) -> Tuple[str, str, List[Tuple[str, str]]]:
    """P /\\ Q /\\ P ... of n conjuncts from HP : P and HQ : Q: a tree n - 1 cases deep."""
    return _split_chain(["P", "Q"], ["HP", "HQ"], ["PQ"[i % 2] for i in range(n)])


def write_prover(directory: Path, body: str) -> str:
    """An executable shell script to pass as the prover."""
    path = directory / "prover"
    path.write_text("#!/bin/sh\n" + body + "\n", encoding="utf-8")
    path.chmod(0o755)
    return str(path)


def write_fake_coqtop(directory: Path, prelude: str = "") -> str:
    """The benchmark's fake `coqtop -emacs`; it answers from $FAKE_COQTOP_TRACE.

    `prelude` is shell run each time the prover starts, before the fake.
    """
    return write_prover(directory, prelude + "\nexec " + shlex.join([sys.executable, str(FAKE_COQTOP)])
                        + ' "$@"')


def write_split_coqtop(directory: Path, seed: int) -> str:
    """The fake `coqtop -emacs` with each write cut into seeded 1-7-byte pieces (split_writes.py)."""
    return write_prover(directory, "exec " + shlex.join([sys.executable, str(SPLIT_WRITES), str(seed)])
                        + ' "$@"')
