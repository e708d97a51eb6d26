"""Shared helpers for the test suite."""

import importlib.util
import json
import re
import shlex
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from coqatoo import (ItemKind, ProofState, Script, ScriptItem, SessionTrace, load_templates,
                     parse_script, run_replay, tokenize_script)
from coqatoo.pipeline import analyze_trace
from coqatoo.tree_builder import ProofNode, walk

ROOT = Path(__file__).resolve().parent.parent
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


def leaves(root: ProofNode) -> List[ProofNode]:
    return [node for entering, node in walk(root) if entering and not node.children]


def normalize_rendering(text: str) -> str:
    """Collapse internal space runs and trailing whitespace, keep indentation."""
    out = []
    for line in text.splitlines():
        line = line.rstrip()
        lead = re.match(r"\s*", line).group(0)
        out.append(lead + re.sub(r" {2,}", " ", line[len(lead):]))
    while out and not out[-1]:
        out.pop()
    return "\n".join(out)


def output_text(lines: Sequence[str]) -> str:
    """Output lines as the CLI prints them: each followed by "\n"."""
    return "".join(line + "\n" for line in lines)


def tactic_commands(items: List[ScriptItem]) -> List[str]:
    return [" ".join(it.command.split()) for it in items if it.kind is ItemKind.TACTIC]


def roundtrip_tactics(rendered: str) -> List[str]:
    """Re-tokenize rendered output and keep only the tactic sentences."""
    return tactic_commands(tokenize_script(rendered))


def english_templates():
    return load_templates()


def _load_fixture_builder():
    spec = importlib.util.spec_from_file_location("build_fixtures", ROOT / "scripts" / "build_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the coqtop-style state printer and "No more subgoals" block of the committed fixtures
_builder = _load_fixture_builder()
state, DONE = _builder.state, _builder.DONE


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
