"""Seeded synthetic corpus: Coq scripts plus the recorded sessions that prove them.

Every generated proof is simulated goal by goal, so each `.cqtrace` holds
the states coqtop would print.  The state text comes from
`scripts/build_fixtures.py` (`state` and `DONE`), loaded from the
checkout and used unchanged, so the synthetic traces have the same
format as the committed fixtures.  The program under test receives only
the written `.v` and `.cqtrace` files.
"""

import importlib.util
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from checks import case_shape, tactic_sentences

PROVER_VERSION = "The Coq Proof Assistant, version 8.9.1"


@dataclass
class Proof:
    """One benchmark input and what its output must show."""
    name: str
    script: Path
    trace: Path
    tactics: List[str]          # script tactic commands, whitespace-normalized, no "."
    branch_children: int        # case nodes the proof tree must have
    depth: int                  # deepest case nesting
    mode: str = "annotated"
    lang: str = "en"
    dot: bool = False
    golden: Optional[Path] = None


def load_state_format(root: Path) -> Tuple[Callable, str]:
    """`state` and `DONE` from the checkout's fixture builder."""
    path = root / "scripts" / "build_fixtures.py"
    spec = importlib.util.spec_from_file_location("_perfbench_build_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.state, module.DONE


def fixture_proof(root: Path, name: str) -> Proof:
    """A committed fixture; its expected shape is read from its own trace."""
    base = root / "tests" / "fixtures" / name
    script, trace = base.with_suffix(".v"), base.with_suffix(".cqtrace")
    counts = []
    with trace.open(encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            raw = record.get("raw_state", record.get("initial_raw_state", ""))
            header = _HEADER.search(raw)
            counts.append(int(header.group(1)) if header else 0)
    children, depth = case_shape(counts)
    return Proof(name, script, trace, tactic_sentences(script.read_text(encoding="utf-8")), children, depth)


_HEADER = re.compile(r"^\s*(\d+)\s+subgoals?\b", re.M)


# A formula is an atom name (str) or a tuple ("and" | "imp", left, right).

def conj(parts):
    """Right-nested conjunction of the given formulas."""
    f = parts[-1]
    for p in reversed(parts[:-1]):
        f = ("and", p, f)
    return f


def imp(parts):
    f = parts[-1]
    for p in reversed(parts[:-1]):
        f = ("imp", p, f)
    return f


def show(f, ctx: str = "top") -> str:
    """Print like coqtop: /\\ binds tighter than ->, both associate right.

    The right spine is walked in a loop, so chains thousands deep print.
    """
    if isinstance(f, str):
        return f
    op = f[0]
    parts = []
    while isinstance(f, tuple) and f[0] == op:
        parts.append(show(f[1], op + "_left"))
        f = f[2]
    parts.append(show(f, op + "_right"))
    text = (" /\\ " if op == "and" else " -> ").join(parts)
    wrap = ctx == "and_left" if op == "and" else ctx in ("and_left", "and_right", "imp_left")
    return f"({text})" if wrap else text


@dataclass
class _Goal:
    ctx: List[Tuple[str, str]]   # (names as displayed, type)
    formula: object


@dataclass
class _Session:
    """The prover's goal stack; records (tactic, raw state) per step."""
    state: Callable
    done: str
    goals: List[_Goal]
    steps: List[Tuple[str, str]] = field(default_factory=list)
    counts: List[int] = field(default_factory=lambda: [1])

    def step(self, tactic: str, new_goals: List[_Goal], prefix: str = "") -> None:
        """Replace the focused goal by `new_goals` and record the response."""
        self.goals[:1] = new_goals
        if self.goals:
            focus = self.goals[0]
            raw = self.state([f"{n} : {t}" for n, t in focus.ctx], [show(g.formula) for g in self.goals])
        else:
            raw = self.done
        self.steps.append((tactic, prefix + raw))
        self.counts.append(len(self.goals))


def _emit(out: Path, rng: random.Random, name: str, fmt, variables: List[str], premises: List,
          goal, intro_groups: List[List[str]], prove) -> Proof:
    """Simulate the intros, then `prove` on the focused goal; write both files."""
    state, done = fmt
    statement = f"forall {' '.join(variables)} : Prop, {show(imp(premises + [goal]))}"
    lemma = f"Lemma {name} : {statement}."
    session = _Session(state, done, [_Goal([], statement)])
    ctx: List[Tuple[str, str]] = []
    pending = list(premises)
    for group in intro_groups:
        var_names = [n for n in group if n in variables]
        if var_names:
            ctx = ctx + [(", ".join(var_names), "Prop")]
        for n in group[len(var_names):]:
            ctx = ctx + [(n, show(pending.pop(0)))]
        session.step("intros " + " ".join(group), [_Goal(ctx, imp(pending + [goal]) if pending else goal)])
    prove(session)
    if session.goals:
        raise RuntimeError(f"generator left goals open in {name}")

    script, trace = out / f"{name}.v", out / f"{name}.cqtrace"
    lines, i = [], 0
    while i < len(session.steps):
        count = rng.randint(1, 6)
        lines.append("  " + " ".join(f"{t}." for t, _ in session.steps[i:i + count]))
        i += count
    script.write_text(f"{lemma}\nProof.\n" + "\n".join(lines) + "\nQed.\n", encoding="utf-8")
    with trace.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"lemma": lemma, "initial_raw_state": state([], [statement]),
                             "prover_version": PROVER_VERSION}) + "\n")
        for tactic, raw in session.steps:
            recorded = "info_auto" if tactic == "auto" else tactic
            fh.write(json.dumps({"tactic": recorded, "raw_state": raw}) + "\n")
    children, depth = case_shape(session.counts)
    return Proof(name, script, trace, [t for t, _ in session.steps], children, depth)


def small_proof(out: Path, rng: random.Random, name: str, fmt, leaves: int) -> Proof:
    """A typical proof: intros, split over a conjunction tree of `leaves` atoms and
    depth <= 5, and per leaf one of assumption / apply / apply with two premises /
    inversion / auto."""
    variables = [f"P{i}" for i in range(1, rng.randint(3, 6) + 1)]

    def atom():
        return rng.choice(variables)

    def tree(count, depth):
        if count == 1:
            return atom()
        cap = 2 ** (4 - depth)     # leaves a subtree one level down may hold
        left = rng.randint(max(1, count - cap), min(count - 1, cap))
        return ("and", tree(left, depth + 1), tree(count - left, depth + 1))

    def leaf_list(f):
        return [f] if isinstance(f, str) else leaf_list(f[1]) + leaf_list(f[2])

    goal = tree(leaves, 0)
    premises: List = []

    def need(f) -> int:
        premises.append(f)
        return len(premises) - 1

    plan = []   # per leaf: (method, premise indexes before shuffling)
    for leaf in leaf_list(goal):
        method = rng.choice(["assumption", "apply", "apply2", "inversion", "auto"])
        if len(premises) > 9 or method == "assumption":
            plan.append(("assumption", premises.index(leaf) if leaf in premises else need(leaf)))
        elif method == "apply2":
            b, c = atom(), atom()
            plan.append((method, need(imp([b, c, leaf])), need(b), need(c)))
        elif method == "inversion":
            b = atom()
            plan.append((method, need(conj([b, leaf] if rng.random() < 0.5 else [leaf, b]))))
        else:   # apply, auto: H : b -> leaf and b
            b = atom()
            plan.append((method, need(("imp", b, leaf)), need(b)))
    for _ in range(rng.randint(0, max(0, 12 - len(premises)))):
        need(rng.choice([atom(), ("imp", atom(), atom()), conj([atom(), atom()])]))

    # premises are displayed, and introduced, in shuffled order as H1..Hn
    order = list(range(len(premises)))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    names = [f"H{k + 1}" for k in range(len(premises))]
    shown = [premises[old] for old in order]
    roll = rng.random()
    if roll < 0.2:
        groups = [variables + names]
    else:
        cut = rng.randint(1, len(names)) if roll < 0.6 else len(names)
        groups = [variables, names[:cut]] + ([names[cut:]] if cut < len(names) else [])
    fresh = [len(names)]
    leaf_plan = iter(plan)

    def prove(session: _Session) -> None:
        prove_formula(session, goal)

    def prove_formula(session: _Session, f) -> None:
        ctx = session.goals[0].ctx
        if not isinstance(f, str):
            session.step("split", [_Goal(ctx, f[1]), _Goal(ctx, f[2])])
            prove_formula(session, f[1])
            prove_formula(session, f[2])
            return
        method, *hyps = next(leaf_plan)
        h = names[position[hyps[0]]]
        if method == "apply":
            session.step(f"apply {h}", [_Goal(ctx, premises[hyps[1]])])
        elif method == "apply2":
            session.step(f"apply {h}", [_Goal(ctx, premises[hyps[1]]), _Goal(ctx, premises[hyps[2]])])
            session.step("assumption", [])
        elif method == "inversion":
            _, a, b = premises[hyps[0]]
            added = [(f"H{fresh[0] + 1}", show(a)), (f"H{fresh[0] + 2}", show(b))]
            fresh[0] += 2
            session.step(f"inversion {h}", [_Goal(ctx + added, f)])
        if method == "auto":
            session.step("auto", [], f"(* info auto: *)\nsimple apply {h}.\nassumption.\n\n")
        else:
            session.step("assumption", [])

    return _emit(out, rng, name, fmt, variables, shown, goal, groups, prove)


def _chain_prover(goal_atoms: List[str]):
    """Prove a right-nested conjunction by split / assumption, in a loop."""
    def prove(session: _Session) -> None:
        for k in range(len(goal_atoms) - 1):
            ctx = session.goals[0].ctx
            session.step("split", [_Goal(ctx, goal_atoms[k]), _Goal(ctx, conj(goal_atoms[k + 1:]))])
            session.step("assumption", [])
        session.step("assumption", [])
    return prove


def wide_proof(out: Path, rng: random.Random, name: str, fmt, conjuncts: int, extra_hyps: int) -> Proof:
    """A conjunction chain proved against hundreds of hypotheses in context."""
    variables = [f"Q{i}" for i in range(1, 41)]
    needed = rng.sample(variables, 20)
    goal_atoms = [rng.choice(needed) for _ in range(conjuncts)]
    premises: List = list(needed)
    for _ in range(extra_hyps):
        a, b = rng.choice(variables), rng.choice(variables)
        premises.append(rng.choice([("imp", a, b), conj([a, b]), imp([a, b, a])]))
    rng.shuffle(premises)
    names = [f"H{i}" for i in range(1, len(premises) + 1)]
    return _emit(out, rng, name, fmt, variables, premises, conj(goal_atoms),
                 [variables, names], _chain_prover(goal_atoms))


def deep_proof(out: Path, rng: random.Random, name: str, fmt, conjuncts: int) -> Proof:
    """A right-nested conjunction chain over a two-hypothesis context."""
    goal_atoms = [rng.choice("PQ") for _ in range(conjuncts)]
    return _emit(out, rng, name, fmt, ["P", "Q"], ["P", "Q"], conj(goal_atoms),
                 [["P", "Q", "HP", "HQ"]], _chain_prover(goal_atoms))
