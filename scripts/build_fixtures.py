#!/usr/bin/env python3
"""Regenerate the replay fixtures under tests/fixtures/.

The raw state blocks mirror coqtop 8.9's plain goal printing ("2 subgoals",
"subgoal 2 is:", "No more subgoals.").  Each fixture's builder takes the
word a goal is named by: "goal" gives the wording of newer releases ("2
goals", "goal 2 is:", "No more goals."), which the tests replay beside the
committed fixture.  When a coqtop binary is available, fixtures can instead
be re-recorded from a live session with
`coqatoo <file.v> --record <out.cqtrace>`.
"""

import json
from functools import partial
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def state(hyps, goals, word="subgoal"):
    """Format one coqtop-style response block, each goal named `word`."""
    count = len(goals)
    lines = [f"{count} {word}" + ("s" if count != 1 else ""), ""]
    for h in hyps:
        lines.append(f"  {h}")
    lines.append("  ============================")
    lines.append(f"  {goals[0]}")
    for k, g in enumerate(goals[1:], start=2):
        lines.append("")
        lines.append(f"{word} {k} is:")
        lines.append(f" {g}")
    return "\n".join(lines) + "\n"


def done(word="subgoal"):
    """The response to the tactic that finishes the proof."""
    return f"No more {word}s.\n"


DONE = done()


def fixture_text(lemma, initial, steps):
    """A .cqtrace: the header record, then one record per (tactic, response) step."""
    records = [{"lemma": lemma, "initial_raw_state": initial,
                "prover_version": "The Coq Proof Assistant, version 8.9.1"}]
    records += [{"tactic": tactic, "raw_state": raw} for tactic, raw in steps]
    return "".join(json.dumps(record) + "\n" for record in records)


def conj_imp_equiv(word="subgoal"):
    show = partial(state, word=word)
    pqr = ["P, Q, R : Prop"]
    ctx_a = pqr + ["H : P /\\ Q -> R", "HP : P", "HQ : Q"]
    ctx_b = pqr + ["H : P -> Q -> R", "HPQ : P /\\ Q"]
    ctx_b2 = ctx_b + ["H0 : P", "H1 : Q"]
    goal_a = "(P /\\ Q -> R) -> P -> Q -> R"
    goal_b = "(P -> Q -> R) -> P /\\ Q -> R"
    return fixture_text(
        "Lemma conj_imp_equiv : forall P Q R:Prop, ((P /\\ Q -> R) <-> (P -> Q -> R)).",
        show([], ["forall P Q R : Prop, (P /\\ Q -> R) <-> (P -> Q -> R)"]),
        [
            ("intros", show(pqr, ["(P /\\ Q -> R) <-> (P -> Q -> R)"])),
            ("split", show(pqr, [goal_a, goal_b])),
            ("intros H HP HQ", show(ctx_a, ["R", goal_b])),
            ("apply H", show(ctx_a, ["P /\\ Q", goal_b])),
            ("apply conj", show(ctx_a, ["P", "Q", goal_b])),
            ("assumption", show(ctx_a, ["Q", goal_b])),
            ("assumption", show(pqr, [goal_b])),
            ("intros H HPQ", show(ctx_b, ["R"])),
            ("inversion HPQ", show(ctx_b2, ["R"])),
            ("apply H", show(ctx_b2, ["P", "Q"])),
            ("assumption", show(ctx_b2, ["Q"])),
            ("assumption", done(word)),
        ])


def and_commutes(word="subgoal"):
    show = partial(state, word=word)
    pq = ["P, Q : Prop"]
    ctx = pq + ["H : P /\\ Q"]
    ctx2 = ctx + ["H0 : P", "H1 : Q"]
    return fixture_text(
        "Lemma and_commutes : forall P Q : Prop, P /\\ Q -> Q /\\ P.",
        show([], ["forall P Q : Prop, P /\\ Q -> Q /\\ P"]),
        [
            ("intros P Q", show(pq, ["P /\\ Q -> Q /\\ P"])),
            ("intros H", show(ctx, ["Q /\\ P"])),
            ("inversion H", show(ctx2, ["Q /\\ P"])),
            ("split", show(ctx2, ["Q", "P"])),
            ("assumption", show(ctx2, ["P"])),
            ("assumption", done(word)),
        ])


def modus_ponens(word="subgoal"):
    show = partial(state, word=word)
    pq = ["P, Q : Prop"]
    ctx = pq + ["HP : P", "H : P -> Q"]
    auto_done = ("(* info auto: *)\n"
                 "simple apply H.\n"
                 "assumption.\n"
                 "\n" + done(word))
    return fixture_text(
        "Lemma modus_ponens : forall P Q : Prop, P -> (P -> Q) -> Q.",
        show([], ["forall P Q : Prop, P -> (P -> Q) -> Q"]),
        [
            ("intros P Q", show(pq, ["P -> (P -> Q) -> Q"])),
            ("intros HP H", show(ctx, ["Q"])),
            ("info_auto", auto_done),
        ])


# each committed fixture's name -> its builder
BUILDERS = {builder.__name__: builder for builder in (conj_imp_equiv, and_commutes, modus_ponens)}


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name, builder in BUILDERS.items():
        path = FIXTURES / f"{name}.cqtrace"
        path.write_text(builder(), encoding="utf-8")
        print("wrote", path)
