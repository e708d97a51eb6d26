"""Acceptance suite: one test per release criterion, each printing a
PASS line when its assertions hold (run with -s to see them)."""

import time

import pytest

from coqatoo import (Classification, load_templates, parse_state,
                     record_session, run_live, run_replay, tokenize_script)
from coqatoo.cli import main
from coqatoo.pipeline import annotate_steps, generate
from coqatoo.rewriter import OutputMode
from coqatoo.tree_builder import build_tree
from coqatoo.diff_engine import classify_bindings, diff_states
from coqatoo.goal_parser import Hypothesis

from helpers import (CORPUS, GOLDEN_DIR, LISTING_1, LISTING_2, all_fixture_states,
                     analyzed_steps, fixture_path, flatten, leaves, load_script, load_trace,
                     normalize_rendering, output_text, roundtrip_tactics, script_path, tactic_commands)


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_golden_reproduction(capsys):
    start = time.perf_counter()
    code = main([str(script_path("conj_imp_equiv")), "--provider", "replay",
                 "--fixture", str(fixture_path("conj_imp_equiv"))])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    golden = (GOLDEN_DIR / "conj_imp_equiv.annotated.en.txt").read_text()
    assert normalize_rendering(out) == normalize_rendering(golden)
    assert elapsed < 1.0
    with capsys.disabled():
        _report("golden reproduction (annotated, en, < 1s)")


def test_state_parsing():
    initial = parse_state(LISTING_1)
    assert initial.subgoal_count == 1
    assert initial.hypotheses == ()
    assert initial.goals == ("forall P Q R : Prop, (P /\\ Q -> R) <-> (P -> Q -> R)",)
    after = parse_state(LISTING_2)
    assert after.hypotheses == (Hypothesis(("P", "Q", "R"), "Prop"),)
    assert after.goals == ("(P /\\ Q -> R) <-> (P -> Q -> R)",)
    _report("state parsing of the worked-example blocks")


def test_tree_shape():
    steps = analyzed_steps("conj_imp_equiv")
    root = build_tree(steps)
    assert [step.item.command for step in root.steps] == ["intros", "split"]
    assert len(root.children) == 2
    assert all(child.depth == 1 and len(child.children) == 2 for child in root.children)
    assert all(leaf.depth == 2 for child in root.children for leaf in child.children)
    assert len(leaves(root)) == 4
    assert [it.command for it in flatten(root)] == [s.item.command for s in steps]
    assert len(flatten(root)) == 12
    _report("tree shape and flattening order")


@pytest.mark.parametrize("name", CORPUS)
def test_round_trip(name):
    script, trace = load_trace(name)
    lines, _ = generate(script, trace, load_templates(), OutputMode.ANNOTATED)
    source_tactics = tactic_commands(tokenize_script(script_path(name).read_text()))
    assert roundtrip_tactics(output_text(lines)) == source_tactics
    _report(f"round-trip tactic order ({name})")


@pytest.mark.parametrize("name", CORPUS)
def test_diff_properties(name):
    for state in all_fixture_states(name):
        if state.subgoal_count:
            d = diff_states(state, state)
            assert not d.added and d.subgoal_delta == 0
            assert d.classification is Classification.TRANSFORM
    for step in analyzed_steps(name):
        d = step.diff
        if d.classification is Classification.BRANCH:
            assert d.subgoal_delta >= 1
        elif d.classification is Classification.CLOSE:
            assert d.subgoal_delta == -1
        else:
            assert d.subgoal_delta == 0
        variables, hypotheses = classify_bindings(d.added, step.before)
        flat = [n for h in variables + hypotheses for n in h.names]
        assert sorted(flat) == sorted(n for h in d.added for n in h.names)
    _report(f"diff and classification properties ({name})")


def test_language_completeness():
    fr = load_templates(language="fr")
    en = load_templates(language="en")
    assert set(fr.entries) == set(en.entries)
    script, trace = load_trace("conj_imp_equiv")
    lines, _ = generate(script, trace, fr, OutputMode.ANNOTATED)
    assert "Supposons" in output_text(lines)
    _report("language completeness (fr renders the golden example)")


@pytest.mark.parametrize("name", CORPUS)
def test_verbosity_bound(name):
    annotations = annotate_steps(analyzed_steps(name), load_templates())
    for ann in annotations.values():
        assert len(ann.sentences) <= 2
    _report(f"verbosity bound of two sentences per tactic ({name})")


def test_unsupported_construct_handling(tmp_path, capsys):
    bad = tmp_path / "chain.v"
    bad.write_text("Lemma t : True. Proof. split; intros. Qed.")
    assert main([str(bad)]) == 1
    assert "UNSUPPORTED_CHAIN" in capsys.readouterr().err

    script, trace = load_trace("modus_ponens")
    assert [(it.command, it.prover_text) for it in script.tactics if it.head == "auto"] == [("auto", "info_auto.")]
    recorded = tmp_path / "mp.cqtrace"
    record_session(trace, str(recorded))
    assert '"tactic": "info_auto"' in recorded.read_text()
    with capsys.disabled():
        _report("unsupported ';' rejected; auto recorded as info_auto")


def test_live_prover_integration(tmp_path, live_prover, corpus_name):
    script = load_script(corpus_name)
    trace = run_live(script, live_prover(fixture_path(corpus_name)))
    out = tmp_path / "live.cqtrace"
    record_session(trace, str(out))
    replayed = run_replay(script, str(out))
    for a, b in zip(replayed.states(), trace.states(), strict=True):
        assert a == b
    _report(f"live prover record/replay agreement ({corpus_name})")
