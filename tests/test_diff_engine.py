from hypothesis import given, strategies as st

from coqatoo import (Classification, Hypothesis, SessionTrace, StateDiff, TraceStep, classify_bindings,
                     diff_states, parse_state)
from coqatoo.diff_engine import is_heuristic

from helpers import LISTING_1, LISTING_2, all_fixture_states, analyzed_steps, state


def test_intros_diff_from_listings():
    diff = diff_states(parse_state(LISTING_1), parse_state(LISTING_2))
    assert diff.added == (Hypothesis(("P", "Q", "R"), "Prop"),)
    assert diff.subgoal_delta == 0
    assert diff.classification is Classification.INTRO


def test_reflexive_diff_is_empty_transform(corpus_name):
    for state in all_fixture_states(corpus_name):
        if state.subgoal_count == 0:
            continue
        diff = diff_states(state, state)
        assert not diff.added and diff.subgoal_delta == 0
        assert diff.classification is Classification.TRANSFORM


def test_unchanged_context_is_shared_and_diffs_empty():
    ctx = ["P, Q : Prop", "HP : P", "HQ : Q"]
    steps = [("split", state(ctx, ["P", "Q"])), ("assumption", state(ctx, ["Q"])),
             ("simpl", state(ctx, ["Q /\\ True"]))]
    trace = SessionTrace("Lemma t : P /\\ Q.", state(ctx, ["P /\\ Q"]),
                         tuple(TraceStep(t, raw) for t, raw in steps))
    states = trace.states()
    assert all(s.hypotheses is states[0].hypotheses for s in states)
    assert [diff_states(a, b) for a, b in zip(states, states[1:])] == [
        StateDiff((), 1, Classification.BRANCH),
        StateDiff((), -1, Classification.CLOSE),
        StateDiff((), 0, Classification.TRANSFORM),
    ]


def test_rewrapped_hypotheses_give_an_empty_transform():
    a = parse_state("1 subgoal\n\n  H : forall x : nat, x = x\n  HP : P  /\\ Q\n"
                    "  ============================\n  P\n")
    b = parse_state("1 subgoal\n\n  H : forall x : nat,\n        x   =  x\n  HP : P /\\\n   Q\n"
                    "  ============================\n  P\n")
    assert a.hypotheses == b.hypotheses
    diff = diff_states(a, b)
    assert not diff.added and diff.subgoal_delta == 0
    assert diff.classification is Classification.TRANSFORM


def test_split_branches():
    steps = analyzed_steps("conj_imp_equiv")
    split = steps[1]
    assert split.item.head == "split"
    assert split.diff.subgoal_delta == 1
    assert split.diff.classification is Classification.BRANCH


def test_classification_matches_delta(corpus_name):
    for step in analyzed_steps(corpus_name):
        d = step.diff
        if d.classification is Classification.BRANCH:
            assert d.subgoal_delta >= 1
        elif d.classification is Classification.CLOSE:
            assert d.subgoal_delta == -1
        else:
            assert d.subgoal_delta == 0


def test_antisymmetry(corpus_name):
    def bindings(hyps):
        return {(n, h.type_expr) for h in hyps for n in h.names}

    for step in analyzed_steps(corpus_name):
        if step.after.subgoal_count == 0:
            continue
        fwd = diff_states(step.before, step.after)
        bwd = diff_states(step.after, step.before)
        assert fwd.subgoal_delta == -bwd.subgoal_delta
        assert bindings(fwd.added) == bindings(step.after.hypotheses) - bindings(step.before.hypotheses)
        assert bindings(bwd.added) == bindings(step.before.hypotheses) - bindings(step.after.hypotheses)


# --- classify_bindings ---

def test_variables_from_prop_sort():
    before = parse_state(LISTING_1)
    variables, hypotheses = classify_bindings([Hypothesis(("P", "Q", "R"), "Prop")], before)
    assert [n for h in variables for n in h.names] == ["P", "Q", "R"]
    assert hypotheses == []


def test_proofs_of_propositions_are_hypotheses():
    before = parse_state(LISTING_2)  # P, Q, R : Prop in context
    added = [Hypothesis(("H",), "P /\\ Q -> R"), Hypothesis(("HP",), "P"), Hypothesis(("HQ",), "Q")]
    variables, hypotheses = classify_bindings(added, before)
    assert variables == []
    assert [n for h in hypotheses for n in h.names] == ["H", "HP", "HQ"]


def test_element_of_set_variable_is_a_variable():
    before = parse_state("1 subgoal\n\n  A : Set\n  ============================\n  True\n")
    variables, hypotheses = classify_bindings([Hypothesis(("x",), "A")], before)
    assert [n for h in variables for n in h.names] == ["x"]
    assert hypotheses == []


def test_unrecognized_type_is_a_heuristic_hypothesis():
    odd = Hypothesis(("p",), "nat * nat")
    assert classify_bindings([odd], parse_state(LISTING_1)) == ([], [odd])
    assert is_heuristic(odd)
    assert not any(is_heuristic(Hypothesis(("H",), t)) for t in ("P", "P /\\ Q", "x = y", "A -> B"))


def test_classify_empty():
    assert classify_bindings([], parse_state(LISTING_1)) == ([], [])


_hyps = st.lists(
    st.builds(Hypothesis,
              st.tuples(st.sampled_from(["H", "HP", "x", "y", "n"])),
              st.sampled_from(["Prop", "Set", "Type", "P", "P /\\ Q", "nat", "A -> B"])),
    max_size=6)


@given(_hyps)
def test_classify_partitions_input(added):
    before = parse_state(LISTING_1)
    variables, hypotheses = classify_bindings(added, before)
    assert sorted(variables + hypotheses, key=id) == sorted(added, key=id)
    assert all((h in variables) != (h in hypotheses) for h in added)
