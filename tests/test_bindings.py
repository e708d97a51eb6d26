from hypothesis import given, strategies as st

from coqatoo import Hypothesis, SessionTrace, classify_bindings, diff_states, parse_state
from coqatoo.rewriter import is_heuristic

from helpers import LISTING_1, LISTING_2, analyzed_steps, state


def test_intros_diff_from_listings():
    assert diff_states(parse_state(LISTING_1), parse_state(LISTING_2)) == tuple(Hypothesis(n, "Prop") for n in "PQR")


def test_unchanged_context_is_shared_and_diffs_empty():
    ctx = ["P, Q : Prop", "HP : P", "HQ : Q"]
    trace = SessionTrace((state(ctx, ["P /\\ Q"]), state(ctx, ["P", "Q"]), state(ctx, ["Q"]),
                          state(ctx, ["Q /\\ True"])))
    states = trace.states()
    assert all(s.hypotheses is states[0].hypotheses for s in states)
    assert [diff_states(a, b) for a, b in zip(states, states[1:])] == [(), (), ()]
    assert [len(b.goals) - len(a.goals) for a, b in zip(states, states[1:])] == [1, -1, 0]


def test_rewrapped_hypotheses_give_an_empty_transform():
    a = parse_state("1 subgoal\n\n  H : forall x : nat, x = x\n  HP : P  /\\ Q\n"
                    "  ============================\n  P\n")
    b = parse_state("1 subgoal\n\n  H : forall x : nat,\n        x   =  x\n  HP : P /\\\n   Q\n"
                    "  ============================\n  P\n")
    assert a.hypotheses == b.hypotheses
    assert diff_states(a, b) == ()


def test_split_branches():
    steps = analyzed_steps("conj_imp_equiv")
    split = steps[1]
    assert split.item.head == "split"
    assert (len(split.before.goals), len(split.after.goals)) == (1, 2)
    assert split.added == ()


def test_antisymmetry(corpus_name):
    for step in analyzed_steps(corpus_name):
        assert set(diff_states(step.before, step.after)) == set(step.after.hypotheses) - set(step.before.hypotheses)
        assert set(diff_states(step.after, step.before)) == set(step.before.hypotheses) - set(step.after.hypotheses)


# --- classify_bindings ---

def test_variables_from_prop_sort():
    before = parse_state(LISTING_1)
    variables, hypotheses = classify_bindings([Hypothesis(n, "Prop") for n in "PQR"], before)
    assert [h.name for h in variables] == ["P", "Q", "R"]
    assert hypotheses == []


def test_proofs_of_propositions_are_hypotheses():
    before = parse_state(LISTING_2)  # P, Q, R : Prop in context
    added = [Hypothesis("H", "P /\\ Q -> R"), Hypothesis("HP", "P"), Hypothesis("HQ", "Q")]
    variables, hypotheses = classify_bindings(added, before)
    assert variables == []
    assert [h.name for h in hypotheses] == ["H", "HP", "HQ"]


def test_element_of_set_variable_is_a_variable():
    before = parse_state("1 subgoal\n\n  A : Set\n  ============================\n  True\n")
    variables, hypotheses = classify_bindings([Hypothesis("x", "A")], before)
    assert [h.name for h in variables] == ["x"]
    assert hypotheses == []


def test_unrecognized_type_is_a_heuristic_hypothesis():
    odd = Hypothesis("p", "nat * nat")
    assert classify_bindings([odd], parse_state(LISTING_1)) == ([], [odd])
    assert is_heuristic(odd)
    assert not any(is_heuristic(Hypothesis("H", t)) for t in ("P", "P /\\ Q", "x = y", "x <> y", "A -> B"))


def test_classify_empty():
    assert classify_bindings([], parse_state(LISTING_1)) == ([], [])


_hyps = st.lists(
    st.builds(Hypothesis,
              st.sampled_from(["H", "HP", "x", "y", "n"]),
              st.sampled_from(["Prop", "Set", "Type", "P", "P /\\ Q", "nat", "A -> B"])),
    max_size=6)


@given(_hyps)
def test_classify_partitions_input(added):
    before = parse_state(LISTING_1)
    variables, hypotheses = classify_bindings(added, before)
    assert sorted(variables + hypotheses, key=id) == sorted(added, key=id)
    assert all((h in variables) != (h in hypotheses) for h in added)
