import re
from itertools import count

import pytest
from hypothesis import given, strategies as st

from coqatoo import CoqatooError, ScriptItem, build_tree, diff_states, load_templates, parse_state, render, to_dot
from coqatoo.rewriter import Annotation, OutputMode
from coqatoo.tree_builder import AnalyzedStep, walk

from helpers import DONE, analyzed_steps, cases, flatten, leaves, state

EN = load_templates()


def golden_tree():
    return build_tree(analyzed_steps("conj_imp_equiv"))


def test_golden_tree_shape():
    root = golden_tree()
    found = cases(root)
    assert [step.item.command for step in root.steps] == ["intros", "split"]
    assert len(root.children) == 2
    branch_a, branch_b = root.children
    assert [step.item.command for step in branch_a.steps] == ["intros H HP HQ", "apply H", "apply conj"]
    assert [step.item.command for step in branch_b.steps] == ["intros H HPQ", "inversion HPQ", "apply H"]
    for branch in (branch_a, branch_b):
        assert found[branch][0] == 1
        assert len(branch.children) == 2
        for leaf in branch.children:
            assert found[leaf][0] == 2
            assert [step.item.command for step in leaf.steps] == ["assumption"]
            assert not leaf.children


def test_flatten_preserves_tactic_order(corpus_name):
    steps = analyzed_steps(corpus_name)
    root = build_tree(steps)
    assert [it.command for it in flatten(root)] == [s.item.command for s in steps]


def test_leaf_count_equals_close_count(corpus_name):
    steps = analyzed_steps(corpus_name)
    root = build_tree(steps)
    deltas = [len(s.after.goals) - len(s.before.goals) for s in steps]
    assert len(leaves(root)) == sum(1 for d in deltas if d < 0)
    assert sum(d for d in deltas if d > 0) + 1 == len(leaves(root))


def test_every_leaf_ends_with_close(corpus_name):
    for leaf in leaves(build_tree(analyzed_steps(corpus_name))):
        assert len(leaf.steps[-1].after.goals) < len(leaf.steps[-1].before.goals)


def test_case_labels_of_split_and_apply_conj():
    root = golden_tree()
    found = cases(root)
    assert [found[c][1] for c in root.children] == ["(P /\\ Q -> R) -> P -> Q -> R",
                                                   "(P -> Q -> R) -> P /\\ Q -> R"]
    branch_a = root.children[0]
    assert [found[c][1] for c in branch_a.children] == ["P", "Q"]


def test_child_depth_is_parent_plus_one():
    root = golden_tree()
    found = cases(root)

    def check(node):
        for child in node.children:
            assert found[child][0] == found[node][0] + 1
            check(child)
    check(root)


def test_single_tactic_proof_has_no_children():
    steps = analyzed_steps("modus_ponens")
    root = build_tree(steps)
    assert not root.children
    assert len(root.steps) == 3


def test_incomplete_proof_rejected():
    steps = analyzed_steps("conj_imp_equiv")[:-1]
    with pytest.raises(CoqatooError) as exc:
        build_tree(steps)
    assert exc.value.diagnostic.code == "INCOMPLETE_PROOF"


def test_dot_export_mentions_cases():
    dot = "\n".join(to_dot(golden_tree()))
    assert dot.startswith("digraph proof {")
    assert len(re.findall(r"n\d+ -> n\d+;", dot)) == 6  # 2 branches + 4 leaves
    assert "case: P" in dot


def trees(depth):
    """A proof tree as the list of its subtrees: none for a leaf, or 2 to 4, at most `depth` levels deep."""
    leaf = st.just([])
    return leaf if depth == 0 else leaf | st.lists(trees(depth - 1), min_size=2, max_size=4)


def _shape(node, found):
    """Depth, case goal, tactics and sub-shapes of `node`; `found` is the tree's `cases`."""
    return (*found[node], [step.item for step in node.steps], [_shape(c, found) for c in node.children])


def _linear_trace(tree):
    """The steps of a proof of `tree` whose every case proves a goal of its
    own, by one split if it has cases and by one assumption if not, and the
    _shape that build_tree must give them."""
    names = count()

    def shape(subtree, depth, goal):
        children = [shape(child, depth + 1, f"G{next(names)}") for child in subtree]
        return depth, goal, ["split" if children else "assumption"], children
    expected = shape(tree, 0, None)
    steps, goals = [], [expected]   # the open goals, the focused one first
    before = parse_state(state([], ["G"]))
    while goals:
        _, _, tactic, children = goals.pop(0)
        goals[:0] = children
        after = parse_state(state([], [goal for _, goal, _, _ in goals]) if goals else DONE)
        steps.append(AnalyzedStep(tactic[0], before, after, diff_states(before, after)))
        before = after
    return steps, expected


@given(trees(5))
def test_a_tree_is_rebuilt_from_its_linear_trace(tree):
    steps, expected = _linear_trace(tree)
    root = build_tree(steps)
    assert _shape(root, cases(root)) == expected


def _steps(goal_lists):
    """One step between each two states of the given goals, none for a finished proof,
    the tactic of step k at span (2k, 2k + 2)."""
    states = [parse_state(state([], goals) if goals else DONE) for goals in goal_lists]
    return [AnalyzedStep(ScriptItem("t.", (2 * k, 2 * k + 2)), before, after, diff_states(before, after))
            for k, (before, after) in enumerate(zip(states, states[1:]))]


def _counted_steps(counts):
    """`_steps` of the given goal counts.  A state of n goals holds G(n - 1), ..., G0, so each
    step keeps the goals behind the focused one where it can: it must, unless it closes two."""
    return _steps([[f"G{i}" for i in reversed(range(n))] for n in counts])


@pytest.mark.parametrize("initial", [2, 3])
def test_more_than_one_initial_goal_is_reported_at_the_first_tactic(initial):
    with pytest.raises(CoqatooError) as exc:
        build_tree(_counted_steps(range(initial, -1, -1)))
    d = exc.value.diagnostic
    assert (d.code, d.message, d.span) == ("MALFORMED_TRACE", f"the proof starts with {initial} goals", (0, 2))


def test_closing_two_goals_with_a_case_left_is_malformed():
    with pytest.raises(CoqatooError) as exc:
        build_tree(_counted_steps([1, 2, 0]))
    d = exc.value.diagnostic
    assert (d.code, d.message, d.span) == (
        "MALFORMED_TRACE", "goal 'G0', which the tactic does not focus, was changed or closed", (2, 4))


@pytest.mark.parametrize("rest, after, changed", [
    ("Q /\\ P", ["Q /\\ P"], None),
    ("Q /\\ P", ["A", "B", "Q /\\ P"], None),
    ("Q /\\ P", ["Q  /\\\n  P"], None),
    ("Q /\\ P", ["Q -> False"], "Q /\\ P"),
    ("Q /\\ P", [], "Q /\\ P"),
    ("Q /\\ P", ["Q /\\ P", "A"], "Q /\\ P"),
    ("?n = 1", ["1 = 1"], None),
    ("?n = 1", [], "?n = 1"),
], ids=["closed-focused", "branched", "rewrapped", "changed", "closed-two", "moved", "evar-filled", "evar-closed"])
def test_the_goals_behind_the_focused_one_end_what_a_step_leaves(rest, after, changed):
    """The second step finds goals G and `rest`, and leaves `after`; the steps after it close one goal each."""
    steps = _steps([["G"], ["G", rest], after] + [after[i:] for i in range(1, len(after) + 1)])
    if changed is None:
        assert flatten(build_tree(steps)) == [step.item for step in steps]
        return
    with pytest.raises(CoqatooError) as exc:
        build_tree(steps)
    d = exc.value.diagnostic
    assert (d.code, d.message, d.span) == (
        "MALFORMED_TRACE", f"goal {changed!r}, which the tactic does not focus, was changed or closed", (2, 4))


def test_a_step_that_does_not_start_where_the_last_one_ended_is_malformed():
    """A split from G to A and B, then a step from X to no goals."""
    first, _, second = _steps([["G"], ["A", "B"], ["X"], []])
    with pytest.raises(CoqatooError) as exc:
        build_tree([first, second])
    d = exc.value.diagnostic
    assert (d.code, d.message, d.span) == (
        "MALFORMED_TRACE", "the tactic does not start where the last one ended", (4, 6))


def test_a_step_may_start_from_an_equal_state_parsed_apart():
    """States parsed apart are equal goals in distinct tuples: the chain holds."""
    steps = _steps([["G"], ["A", "B"]]) + _steps([["A", "B"], ["B"], []])
    assert steps[0].after.goals is not steps[1].before.goals
    assert flatten(build_tree(steps)) == [step.item for step in steps]


def _named_state(n, name="G"):
    """A state of the n goals name(n - 1), ..., name0, or a finished proof."""
    return parse_state(state([], [f"{name}{i}" for i in reversed(range(n))]) if n else DONE)


@given(st.integers(0, 3), st.lists(st.tuples(st.integers(-2, 2), st.none() | st.tuples(st.integers(0, 3),
                                                                                      st.sampled_from("GX"))),
                                   max_size=8))
def test_any_goal_counts_give_the_steps_in_order_or_a_trace_error(initial, moves):
    """Goal counts drawn at random, none below 0: each step changes the count
    by `change` and starts where the last one ended, or, given (n, name), from
    a state of its own with n goals named as `_named_state` names them.
    build_tree keeps every step in pre-order, or rejects the trace as
    malformed or incomplete, and raises nothing else."""
    steps, after = [], _named_state(initial)
    for k, (change, start) in enumerate(moves):
        before = after if start is None else _named_state(*start)
        after = _named_state(max(len(before.goals) + change, 0))
        steps.append(AnalyzedStep(ScriptItem("t.", (2 * k, 2 * k + 2)), before, after, ()))
    try:
        root = build_tree(steps)
    except CoqatooError as exc:
        assert exc.diagnostic.code in ("MALFORMED_TRACE", "INCOMPLETE_PROOF")
    else:
        assert flatten(root) == [step.item for step in steps]


@given(st.lists(st.integers(-1, 2), max_size=12))
def test_each_step_gets_its_annotation_in_trace_order_and_each_case_its_first_goal(changes):
    """Step k changes the goal count by changes[k], until the proof ends, and
    then steps close the goals left one at a time; the goals a step adds are
    named after it, so every step that keeps the count changes the focused
    goal.  Step k's one sentence names k: annotated output prints it in front
    of the k-th tactic, and plain output in the k-th tactic's place.  Every
    case label and every `case:` line of to_dot names the goal its node's
    first step focuses, at the node's depth, and every node below the root
    has a step."""
    goal_lists = [["G"]]
    for change in changes:
        if not goal_lists[-1]:
            break
        k = len(goal_lists) - 1
        goal_lists.append([f"S{k}_{j}" for j in range(change + 1)] + goal_lists[-1][1:])
    while goal_lists[-1]:
        goal_lists.append(goal_lists[-1][1:])
    steps = _steps(goal_lists)
    root = build_tree(steps)
    nodes = [node for entering, node in walk(root) if entering]
    assert all(node.steps for node in nodes[1:])
    found, label = cases(root), EN.fill("case.label")
    annotations = [Annotation((f"Step {k}.",)) for k in range(len(steps))]
    expected, dot, k = [], [], count()   # case labels with their depths and sentences, in output order
    for node in nodes:
        depth, goal = found[node]
        if goal is not None:
            expected.append((depth, label.replace("{goal}", goal)))
        expected += [f"Step {next(k)}." for _ in node.steps]
        dot.append("t" if goal is None else f"t\\ncase: {goal}")

    annotated = render(root, annotations, OutputMode.ANNOTATED, "Lemma t : G.", EN)
    assert annotated[:2] == ["Lemma t : G.", "Proof."] and annotated[-1] == "Qed."
    read = []
    for line in annotated[2:-1]:
        case = re.fullmatch(r" *(-+) \(\* (.*) \*\)", line)
        read.append((len(case[1]), case[2]) if case else re.fullmatch(r" *\(\* (.*) \*\) t\.", line)[1])
    assert read == expected
    plain = render(root, annotations, OutputMode.PLAIN, "Lemma t : G.", EN)
    assert plain == [line if isinstance(line, str) else line[1] for line in expected]
    assert re.findall(r'n\d+ \[label="(.*)"\];', "\n".join(to_dot(root))) == dot
