import re
from itertools import count

import pytest
from hypothesis import given, strategies as st

from coqatoo import Classification, CoqatooError, build_tree, diff_states, parse_state, to_dot
from coqatoo.tree_builder import AnalyzedStep

from helpers import DONE, analyzed_steps, flatten, leaves, state


def golden_tree():
    return build_tree(analyzed_steps("conj_imp_equiv"))


def test_golden_tree_shape():
    root = golden_tree()
    assert [step.item.command for step in root.steps] == ["intros", "split"]
    assert len(root.children) == 2
    branch_a, branch_b = root.children
    assert [step.item.command for step in branch_a.steps] == ["intros H HP HQ", "apply H", "apply conj"]
    assert [step.item.command for step in branch_b.steps] == ["intros H HPQ", "inversion HPQ", "apply H"]
    for branch in (branch_a, branch_b):
        assert branch.depth == 1
        assert len(branch.children) == 2
        for leaf in branch.children:
            assert leaf.depth == 2
            assert [step.item.command for step in leaf.steps] == ["assumption"]
            assert not leaf.children


def test_flatten_preserves_tactic_order(corpus_name):
    steps = analyzed_steps(corpus_name)
    root = build_tree(steps)
    assert [it.command for it in flatten(root)] == [s.item.command for s in steps]


def test_leaf_count_equals_close_count(corpus_name):
    steps = analyzed_steps(corpus_name)
    root = build_tree(steps)
    closes = sum(1 for s in steps if s.diff.classification is Classification.CLOSE)
    assert len(leaves(root)) == closes
    branches = [s.diff.subgoal_delta for s in steps if s.diff.classification is Classification.BRANCH]
    assert sum(branches) + 1 == len(leaves(root))


def test_every_leaf_ends_with_close(corpus_name):
    for leaf in leaves(build_tree(analyzed_steps(corpus_name))):
        assert leaf.steps[-1].diff.classification is Classification.CLOSE


def test_case_labels_of_split_and_apply_conj():
    root = golden_tree()
    assert [c.case_goal for c in root.children] == ["(P /\\ Q -> R) -> P -> Q -> R",
                                                    "(P -> Q -> R) -> P /\\ Q -> R"]
    branch_a = root.children[0]
    assert [c.case_goal for c in branch_a.children] == ["P", "Q"]


def test_child_depth_is_parent_plus_one():
    def check(node):
        for child in node.children:
            assert child.depth == node.depth + 1
            check(child)
    check(golden_tree())


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


def _shape(node):
    return node.depth, node.case_goal, [step.item for step in node.steps], [_shape(c) for c in node.children]


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
    assert _shape(build_tree(steps)) == expected
