"""The record types: defaults, copies with `_replace`, hashing and equality."""

from coqatoo import ItemKind, ScriptItem, tokenize_script
from coqatoo.tree_builder import ProofNode

from helpers import load_trace


def test_script_item_has_one_text():
    item = ScriptItem(ItemKind.TACTIC, "auto.", (0, 5), 3)
    assert item._fields == ("kind", "text", "span", "seq")
    assert (item.text, item.prover_text) == ("auto.", "info_auto.")


def test_tokenized_auto_keeps_the_written_text():
    tactic = tokenize_script("Lemma t : True. Proof. auto with arith. Qed.")[2]
    assert (tactic.text, tactic.prover_text, tactic.head) == ("auto with arith.", "info_auto with arith.", "auto")
    assert type(tactic) is ScriptItem


def test_proof_nodes_share_no_lists():
    first, second = ProofNode(depth=0), ProofNode(depth=1, case_goal="P")
    first.steps.append("step")
    first.children.append(second)
    assert (second.steps, second.children) == ([], [])


def test_states_are_hashable_and_compare_by_value():
    _, trace = load_trace("conj_imp_equiv")
    first, again = trace.states(), trace.states()
    assert first == again
    assert {hash(s) for s in first} == {hash(s) for s in again}
    assert len(set(first + again)) == len(set(first))
