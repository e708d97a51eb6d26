import re
import sys

import pytest
from hypothesis import given, strategies as st

from coqatoo import CoqatooError, ItemKind, detect_unsupported, parse_script, tokenize_script
from coqatoo.diagnostics import Severity
from coqatoo.rewriter import RULES
from coqatoo.script_parser import _head

from helpers import script_path, tactic_commands

LISTING_4_TACTICS = [
    "intros", "split", "intros H HP HQ", "apply H", "apply conj",
    "assumption", "assumption",
    "intros H HPQ", "inversion HPQ", "apply H", "assumption", "assumption",
]


def kinds(items):
    return [it.kind for it in items]


def test_worked_example_tokenization():
    items = tokenize_script(script_path("conj_imp_equiv").read_text())
    assert kinds(items) == ([ItemKind.LEMMA_HEADER, ItemKind.PROOF_BEGIN]
                            + [ItemKind.TACTIC] * 12 + [ItemKind.PROOF_END])
    assert tactic_commands(items) == LISTING_4_TACTICS


def test_empty_proof_body():
    items = tokenize_script("Lemma t : True. Proof. Qed.")
    assert kinds(items) == [ItemKind.LEMMA_HEADER, ItemKind.PROOF_BEGIN, ItemKind.PROOF_END]


def test_nested_comment_is_one_item():
    src = "Lemma t : True.\nProof.\n(* a (* b *) c *)\nsplit.\nQed."
    items = tokenize_script(src)
    comments = [it for it in items if it.kind is ItemKind.COMMENT]
    assert len(comments) == 1
    assert comments[0].text == "(* a (* b *) c *)"


def test_qualified_name_does_not_split_sentence():
    items = tokenize_script("Lemma t : True. Proof. apply Coq.Init.Logic.I. Qed.")
    tactics = [it for it in items if it.kind is ItemKind.TACTIC]
    assert len(tactics) == 1
    assert tactics[0].command == "apply Coq.Init.Logic.I"


def test_unterminated_comment():
    with pytest.raises(CoqatooError) as exc:
        tokenize_script("Lemma t : True. Proof. (* oops")
    assert exc.value.diagnostic.code == "UNTERMINATED_COMMENT"


def test_no_lemma():
    with pytest.raises(CoqatooError) as exc:
        tokenize_script("split. assumption.")
    assert exc.value.diagnostic.code == "NO_LEMMA"


def test_bullets_are_their_own_items():
    items = tokenize_script("Lemma t : True.\nProof.\nsplit.\n- assumption.\n-- apply x.\nQed.")
    bullets = [it.text for it in items if it.kind is ItemKind.BULLET]
    assert bullets == ["-", "--"]


def test_spans_cover_source(corpus_name):
    src = script_path(corpus_name).read_text()
    items = tokenize_script(src)
    pos = 0
    for it in items:
        assert it.span[0] >= pos
        assert src[pos:it.span[0]].strip() == ""  # gaps are whitespace only
        assert src[it.span[0]:it.span[1]] == it.text
        pos = it.span[1]
    assert src[pos:].strip() == ""


def test_tactic_dot_only_terminal(corpus_name):
    for it in tokenize_script(script_path(corpus_name).read_text()):
        if it.kind is ItemKind.TACTIC:
            assert "." not in it.text[:-1]


# --- prover_text: the prover runs auto as info_auto ---

def _prover_spelled(item):
    return item._replace(text=item.prover_text)


def test_auto_head_rewritten():
    items = tokenize_script("Lemma t : True. Proof. auto. Qed.")
    tactic = [it for it in items if it.kind is ItemKind.TACTIC][0]
    assert tactic.prover_text == "info_auto."
    assert tactic.text == "auto."


def test_auto_with_arguments():
    items = tokenize_script("Lemma t : True. Proof. auto with arith. Qed.")
    tactics = [it for it in items if it.kind is ItemKind.TACTIC]
    assert [it.command for it in tactics] == ["auto with arith"]
    assert [_prover_spelled(it).command for it in tactics] == ["info_auto with arith"]


def test_non_auto_unchanged():
    items = tokenize_script("Lemma t : True. Proof. assumption. Qed.")
    assert [_prover_spelled(it) for it in items] == items


@pytest.mark.parametrize("text", ["info_auto.", "assumption.", "autorewrite.", "eauto.", "apply auto."])
def test_prover_text_of_a_tactic_not_led_by_auto_is_its_text(text):
    item = tokenize_script(f"Lemma t : True. Proof. {text} Qed.")[2]
    assert item.prover_text == item.text == text


def test_preprocess_idempotent(corpus_name):
    items = tokenize_script(script_path(corpus_name).read_text())
    once = [_prover_spelled(it) for it in items]
    assert [_prover_spelled(it) for it in once] == once


# --- detect_unsupported ---

def test_chain_operator_rejected():
    items = tokenize_script("Lemma t : True. Proof. split; intros. Qed.")
    diags = detect_unsupported(items)
    assert [d.code for d in diags] == ["UNSUPPORTED_CHAIN"]
    assert diags[0].severity is Severity.ERROR


def test_worked_example_has_no_errors():
    items = tokenize_script(script_path("conj_imp_equiv").read_text())
    assert [d for d in detect_unsupported(items) if d.severity is Severity.ERROR] == []


def test_unknown_tactic_is_a_warning():
    items = tokenize_script("Lemma t : True. Proof. ring. Qed.")
    diags = detect_unsupported(items)
    assert [d.code for d in diags] == ["UNSUPPORTED_TACTIC"]
    assert diags[0].severity is Severity.WARNING


@pytest.mark.parametrize("head", sorted(RULES))
def test_every_rule_head_is_supported(head):
    items = tokenize_script(f"Lemma t : True. Proof. {head} H. Qed.")
    assert detect_unsupported(items) == []


@pytest.mark.parametrize("command, head", [
    ("apply H", "apply"), ("exact(I)", "exact"), ("intros H'", "intros"), ("τακτική H", "τακτική"),
    ("rewrite_α' -> H", "rewrite_α'"), ("2: auto", "2: auto"),
])
def test_head_is_the_identifier_a_command_starts_with(command, head):
    assert _head(command) == head


def test_a_non_ascii_tactic_is_warned_by_its_name():
    items = tokenize_script("Lemma t : True. Proof. τακτική H. Qed.")
    assert [d.message for d in detect_unsupported(items)] == ['no rewriting rule for tactic "τακτική"']


@pytest.mark.parametrize("selector", ["2:", "1-2:", "1, 3:", "1,2-3:", "all:", "par:", "!:", "[H]:", "2 :"])
def test_goal_selector_is_rejected(selector):
    items = tokenize_script(f"Lemma t : True. Proof. {selector} assumption. Qed.")
    diags = detect_unsupported(items)
    assert [(d.code, d.severity) for d in diags] == [("UNSUPPORTED_SELECTOR", Severity.ERROR)]
    assert diags[0].span == next(it.span for it in items if it.kind is ItemKind.TACTIC)


def test_colon_equals_and_typed_binders_are_no_selectors():
    items = tokenize_script("Lemma t : True. Proof. pose (x := 1). assert (H : True). Qed.")
    assert [d.code for d in detect_unsupported(items)] == ["UNSUPPORTED_TACTIC"] * 2


def test_semicolon_inside_comment_or_string_is_fine():
    items = tokenize_script('Lemma t : True. Proof. (* a; b *) idtac "x; y". Qed.')
    assert [d.code for d in detect_unsupported(items)] == ["UNSUPPORTED_TACTIC"]


# --- parse_script ---

def test_parse_script_keeps_the_first_lemma_and_warns():
    src = "Lemma a : True. Proof. auto. Qed.\nLemma b : True. Proof. ring. Qed.\nLemma c : True.\n"
    script, diags = parse_script(src)
    assert script.lemma.command == "Lemma a : True"
    assert [(it.text, it.prover_text) for it in script.tactics] == [("auto.", "info_auto.")]
    assert [(d.code, d.severity) for d in diags] == [("MULTIPLE_LEMMAS", Severity.WARNING)]
    assert "2 more ignored" in diags[0].message
    assert diags[0].span[0] == src.index("Lemma b")


def test_focus_braces_are_their_own_items():
    src = "Lemma t : True /\\ True.\nProof.\n  split.\n  { exact I. }\n  {split. {assumption. }\n}\nQed."
    items = tokenize_script(src)
    assert [it.text for it in items if it.kind is ItemKind.FOCUS] == ["{", "}", "{", "{", "}", "}"]
    assert items[-1].kind is ItemKind.PROOF_END
    script, diags = parse_script(src)
    assert [it.command for it in script.tactics] == ["split", "exact I", "split", "assumption"]
    assert [d.message for d in diags] == ['no rewriting rule for tactic "exact"']


# --- property-based lexing ---

_tactics = st.sampled_from(["intros", "apply H", "assumption", "split", "auto", "ring", "intros H HP",
                            # a ".", "(*" or ";" inside a string or a comment ends nothing
                            'idtac "a. b"', 'idtac "x (* y"', 'idtac "p; q"', 'idtac "say ""hi"". "',
                            "apply H (* why. (* nested; *) ok *)", "exact (conj I I) (* . *)"])
_gaps = st.sampled_from([" ", "  ", "\n", "\n  ", "\t\n", "\x0c", "\xa0", "\u2028", "\u3000", "\x1c"])


@st.composite
def _scripts(draw):
    """(source, the text of each item in order)."""
    parts = ["Lemma t : True.", "Proof."]
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            parts.append("(* note (* nested *) *)")
        if draw(st.booleans()):
            parts.append(draw(st.sampled_from(["{", "}", "-", "--", "+"])))
        parts.append(draw(_tactics) + ".")
    parts.append("Qed.")
    unterminated = draw(st.booleans())
    if unterminated:
        parts.append(draw(_tactics))   # a sentence without its ".", which runs to the end
    gaps = [draw(_gaps) for _ in parts]
    # the last item may end at the end of the input
    end = "" if unterminated else draw(_gaps | st.just(""))
    return "".join(g + p for g, p in zip(gaps, parts)) + end, parts


@given(_scripts())
def test_lossless_lexing(drawn):
    src, parts = drawn
    items = tokenize_script(src)
    assert [it.text for it in items] == parts
    pos = 0
    rebuilt = []
    for it in items:
        assert src[pos:it.span[0]].strip() == ""
        rebuilt.append(src[pos:it.span[0]])
        rebuilt.append(it.text)
        pos = it.span[1]
    rebuilt.append(src[pos:])
    assert "".join(rebuilt) == src


def test_regex_whitespace_is_str_isspace():
    # the tokenizer finds sentence ends and skips blanks with regex \s
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [ch for ch in every if ch.isspace()]


@given(_scripts())
def test_preprocess_idempotence_property(drawn):
    once = [_prover_spelled(it) for it in tokenize_script(drawn[0])]
    assert [_prover_spelled(it) for it in once] == once
