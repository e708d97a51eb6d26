import re
import sys

import pytest
from hypothesis import given, strategies as st

from coqatoo import CoqatooError, Hypothesis, parse_state
from coqatoo.goal_parser import _IDENT, _OTHER_BREAKS, normalize_text

from helpers import LISTING_1, LISTING_2, all_fixture_states


SEPARATOR = "  ============================"


@pytest.mark.parametrize("raw, hypotheses", [
    (LISTING_1, ()),
    (LISTING_1.replace("\n", "\r\n"), ()),
    (LISTING_1.replace("\n", "\r"), ()),
    (LISTING_1.replace("\n", "\x0c"), ()),
    (LISTING_1.replace(SEPARATOR, SEPARATOR + "   "), ()),
    (LISTING_1.replace(SEPARATOR, "  H : a ==== b\n  ====>\n" + SEPARATOR),
     (Hypothesis(("H",), "a ==== b ====>"),)),
], ids=["lf", "crlf", "cr", "formfeed", "trailing-blanks", "equals-in-type"])
def test_initial_state_block(raw, hypotheses):
    state = parse_state(raw)
    assert state.subgoal_count == 1
    assert state.hypotheses == hypotheses
    assert state.goals == ("forall P Q R : Prop, (P /\\ Q -> R) <-> (P -> Q -> R)",)


def test_state_after_intros_block():
    state = parse_state(LISTING_2)
    assert state.subgoal_count == 1
    assert len(state.hypotheses) == 1
    assert state.hypotheses[0].names == ("P", "Q", "R")
    assert state.hypotheses[0].type_expr == "Prop"
    assert state.goals == ("(P /\\ Q -> R) <-> (P -> Q -> R)",)


def test_no_more_subgoals():
    state = parse_state("No more subgoals.\n")
    assert state.subgoal_count == 0
    assert state.goals == ()


@pytest.mark.parametrize("goal", ['s = "Proof completed"', '"No more subgoals" = s', "P ->\n  Proof completed"])
def test_a_marker_in_a_goal_is_no_finished_proof(goal):
    """A marker counts only where it starts a line ahead of the subgoal header."""
    state = parse_state(f"1 subgoal\n\n  s : string\n  ============================\n  {goal}\n")
    assert (state.subgoal_count, state.goals) == (1, (" ".join(goal.split("\n  ")),))


@pytest.mark.parametrize("raw", ["(* info auto: *)\nsimple exact I.\n\nNo more subgoals.\n",
                                 "  Proof completed.\n", "No more subgoals.\r\n"])
def test_a_marker_that_starts_a_line_finishes_the_proof(raw):
    assert parse_state(raw) == (0, (), (), raw)


def test_multiple_subgoals():
    raw = ("3 subgoals\n\n  H : P\n  ============================\n  P\n\n"
           "subgoal 2 is:\n Q\nsubgoal 3 is:\n R\n")
    state = parse_state(raw)
    assert state.subgoal_count == 3
    assert state.goals == ("P", "Q", "R")


def test_wrapped_goal_lines_are_joined():
    raw = "1 subgoal\n\n  ============================\n  forall P : Prop,\n  P -> P\n"
    assert parse_state(raw).goals == ("forall P : Prop, P -> P",)


def test_wrapped_hypothesis_type():
    raw = ("1 subgoal\n\n  H : forall x : nat,\n        x = x\n"
           "  ============================\n  True\n")
    state = parse_state(raw)
    assert state.hypotheses[0].names == ("H",)
    assert state.hypotheses[0].type_expr == "forall x : nat, x = x"
    # a continuation line may itself contain " : "
    raw = ("1 subgoal\n\n  H : forall x : nat,\n      forall y : nat, x = y\n  n, m : nat\n"
           "  ============================\n  True\n")
    assert [(h.names, h.type_expr) for h in parse_state(raw).hypotheses] == [
        (("H",), "forall x : nat, forall y : nat, x = y"), (("n", "m"), "nat")]
    # a deeper-indented line continues the hypothesis above, even when it
    # reads like one
    raw = ("1 subgoal\n\n  H : forall\n        x : nat, x = x\n  y : nat\n"
           "  ============================\n  True\n")
    assert [(h.names, h.type_expr) for h in parse_state(raw).hypotheses] == [
        (("H",), "forall x : nat, x = x"), (("y",), "nat")]


@pytest.mark.parametrize("raw", [
    "1 subgoal\n\n  H : P\n  P\n",
    "1 subgoal\r\n\r\n  H : P\r\n  P\r\n",
    "1 subgoal\r\r  H : P\r  P\r",
    "1 subgoal\x0c\x0c  H : P\x0c  P\x0c",
    "1 subgoal\n\n  H : P\n  ===\n  P\n",
    "1 subgoal\n\n  H : P\n  ==== ====\n  P\n",
    "1 subgoal\n\n  H : a ==== b\n  ==== P\n",
], ids=["lf", "crlf", "cr", "formfeed", "three-equals", "split-run", "equals-in-lines"])
def test_missing_separator_is_malformed(raw):
    with pytest.raises(CoqatooError) as exc:
        parse_state(raw)
    assert exc.value.diagnostic.code == "MALFORMED_STATE"


def test_bad_hypothesis_line():
    for line in ("12 bogus line", "forall y : nat, y = y"):
        with pytest.raises(CoqatooError) as exc:
            parse_state(f"1 subgoal\n\n  {line}\n  ============================\n  P\n")
        assert exc.value.diagnostic.code == "MALFORMED_HYP"


def test_unicode_hypothesis_names():
    # Coq identifiers may start with a Unicode letter
    state = parse_state("1 subgoal\n\n  α, β : Prop\n  Hα : α\n  ====\n  α\n")
    assert state.hypotheses == (Hypothesis(("α", "β"), "Prop"), Hypothesis(("Hα",), "α"))
    assert state.goals == ("α",)


_ASCII_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_']*$")


@given(st.text(st.sampled_from("aZ_09' -")) | st.text(st.characters(max_codepoint=127)))
def test_identifier_pattern_is_unchanged_on_ascii(text):
    assert bool(_IDENT.match(text)) == bool(_ASCII_IDENT.match(text))


def test_raw_is_retained(corpus_name):
    for state in all_fixture_states(corpus_name):
        assert parse_state(state.raw).raw == state.raw


def test_parse_total_on_corpus(corpus_name):
    for state in all_fixture_states(corpus_name):
        assert state.subgoal_count == len(state.goals)


def test_hypothesis_name_multiplicity():
    state = parse_state(LISTING_2)
    assert sum(len(h.names) for h in state.hypotheses) == 3


def test_other_breaks_are_the_splitlines_breaks_but_lf():
    # parse_state joins lines only when one of these is present
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert [ch for ch in every if len(f"a{ch}b".splitlines()) == 2 and ch != "\n"] == sorted(_OTHER_BREAKS)


# --- normalize_text ---

WHITESPACE = [ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace()]
_words = st.sampled_from(["P", "Q", "/\\", "->", "x_1", "é", "λ", "∀", "漢字"])
_ascii_words = st.sampled_from(["P", "Q", "/\\", "->", "x_1", "~", "(", ")"])


def test_space_is_the_only_printable_whitespace():
    # normalize_text returns printable text unsplit when " " is its only blank
    assert len(WHITESPACE) == 29
    assert [ch for ch in WHITESPACE if ch.isprintable()] == [" "]


@st.composite
def _texts(draw):
    """Words, some or all ASCII, joined by single spaces, short or long,
    then perhaps a few blanks of any kind inserted anywhere."""
    words = draw(st.lists(draw(st.sampled_from([_words, _ascii_words])),
                          max_size=draw(st.sampled_from([4, 300]))))
    text = " ".join(words)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(WHITESPACE)) + text[at:]
    return text


@given(_texts() | st.text(st.sampled_from(WHITESPACE + ["a", "Z", "é", "漢", "/", "\\"])))
def test_normalize_text_is_split_and_join(text):
    assert normalize_text(text) == " ".join(text.split())


def test_normalize_text_sees_one_blank_of_any_kind_in_long_text():
    for word in ("x_1", "漢字"):   # ASCII text and other text take different checks
        for blank in WHITESPACE:
            text = f"P /\\ {word} ->{blank}Q /\\ R"
            assert normalize_text(text) == " ".join(text.split()), repr(blank)
