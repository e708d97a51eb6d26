import re
import sys

import pytest
from hypothesis import given, strategies as st

from coqatoo import CoqatooError, Hypothesis, parse_state
from coqatoo.goal_parser import IDENT, SUBGOAL_HEADER, normalize_text

from helpers import (LISTING_1, LISTING_2, extract_auto_trace, grouped_context, load_trace, reference_goals,
                     state as build_state)


SEPARATOR = "  ============================"


@pytest.mark.parametrize("raw, hypotheses", [
    (LISTING_1, ()),
    (LISTING_1.replace("\n", "\r\n"), ()),
    (LISTING_1.replace("\n", "\r"), ()),
    (LISTING_1.replace("\n", "\x0c"), ()),
    (LISTING_1.replace(SEPARATOR, SEPARATOR + "   "), ()),
    (LISTING_1.replace(SEPARATOR, "  H : a ==== b\n  ====>\n" + SEPARATOR),
     (Hypothesis("H", "a ==== b ====>"),)),
    (LISTING_1.replace("1 subgoal", "1 goal"), ()),
    (LISTING_1.replace("1 subgoal", "1 focused goal (shelved: 1)"), ()),
    (LISTING_1.replace("1 subgoal", "1 focused subgoal\n(shelved: 1)"), ()),
    (LISTING_1.replace("1 subgoal", "1 focused subgoal (shelved: 1)"), ()),
    (LISTING_1.replace("1 subgoal", "1 focused goal\n(shelved: 2)"), ()),
], ids=["lf", "crlf", "cr", "formfeed", "trailing-blanks", "equals-in-type", "newer-wording", "shelved-on-the-header",
        "shelved-below-the-header", "shelved-on-the-header-older-wording", "shelved-below-the-header-newer-wording"])
def test_initial_state_block(raw, hypotheses):
    state = parse_state(raw)
    assert state.hypotheses == hypotheses
    assert state.goals == ("forall P Q R : Prop, (P /\\ Q -> R) <-> (P -> Q -> R)",)


@pytest.mark.parametrize("goal", ['s = "Proof completed"', '"No more subgoals" = s', '"No more goals" = s',
                                  "P ->\n  Proof completed"])
def test_a_marker_in_a_goal_is_no_finished_proof(goal):
    """A marker counts only where it starts a line ahead of the subgoal header."""
    state = parse_state(f"1 subgoal\n\n  s : string\n  ============================\n  {goal}\n")
    assert state.goals == (" ".join(goal.split("\n  ")),)


@pytest.mark.parametrize("raw, auto", [("(* info auto: *)\nsimple exact I.\n\nNo more subgoals.\n", ("exact I",)),
                                       ("(* info auto: *)\nsimple exact I.\nNo more goals.\n", ("exact I",)),
                                       ("  Proof completed.\n", ()), ("No more subgoals.\r\n", ()),
                                       ("No more subgoals.\n", ()), ("No more goals.\n", ())])
def test_a_marker_that_starts_a_line_finishes_the_proof(raw, auto):
    assert parse_state(raw) == ((), (), auto)


_AUTO_COMMANDS = ["simple apply H", "assumption", "apply H0 (in core)", "intro", "exact I", "auto", "info_auto"]
# what coqtop prints after a report: a finished proof, or the state the `auto` left
_AFTER_REPORT = st.sampled_from(["No more subgoals.\n", "No more goals.\n", "Proof completed.\n"]) | st.builds(
    build_state,
    st.lists(st.sampled_from(["P, Q : Prop", "H : P -> Q", "H0 : P", "n : nat"]), max_size=3),
    st.lists(st.sampled_from(["Q", "P /\\ Q", "True"]), min_size=1, max_size=3),
    st.sampled_from(["subgoal", "goal"]))


@given(st.lists(st.sampled_from(_AUTO_COMMANDS), max_size=4), st.booleans(), _AFTER_REPORT)
def test_the_auto_report_matches_the_reference_reader(commands, blank, rest):
    raw = "(* info auto: *)\n" + "".join(f"{command}.\n" for command in commands) + ("\n" if blank else "") + rest
    parsed, alone = parse_state(raw), parse_state(rest)
    assert list(parsed.auto) == extract_auto_trace(raw)
    assert (parsed.hypotheses, parsed.goals) == (alone.hypotheses, alone.goals)
    assert alone.auto == ()


@st.composite
def _printed(draw, words, breaks):
    """Some `words` as a state prints them, a blank or a line break from `breaks` in each gap;
    and as parsed, one space in each gap."""
    drawn = draw(st.lists(words, min_size=1, max_size=6))
    return drawn[0] + "".join(draw(breaks) + word for word in drawn[1:]), " ".join(drawn)


# a display group of names, Unicode ones too, and its type, wrapped onto lines indented deeper than the
# group's, which may read like a binding ("x : nat, x = x"); one to four goals, wrapped too
_GROUPS = st.tuples(st.lists(st.sampled_from(["P", "Q", "H", "H0", "x'", "_y", "α", "Hα", "é1", "漢字"]),
                             min_size=1, max_size=3),
                    _printed(st.sampled_from(["Prop", "Set", "P", "Q", "->", "/\\", "~", "forall", "x", ":",
                                              "nat,", "=", "α", "(x", "y)"]),
                             st.sampled_from([" ", "  ", "\n    ", "\n        "])))
_GOALS = st.lists(_printed(st.sampled_from(["P", "Q", "->", "/\\", "~", "True", "x", "=", "α", "∀", "(P", "Q)"]),
                           st.sampled_from([" ", "\n  ", "\n    "])), min_size=1, max_size=4)


def _parses_back(groups, goals, word):
    raw = build_state([f"{', '.join(names)} : {printed}" for names, (printed, _) in groups],
                      [printed for printed, _ in goals], word)
    assert parse_state(raw) == (tuple(Hypothesis(name, parsed) for names, (_, parsed) in groups for name in names),
                                tuple(parsed for _, parsed in goals), ())


@given(st.lists(_GROUPS, max_size=4), _GOALS, st.sampled_from(["subgoal", "goal"]))
def test_a_printed_state_gives_back_its_bindings_and_goals(groups, goals, word):
    """What build_fixtures.state prints parses back: one binding of the group's type per
    name of a display group, each type's wrapped lines joined, and each goal, in either wording."""
    _parses_back(groups, goals, word)


_THREE_GOALS = [("P", "P"), ("Q", "Q"), ("R", "R")]


@pytest.mark.parametrize("groups, goals, word", [
    ([(["H"], ("P", "P"))], _THREE_GOALS, "subgoal"),
    ([(["H"], ("P", "P"))], _THREE_GOALS, "goal"),
    ([], [("forall P : Prop,\n  P -> P", "forall P : Prop, P -> P")], "subgoal"),
    ([(["H"], ("forall x : nat,\n        x = x", "forall x : nat, x = x"))], [("True", "True")], "subgoal"),
    ([(["H"], ("forall x : nat,\n      forall y : nat, x = y", "forall x : nat, forall y : nat, x = y")),
      (["n", "m"], ("nat", "nat"))], [("True", "True")], "subgoal"),
    ([(["H"], ("forall\n        x : nat, x = x", "forall x : nat, x = x")), (["y"], ("nat", "nat"))],
     [("True", "True")], "subgoal"),
    ([(["α", "β", "漢字"], ("Set", "Set")), (["Hα"], ("α ->\n    β", "α -> β"))], [("∀ x,\n  x = x", "∀ x, x = x")],
     "goal"),
    ([], [("P", "P"), ("Q\n  -> P", "Q -> P"), ("~\n    Q", "~ Q"), ("True", "True")], "goal"),
    ([(["P", "Q", "R"], ("Prop", "Prop")), (["H"], ("P /\\ Q\n        -> R", "P /\\ Q -> R"))], _THREE_GOALS,
     "goal"),
], ids=["three-goals", "three-goals-newer-wording", "a-wrapped-goal", "a-wrapped-type",
        "a-continuation-holding-a-colon", "a-continuation-reading-like-a-binding", "unicode-names-newer-wording",
        "four-wrapped-goals-and-no-context", "a-group-and-a-wrapped-type-over-three-goals"])
def test_a_printed_layout_gives_back_its_bindings_and_goals(groups, goals, word):
    """Layouts of the property's kind, each named for what it holds."""
    _parses_back(groups, goals, word)


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
    assert state.hypotheses == (Hypothesis("α", "Prop"), Hypothesis("β", "Prop"), Hypothesis("Hα", "α"))
    assert state.goals == ("α",)


_ASCII_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


@given(st.text(st.sampled_from("aZ_09' -")) | st.text(st.characters(max_codepoint=127)))
def test_identifier_pattern_is_unchanged_on_ascii(text):
    assert bool(IDENT.fullmatch(text)) == bool(_ASCII_NAME.fullmatch(text))


_ANCHORED_NAME = re.compile(f"^{IDENT.pattern}$")   # how a whole name was once checked, with match()


@given(st.text(st.sampled_from("aα_0'\n ,") | st.characters()))
def test_fullmatch_is_the_anchored_pattern_but_at_a_final_newline(text):
    r"""`$` also matches before a final "\n", which no name that is checked
    can hold: each is stripped or normalized first."""
    if text.endswith("\n"):
        assert not IDENT.fullmatch(text)
    else:
        assert bool(IDENT.fullmatch(text)) == bool(_ANCHORED_NAME.match(text))


def test_only_an_auto_step_reports_tactics(corpus_name):
    script, trace = load_trace(corpus_name)
    reports = {it.command: state.auto for it, state in zip(script.tactics, trace.states()[1:], strict=True)
               if state.auto}
    assert reports == ({"auto": ("apply H", "assumption")} if corpus_name == "modus_ponens" else {})


def test_parse_total_on_corpus(corpus_name):
    _, trace = load_trace(corpus_name)
    for raw, state in zip(trace.responses, trace.states(), strict=True):
        header = SUBGOAL_HEADER.search(raw)
        assert len(state.goals) == (int(header.group(1)) if state.goals else 0)


def test_hypothesis_name_multiplicity():
    state = parse_state(LISTING_2)
    assert [h.name for h in state.hypotheses] == ["P", "Q", "R"]


# lines above a separator: display groups, continuations (one holding " : "), and lines that open nothing
_CONTEXT_LINES = st.sampled_from(["  P, Q : Prop", "  H : P -> Q", "  α, β,  γ : Set", "  x, y : nat * nat",
                                  "  H0 : forall x : nat,", "        x  =  x", "      forall y : nat, y = y",
                                  "    n : nat", "  12 bogus", "  P", ""])


@given(st.lists(_CONTEXT_LINES, max_size=8))
def test_each_name_of_a_display_group_is_a_binding_of_its_type(lines):
    """The grouped reference reader and parse_state agree: one binding per
    name in display order, or the same MALFORMED_HYP."""
    raw = "1 subgoal\n\n" + "\n".join(lines) + f"\n{SEPARATOR}\n  P\n"
    try:
        groups = grouped_context("\n".join(lines))
    except CoqatooError as exc:
        with pytest.raises(CoqatooError) as parsed:
            parse_state(raw)
        assert parsed.value.diagnostic == exc.diagnostic
    else:
        assert parse_state(raw).hypotheses == tuple(Hypothesis(n, t) for names, t in groups for n in names)


# blanks a goal line may be indented or ended by, ASCII and not; lines led by "subgoal" or "goal" that are no marker
_BLANKS = st.text(st.sampled_from([" ", "\t", "\u00a0", "\u3000"]), max_size=3)
_GOAL_WORDS = st.sampled_from(["P", "Q", "/\\", "->", "(x", "y)", "é", "subgoal", "goal", "is:", "2"])
_NOT_MARKERS = st.sampled_from([f"{word}{rest}" for word in ("subgoal", "goal")
                                for rest in (" 2 is: P", "s 2 is:", " x is:", "2 is:", "_2")] + ["sub goal 2 is:"])


@st.composite
def _goal_body(draw):
    """The text below the separator line: one to three goals, each of wrapped
    and blank lines, the goals after the first each led by a "subgoal K is:"
    or "goal K is:" line; every line indented and ended by blanks of any kind."""
    def line(text):
        return draw(_BLANKS) + text + draw(_BLANKS)
    lines = []
    goals = draw(st.integers(1, 3))
    for k in range(1, goals + 1):
        if k > 1:
            lines.append(line(draw(st.sampled_from(["subgoal", "subgoal  ", "goal", "goal  "])) + f" {k}"
                              + draw(st.sampled_from([" is:", " is :", "\u00a0is\u3000:"]))))
        for _ in range(draw(st.integers(0, 3))):
            text = draw(_NOT_MARKERS | st.lists(_GOAL_WORDS, max_size=4).map(" ".join))
            lines.append(line(text))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"])), goals


@given(_goal_body(), st.sampled_from([0, 0, 0, 1]), st.sampled_from(["subgoals", "goals"]))
def test_goals_are_the_reference_line_loop(drawn, wrong, header):
    """Wrapped, blank and indented lines, blanks that are not ASCII, lines led by
    "subgoal" or "goal" that are no marker: the goals of the per-line reference loop,
    or, under a header that announces one more, the message naming the count found."""
    body, count = drawn[0], drawn[1] + wrong
    raw = f"{count} {header}\n\n  H : P\n{SEPARATOR}\n{body}"
    expected = reference_goals(body)
    if len(expected) == count:
        assert parse_state(raw).goals == tuple(expected)
    else:
        with pytest.raises(CoqatooError, match=rf"but {len(expected)} goal block\(s\) found"):
            parse_state(raw)


def test_other_breaks_are_the_splitlines_breaks_but_lf():
    # parse_state tests for each break but "\n" by name; a state whose lines end in one reads as with "\n"
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    breaks = [ch for ch in every if len(f"a{ch}b".splitlines()) == 2 and ch != "\n"]
    assert len(breaks) == 9
    expected = parse_state(LISTING_2)
    for ch in breaks:
        state = parse_state(LISTING_2.replace("\n", ch))
        assert (state.hypotheses, state.goals) == (expected.hypotheses, expected.goals), repr(ch)


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
