"""Property tests over random replay pairs: any pair ends with exit status 0, 1
or 2, never a traceback, and 1 when a step changes a goal it does not focus;
and parsing a trace's states together gives what parsing each state alone
gives."""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from coqatoo import SessionTrace, parse_script, parse_state
from coqatoo.cli import main

from helpers import DONE, state, write_replay_pair

LEMMA = "Lemma t : forall P Q : Prop, P -> (P -> Q) -> P /\\ Q."
TACTICS = ["intros", "split", "apply H", "assumption", "inversion H"]
HYPOTHESES = ["P, Q : Prop", "H : P -> Q", "HP : P", "H0 : P /\\ Q"]
GOALS = ["P", "Q", "P /\\ Q", "Q -> P", "forall P Q : Prop, P -> (P -> Q) -> P /\\ Q"]

open_states = st.builds(state, st.lists(st.sampled_from(HYPOTHESES), max_size=4, unique=True),
                        st.lists(st.sampled_from(GOALS), min_size=1, max_size=4))
steps = st.lists(st.tuples(st.sampled_from(TACTICS), open_states), max_size=26)


@st.composite
def replay_pairs(draw):
    """(initial state, steps, header lemma, extra CLI arguments)."""
    body = draw(steps)
    ending = draw(st.sampled_from(["done", "missing done", "steps after done"]))
    if ending != "missing done":
        body.append((draw(st.sampled_from(TACTICS)), DONE))
    if ending == "steps after done":
        body += draw(st.lists(st.tuples(st.sampled_from(TACTICS), open_states | st.just(DONE)),
                              min_size=1, max_size=2))
    header = draw(st.sampled_from([LEMMA] * 3 + ["Lemma t : False.", "x"]))
    extra = draw(st.sampled_from([[], ["--dot"], ["--mode", "plain"], ["--mode", "latex", "--lang", "fr"]]))
    return draw(open_states), body, header, extra


@settings(max_examples=200, deadline=None)
@given(replay_pairs())
def test_any_replay_pair_ends_in_an_exit_status(pair):
    initial, body, header, extra = pair
    with tempfile.TemporaryDirectory() as tmp:
        script, trace = write_replay_pair(Path(tmp), LEMMA, initial, body, header_lemma=header)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([str(script), "--provider", "replay", "--fixture", str(trace), *extra])
    assert code in (0, 1, 2)
    # a tactic acts on the focused goal: those behind it must end the goals it leaves
    goals = [parse_state(raw).goals for raw in [initial, *(raw for _, raw in body)]]
    if any(len(after) < len(before) - 1 or after[len(after) - len(before) + 1:] != before[1:]
           for before, after in zip(goals, goals[1:])):
        assert code == 1


@st.composite
def broken_traces(draw):
    """The goal lists of a proof of G0 by `split` (into 2 or 3 goals) and `assumption`,
    splitting first, one of whose steps then changes or drops a goal it does not focus;
    and the index of that step."""
    stack, lists, fresh = ["G0"], [["G0"]], 1
    while stack:
        if len(lists) == 1 or fresh < 9 and draw(st.booleans()):
            width = draw(st.integers(2, 3))
            stack = [f"G{fresh + k}" for k in range(width)] + stack[1:]
            fresh += width
        else:
            stack = stack[1:]
        lists.append(stack)
    bad = draw(st.sampled_from([i for i, before in enumerate(lists[:-1]) if len(before) > 1]))
    before, after = lists[bad], list(lists[bad + 1])
    at = len(after) - len(before) + draw(st.integers(1, len(before) - 1))
    if draw(st.booleans()):
        after[at] = "False"
    else:
        del after[at]
    return lists[:bad + 1] + [after] + lists[bad + 2:], bad


@settings(max_examples=100, deadline=None)
@given(broken_traces(), st.sampled_from([[], ["--dot"], ["--mode", "plain"]]))
def test_a_trace_that_changes_an_unfocused_goal_exits_1(drawn, extra):
    lists, bad = drawn
    tactics = ["split" if len(after) >= len(before) else "assumption" for before, after in zip(lists, lists[1:])]
    states = [state([], goals) if goals else DONE for goals in lists]
    with tempfile.TemporaryDirectory() as tmp:
        script, trace = write_replay_pair(Path(tmp), "Lemma t : G0.", states[0], list(zip(tactics, states[1:])))
        start, end = parse_script(script.read_text())[0].tactics[bad].span
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(script), "--provider", "replay", "--fixture", str(trace), *extra])
    m = re.fullmatch(rf"error\[MALFORMED_TRACE\] at {start}\.\.{end}: goal '(G\d+)', which the tactic does not "
                     r"focus, was changed or closed\n", err.getvalue())
    assert code == 1 and m and m.group(1) in lists[bad][1:]


line_breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028"])
raw_states = st.tuples(open_states | st.just(DONE), line_breaks).map(lambda p: p[0].replace("\n", p[1]))


@settings(max_examples=200, deadline=None)
@given(raw_states, st.lists(raw_states, max_size=12))
def test_states_equal_parsing_each_raw(initial, raws):
    trace = SessionTrace((initial, *raws))
    assert trace.states() == [parse_state(raw) for raw in [initial, *raws]]
