"""Property tests over random replay pairs: any pair ends with exit status 0, 1
or 2, never a traceback, and parsing a trace's states together gives what
parsing each state alone gives."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from coqatoo import SessionTrace, TraceStep, parse_state
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


line_breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028"])
raw_states = st.tuples(open_states | st.just(DONE), line_breaks).map(lambda p: p[0].replace("\n", p[1]))


@settings(max_examples=200, deadline=None)
@given(raw_states, st.lists(raw_states, max_size=12))
def test_states_equal_parsing_each_raw(initial, raws):
    trace = SessionTrace(LEMMA, initial, tuple(TraceStep("split", raw) for raw in raws))
    assert trace.states() == [parse_state(raw) for raw in [initial, *raws]]
