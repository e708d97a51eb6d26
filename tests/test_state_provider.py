import json
import threading

import pytest
from hypothesis import given, strategies as st

from coqatoo import (CoqatooError, SessionTrace, parse_script, parse_state,
                     record_session, run_live, run_replay)
from coqatoo.diagnostics import decode_utf8, error
from coqatoo.state_provider import TraceStep, _fields, _read_fixture, resolve_prover

from helpers import LISTING_1, LISTING_2, fixture_path, load_script, load_trace


def test_replay_golden_fixture():
    _, trace = load_trace("conj_imp_equiv")
    assert len(trace.steps) == 12
    states = trace.states()
    assert len(states) == 13
    for state, listing in zip(states, (LISTING_1, LISTING_2)):
        expected = parse_state(listing)
        assert (state.subgoal_count, state.hypotheses, state.goals) == (
            expected.subgoal_count, expected.hypotheses, expected.goals)
    assert states[-1].subgoal_count == 0


def test_replay_determinism():
    script = load_script("conj_imp_equiv")
    t1 = run_replay(script, str(fixture_path("conj_imp_equiv")))
    t2 = run_replay(script, str(fixture_path("conj_imp_equiv")))
    assert [a.tactic for a in t1.steps] == [b.tactic for b in t2.steps]
    for a, b in zip(t1.states(), t2.states(), strict=True):
        assert a == b


def test_reordered_fixture_mismatch(tmp_path):
    lines = fixture_path("conj_imp_equiv").read_text().splitlines()
    reordered = "\n".join([lines[0]] + lines[2:3] + lines[1:2] + lines[3:])
    path = tmp_path / "bad.cqtrace"
    path.write_text(reordered)
    with pytest.raises(CoqatooError) as exc:
        run_replay(load_script("conj_imp_equiv"), str(path))
    assert exc.value.diagnostic.code == "FIXTURE_MISMATCH"
    assert "tactic 0" in exc.value.diagnostic.message


def test_truncated_fixture_steps_mismatch(tmp_path):
    lines = fixture_path("conj_imp_equiv").read_text().splitlines()
    path = tmp_path / "short.cqtrace"
    path.write_text("\n".join(lines[:5]))
    with pytest.raises(CoqatooError) as exc:
        run_replay(load_script("conj_imp_equiv"), str(path))
    assert exc.value.diagnostic.code == "FIXTURE_MISMATCH"


def test_malformed_fixture(tmp_path):
    lines = fixture_path("conj_imp_equiv").read_text().splitlines()
    path = tmp_path / "cut.cqtrace"
    path.write_text("\n".join(lines[:3]) + '\n{"tactic": "apply H", "raw_st')
    with pytest.raises(CoqatooError) as exc:
        run_replay(load_script("conj_imp_equiv"), str(path))
    assert exc.value.diagnostic.code == "FIXTURE_PARSE"


def _rewrite_header(tmp_path, **fields):
    lines = fixture_path("conj_imp_equiv").read_text().splitlines()
    path = tmp_path / "edited.cqtrace"
    path.write_text("\n".join([json.dumps(dict(json.loads(lines[0]), **fields))] + lines[1:]))
    return path


def test_fixture_for_another_lemma_mismatch(tmp_path):
    with pytest.raises(CoqatooError) as exc:
        run_replay(load_script("conj_imp_equiv"), str(_rewrite_header(tmp_path, lemma="x")))
    assert exc.value.diagnostic.code == "FIXTURE_MISMATCH"
    assert "lemma" in exc.value.diagnostic.message


def test_fixture_lemma_compared_modulo_whitespace(tmp_path):
    lemma = json.loads(fixture_path("conj_imp_equiv").read_text().splitlines()[0])["lemma"]
    path = _rewrite_header(tmp_path, lemma="  " + lemma.replace(" ", "\n   "))
    assert len(run_replay(load_script("conj_imp_equiv"), str(path)).steps) == 12


@pytest.mark.parametrize("record", [
    '[1, 2]',
    '"text"',
    '{"tactic": "apply H", "raw_state": null}',
    '{"tactic": 3, "raw_state": "No more subgoals.\\n"}',
    '{"raw_state": "No more subgoals.\\n"}',
])
def test_fixture_step_of_wrong_type(tmp_path, record):
    lines = fixture_path("conj_imp_equiv").read_text().splitlines()
    path = tmp_path / "typed.cqtrace"
    path.write_text("\n".join(lines[:3] + [record] + lines[4:]))
    with pytest.raises(CoqatooError) as exc:
        run_replay(load_script("conj_imp_equiv"), str(path))
    assert exc.value.diagnostic.code == "FIXTURE_PARSE"


@pytest.mark.parametrize("fields", [{"initial_raw_state": 5}, {"lemma": None}])
def test_fixture_header_of_wrong_type(tmp_path, fields):
    with pytest.raises(CoqatooError) as exc:
        run_replay(load_script("conj_imp_equiv"), str(_rewrite_header(tmp_path, **fields)))
    assert exc.value.diagnostic.code == "FIXTURE_PARSE"


def test_fixture_prover_version_of_wrong_type(tmp_path):
    with pytest.raises(CoqatooError) as exc:
        run_replay(load_script("conj_imp_equiv"), str(_rewrite_header(tmp_path, prover_version=["x"])))
    assert exc.value.diagnostic.code == "FIXTURE_PARSE"
    assert "prover_version" in exc.value.diagnostic.message


def _whole_file_reference(path):
    """The fixture reader that decoded the whole file, then split it into records."""
    text = decode_utf8(path.read_bytes(), f"fixture {path}", "FIXTURE_PARSE")
    try:
        records = [json.loads(ln) for ln in text.replace("\r\n", "\n").split("\n") if ln and not ln.isspace()]
    except json.JSONDecodeError as exc:
        raise CoqatooError(error("FIXTURE_PARSE", f"malformed fixture {path}: {exc}"))
    if not records:
        raise CoqatooError(error("FIXTURE_PARSE", f"fixture {path} is empty"))
    lemma, initial = _fields(records[0], "lemma", "initial_raw_state", str(path), 1)
    steps = tuple(TraceStep(*_fields(rec, "tactic", "raw_state", str(path), i))
                  for i, rec in enumerate(records[1:], start=2))
    return lemma, initial, records[0].get("prover_version", ""), steps


def _outcome(read, path):
    """What `read` returns for the fixture at `path`, or its diagnostic's text."""
    try:
        return read(path)
    except CoqatooError as exc:
        return exc.diagnostic.format()


def _streamed(path):
    with open(path, "rb") as fh:
        return _read_fixture(fh, str(path))


_HEADER = '{"lemma": "Lemma t : True.", "initial_raw_state": "1 subgoal\\n\\n  ===\\n  True\\n"}'
_STEP = '{"tactic": "exact I", "raw_state": "No more subgoals.\u2028\\r\\n"}'
_STEP_CR = _STEP.replace(", ", ",\r ")


@pytest.mark.parametrize("data", [
    f"{_HEADER}\r\n{_STEP}\r\n".encode(),
    f"{_HEADER}\n{_STEP_CR}\r\r\n{_STEP}\r".encode(),             # a bare "\r" inside a line
    f"\n  \t\n{_HEADER}\n\u2028\n\n {_STEP} \n\x0c\n".encode(),     # blank and whitespace-only lines
    f"{_HEADER}\n{_STEP}".encode(),                                 # no final newline
    f"{_HEADER}\n{_STEP}\r\n\r\n".encode(),
    f'{_HEADER[:-1]}, "prover_version": "8.9\u2028raw"}}\n{_STEP}\n'.encode(),
    b"\xff" + f"{_HEADER}\n{_STEP}\n".encode(),                    # bad UTF-8 in the first record
    f"{_HEADER}\n{_STEP[:20]}".encode() + b"\xe2\x80\n" + f"{_STEP}\n".encode(),   # ... in a middle record
    f"{_HEADER}\n{_STEP}\n".encode() + b"\xe2\x80",                # ... as the last bytes, no final newline
    f"{_HEADER}\n{_STEP}\n".encode() + b"\xc3",
    f"{_HEADER}\nnot json\n{_STEP}\n".encode() + b"\xff\n",       # a bad byte after a bad record
    f"{_HEADER}\n[1]\n{_STEP[:-1]}\n".encode(),                      # a wrong record before a bad one
    f'{{"lemma": 1}}\n{_STEP}\n{{"tactic": 2}}\n'.encode(),
    b"\n \r\n",
    b"",
], ids=["crlf", "bare-cr", "blank-lines", "no-final-newline", "crlf-blank-end", "raw-u2028", "bad-first",
        "bad-middle", "bad-last-byte", "bad-last-byte-2", "bad-byte-after-bad-json", "bad-json-after-bad-shape",
        "bad-header", "only-blank", "empty"])
def test_streamed_reader_matches_whole_file_decode(tmp_path, data):
    path = tmp_path / "t.cqtrace"
    path.write_bytes(data)
    assert _outcome(_streamed, path) == _outcome(_whole_file_reference, path)


_PIECES = [_HEADER, _STEP, "", " ", "\t\u2028", "[1, 2]", '{"tactic": "x"}', "{", "\ufeff" + _STEP]


@given(st.lists(st.tuples(st.sampled_from(_PIECES), st.sampled_from([b"\n", b"\r\n", b"\r", b"\r\r\n"]),
                          st.sampled_from([b"", b"\xff", b"\xe2\x80", b"\xed\xa0\x80"]),
                          st.integers(0, 200)), max_size=6),
       st.booleans())
def test_streamed_reader_matches_whole_file_decode_on_any_lines(tmp_path_factory, lines, final_newline):
    """Any records, breaks and bad bytes give the same records or the same diagnostic."""
    data = b""
    for piece, end, bad, at in lines:
        raw = piece.encode()
        at = min(at, len(raw))
        data += raw[:at] + bad + raw[at:] + end
    if not final_newline:
        data = data.rstrip(b"\n")
    path = tmp_path_factory.mktemp("fixtures") / "t.cqtrace"
    path.write_bytes(data)
    assert _outcome(_streamed, path) == _outcome(_whole_file_reference, path)


def test_replay_decodes_each_line_once(monkeypatch):
    decoded = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: decoded.append(text) or loads(text))
    load_trace("conj_imp_equiv")
    assert len(decoded) == len(fixture_path("conj_imp_equiv").read_text().splitlines())


def test_missing_fixture_file(tmp_path):
    with pytest.raises(CoqatooError) as exc:
        run_replay(load_script("conj_imp_equiv"), str(tmp_path / "nope.cqtrace"))
    assert exc.value.diagnostic.code == "IO"


def test_record_then_replay_round_trip(tmp_path, corpus_name):
    script, trace = load_trace(corpus_name)
    out = tmp_path / f"{corpus_name}.cqtrace"
    record_session(trace, str(out))
    replayed = run_replay(script, str(out))
    for a, b in zip(replayed.states(), trace.states(), strict=True):
        assert a == b


def test_record_empty_trace(tmp_path):
    trace = SessionTrace("Lemma t : True.", "1 subgoal\n\n  ============================\n  True\n")
    out = tmp_path / "empty.cqtrace"
    record_session(trace, str(out))
    script, _ = parse_script("Lemma t : True. Proof. Qed.")
    assert run_replay(script, str(out)).steps == ()


def test_subgoal_count_sequence_of_golden():
    _, trace = load_trace("conj_imp_equiv")
    counts = [s.subgoal_count for s in trace.states()[1:]]
    assert counts == [1, 2, 2, 2, 3, 2, 1, 1, 1, 2, 1, 0]


def test_auto_rewritten_in_recorded_command_stream(tmp_path):
    _, trace = load_trace("modus_ponens")
    out = tmp_path / "mp.cqtrace"
    record_session(trace, str(out))
    tactics = [json.loads(ln)["tactic"] for ln in out.read_text().splitlines()[1:]]
    assert "info_auto" in tactics
    assert "auto" not in tactics


def test_live_session_matches_replay(tmp_path, live_prover, corpus_name):
    script = load_script(corpus_name)
    trace = run_live(script, live_prover(fixture_path(corpus_name)))
    out = tmp_path / "live.cqtrace"
    record_session(trace, str(out))
    replayed = run_replay(script, str(out))
    for a, b in zip(replayed.states(), trace.states(), strict=True):
        assert a == b


def test_live_recording_has_no_banner(tmp_path, fake_prover):
    trace = run_live(load_script("conj_imp_equiv"), fake_prover(fixture_path("conj_imp_equiv")))
    out = tmp_path / "live.cqtrace"
    record_session(trace, str(out))
    header = json.loads(out.read_text().splitlines()[0])
    assert header["initial_raw_state"].startswith("1 subgoal")


def test_live_session_starts_no_thread(fake_prover):
    before = threading.active_count()
    run_live(load_script("and_commutes"), fake_prover(fixture_path("and_commutes")))
    assert threading.active_count() == before


def test_prover_missing():
    with pytest.raises(CoqatooError) as exc:
        run_live(load_script("conj_imp_equiv"), "definitely-not-a-prover")
    assert exc.value.diagnostic.code == "PROVER_MISSING"
    assert all(way in exc.value.diagnostic.message for way in ("coqtop", "$COQATOO_PROVER", "--prover"))


def test_live_prover_from_the_environment(monkeypatch, fake_prover):
    monkeypatch.setenv("COQATOO_PROVER", fake_prover(fixture_path("and_commutes")))
    script = load_script("and_commutes")
    assert run_live(script).steps == run_replay(script, str(fixture_path("and_commutes"))).steps


def test_resolve_prover_env_override(monkeypatch):
    monkeypatch.setenv("COQATOO_PROVER", "definitely-not-a-prover")
    assert resolve_prover(None) is None
