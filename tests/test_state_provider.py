import json
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given, strategies as st

from coqatoo import (CoqatooError, SessionTrace, live_session, parse_script, parse_state,
                     record_session, run_live, run_replay, state_provider)
from coqatoo.diagnostics import decode_utf8, error
from coqatoo.pipeline import analyze_trace
from coqatoo.state_provider import _HEADER_FIELDS, _STEP_FIELDS, _fields, _read_fixture

from helpers import (LISTING_1, LISTING_2, ROOT, conjunction_chain, fixture_path, load_script, load_trace,
                     narrow_chain, write_prover, write_replay_pair, write_split_coqtop)


def test_replay_golden_fixture():
    _, trace = load_trace("conj_imp_equiv")
    assert len(trace.responses) == 13
    states = trace.states()
    assert len(states) == 13
    for state, listing in zip(states, (LISTING_1, LISTING_2)):
        expected = parse_state(listing)
        assert (state.hypotheses, state.goals) == (expected.hypotheses, expected.goals)
    assert states[-1].goals == ()


def test_replay_determinism():
    script = load_script("conj_imp_equiv")
    t1 = run_replay(script, str(fixture_path("conj_imp_equiv")))
    t2 = run_replay(script, str(fixture_path("conj_imp_equiv")))
    assert t1 == t2
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
    assert len(run_replay(load_script("conj_imp_equiv"), str(path)).responses) == 13


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


def _reference_fields(record, fields, fixture_path, number):
    """The field check `_fields` made one value at a time, kept as the oracle of its faster form."""
    where = f"malformed fixture {fixture_path} record {number}"
    if not isinstance(record, dict):
        raise CoqatooError(error("FIXTURE_PARSE", f"{where}: expected an object"))
    values = tuple(record.get(name, missing) for name, missing in fields.items())
    for name, value in zip(fields, values):
        if not isinstance(value, str):
            raise CoqatooError(error("FIXTURE_PARSE", f"{where}: expected a string {name}"))
        try:
            value.isascii() or value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise CoqatooError(error("FIXTURE_PARSE", f"{where}: {name} holds a lone surrogate "
                                                      f"at character {exc.start}")) from None
    return values


_strings = st.text(st.sampled_from("ab\n\u00e9\u2028\ud800\udfff\U0001f600"), max_size=4)
_not_strings = st.one_of(st.none(), st.integers(), st.lists(_strings, max_size=1))
_records = st.one_of(
    st.fixed_dictionaries({name: _strings for name in (*_HEADER_FIELDS, *_STEP_FIELDS)}),
    st.fixed_dictionaries({}, optional={name: _strings | _not_strings
                                        for name in (*_HEADER_FIELDS, *_STEP_FIELDS, "other")}),
    _strings, _not_strings)


@given(_records, st.sampled_from([_HEADER_FIELDS, _STEP_FIELDS]), st.integers(1, 9))
def test_field_check_matches_the_reference(record, fields, number):
    """Missing, non-string, non-ASCII and lone-surrogate values, and records that
    are not objects: the same values, or the same message."""
    assert _outcome(lambda r: _fields(r, fields, "t.cqtrace", number), record) == \
        _outcome(lambda r: _reference_fields(r, fields, "t.cqtrace", number), record)


def _whole_file_reference(path):
    """The fixture reader that decoded the whole file, then split it into records."""
    text = decode_utf8(path.read_bytes(), f"fixture {path}", "FIXTURE_PARSE")
    try:
        records = [json.loads(ln) for ln in text.replace("\r\n", "\n").split("\n") if ln and not ln.isspace()]
    except json.JSONDecodeError as exc:
        raise CoqatooError(error("FIXTURE_PARSE", f"malformed fixture {path}: {exc}"))
    if not records:
        raise CoqatooError(error("FIXTURE_PARSE", f"fixture {path} is empty"))
    lemma, initial, version = _reference_fields(records[0], _HEADER_FIELDS, str(path), 1)
    steps = tuple(_reference_fields(rec, _STEP_FIELDS, str(path), i)
                  for i, rec in enumerate(records[1:], start=2))
    return lemma, initial, version, steps


def _outcome(read, path):
    """What `read` returns for the fixture at `path`, or its diagnostic's text."""
    try:
        return read(path)
    except CoqatooError as exc:
        return exc.diagnostic.format()


def _streamed(path):
    with open(path, "rb") as fh:
        lemma, initial, version, tactics, raws = _read_fixture(fh, str(path))
    return lemma, initial, version, tuple(zip(tactics, raws))


def _assert_streamed_matches_reference(path):
    """The streamed reader stops at the first bad record, so it gives what the
    reference gives for the shortest prefix of whole lines that the reference
    rejects, or for the whole file when it rejects none.  A "\n" byte is never
    part of a multi-byte sequence, so the prefix decodes as the file does up to
    there.  A prefix of blank lines holds no record: "is empty" rejects none."""
    data = path.read_bytes()
    streamed = _outcome(_streamed, path)
    for end in sorted({len(data)} | {i + 1 for i, byte in enumerate(data) if byte == ord("\n")}):
        path.write_bytes(data[:end])
        expected = _outcome(_whole_file_reference, path)
        if isinstance(expected, str) and not expected.endswith(" is empty"):
            break
    assert streamed == expected


_HEADER = '{"lemma": "Lemma t : True.", "initial_raw_state": "1 subgoal\\n\\n  ===\\n  True\\n"}'
_STEP = '{"tactic": "exact I", "raw_state": "No more subgoals.\u2028\\r\\n"}'
_STEP_CR = _STEP.replace(", ", ",\r ")
_STEP_SURROGATE = _STEP.replace("No more", "\\ud800No more")    # a JSON escape of a lone surrogate
_STEP_PAIR = _STEP.replace("exact I", "exact \\ud83d\\ude00")   # ... and of a surrogate pair, one character
_HEADER_SURROGATE = _HEADER.replace("subgoal", "\\udc80subgoal")


_FIXTURES = [
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
    f"{_HEADER}\n{_STEP_PAIR}\n".encode(),
    f"{_HEADER}\n{_STEP_SURROGATE}\n{_STEP}\n".encode(),
    f"{_HEADER_SURROGATE}\n{_STEP}\n".encode() + b"\xff\n",   # a bad byte after a bad record
    f'{_HEADER}\n{{"tactic": 1, "raw_state": "x"}}\n{_STEP}\n'.encode(),
    f'{_HEADER}\n"x"\n{_STEP}\n'.encode(),
    f"{_HEADER}\n{_STEP} x\n{_STEP}\n".encode(),
    f"{_HEADER}\n{_STEP}]\r\n".encode(),
]
_FIXTURE_IDS = ["crlf", "bare-cr", "blank-lines", "no-final-newline", "crlf-blank-end", "raw-u2028", "bad-first",
                "bad-middle", "bad-last-byte", "bad-last-byte-2", "bad-byte-after-bad-json", "bad-json-after-bad-shape",
                "bad-header", "only-blank", "empty", "surrogate-pair", "lone-surrogate", "lone-surrogate-in-header",
                "non-string-field", "string-record", "extra-data", "extra-data-crlf"]


@pytest.mark.parametrize("data", _FIXTURES, ids=_FIXTURE_IDS)
def test_streamed_reader_matches_whole_file_decode(tmp_path, data):
    path = tmp_path / "t.cqtrace"
    path.write_bytes(data)
    _assert_streamed_matches_reference(path)


_MALFORMED_RECORDS = [_STEP[:-1], _STEP[:30], _STEP + " x", '{"tactic": "x",, }']
_RECORD_ENDS = ["\n", "\r\n"]


def _fixture_with(record, end):
    return f"{_HEADER}\n{_STEP}\n{record}{end}{_STEP}\n".encode()


@pytest.mark.parametrize("end", _RECORD_ENDS)
@pytest.mark.parametrize("record", _MALFORMED_RECORDS)
def test_a_malformed_record_reports_its_column_without_its_end(tmp_path, record, end):
    """A record's end is JSON whitespace, so a reader that decodes the record with it
    reads it too, but the line and column reported are those of the record alone."""
    path = tmp_path / "t.cqtrace"
    path.write_bytes(_fixture_with(record, end))
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(record)
    assert "line 1 column" in str(exc.value)
    assert _outcome(_streamed, path) == f"error[FIXTURE_PARSE]: malformed fixture {path}: {exc.value}"


@pytest.mark.parametrize("value", ["9" * 5000, "[" * 100_000 + "]" * 100_000],
                         ids=["integer-of-5000-digits", "arrays-nested-100000-deep"])
@pytest.mark.parametrize("header", [True, False], ids=["header", "step"])
def test_a_record_that_json_cannot_decode_is_a_fixture_parse_error(tmp_path, value, header):
    """An integer longer than Python's digit limit (a ValueError that is no
    JSONDecodeError) and arrays nested deeper than the decoder recurses (a
    RecursionError) reject their record, and no later line is read.  The value
    stands where a string must, so a Python without the digit limit rejects
    the record as well."""
    record = _HEADER.replace('"Lemma t : True."', value) if header else _STEP.replace('"exact I"', value)
    lines = [record] if header else [_HEADER, record]
    path = tmp_path / "t.cqtrace"
    path.write_bytes("".join(line + "\n" for line in lines + [_STEP]).encode() + b"\xff\n")
    outcome = _outcome(_streamed, path)
    assert outcome.startswith(f"error[FIXTURE_PARSE]: malformed fixture {path}")
    assert "UTF-8" not in outcome


def test_a_malformed_fixture_gives_its_diagnostic_in_a_clean_interpreter(tmp_path):
    """Each rejected fixture of the two tests above, and a record holding a raw
    tab, exits 1 with the diagnostic it gives in this process.  The run is a
    fresh `python -S`, which has not imported `json`: before 3.12 the C scanner
    words its own error only when `json` is already loaded."""
    script = tmp_path / "t.v"
    script.write_text("Lemma t : True.\nProof.\n  exact I.\nQed.\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    tab = _STEP.replace("exact I", "exact\tI")
    rejected = 0
    for number, data in enumerate(_FIXTURES + [_fixture_with(record, end) for record in _MALFORMED_RECORDS + [tab]
                                               for end in _RECORD_ENDS]):
        path = tmp_path / f"{number}.cqtrace"
        path.write_bytes(data)
        expected = _outcome(_streamed, path)
        if not isinstance(expected, str):
            continue
        run = subprocess.run([sys.executable, "-S", "-m", "coqatoo.cli", str(script), "--provider", "replay",
                              "--fixture", str(path)], capture_output=True, text=True, env=env, timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (1, "", expected + "\n"), data
        rejected += 1
    assert rejected == 15 + 10   # fixtures, records


_PIECES = [_HEADER, _STEP, "", " ", "\t\u2028", "[1, 2]", '{"tactic": "x"}', "{", "\ufeff" + _STEP,
           _STEP_SURROGATE, _STEP_PAIR, _HEADER_SURROGATE, '{"tactic": 1, "raw_state": "x"}', '"x"', _STEP + " x"]


@given(st.lists(st.tuples(st.sampled_from(_PIECES), st.sampled_from([b"\n", b"\r\n", b"\r", b"\r\r\n"]),
                          st.sampled_from([b"", b"\xff", b"\xe2\x80", b"\xed\xa0\x80"]),
                          st.integers(0, 200)), max_size=6),
       st.booleans())
def test_streamed_reader_matches_whole_file_decode_on_any_lines(tmp_path_factory, lines, final_newline):
    """Any records, breaks, bad bytes and lone surrogates give the records, or
    the diagnostic, of the whole-file reader up to the first bad record."""
    data = b""
    for piece, end, bad, at in lines:
        raw = piece.encode()
        at = min(at, len(raw))
        data += raw[:at] + bad + raw[at:] + end
    if not final_newline:
        data = data.rstrip(b"\n")
    path = tmp_path_factory.mktemp("fixtures") / "t.cqtrace"
    path.write_bytes(data)
    _assert_streamed_matches_reference(path)


def test_replay_decodes_each_line_once(monkeypatch):
    """Each record is decoded once: by the scanner, or by json.loads when the scanner does not read it."""
    decoded = []
    loads, scan = json.loads, state_provider._scan
    monkeypatch.setattr(json, "loads", lambda text: decoded.append(text) or loads(text))
    monkeypatch.setattr(state_provider, "_scan", lambda text, at: decoded.append(text) or scan(text, at))
    load_trace("conj_imp_equiv")
    assert len(decoded) == len(fixture_path("conj_imp_equiv").read_text().splitlines())


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12)
_json_pieces = st.sampled_from([
    "{", "}", "[", "]", ",", ":", " ", "\n", '"', "\\", "true", "false", "null", "NaN", "Infinity", "-Infinity",
    "-", ".", "e", "+", "0", "1e400", "-0", "\\u", "\\u00e9", "\\ud800", "\\udc00", "\\ud83d\\ude00", "\\n",
    '\\"', "\\x", "\x00", "\x1f", "\t", "\ufeff", "\u2028", '"\x01"', '"a\tb"', '{"k": NaN}',
]) | st.integers(1, 5000).map("9".__mul__) | st.text(max_size=3)


@st.composite
def _json_texts(draw):
    """A JSON text, dumped or pieced together, perhaps cut short; and an index into it."""
    if draw(st.booleans()):
        text = json.dumps(draw(_json_values), ensure_ascii=draw(st.booleans()))
    else:
        text = "".join(draw(st.lists(_json_pieces, max_size=12)))
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text, draw(st.just(0) | st.integers(0, len(text) + 1))


def _scanned(scan, text, at):
    """The value and end index `scan` reads at `at`, as text so that NaN equals NaN,
    or the type and arguments of its exception."""
    try:
        return repr(scan(text, at))
    except Exception as exc:
        return type(exc), exc.args


@example(("[NaN, Infinity, -Infinity, 1e400, -0.0]", 0))
@example(('"a\x01b"', 0))
@example(("9" * 5000, 0))
@example(("[" * 100_000 + "]" * 100_000, 0))
@given(_json_texts())
def test_the_scanner_is_jsons_scanner(case):
    """Valid and invalid texts, constants, long integers, escapes, surrogates, raw control
    characters and cut texts: the value and end that json's scanner reads, or its exception."""
    text, at = case
    assert _scanned(state_provider._scan, text, at) == _scanned(json.JSONDecoder().scan_once, text, at)


def test_missing_fixture_file(tmp_path):
    with pytest.raises(CoqatooError) as exc:
        run_replay(load_script("conj_imp_equiv"), str(tmp_path / "nope.cqtrace"))
    assert exc.value.diagnostic.code == "IO"


_CHAINS = [(chain, n) for chain in (conjunction_chain, narrow_chain) for n in (1, 2, 7, 40)]


def _source(tmp_path, proof):
    """A committed proof's script and fixture, or those `write_replay_pair` writes for a chain."""
    if isinstance(proof, str):
        return load_script(proof), fixture_path(proof)
    chain, n = proof
    script_file, trace_file = write_replay_pair(tmp_path, *chain(n))
    return parse_script(script_file.read_text(encoding="utf-8"))[0], trace_file


def _assert_recording_round_trips(script, trace, out, source_fixture):
    """`trace` recorded at `out` replays as itself, and its step records are those of
    `source_fixture`, the fixture it was read or answered from, unless that is None."""
    record_session(script, trace, str(out))
    assert run_replay(script, str(out)) == trace
    if source_fixture is not None:
        assert out.read_text().splitlines()[1:] == source_fixture.read_text().splitlines()[1:]


@pytest.mark.parametrize("proof", ["conj_imp_equiv", "and_commutes", "modus_ponens", *_CHAINS],
                         ids=lambda p: p if isinstance(p, str) else f"{p[0].__name__}-{p[1]}")
def test_record_then_replay_round_trip(tmp_path, proof):
    script, fixture = _source(tmp_path, proof)
    _assert_recording_round_trips(script, run_replay(script, str(fixture)), tmp_path / "out.cqtrace", fixture)


@pytest.mark.parametrize("proof", _CHAINS, ids=lambda p: f"{p[0].__name__}-{p[1]}")
def test_live_record_then_replay_round_trip(tmp_path, fake_prover, proof):
    script, fixture = _source(tmp_path, proof)
    trace = run_live(script, fake_prover(fixture))
    _assert_recording_round_trips(script, trace, tmp_path / "out.cqtrace", fixture)


def test_record_empty_trace(tmp_path):
    initial = "1 subgoal\n\n  ============================\n  True\n"
    out = tmp_path / "empty.cqtrace"
    script, _ = parse_script("Lemma t : True. Proof. Qed.")
    record_session(script, SessionTrace((initial,)), str(out))
    assert run_replay(script, str(out)).responses == (initial,)


def test_trace_missing_a_response_is_not_recorded(tmp_path):
    script, trace = load_trace("and_commutes")
    out = tmp_path / "short.cqtrace"
    with pytest.raises(ValueError):
        record_session(script, trace._replace(responses=trace.responses[:-1]), str(out))
    assert not out.exists()


@pytest.mark.parametrize("change", [-1, 1])
def test_trace_with_a_response_too_few_or_too_many_is_a_mismatch(change):
    script, trace = load_trace("and_commutes")
    responses = trace.responses[:change] if change < 0 else (*trace.responses, trace.responses[-1])
    with pytest.raises(CoqatooError) as exc:
        analyze_trace(script, SessionTrace(responses))
    assert exc.value.diagnostic.code == "FIXTURE_MISMATCH"
    assert f"{len(script.tactics)} tactics" in exc.value.diagnostic.message
    assert f"{len(trace.responses) + change} responses" in exc.value.diagnostic.message


def test_subgoal_count_sequence_of_golden():
    _, trace = load_trace("conj_imp_equiv")
    counts = [len(s.goals) for s in trace.states()[1:]]
    assert counts == [1, 2, 2, 2, 3, 2, 1, 1, 1, 2, 1, 0]


def test_auto_rewritten_in_recorded_command_stream(tmp_path):
    script, trace = load_trace("modus_ponens")
    out = tmp_path / "mp.cqtrace"
    record_session(script, trace, str(out))
    tactics = [json.loads(ln)["tactic"] for ln in out.read_text().splitlines()[1:]]
    assert "info_auto" in tactics
    assert "auto" not in tactics


def _assert_live_matches_replay(tmp_path, prover, corpus_name):
    script = load_script(corpus_name)
    trace = run_live(script, prover)
    source = None if prover == "coqtop" else fixture_path(corpus_name)   # a real prover answers in its own words
    _assert_recording_round_trips(script, trace, tmp_path / "live.cqtrace", source)


def test_live_session_matches_replay(tmp_path, live_prover, corpus_name):
    _assert_live_matches_replay(tmp_path, live_prover(fixture_path(corpus_name)), corpus_name)


@pytest.mark.parametrize("seed", range(5))
def test_live_session_matches_replay_through_split_writes(tmp_path, monkeypatch, corpus_name, seed):
    """Responses and prompts arrive in 1-7-byte pieces, so one is read across several reads."""
    monkeypatch.setenv("FAKE_COQTOP_TRACE", str(fixture_path(corpus_name)))
    _assert_live_matches_replay(tmp_path, write_split_coqtop(tmp_path, seed), corpus_name)


def test_response_still_in_the_pipe_at_the_prompt_is_read_with_it(tmp_path, monkeypatch, fake_prover):
    """Read one byte a pipe at a time, a prompt is complete while the longer
    response before it is still in the stdout pipe: the reads after the prompt
    take the rest, so no response runs into the next one."""
    monkeypatch.setattr(live_session, "_CHUNK_BYTES", 1)
    _assert_live_matches_replay(tmp_path, fake_prover(fixture_path("conj_imp_equiv")), "conj_imp_equiv")


def test_live_recording_has_no_banner(tmp_path, fake_prover):
    script = load_script("conj_imp_equiv")
    trace = run_live(script, fake_prover(fixture_path("conj_imp_equiv")))
    out = tmp_path / "live.cqtrace"
    record_session(script, trace, str(out))
    header = json.loads(out.read_text().splitlines()[0])
    assert header["initial_raw_state"].startswith("1 subgoal")


def test_blank_banner_records_an_empty_prover_version(tmp_path):
    prover = write_prover(tmp_path, "printf '\\n  \\n'\n"
                                    "printf '<prompt>Coq < </prompt>' >&2\n"
                                    "while read -r line; do\n"
                                    "  echo 'No more subgoals.'\n"
                                    "  printf '<prompt>Coq < </prompt>' >&2\n"
                                    "done")
    out = tmp_path / "live.cqtrace"
    script = load_script("modus_ponens")
    record_session(script, run_live(script, prover), str(out))
    assert json.loads(out.read_text().splitlines()[0])["prover_version"] == ""


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
    assert run_live(script).responses == run_replay(script, str(fixture_path("and_commutes"))).responses


def test_prover_from_the_environment_that_cannot_start(monkeypatch):
    monkeypatch.setenv("COQATOO_PROVER", "definitely-not-a-prover")
    with pytest.raises(CoqatooError) as exc:
        run_live(load_script("conj_imp_equiv"))
    assert exc.value.diagnostic.code == "PROVER_MISSING"
    assert exc.value.diagnostic.message.startswith("cannot start prover definitely-not-a-prover: ")
