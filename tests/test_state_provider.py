import json
import threading

import pytest

from coqatoo import (CoqatooError, SessionTrace, parse_script, parse_state,
                     record_session, run_live, run_replay)
from coqatoo.state_provider import resolve_prover

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


def test_resolve_prover_env_override(monkeypatch):
    monkeypatch.setenv("COQATOO_PROVER", "definitely-not-a-prover")
    assert resolve_prover(None) is None
