import ast
import contextlib
import gc
import getopt
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from coqatoo import live_session, load_templates, parse_script, run_replay, to_dot
from coqatoo.cli import _EXIT2_CODES, _OPTIONS, main, parse_args
from coqatoo.diagnostics import error
from coqatoo.pipeline import build_proof_tree, generate
from coqatoo.rewriter import OutputMode

from helpers import (CORPUS, DONE, GOLDEN_DIR, ROOT, conjunction_chain, fixture_path, narrow_chain,
                     output_text, script_path, state, write_prover, write_replay_pair)


def replay_args(name, *extra):
    return [str(script_path(name)), "--provider", "replay",
            "--fixture", str(fixture_path(name)), *extra]


def test_defaults():
    config = parse_args(["proof.v"])
    assert config.input_path == "proof.v"
    assert config.provider == "live"
    assert config.language == "en"
    assert config.mode == "annotated"
    assert config.timeout_secs == 10
    assert not config.strict


def test_replay_config():
    config = parse_args(["proof.v", "--provider", "replay", "--fixture", "t.cqtrace", "--lang", "fr"])
    assert config.provider == "replay"
    assert config.fixture_path == "t.cqtrace"
    assert config.language == "fr"


def test_replay_requires_fixture():
    with pytest.raises(SystemExit) as exc:
        parse_args(["proof.v", "--provider", "replay"])
    assert exc.value.code != 0


def test_record_requires_live():
    with pytest.raises(SystemExit) as exc:
        parse_args(["proof.v", "--provider", "replay", "--fixture", "t", "--record", "o"])
    assert exc.value.code != 0


def test_fixture_requires_replay():
    with pytest.raises(SystemExit) as exc:
        parse_args(["proof.v", "--provider", "live", "--fixture", "t.cqtrace"])
    assert exc.value.code != 0


def test_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        parse_args(["proof.v", "--frobnicate"])
    assert exc.value.code != 0


def test_help_exits_0_with_the_usage_on_stdout(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(["--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "usage: coqatoo [-h] [options] input"
    # then one line for each option, its help text in one column
    assert [line.split()[0] for line in lines[1:]] == [f"--{name}" for name in _OPTIONS]
    assert len({line.index(text) for line, (_, _, _, text) in zip(lines[1:], _OPTIONS.values())}) == 1
    assert "  --mode {annotated,plain,latex}  output style" in lines
    assert captured.err == ""


_DEFAULT_CONFIG = {"input_path": "proof.v", "provider": "live", "prover_path": None, "fixture_path": None,
                   "record_path": None, "language": "en", "mode": "annotated", "templates_dir": None,
                   "out_path": None, "strict": False, "timeout_secs": 10, "dot": False}


@pytest.mark.parametrize("argv, changes", [
    (["proof.v"], {}),
    (["--mode=plain", "proof.v"], {"mode": "plain"}),
    (["proof.v", "--provider", "replay", "--fix", "t"], {"provider": "replay", "fixture_path": "t"}),
    (["proof.v", "--strict", "--dot", "--timeout", "3", "--lang", "fr", "--out", "o", "--templates", "d",
      "--prover", "p", "--record", "r"],
     {"strict": True, "dot": True, "timeout_secs": 3, "language": "fr", "out_path": "o", "templates_dir": "d",
      "prover_path": "p", "record_path": "r"}),
    (["-", "--mode", "plain"], {"input_path": "-", "mode": "plain"}),
    (["--dot", "--", "-x.v"], {"input_path": "-x.v", "dot": True}),
    (["--out", "--", "--te=3", "proof.v"], {"out_path": "--", "templates_dir": "3"}),
], ids=["defaults", "equals-sign", "prefix", "every-option", "standard-input", "end-of-options",
        "dashes-as-a-value"])
def test_command_line_settings(argv, changes):
    assert vars(parse_args(argv)) == {**_DEFAULT_CONFIG, **changes}


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: input"),
    (["a.v", "b.v"], "unrecognized arguments: b.v"),
    (["a.v", "--mode", "bogus"],
     "argument --mode: invalid choice: 'bogus' (choose from 'annotated', 'plain', 'latex')"),
    (["a.v", "--timeout", "x"], "argument --timeout: invalid int value: 'x'"),
    (["a.v", "--provider", "replay"], "--provider replay requires --fixture"),
    (["a.v", "--fixture", "t"], "--fixture requires --provider replay"),
    (["a.v", "--provider", "replay", "--fixture", "t", "--record", "o"], "--record requires --provider live"),
    (["a.v", "--timeout", "0"], "--timeout must be from 1 to 2147483 seconds"),
    (["a.v", "--timeout", "2147484"], "--timeout must be from 1 to 2147483 seconds"),
    (["a.v", "--frobnicate"], "option --frobnicate not recognized"),
    (["a.v", "--t", "3"], "option --t not a unique prefix"),
    (["a.v", "--mode"], "option --mode requires argument"),
    (["a.v", "--dot=1"], "option --dot must not have an argument"),
    (["a.v", "-x"], "option -x not recognized"),
    (["-hx", "a.v"], "option -x not recognized"),
], ids=["missing-input", "second-input", "bad-choice", "bad-int", "replay-without-fixture",
        "fixture-without-replay", "record-without-live", "zero-timeout", "too-long-timeout", "unknown-option",
        "ambiguous-prefix", "missing-value", "value-for-a-flag", "unknown-short-option",
        "unknown-short-option-after-h"])
def test_usage_error_exits_2_after_the_usage(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage: coqatoo [-h] [options] input\ncoqatoo: error: {message}\n"


@pytest.mark.parametrize("name", ["out", "record", "prover", "templates", "fixture", "lang"])
def test_empty_value_is_a_usage_error(capsys, name):
    """An empty path or name is never read as the option left unset."""
    for argv in (["a.v", f"--{name}", ""], ["a.v", f"--{name}="]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: coqatoo")
        assert captured.err.endswith(f"\ncoqatoo: error: argument --{name}: must not be empty\n")


def _outcome(argv):
    """parse_args's settings, or its exit status and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@given(st.lists(st.sampled_from(["a.v", "b.v", "-", "--", "-h", "-hh", "-hx", "-x", "--help", "--h", "--help=1",
                                 "--mode", "--mo", "--mode=latex", "--mode=", "plain", "--t", "--ti", "--timeout=3",
                                 "3", "--dot", "--dot=1", "--d", "--p", "--pro", "--provider", "replay",
                                 "--fixture=t", "--f", "--=x", "---x", "", "--frobnicate"]), max_size=6))
def test_the_option_scan_reads_a_command_line_as_getopt_does(argv):
    """Every command line reads as getopt.gnu_getopt reads it: its error
    message, or the settings of the same options spelled out in full."""
    longopts = ["help", *(name if kind is bool else name + "=" for name, (_, _, kind, _) in _OPTIONS.items())]
    try:
        opts, inputs = getopt.gnu_getopt(argv, "h", longopts)
    except getopt.GetoptError as exc:
        status, out, err = _outcome(argv)
        assert (status, out, err.rstrip("\n").rpartition("\n")[2]) == (2, "", f"coqatoo: error: {exc.msg}")
        return
    spelled = [option if option == "-h" or option[2:] + "=" not in longopts else f"{option}={value}"
               for option, value in opts]
    assert _outcome(argv) == _outcome([*spelled, "--", *inputs])


@pytest.mark.parametrize("timeout", ["0", "-3", "2147484", str(2**64)])
def test_non_positive_timeout_is_rejected_before_the_prover_starts(tmp_path, capsys, monkeypatch, timeout):
    """As is one longer than a selector waits, 2**31 - 1 ms, which would end the run in an OverflowError.
    Starts are counted at `Popen`: a prover killed before its shell runs leaves no trace of its own."""
    starts = []
    popen = live_session.subprocess.Popen

    def counted_popen(*args, **kwargs):
        starts.append(args)
        return popen(*args, **kwargs)

    monkeypatch.setattr(live_session.subprocess, "Popen", counted_popen)
    prover = write_prover(tmp_path, "")
    with pytest.raises(SystemExit) as exc:
        main([str(script_path("and_commutes")), "--prover", prover, "--timeout", timeout])
    assert exc.value.code == 2
    assert "--timeout" in capsys.readouterr().err
    assert starts == []


def test_golden_run(capsys):
    assert main(replay_args("conj_imp_equiv")) == 0
    captured = capsys.readouterr()
    golden = (GOLDEN_DIR / "conj_imp_equiv.annotated.en.txt").read_bytes().decode("utf-8")
    assert captured.out == golden
    assert captured.err == ""


@pytest.mark.parametrize("version, line_end", [("Coq\u20288.9.1", "\n"), ("Coq\u2029\x858.9.1", "\n"),
                                               ("Coq\u20288.9.1", "\r\n")], ids=["u2028", "u2029-nel", "crlf"])
def test_fixture_with_a_raw_unicode_line_break_replays(tmp_path, capsys, version, line_end):
    # records are separated by "\n" only: json.dumps(ensure_ascii=False) writes U+2028 raw in a string
    lines = fixture_path("and_commutes").read_bytes().decode("utf-8").split("\n")
    header = json.dumps(dict(json.loads(lines[0]), prover_version=version), ensure_ascii=False)
    trace = tmp_path / "and_commutes.cqtrace"
    trace.write_bytes(line_end.join([header] + lines[1:]).encode("utf-8"))
    assert main([str(script_path("and_commutes")), "--provider", "replay", "--fixture", str(trace)]) == 0
    golden = (GOLDEN_DIR / "and_commutes.annotated.en.txt").read_bytes().decode("utf-8")
    assert capsys.readouterr().out == golden


def three_cases_pair(directory):
    """A three-way branch, an unsupported tactic and a case goal holding a LaTeX special."""
    ctx = ["P, Q, R, S : Prop", "H : P -> Q -> ~ R -> S", "HP : P", "HQ : Q", "HR : ~ R"]
    statement = "forall P Q R S : Prop, (P -> Q -> ~ R -> S) -> P -> Q -> ~ R -> S"
    return write_replay_pair(directory, f"Lemma three_cases : {statement}.", state([], [statement]), [
        ("intros P Q R S H HP HQ HR", state(ctx, ["S"])),
        ("apply H", state(ctx, ["P", "Q", "~ R"])),
        ("assumption", state(ctx, ["Q", "~ R"])),
        ("simpl", state(ctx, ["Q", "~ R"])),
        ("assumption", state(ctx, ["~ R"])),
        ("assumption", DONE),
    ])


_PROSE = [(mode, lang) for mode in ("annotated", "plain", "latex") for lang in ("en", "fr")]
# (proof, golden file stem, extra arguments)
GOLDEN_RUNS = [(name, f"{name}.{mode}.{lang}", ["--mode", mode, "--lang", lang])
               for name in CORPUS for mode, lang in _PROSE]
GOLDEN_RUNS += [(name, f"{name}.dot", ["--dot"]) for name in CORPUS]
GOLDEN_RUNS += [("three_cases", f"three_cases.{mode}.en", ["--mode", mode])
                for mode in ("annotated", "plain", "latex")]


def golden_args(name, directory, extra):
    if name == "three_cases":
        script, trace = three_cases_pair(directory)
        return [str(script), "--provider", "replay", "--fixture", str(trace), *extra]
    return replay_args(name, *extra)


@pytest.mark.parametrize("name, stem, extra", GOLDEN_RUNS, ids=[stem for _, stem, _ in GOLDEN_RUNS])
def test_golden_output(tmp_path, capsys, name, stem, extra):
    assert main(golden_args(name, tmp_path, extra)) == 0
    golden = (GOLDEN_DIR / f"{stem}.txt").read_bytes().decode("utf-8")
    assert capsys.readouterr().out == golden


# the three cases of three_cases_pair after its "apply H", bulleted and braced
_CASES = {"bullets": "  - assumption.\n  - simpl.\n    assumption.\n  - assumption.\n",
          "braces": "  { assumption. }\n  { simpl.\n    assumption. }\n  {assumption. }\n"}


@pytest.mark.parametrize("extra", [["--mode", "annotated"], ["--mode", "plain"], ["--mode", "latex"],
                                   ["--mode", "annotated", "--lang", "fr"], ["--dot"]])
def test_braced_cases_render_like_bulleted_ones(tmp_path, capsys, extra):
    script, trace = three_cases_pair(tmp_path)
    opening = script.read_text(encoding="utf-8").split("  assumption.\n")[0]
    outputs = {}
    for style, cases in _CASES.items():
        script.write_text(opening + cases + "Qed.\n", encoding="utf-8")
        assert main([str(script), "--provider", "replay", "--fixture", str(trace), *extra]) == 0
        captured = capsys.readouterr()
        outputs[style] = captured.out
        # simpl; --dot writes no prose, so it warns of no tactic
        assert captured.err.count("warning[UNSUPPORTED_TACTIC]") == (0 if extra == ["--dot"] else 1)
    assert outputs["braces"] == outputs["bullets"]
    if extra[-1] in ("annotated", "plain", "latex"):
        assert outputs["braces"] == (GOLDEN_DIR / f"three_cases.{extra[-1]}.en.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("tactic", ["2: assumption.", "all: assumption."])
def test_goal_selector_exits_1(tmp_path, capsys, tactic):
    bad = tmp_path / "bad.v"
    bad.write_text(f"Lemma t : True. Proof. {tactic} Qed.")
    assert main([str(bad)]) == 1
    captured = capsys.readouterr()
    assert "error[UNSUPPORTED_SELECTOR]" in captured.err and captured.out == ""


def test_chain_operator_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.v"
    bad.write_text("Lemma t : True. Proof. split; intros. Qed.")
    assert main([str(bad)]) == 1
    assert "UNSUPPORTED_CHAIN" in capsys.readouterr().err


def test_mismatched_fixture_exits_1(capsys):
    args = [str(script_path("and_commutes")), "--provider", "replay",
            "--fixture", str(fixture_path("conj_imp_equiv"))]
    assert main(args) == 1
    assert "FIXTURE_MISMATCH" in capsys.readouterr().err


def _identity_pair(directory, a, b):
    """A replay pair proving a -> a, with hypotheses named from `a` and `b`."""
    directory.mkdir()
    return write_replay_pair(directory, f"Lemma id_{a} : forall {a} {b} : Prop, {a} -> {a}.",
                             state([], [f"forall {a} {b} : Prop, {a} -> {a}"]),
                             [(f"intros {a} {b} H{a}", state([f"{a}, {b} : Prop", f"H{a} : {a}"], [a])),
                              ("assumption", DONE)])


@pytest.mark.parametrize("mode", ["annotated", "plain", "latex"])
def test_unicode_hypothesis_names(tmp_path, capsys, mode):
    """Named α, β and Hα, the proof reads as it does named p1, q1 and Hp1."""
    outputs = []
    for a, b in (("α", "β"), ("p1", "q1")):
        script, trace = _identity_pair(tmp_path / a, a, b)
        assert main([str(script), "--provider", "replay", "--fixture", str(trace), "--mode", mode]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert "β" in outputs[0]
    assert outputs[0] == outputs[1].replace("p1", "α").replace("q1", "β")


@pytest.mark.parametrize("a", ["P", "P'"])
def test_a_hypothesis_of_a_primed_type_is_no_heuristic(tmp_path, capsys, a):
    """`H{a} : {a}` is a hypothesis by its identifier type, so --strict has nothing to reject."""
    script, trace = _identity_pair(tmp_path / "pair", a, "Q")
    assert main([str(script), "--provider", "replay", "--fixture", str(trace), "--strict"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f"intros {a} Q H{a}.\n" in captured.out and captured.out.endswith("Qed.\n")


def test_missing_input_file_exits_2(capsys):
    assert main(["does-not-exist.v"]) == 2
    assert "IO" in capsys.readouterr().err


def test_prover_missing_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("COQATOO_PROVER", "definitely-not-a-prover")
    assert main([str(script_path("conj_imp_equiv"))]) == 2
    assert "PROVER_MISSING" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"#!/nonexistent/interp\n", b"\x00\x01\x02 not a program\n", None],
                         ids=["missing_interpreter", "exec_format_error", "directory"])
def test_prover_that_cannot_start_exits_2(tmp_path, capsys, content):
    prover = tmp_path / "prover"
    if content is None:
        prover.mkdir()
    else:
        prover.write_bytes(content)
        prover.chmod(0o755)
    assert main(_live_args(script_path("and_commutes"), str(prover))) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error[PROVER_MISSING]")
    assert str(prover) in err and "Traceback" not in err


def test_live_run_finds_coqtop_on_the_path(tmp_path, monkeypatch, fake_prover, capsys):
    """With no --prover and no $COQATOO_PROVER, the prover is `coqtop`, looked up on $PATH."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    os.replace(fake_prover(fixture_path("and_commutes")), bin_dir / "coqtop")
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    monkeypatch.delenv("COQATOO_PROVER", raising=False)
    assert main([str(script_path("and_commutes"))]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "and_commutes.annotated.en.txt").read_bytes().decode("utf-8")


def test_out_file(tmp_path, capsys):
    out = tmp_path / "proof.txt"
    assert main(replay_args("conj_imp_equiv", "--out", str(out))) == 0
    assert capsys.readouterr().out == ""
    assert "Qed." in out.read_text()


def test_plain_and_french(capsys):
    assert main(replay_args("conj_imp_equiv", "--mode", "plain", "--lang", "fr")) == 0
    out = capsys.readouterr().out
    assert "Supposons" in out
    assert "intros" not in out


def test_latex_mode(capsys):
    assert main(replay_args("conj_imp_equiv", "--mode", "latex")) == 0
    assert capsys.readouterr().out.startswith("\\begin{proof}")


def test_dot_flag(capsys):
    assert main(replay_args("conj_imp_equiv", "--dot")) == 0
    assert capsys.readouterr().out.startswith("digraph proof {")


def _ring_args(directory):
    """A replay run of a proof by `ring`, a tactic without a rewriting rule."""
    src = directory / "warn.v"
    src.write_text("Lemma t : True. Proof. ring. Qed.")
    fixture = directory / "warn.cqtrace"
    fixture.write_text(
        '{"lemma": "Lemma t : True.", "initial_raw_state": '
        '"1 subgoal\\n\\n  ============================\\n  True\\n"}\n'
        '{"tactic": "ring", "raw_state": "No more subgoals.\\n"}\n')
    return [str(src), "--provider", "replay", "--fixture", str(fixture)]


def test_strict_promotes_warnings(tmp_path, capsys):
    args = _ring_args(tmp_path)
    assert main(args + ["--strict"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "warning[UNSUPPORTED_TACTIC] at " in captured.err
    assert main(args) == 0


def test_dot_warns_of_no_tactic_since_it_writes_no_prose(tmp_path, capsys):
    """Whether a tactic can be explained is said while rewriting, which --dot skips."""
    assert main(_ring_args(tmp_path) + ["--dot", "--strict"]) == 0
    assert capsys.readouterr().err == ""


def test_multiple_lemmas_warns(tmp_path, capsys):
    src = tmp_path / "two.v"
    src.write_text(script_path("and_commutes").read_text()
                   + "\nLemma other : True. Proof. Qed.\n")
    args = [str(src), "--provider", "replay", "--fixture", str(fixture_path("and_commutes"))]
    assert main(args) == 0
    assert "MULTIPLE_LEMMAS" in capsys.readouterr().err
    assert main(args + ["--strict"]) == 1
    captured = capsys.readouterr()
    assert "warning[MULTIPLE_LEMMAS]" in captured.err
    assert captured.out == ""


def test_unwritable_out_exits_2(tmp_path, capsys):
    assert main(replay_args("conj_imp_equiv", "--out", str(tmp_path / "no-dir" / "proof.txt"))) == 2
    assert capsys.readouterr().err.startswith("error[IO]: cannot write ")


def _heuristic_args(directory):
    """Replay arguments of a proof whose `intros` raises HEURISTIC_CLASSIFICATION."""
    lemma = "Lemma t : forall p : nat * nat, True."
    steps = [("intros", state(["p : nat * nat"], ["True"])), ("assumption", DONE)]
    script, trace = write_replay_pair(directory, lemma, state([], ["forall p : nat * nat, True"]), steps)
    return [str(script), "--provider", "replay", "--fixture", str(trace)]


def test_heuristic_classification_is_a_diagnostic(tmp_path, capsys):
    args = _heuristic_args(tmp_path)
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning[HEURISTIC_CLASSIFICATION] at ")
    assert "p : nat * nat" in captured.err
    assert "Qed." in captured.out
    assert main(args + ["--strict"]) == 1
    assert capsys.readouterr().out == ""


def test_heuristic_classification_warns_once_per_binding(tmp_path, capsys):
    """A display group `p, q : nat * nat` is two bindings, and each is explained by default."""
    lemma = "Lemma t : forall p q : nat * nat, True."
    steps = [("intros", state(["p, q : nat * nat"], ["True"])), ("assumption", DONE)]
    script, trace = write_replay_pair(tmp_path, lemma, state([], ["forall p q : nat * nat, True"]), steps)
    assert main([str(script), "--provider", "replay", "--fixture", str(trace)]) == 0
    start, end = parse_script(script.read_text())[0].tactics[0].span
    assert capsys.readouterr().err == "".join(
        f"warning[HEURISTIC_CLASSIFICATION] at {start}..{end}: treating {name} : nat * nat as a hypothesis\n"
        for name in "pq")


def _live_args(script, prover, *extra):
    return [str(script), "--provider", "live", "--prover", prover, *extra]


def test_live_chain_matches_replay(tmp_path, fake_prover, capsys):
    script, trace = write_replay_pair(tmp_path, *conjunction_chain(300))
    assert main(_live_args(script, fake_prover(trace))) == 0
    live = capsys.readouterr().out
    assert main([str(script), "--provider", "replay", "--fixture", str(trace)]) == 0
    assert capsys.readouterr().out == live


@pytest.mark.parametrize("record", [False, True], ids=["plain", "record"])
def test_live_run_starts_the_prover_once(tmp_path, fake_prover, capsys, record):
    starts = tmp_path / "starts.log"
    prover = fake_prover(fixture_path("and_commutes"), prelude=f"echo start >> {shlex.quote(str(starts))}")
    recorded = tmp_path / "live.cqtrace"
    assert main(_live_args(script_path("and_commutes"), prover,
                           *(["--record", str(recorded)] if record else []))) == 0
    assert starts.read_text().splitlines() == ["start"]
    if record:
        header = json.loads(recorded.read_text().splitlines()[0])
        assert header["prover_version"] == ("Welcome to Coq (The Coq Proof Assistant, version 8.9.1, "
                                            "fake for benchmarking)")
        live = capsys.readouterr().out
        assert main([str(script_path("and_commutes")), "--provider", "replay", "--fixture", str(recorded)]) == 0
        assert capsys.readouterr().out == live


def test_live_rejected_sentence_exits_2(tmp_path, fake_prover, capsys):
    script = tmp_path / "wrong.v"
    script.write_text(script_path("and_commutes").read_text().replace("inversion H.", "destruct H."))
    assert main(_live_args(script, fake_prover(fixture_path("and_commutes")))) == 2
    assert "TACTIC_FAILED" in capsys.readouterr().err


def test_prover_exiting_at_once_exits_2_without_waiting(tmp_path, capsys):
    start = time.monotonic()
    code = main(_live_args(script_path("and_commutes"), write_prover(tmp_path, "exit 0"), "--timeout", "10"))
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert "PROVER_EXITED" in capsys.readouterr().err


def test_prover_closing_its_input_exits_2_without_waiting(tmp_path, capsys):
    prover = write_prover(tmp_path, 'exec 0<&-\nprintf "<prompt>Coq < </prompt>" >&2\nexec sleep 10')
    start = time.monotonic()
    code = main(_live_args(script_path("and_commutes"), prover, "--timeout", "10"))
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert "PROVER_EXITED" in capsys.readouterr().err


@pytest.mark.parametrize("chunk_bytes", [live_session._CHUNK_BYTES, 1])
def test_prover_quitting_after_its_first_answer_exits_2(tmp_path, capsys, monkeypatch, chunk_bytes):
    """The prover answers the lemma, prompts and exits.  Where the reader meets its end,
    in the read loop or in the read after the prompt, depends on timing: either way
    the run ends PROVER_EXITED at once."""
    monkeypatch.setattr(live_session, "_CHUNK_BYTES", chunk_bytes)
    prover = write_prover(tmp_path, "echo 'Coq 8.9'\nprintf '<prompt>Coq < </prompt>' >&2\nread -r line\n"
                                    "printf '1 subgoal\\n\\n  ============================\\n  True\\n'\n"
                                    "printf '<prompt>t < </prompt>' >&2")
    start = time.monotonic()
    code = main(_live_args(script_path("and_commutes"), prover, "--timeout", "10"))
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert code == 2
    assert "PROVER_EXITED" in err and "Traceback" not in err


def test_prover_never_prompting_times_out(tmp_path, capsys):
    prover = write_prover(tmp_path, "exec sleep 10")
    assert main(_live_args(script_path("and_commutes"), prover, "--timeout", "1")) == 2
    assert "PROVER_TIMEOUT" in capsys.readouterr().err


def test_live_run_ends_an_unterminated_last_tactic(tmp_path, fake_prover, capsys):
    """The last tactic has no "." (no Qed. follows): the live session adds it."""
    script, trace = write_replay_pair(tmp_path, "Lemma t : True /\\ True.", _GOAL,
                                      [("split", _SPLIT), ("assumption", state([], ["True"])), ("assumption", DONE)])
    text = script.read_text(encoding="utf-8")
    assert text.count("assumption.\nQed.\n") == 1
    script.write_text(text.replace("assumption.\nQed.\n", "assumption"), encoding="utf-8")
    assert main(_live_args(script, fake_prover(trace))) == 0
    live = capsys.readouterr()
    assert main([str(script), "--provider", "replay", "--fixture", str(trace)]) == 0
    assert capsys.readouterr() == live
    assert live.err == "" and live.out.endswith(" assumption\nQed.\n")


def test_live_rejected_auto_is_named_as_written(tmp_path, fake_prover, capsys):
    """The prover hears info_auto; the message names the auto of the script."""
    script = tmp_path / "wrong.v"
    script.write_text(script_path("modus_ponens").read_text().replace("auto.", "auto with arith."))
    assert main(_live_args(script, fake_prover(fixture_path("modus_ponens")))) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error[TACTIC_FAILED]")
    assert "prover rejected 'auto with arith'" in captured.err
    assert "got 'info_auto with arith.'" in captured.err


def _assert_one_error(captured, code):
    assert captured.out == ""
    assert captured.err.startswith(f"error[{code}]") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("message, line", [
    ("no break here", "no break here"),
    ("a \r\n\t b", "a b"),
    ("a\u2028b\x0bc\x1cd\x85e", "a b c d e"),
    ("kept:  'x  y'\n  'p  q'  ", "kept:  'x  y' 'p  q'  "),
    ("two\n\nbreaks", "two  breaks"),
], ids=["one_line", "crlf_and_blanks", "unicode_breaks", "blanks_within_lines", "blank_line"])
def test_a_diagnostic_formats_as_one_line(message, line):
    """Each line break, as str.splitlines breaks lines, is one space with the blanks around it."""
    assert error("CODE", message, (1, 2)).format() == f"error[CODE] at 1..2: {line}"


@pytest.mark.parametrize("tactic, code, quoted", [
    ("split;\n  intros.", "UNSUPPORTED_CHAIN", "chained tactics are not supported: \"split; intros\""),
    ("2:\n  assumption.", "UNSUPPORTED_SELECTOR", "goal selectors are not supported: \"2: assumption\""),
], ids=["chain", "selector"])
def test_a_tactic_written_across_lines_is_one_diagnostic_line(tmp_path, capsys, tactic, code, quoted):
    bad = tmp_path / "bad.v"
    bad.write_text(f"Lemma t : True.\nProof.\n  {tactic}\nQed.\n", encoding="utf-8")
    assert main([str(bad)]) == 1
    captured = capsys.readouterr()
    _assert_one_error(captured, code)
    assert captured.err == f"error[{code}] at 25..{25 + len(tactic)}: {quoted}\n"


def test_a_prover_error_of_several_lines_is_one_diagnostic_line(tmp_path, capsys):
    script = tmp_path / "t.v"
    script.write_text("Lemma t : True.\nProof.\n  destruct H.\nQed.\n", encoding="utf-8")
    prover = write_prover(tmp_path, "echo 'Coq 8.9'\nprintf '<prompt>Coq < </prompt>' >&2\nread -r line\n"
                                    "printf '1 subgoal\\n\\n  ============================\\n  True\\n'\n"
                                    "printf '<prompt>t < </prompt>' >&2\nread -r line\n"
                                    "printf 'Toplevel input, characters 0-6:\\n> destruct H.\\n> ^^^^^^^^\\n"
                                    "Error: No such hypothesis: H\\n'\n"
                                    "printf '<prompt>t < </prompt>' >&2\nread -r line")
    assert main(_live_args(script, prover)) == 2
    captured = capsys.readouterr()
    _assert_one_error(captured, "TACTIC_FAILED")
    assert captured.err == ("error[TACTIC_FAILED] at 25..36: prover rejected 'destruct H': Toplevel input, "
                            "characters 0-6: > destruct H. > ^^^^^^^^ Error: No such hypothesis: H\n")


def test_dot_labels_a_node_as_annotated_output_prints_it(tmp_path, capsys):
    """A first tactic written across lines and a case goal holding a whitespace run
    are labelled normalized, so each DOT statement is one line."""
    ctx = ["A, B : Prop", "HA : A", "HB : B"]
    script, trace = write_replay_pair(
        tmp_path, "Lemma t : forall A B : Prop, A -> B -> A /\\ (B \\/ B).",
        state([], ["forall A B : Prop, A -> B -> A /\\ (B \\/ B)"]),
        [("intros\n    A B  HA HB", state(ctx, ["A /\\ (B \\/ B)"])), ("split", state(ctx, ["A", "B  \\/   B"])),
         ("assumption", state(ctx, ["B  \\/   B"])), ("left", state(ctx, ["B"])), ("assumption", DONE)])
    assert main([str(script), "--provider", "replay", "--fixture", str(trace), "--dot"]) == 0
    assert capsys.readouterr().out == ('digraph proof {\n  node [shape=box];\n'
                                       '  n0 [label="intros A B HA HB"];\n'
                                       '  n1 [label="assumption\\ncase: A"];\n  n0 -> n1;\n'
                                       '  n2 [label="left\\ncase: B \\/ B"];\n  n0 -> n2;\n}\n')


@pytest.mark.parametrize("initial, message", [
    ("Welcome, no goals here\n", "no subgoal header found"),
    ("2 subgoals\n\n  ============================\n  True\n", "header announces 2 subgoal(s) but 1 goal block(s)"),
], ids=["no_header", "two_announced_one_found"])
def test_malformed_state_exits_1(tmp_path, capsys, initial, message):
    script, trace = write_replay_pair(tmp_path, "Lemma t : True.", initial, [("assumption", DONE)])
    assert main([str(script), "--provider", "replay", "--fixture", str(trace)]) == 1
    captured = capsys.readouterr()
    _assert_one_error(captured, "MALFORMED_STATE")
    assert message in captured.err


def test_template_line_without_equals_exits_1(tmp_path, capsys):
    english = (ROOT / "src" / "coqatoo" / "templates" / "en.properties").read_text(encoding="utf-8")
    (tmp_path / "en.properties").write_text(english + "a line without an equals sign\n", encoding="utf-8")
    assert main(replay_args("and_commutes", "--templates", str(tmp_path))) == 1
    captured = capsys.readouterr()
    _assert_one_error(captured, "TEMPLATE_PARSE")
    assert "a line without an equals sign" in captured.err


def test_record_into_a_missing_directory_exits_2(tmp_path, fake_prover, capsys):
    recorded = tmp_path / "no-dir" / "live.cqtrace"
    prover = fake_prover(fixture_path("and_commutes"))
    assert main(_live_args(script_path("and_commutes"), prover, "--record", str(recorded))) == 2
    captured = capsys.readouterr()
    _assert_one_error(captured, "IO")
    assert f"cannot write fixture {recorded}" in captured.err


def test_dot_labels_an_auto_case_as_written(tmp_path, capsys):
    """The prover runs each auto as info_auto; the DOT label is the tactic of the script."""
    auto_used_i = "(* info auto: *)\nexact I.\n"
    script, trace = write_replay_pair(tmp_path, "Lemma t : True /\\ True.", _GOAL, [
        ("split", _SPLIT), ("info_auto", auto_used_i + state([], ["True"])), ("info_auto", auto_used_i + DONE)])
    text = script.read_text(encoding="utf-8")
    script.write_text(text.replace("info_auto.", "auto."), encoding="utf-8")
    assert main([str(script), "--provider", "replay", "--fixture", str(trace), "--dot"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "digraph proof {", "  node [shape=box];", '  n0 [label="split"];',
        '  n1 [label="auto\\ncase: True"];', "  n0 -> n1;",
        '  n2 [label="auto\\ncase: True"];', "  n0 -> n2;", "}"]


_GOAL = state([], ["True /\\ True"])
_SPLIT = state([], ["True", "True"])


@pytest.mark.parametrize("mode, lang", _PROSE)
def test_inversion_that_adds_no_hypothesis_is_omitted(tmp_path, capsys, mode, lang):
    """`inversion H` with `H : False` closes the goal and adds nothing: no sentence with an empty list."""
    script, trace = write_replay_pair(tmp_path, "Lemma t : False -> True.", state([], ["False -> True"]),
                                      [("intros H", state(["H : False"], ["True"])), ("inversion H", DONE)])
    assert main([str(script), "--provider", "replay", "--fixture", str(trace), "--mode", mode, "--lang", lang]) == 0
    captured = capsys.readouterr()
    omitted = {"annotated": "inversion H.", "en": "(details omitted)", "fr": "(détails omis)"}
    assert captured.err == "" and "  " not in captured.out
    assert "By inversion" not in captured.out and "Par inversion" not in captured.out
    assert omitted.get(mode, omitted[lang]) in captured.out.splitlines()


_IFF_APPLY = {"annotated": "apply H.", "plain": "(details omitted)"}


@pytest.mark.parametrize("mode", ["annotated", "plain"])
def test_apply_of_an_iff_hypothesis_names_no_antecedent(tmp_path, capsys, mode):
    """The arrow of `<->` is no implication arrow: `apply H` with `H : P <-> Q` says nothing."""
    ctx = ["P, Q : Prop", "H : P <-> Q", "HP : P"]
    script, trace = write_replay_pair(tmp_path, "Lemma t : Q.", state(ctx, ["Q"]),
                                      [("apply H", state(ctx, ["P"])), ("assumption", DONE)])
    assert main([str(script), "--provider", "replay", "--fixture", str(trace), "--mode", mode]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "we know" not in out
    assert out.splitlines()[2 if mode == "annotated" else 0] == _IFF_APPLY[mode]


_INVERTED = {"annotated": "(* By inversion on P /\\ Q, we know that P is also true. *) inversion H.",
             "plain": "By inversion on P /\\ Q, we know that P is also true.",
             "fr": "Par inversion sur P /\\ Q, nous savons que P est aussi vrai."}
_BARE = {"annotated": "inversion.", "plain": "(details omitted)", "fr": "(détails omis)"}


@pytest.mark.parametrize("key, args", [("annotated", ["--mode", "annotated"]), ("plain", ["--mode", "plain"]),
                                       ("fr", ["--mode", "plain", "--lang", "fr"])], ids=["annotated", "plain", "fr"])
@pytest.mark.parametrize("tactic, added, said", [("inversion H", ["H0 : P"], _INVERTED),
                                                 ("inversion", ["H0 : P", "H1 : Q"], _BARE)], ids=["one", "bare"])
def test_inversion_agrees_in_number_and_needs_its_argument(tmp_path, capsys, key, args, tactic, added, said):
    """One added binding is said in the singular; a bare `inversion`, which names nothing, says nothing."""
    ctx = ["P, Q : Prop", "H : P /\\ Q"]
    script, trace = write_replay_pair(tmp_path, "Lemma t : P /\\ Q -> P.", state(["P, Q : Prop"], ["P /\\ Q -> P"]), [
        ("intros H", state(ctx, ["P"])), (tactic, state(ctx + added, ["P"])), ("assumption", DONE)])
    assert main([str(script), "--provider", "replay", "--fixture", str(trace), *args]) == 0
    out, err = capsys.readouterr()
    assert err == "" and said[key] in out.splitlines()


_AFTER_DONE = "tactic after the proof was complete"
_UNFILLED = "goal 'True', which the tactic does not focus, was changed or closed"


@pytest.mark.parametrize("dot", [[], ["--dot"]])
@pytest.mark.parametrize("initial, steps, bad, message", [
    (_GOAL, [("split", _SPLIT), ("assumption", state([], ["True"])), ("assumption", DONE), ("assumption", DONE)],
     3, _AFTER_DONE),
    (_GOAL, [("split", _SPLIT), ("assumption", DONE)], 1, _UNFILLED),
    # a proof of one lemma starts with one goal: a second is reported at the first tactic
    (_SPLIT, [("assumption", state([], ["True"])), ("assumption", DONE)], 0, "the proof starts with 2 goals"),
    (DONE, [("assumption", DONE)], 0, _AFTER_DONE),
    # the first malformed step in order is the one reported, not the tactic after it
    (_GOAL, [("split", _SPLIT), ("assumption", DONE), ("assumption", DONE)], 1, _UNFILLED),
], ids=["tactic_after_done", "close_with_open_case", "two_initial_goals", "initial_done", "unfilled_then_more"])
def test_malformed_trace_exits_1(tmp_path, capsys, initial, steps, bad, message, dot):
    script, trace = write_replay_pair(tmp_path, "Lemma t : True /\\ True.", initial, steps)
    start, end = parse_script(script.read_text())[0].tactics[bad].span
    assert main([str(script), "--provider", "replay", "--fixture", str(trace), *dot]) == 1
    assert capsys.readouterr().err == f"error[MALFORMED_TRACE] at {start}..{end}: {message}\n"


@pytest.mark.parametrize("extra", [[], ["--dot"], ["--mode", "plain", "--lang", "fr"]])
def test_a_trace_whose_unfocused_goal_changes_exits_1(tmp_path, capsys, extra):
    """and_commutes.cqtrace with the goal left after the first `assumption` reading `Q -> False`, not `P`:
    that `assumption` acted on `P`, which it does not focus."""
    lines = fixture_path("and_commutes").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[5] = lines[5].replace('=\\n  P\\n"', '=\\n  Q -> False\\n"')
    trace = tmp_path / "mutated.cqtrace"
    trace.write_text("".join(lines), encoding="utf-8")
    script = script_path("and_commutes")
    start, end = parse_script(script.read_text())[0].tactics[4].span
    assert main([str(script), "--provider", "replay", "--fixture", str(trace), *extra]) == 1
    assert capsys.readouterr() == ("", f"error[MALFORMED_TRACE] at {start}..{end}: goal 'P', which the tactic "
                                       "does not focus, was changed or closed\n")


@pytest.mark.parametrize("dot", [[], ["--dot"]])
def test_proof_without_tactics_exits_1(tmp_path, capsys, dot):
    script, trace = write_replay_pair(tmp_path, "Lemma t : True.", state([], ["True"]), [])
    assert script.read_text() == "Lemma t : True.\nProof.\nQed.\n"
    assert main([str(script), "--provider", "replay", "--fixture", str(trace), *dot]) == 1
    captured = capsys.readouterr()
    assert "INCOMPLETE_PROOF" in captured.err
    assert captured.out == ""


def _cli_env(**changes):
    """This environment with src/ on PYTHONPATH and `changes` made; None removes a variable."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                    os.environ.get("PYTHONPATH")])))
    for name, value in changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def _cli_command(script, trace, *extra):
    return [sys.executable, "-m", "coqatoo.cli", str(script), "--provider", "replay", "--fixture", str(trace),
            *extra]


def test_runs_in_one_process_print_what_fresh_processes_print(tmp_path, capsys):
    """Values derived from a tactic's text are cached for the life of the process, so
    a run after another, with other templates or in another language, must not read
    the text of the run before."""
    templates = tmp_path / "templates"
    templates.mkdir()
    en = (ROOT / "src" / "coqatoo" / "templates" / "en.properties").read_text(encoding="utf-8")
    (templates / "en.properties").write_text(
        re.sub(r"(?m)^assumption\.default =.*$", "assumption.default = Clearly so. It is assumed.", en),
        encoding="utf-8")
    outputs = []
    for extra in ([], ["--templates", str(templates)], ["--lang", "fr"]):
        status = main(replay_args("conj_imp_equiv", *extra))
        captured = capsys.readouterr()
        fresh = subprocess.run(_cli_command(script_path("conj_imp_equiv"), fixture_path("conj_imp_equiv"), *extra),
                               capture_output=True, text=True, env=_cli_env(), timeout=120)
        assert (status, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        outputs.append(captured.out)
    assert len(set(outputs)) == 3


@pytest.mark.parametrize("extra", [["--mode", "annotated"], ["--mode", "plain"], ["--mode", "latex"], ["--dot"]],
                         ids=["annotated", "plain", "latex", "dot"])
def test_deep_narrow_chain_renders(tmp_path, extra):
    """A tree 899 cases deep renders in every output: the tree walk uses one
    stack frame per level.  A subprocess, so pytest's frames do not count."""
    script, trace = write_replay_pair(tmp_path, *narrow_chain(900))
    run = subprocess.run(_cli_command(script, trace, *extra), capture_output=True, env=_cli_env(), timeout=120)
    assert run.returncode == 0, run.stderr.decode()[-800:]


@pytest.mark.parametrize("dot", [False, True], ids=["annotated", "dot"])
def test_output_over_64_kib_is_the_same_through_every_writer(tmp_path, dot):
    """Standard output (a pipe here), unbuffered or not, and --out get the
    bytes of the rendered lines, written in chunks of about 64 KiB."""
    script, trace = write_replay_pair(tmp_path, *narrow_chain(250))
    command = _cli_command(script, trace, *(["--dot"] if dot else []))
    outputs = []
    for unbuffered in ("1", None):
        run = subprocess.run(command, capture_output=True, env=_cli_env(PYTHONUNBUFFERED=unbuffered), timeout=120)
        assert (run.returncode, run.stderr) == (0, b"")
        outputs.append(run.stdout)
    out = tmp_path / "out.txt"
    run = subprocess.run(command + ["--out", str(out)], capture_output=True, env=_cli_env(), timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, b"", b"")
    outputs.append(out.read_bytes())

    parsed, _ = parse_script(script.read_text(encoding="utf-8"))
    replayed = run_replay(parsed, str(trace))
    lines = (to_dot(build_proof_tree(parsed, replayed)) if dot
             else generate(parsed, replayed, load_templates(), OutputMode.ANNOTATED)[0])
    expected = output_text(lines).encode("utf-8")
    assert len(expected) > 2 * 64 * 1024
    assert outputs == [expected] * 3


def _run_on_unwritable_stdout(command, target, unbuffered):
    """Run `command` with standard output on /dev/full or on a pipe whose read end is closed."""
    if target == "/dev/full":
        stdout = os.open(target, os.O_WRONLY)
    else:
        read_end, stdout = os.pipe()
        os.close(read_end)
    try:
        return subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE,
                              env=_cli_env(PYTHONUNBUFFERED=unbuffered), timeout=60)
    finally:
        os.close(stdout)


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("target, reason", [("/dev/full", "[Errno 28] No space left on device"),
                                            ("closed pipe", "[Errno 32] Broken pipe")],
                         ids=["dev-full", "closed-pipe"])
def test_failed_write_to_stdout_exits_2(target, reason, unbuffered):
    """One IO diagnostic, as for --out; no traceback, and nothing at exit."""
    run = _run_on_unwritable_stdout(_cli_command(script_path("and_commutes"), fixture_path("and_commutes")),
                                    target, unbuffered)
    assert run.returncode == 2
    assert run.stderr.decode() == f"error[IO]: cannot write standard output: {reason}\n"


@pytest.mark.parametrize("target, reason", [("/dev/full", "[Errno 28] No space left on device"),
                                            ("closed pipe", "[Errno 32] Broken pipe")],
                         ids=["/dev/full", "closed pipe"])
def test_help_that_cannot_be_written_exits_2(target, reason):
    """Buffered --help reaches standard output at the writer's flush, which
    fails as the output of a run does: one IO diagnostic, exit 2."""
    run = _run_on_unwritable_stdout([sys.executable, "-m", "coqatoo.cli", "--help"], target, None)
    assert (run.returncode, run.stderr.decode()) == (2, f"error[IO]: cannot write standard output: {reason}\n")


@pytest.mark.parametrize("failing_args", [
    lambda _: replay_args("and_commutes")[:-1] + [str(fixture_path("modus_ponens"))],
    lambda directory: _heuristic_args(directory) + ["--strict"],
], ids=["fixture-mismatch", "strict-warning"])
def test_failed_run_writes_no_output(tmp_path, capsys, failing_args):
    args = failing_args(tmp_path)
    out = tmp_path / "out.txt"
    assert main(args + ["--out", str(out)]) == 1
    assert not out.exists()
    assert main(args) == 1
    assert capsys.readouterr().out == ""


def test_auto_using_a_tactic_without_a_rule_is_omitted_and_warned(tmp_path, capsys):
    """auto reports `simple exact I`, which has no row in rewriter.RULES."""
    script, trace = write_replay_pair(tmp_path, "Lemma t : True.", state([], ["True"]), [
        ("info_auto", "(* info auto: *)\nsimple exact I.\n\n" + DONE)])
    script.write_text(script.read_text(encoding="utf-8").replace("info_auto.", "auto."), encoding="utf-8")
    args = [str(script), "--provider", "replay", "--fixture", str(trace), "--mode", "plain"]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.out == "(details omitted)\n"
    auto_start = script.read_text(encoding="utf-8").index("auto.")
    assert captured.err == (f"warning[UNSUPPORTED_TACTIC] at {auto_start}..{auto_start + 5}: "
                            'no rewriting rule for tactic "exact"\n')
    assert main(args + ["--strict"]) == 1
    assert capsys.readouterr().out == ""


def _undecodable_copy(source, target, marker):
    """Copy `source` to `target` with a byte 0xff put in front of the first `marker`; the byte's offset."""
    data = source.read_bytes()
    at = data.index(marker)
    target.write_bytes(data[:at] + b"\xff" + data[at:])
    return at


@pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
def test_undecodable_script_exits_1(tmp_path, capsys, monkeypatch, from_stdin):
    bad = tmp_path / "bad.v"
    at = _undecodable_copy(script_path("and_commutes"), bad, b"Proof.")
    if from_stdin:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(bad.read_bytes())))
    name = "standard input" if from_stdin else str(bad)
    args = ["-" if from_stdin else str(bad), "--provider", "replay", "--fixture", str(fixture_path("and_commutes"))]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error[INPUT_ENCODING]: {name} is not valid UTF-8: byte 0xff at offset {at} ")


def test_undecodable_fixture_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cqtrace"
    at = _undecodable_copy(fixture_path("and_commutes"), bad, b"intros")
    assert main([str(script_path("and_commutes")), "--provider", "replay", "--fixture", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error[FIXTURE_PARSE]: fixture {bad} is not valid UTF-8: "
                                   f"byte 0xff at offset {at} ")


def test_undecodable_template_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "en.properties"
    at = _undecodable_copy(ROOT / "src" / "coqatoo" / "templates" / "en.properties", bad, b"=")
    assert main(replay_args("and_commutes", "--templates", str(tmp_path))) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error[TEMPLATE_PARSE]: {bad} is not valid UTF-8: byte 0xff at offset {at} ")


@pytest.mark.parametrize("option", ["--lang", "--templates"])
def test_template_path_too_long_to_open_exits_2(capsys, option):
    """A file name longer than the system allows: IO, not a traceback."""
    assert main(replay_args("and_commutes", option, "x" * 300)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error\[IO\]: cannot read \S+\.properties: \[Errno 36\] File name too long: .*\n",
                        captured.err)


@pytest.mark.skipif(os.geteuid() == 0, reason="root reads a file of mode 000")
def test_unreadable_template_file_exits_2(tmp_path, capsys):
    locked = tmp_path / "en.properties"
    locked.write_bytes((ROOT / "src" / "coqatoo" / "templates" / "en.properties").read_bytes())
    locked.chmod(0)
    assert main(replay_args("and_commutes", "--templates", str(tmp_path))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[IO]: cannot read {locked}: [Errno 13] Permission denied: {str(locked)!r}\n"


@pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="needs Linux's /proc/self/mem")
@pytest.mark.parametrize("reader", ["script", "fixture", "templates"])
def test_a_read_that_fails_after_the_open_exits_2(tmp_path, capsys, reader):
    """A link to /proc/self/mem opens, for root too, but reading its offset 0,
    which no process maps, fails with EIO."""
    mem = tmp_path / ("en.properties" if reader == "templates" else "mem")
    mem.symlink_to("/proc/self/mem")
    args, what = {"script": ([str(mem), "--provider", "replay", "--fixture", str(fixture_path("and_commutes"))], ""),
                  "fixture": ([str(script_path("and_commutes")), "--provider", "replay", "--fixture", str(mem)],
                              "fixture "),
                  "templates": (replay_args("and_commutes", "--templates", str(tmp_path)), "")}[reader]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[IO]: cannot read {what}{mem}: [Errno 5] Input/output error\n"


def _surrogate_pair(directory):
    """conjunction_chain(2), its second case goal holding a lone surrogate, which the fixture spells "\\ud800"."""
    lemma, initial, steps = conjunction_chain(2)
    steps[1] = ("split", steps[1][1].replace("is:\n A2", "is:\n A2 \ud800"))
    steps[2] = ("assumption", steps[2][1].replace("=\n  A2", "=\n  A2 \ud800"))
    return write_replay_pair(directory, lemma, initial, steps)


@pytest.mark.parametrize("extra", [["--mode", "annotated"], ["--mode", "plain"], ["--mode", "latex"], ["--dot"]],
                         ids=["annotated", "plain", "latex", "dot"])
def test_fixture_string_with_a_lone_surrogate_exits_1_before_any_output(tmp_path, capsys, extra):
    """UTF-8 cannot encode the surrogate, so a run that took it would fail to write its output."""
    script, trace = _surrogate_pair(tmp_path)
    at = json.loads(trace.read_text(encoding="ascii").splitlines()[2])["raw_state"].index("\ud800")
    args = [str(script), "--provider", "replay", "--fixture", str(trace), *extra]
    out = tmp_path / "out.txt"
    assert main(args + ["--out", str(out)]) == 1
    assert not out.exists()
    assert main(args) == 1
    captured = capsys.readouterr()
    diagnostic = (f"error[FIXTURE_PARSE]: malformed fixture {trace} record 3: "
                  f"raw_state holds a lone surrogate at character {at}\n")
    assert (captured.out, captured.err) == ("", diagnostic * 2)


def test_crlf_script_spans_are_offsets_into_the_decoded_file(tmp_path, capsys, monkeypatch):
    """From a path and from standard input, a span slices its sentence out of the file as decoded."""
    script = tmp_path / "crlf.v"
    script.write_bytes(b"Lemma t : True.\r\nProof.\r\n  split; trivial.\r\nQed.\r\n")
    text = script.read_bytes().decode("utf-8")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(script.read_bytes())))
    errs = []
    for source in (str(script), "-"):
        assert main([source]) == 1
        errs.append(capsys.readouterr().err)
    start, end = map(int, re.match(r"error\[UNSUPPORTED_CHAIN\] at (\d+)\.\.(\d+): ", errs[0]).groups())
    assert (text[start:end], errs[1]) == ("split; trivial.", errs[0])


_BOM = "\ufeff".encode()


@pytest.mark.parametrize("name", CORPUS)
def test_a_script_with_a_byte_order_mark_renders_its_golden(tmp_path, capsys, monkeypatch, name):
    """One leading mark is dropped, from a path and from standard input alike."""
    script = tmp_path / f"{name}.v"
    script.write_bytes(_BOM + script_path(name).read_bytes())
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(script.read_bytes())))
    golden = (GOLDEN_DIR / f"{name}.plain.en.txt").read_bytes().decode("utf-8")
    for source in (str(script), "-"):
        assert main([source, "--provider", "replay", "--fixture", str(fixture_path(name)), "--mode", "plain"]) == 0
        assert capsys.readouterr() == (golden, "")


def test_a_template_file_with_a_byte_order_mark_renders_the_golden(tmp_path, capsys):
    english = (ROOT / "src" / "coqatoo" / "templates" / "en.properties").read_bytes()
    (tmp_path / "en.properties").write_bytes(_BOM + english)
    assert main(replay_args("and_commutes", "--templates", str(tmp_path))) == 0
    assert capsys.readouterr() == ((GOLDEN_DIR / "and_commutes.annotated.en.txt").read_bytes().decode("utf-8"), "")


def test_script_spans_count_from_after_a_byte_order_mark(tmp_path, capsys, monkeypatch):
    """A span in a script with a mark, read from a path or from standard input,
    is the span in the script without it."""
    text = "Lemma t : True.\nProof.\n  split; trivial.\nQed.\n"
    plain, marked = tmp_path / "plain.v", tmp_path / "marked.v"
    plain.write_bytes(text.encode())
    marked.write_bytes(_BOM + text.encode())
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(marked.read_bytes())))
    errs = []
    for source in (str(plain), str(marked), "-"):
        assert main([source]) == 1
        errs.append(capsys.readouterr().err)
    start, end = map(int, re.match(r"error\[UNSUPPORTED_CHAIN\] at (\d+)\.\.(\d+): ", errs[0]).groups())
    assert (text[start:end], errs[1:]) == ("split; trivial.", errs[:1] * 2)


def _added_modules(code):
    """The modules a fresh interpreter holds after running `code`, minus those of a bare one."""
    env = _cli_env()
    listing = "\nimport sys\nprint(' '.join(sys.modules))"

    def modules(body):
        run = subprocess.run([sys.executable, "-c", body + listing], capture_output=True, text=True,
                             env=env, timeout=60)
        assert run.returncode == 0, run.stderr[-800:]
        return set(run.stdout.split())
    return modules(code) - modules("pass")


@pytest.mark.parametrize("extra", [None, [], ["--mode", "plain"], ["--mode", "latex"], ["--dot"]],
                         ids=["import", "replay", "replay-plain", "replay-latex", "replay-dot"])
def test_cold_start_loads_no_process_machinery(extra):
    """Neither the import nor a replay run loads the live provider or its
    modules, argparse and the locale module it looks up, getopt and the
    gettext it imports, dataclasses, nor json, whose C scanner alone reads a
    fixture; and a replay run loads no module that the import does not."""
    imported = _added_modules("import coqatoo.cli")
    forbidden = {"dataclasses", "inspect", "subprocess", "selectors", "shutil", "argparse", "locale", "getopt",
                 "gettext", "json", "json.decoder", "json.scanner", "json.encoder", "coqatoo.live_session"}
    assert imported & forbidden == set()
    if extra is not None:
        replayed = _added_modules("from coqatoo.cli import main\n"
                                  f"assert main({replay_args('and_commutes', '--out', os.devnull, *extra)!r}) == 0")
        assert replayed - imported == set()


@pytest.mark.parametrize("extra", [["--mode", "annotated"], ["--mode", "plain"], ["--mode", "latex"],
                                   ["--lang", "fr"], ["--dot"]],
                         ids=["annotated", "plain", "latex", "fr", "dot"])
def test_a_replay_in_a_clean_interpreter_loads_no_typing_pathlib_json_or_process_machinery(extra):
    """Only a fresh `python -S` can show this: this process has imported all
    five, and a site-packages `.pth` may load some before any code runs."""
    code = ("import sys\nfrom coqatoo.cli import main\n"
            f"assert main({replay_args('and_commutes', '--out', os.devnull, *extra)!r}) == 0\n"
            "print(*sorted({'typing', 'pathlib', 'json', 'subprocess', 'selectors'} & sys.modules.keys()))")
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=_cli_env(),
                         timeout=60)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "\n")


def test_a_replay_without_the_c_scanner_renders_the_golden():
    """Where `_json` cannot be imported, fixture records are read by json's own scanner."""
    code = ("import sys\nsys.modules['_json'] = None\n"
            "from coqatoo import state_provider\nfrom coqatoo.cli import main\n"
            "assert state_provider._scan.__module__ == 'json.scanner', state_provider._scan\n"
            f"sys.exit(main({replay_args('and_commutes')!r}))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_cli_env(), timeout=60)
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == (GOLDEN_DIR / "and_commutes.annotated.en.txt").read_bytes()


@pytest.mark.parametrize("extra", [["--mode", "annotated"], ["--mode", "plain"], ["--mode", "latex"], ["--dot"]],
                         ids=["annotated", "plain", "latex", "dot"])
@pytest.mark.parametrize("proof", ["and_commutes", "narrow_chain"])
def test_a_replay_run_leaves_no_reference_cycle(tmp_path, capsys, proof, extra):
    """Reference counting frees all that a run makes, so the command line,
    which never collects, holds nothing until exit: after a first run has
    filled the caches, a second leaves the collector nothing to find."""
    if proof == "and_commutes":
        args = replay_args("and_commutes", *extra)
    else:
        script, trace = write_replay_pair(tmp_path, *narrow_chain(300))
        args = [str(script), "--provider", "replay", "--fixture", str(trace), *extra]
    assert main(args) == 0
    was_enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(args) == 0
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage).most_common(5)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        (gc.enable if was_enabled else gc.disable)()
    assert (found, kinds) == (0, [])


def _chained_script(directory):
    script = directory / "chained.v"
    script.write_text("Lemma t : True. Proof. split; intros. Qed.")
    return str(script)


# each way out of main: directory -> (argv, how main ends, exit status)
_WAYS_OUT = {
    "exit-0": lambda _: (replay_args("and_commutes"), "returns", 0),
    "exit-1": lambda directory: ([_chained_script(directory)], "returns", 1),
    "exit-2": lambda _: (["does-not-exist.v"], "returns", 2),
    "usage-error": lambda _: ([str(script_path("and_commutes")), "--frobnicate"], "raises", 2),
    "help": lambda _: (["--help"], "raises", 0),
}


def _main_in_process(argv):
    try:
        return "returns", main(argv)
    except SystemExit as exc:
        return "raises", exc.code


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("way_out", sorted(_WAYS_OUT))
def test_main_with_a_list_leaves_the_collector_alone(tmp_path, capsys, way_out, enabled):
    argv, ends, status = _WAYS_OUT[way_out](tmp_path)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert _main_in_process(argv) == (ends, status)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, 0)
    finally:
        (gc.enable if was_enabled else gc.disable)()


# the console script's entry, after an exit handler and a hook on every collection
_ENTRY = ("import atexit, gc, os, sys\nfrom coqatoo.cli import main\n"
          "atexit.register(os.write, 2, b'exit handler\\n')\n"
          "gc.callbacks.append(lambda phase, info: phase == 'start' and os.write(2, b'collection\\n'))\n"
          "sys.exit(main())")


@pytest.mark.parametrize("way_out", sorted(_WAYS_OUT))
def test_the_command_line_runs_without_the_collector(tmp_path, capsys, way_out):
    """main() runs without the collector and ends the process with
    os._exit, after flushing what it wrote to the pipes, so no exit handler
    runs; stdout, stderr and exit status are those of main(argv), with
    standard output unbuffered and block-buffered."""
    argv, ends, status = _WAYS_OUT[way_out](tmp_path)
    assert _main_in_process(argv) == (ends, status)
    captured = capsys.readouterr()
    for unbuffered in ("1", None):
        run = subprocess.run([sys.executable, "-c", _ENTRY, *argv], capture_output=True, text=True,
                             env=_cli_env(PYTHONUNBUFFERED=unbuffered), timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (status, captured.out, captured.err), unbuffered


# the body of the console script that pip writes for `coqatoo = "coqatoo.cli:main"`
_CONSOLE_SCRIPT = "import sys\nfrom coqatoo.cli import main\nsys.exit(main())"


def _run_with_a_failing_stream(argv, stream, target, unbuffered):
    """Run the console script on `argv` with the standard `stream` on /dev/full
    or closed, the others on pipes, and nothing to read on standard input."""
    command = [sys.executable, "-c", _CONSOLE_SCRIPT, *argv]
    streams = {"stdin": subprocess.DEVNULL, "stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    with open("/dev/full", "wb") as full:
        if target == "closed":
            command = ["sh", "-c", f'exec "$@" {list(streams).index(stream)}>&-', "sh", *command]
        else:
            streams[stream] = full
        return subprocess.run(command, **streams, env=_cli_env(PYTHONUNBUFFERED=unbuffered), timeout=60)


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("stream, target", [("stdout", "/dev/full"), ("stdout", "closed"),
                                            ("stderr", "/dev/full"), ("stderr", "closed")],
                         ids=["stdout-full", "stdout-closed", "stderr-full", "stderr-closed"])
@pytest.mark.parametrize("way_out", sorted(_WAYS_OUT))
def test_a_failing_standard_stream_leaves_the_exit_statuses_0_1_and_2(tmp_path, capsys, way_out, stream, target,
                                                                     unbuffered):
    """The status README gives, and on the stream still readable what
    main(argv) writes there, so no traceback: a standard output that cannot
    be written is IO, exit 2, when the run writes to it; a standard error
    that cannot be written leaves the status as it was."""
    argv, ends, status = _WAYS_OUT[way_out](tmp_path)
    assert _main_in_process(argv) == (ends, status)
    captured = capsys.readouterr()
    run = _run_with_a_failing_stream(argv, stream, target, unbuffered)
    if stream == "stderr":
        assert (run.returncode, run.stdout.decode()) == (status, captured.out)
    elif captured.out:
        reason = "[Errno 28] No space left on device" if target == "/dev/full" else "[Errno 9] Bad file descriptor"
        assert (run.returncode, run.stderr.decode()) == (2, f"error[IO]: cannot write standard output: {reason}\n")
    else:
        assert (run.returncode, run.stderr.decode()) == (status, captured.err)


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_standard_input_that_is_closed_exits_2(unbuffered):
    argv = ["-", "--provider", "replay", "--fixture", str(fixture_path("and_commutes"))]
    run = _run_with_a_failing_stream(argv, "stdin", "closed", unbuffered)
    assert (run.returncode, run.stdout, run.stderr.decode()) == (
        2, b"", "error[IO]: cannot read standard input: [Errno 9] Bad file descriptor\n")


def test_no_resource_is_left_for_a_finalizer(tmp_path, fake_prover, capsys, monkeypatch):
    """The command line skips the collection at exit, so a pipe, file or
    process left in a reference cycle would never be closed: none is."""
    gc.collect()
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    script = str(script_path("and_commutes"))
    recorded, out = tmp_path / "live.cqtrace", tmp_path / "out.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert main(_live_args(script, fake_prover(fixture_path("and_commutes")),
                               "--record", str(recorded), "--out", str(out))) == 0
        assert main([script, "--provider", "replay", "--fixture", str(recorded)]) == 0
        gc.collect()
    assert [(u.exc_type, str(u.exc_value), repr(u.object)) for u in unraisable] == []
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


def _diagnostic_codes():
    """Each diagnostic code the package raises -> "warning", or its exit status."""
    codes = {}
    for path in sorted((ROOT / "src" / "coqatoo").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("error", "warning", "decode_utf8"):
                for arg in node.args:
                    if isinstance(arg, ast.Constant) and re.fullmatch(r"[A-Z][A-Z0-9_]+", str(arg.value)):
                        codes[arg.value] = ("warning" if node.func.id == "warning"
                                            else "2" if arg.value in _EXIT2_CODES else "1")
    return codes


def test_every_diagnostic_code_is_in_the_readme():
    """README's table under "## Diagnostics" gives each code the package raises,
    and no other, a row `CODE` | warning, 1 or 2: 2 marks exactly the codes of
    `_EXIT2_CODES`, and warning exactly those that `warning(...)` raises."""
    codes = _diagnostic_codes()
    assert {"INPUT_ENCODING", "IO", "MULTIPLE_LEMMAS", "NO_LEMMA", "TACTIC_FAILED"} <= codes.keys()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Diagnostics\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([A-Z][A-Z0-9_]+)` \| (warning|1|2) \|", section, re.M)
    assert len(listed) == len(dict(listed)), "a code is listed twice"
    assert dict(listed) == codes
    assert {code for code, kind in listed if kind == "2"} == _EXIT2_CODES
