import io
import json
import os
import shlex
import subprocess
import sys
import time

import pytest

from coqatoo import load_templates, parse_script, run_replay, to_dot
from coqatoo.cli import main, parse_args
from coqatoo.pipeline import build_proof_tree, generate
from coqatoo.rewriter import OutputMode

from helpers import (CORPUS, DONE, GOLDEN_DIR, ROOT, conjunction_chain, fixture_path, narrow_chain,
                     normalize_rendering, output_text, script_path, state, write_prover, write_replay_pair)


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


@pytest.mark.parametrize("timeout", ["0", "-3"])
def test_non_positive_timeout_is_rejected_before_the_prover_starts(tmp_path, capsys, timeout):
    prover = write_prover(tmp_path, f"touch {tmp_path / 'started'}")
    with pytest.raises(SystemExit) as exc:
        main([str(script_path("and_commutes")), "--prover", prover, "--timeout", timeout])
    assert exc.value.code == 2
    assert "--timeout" in capsys.readouterr().err
    assert not (tmp_path / "started").exists()


def test_golden_run(capsys):
    assert main(replay_args("conj_imp_equiv")) == 0
    captured = capsys.readouterr()
    golden = (GOLDEN_DIR / "conj_imp_equiv.annotated.en.txt").read_text()
    assert normalize_rendering(captured.out) == normalize_rendering(golden)
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
# (proof, golden file stem, extra arguments); the space-normalized golden of
# conj_imp_equiv.annotated.en is checked by test_golden_run instead
GOLDEN_RUNS = [(name, f"{name}.{mode}.{lang}", ["--mode", mode, "--lang", lang])
               for name in CORPUS for mode, lang in _PROSE
               if (name, mode, lang) != ("conj_imp_equiv", "annotated", "en")]
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
        assert captured.err.count("warning[UNSUPPORTED_TACTIC]") == 1   # simpl
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


def test_missing_input_file_exits_2(capsys):
    assert main(["does-not-exist.v"]) == 2
    assert "IO" in capsys.readouterr().err


def test_prover_missing_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("COQATOO_PROVER", "definitely-not-a-prover")
    assert main([str(script_path("conj_imp_equiv"))]) == 2
    assert "PROVER_MISSING" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"#!/nonexistent/interp\n", b"\x00\x01\x02 not a program\n"],
                         ids=["missing_interpreter", "exec_format_error"])
def test_prover_that_cannot_start_exits_2(tmp_path, capsys, content):
    prover = tmp_path / "prover"
    prover.write_bytes(content)
    prover.chmod(0o755)
    assert main(_live_args(script_path("and_commutes"), str(prover))) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error[PROVER_MISSING]")
    assert str(prover) in err and "Traceback" not in err


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


def test_strict_promotes_warnings(tmp_path, capsys):
    src = tmp_path / "warn.v"
    src.write_text("Lemma t : True. Proof. ring. Qed.")
    fixture = tmp_path / "warn.cqtrace"
    fixture.write_text(
        '{"lemma": "Lemma t : True.", "initial_raw_state": '
        '"1 subgoal\\n\\n  ============================\\n  True\\n"}\n'
        '{"tactic": "ring", "raw_state": "No more subgoals.\\n"}\n')
    args = [str(src), "--provider", "replay", "--fixture", str(fixture)]
    assert main(args + ["--strict"]) == 1
    assert "UNSUPPORTED_TACTIC" in capsys.readouterr().err
    assert main(args) == 0


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


def test_prover_never_prompting_times_out(tmp_path, capsys):
    prover = write_prover(tmp_path, "exec sleep 10")
    assert main(_live_args(script_path("and_commutes"), prover, "--timeout", "1")) == 2
    assert "PROVER_TIMEOUT" in capsys.readouterr().err


_GOAL = state([], ["True /\\ True"])
_SPLIT = state([], ["True", "True"])


@pytest.mark.parametrize("dot", [[], ["--dot"]])
@pytest.mark.parametrize("initial, steps", [
    (_GOAL, [("split", _SPLIT), ("assumption", state([], ["True"])), ("assumption", DONE), ("assumption", DONE)]),
    (_GOAL, [("split", _SPLIT), ("assumption", DONE)]),
    # the first tactic closes one of two initial goals: no case is open to take the next
    (_SPLIT, [("assumption", state([], ["True"])), ("assumption", DONE)]),
], ids=["tactic_after_done", "close_with_open_case", "two_initial_goals"])
def test_malformed_trace_exits_1(tmp_path, capsys, initial, steps, dot):
    script, trace = write_replay_pair(tmp_path, "Lemma t : True /\\ True.", initial, steps)
    assert main([str(script), "--provider", "replay", "--fixture", str(trace), *dot]) == 1
    assert "MALFORMED_TRACE" in capsys.readouterr().err


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


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("target, reason", [("/dev/full", "[Errno 28] No space left on device"),
                                            ("closed pipe", "[Errno 32] Broken pipe")],
                         ids=["dev-full", "closed-pipe"])
def test_failed_write_to_stdout_exits_2(target, reason, unbuffered):
    """One IO diagnostic, as for --out; no traceback, and nothing at exit."""
    if target == "/dev/full":
        stdout = os.open(target, os.O_WRONLY)
    else:
        read_end, stdout = os.pipe()
        os.close(read_end)
    try:
        run = subprocess.run(_cli_command(script_path("and_commutes"), fixture_path("and_commutes")),
                             stdout=stdout, stderr=subprocess.PIPE, env=_cli_env(PYTHONUNBUFFERED=unbuffered),
                             timeout=60)
    finally:
        os.close(stdout)
    assert run.returncode == 2
    assert run.stderr.decode() == f"error[IO]: cannot write standard output: {reason}\n"


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
                            'no rewriting rule for tactic "exact", which auto used\n')
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


@pytest.mark.parametrize("code", [
    "import coqatoo.cli",
    "from coqatoo.cli import main\n"
    f"assert main({replay_args('and_commutes', '--out', os.devnull)!r}) == 0",
], ids=["import", "replay"])
def test_cold_start_loads_no_process_machinery(code):
    """Neither the import nor a replay run loads the live provider's modules, nor dataclasses."""
    assert _added_modules(code) & {"dataclasses", "inspect", "subprocess", "selectors"} == set()
