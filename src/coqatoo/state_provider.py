"""Produces the per-tactic proof state sequence.

Two providers share one output type: a live coqtop subprocess driver and
a deterministic replay of a recorded `.cqtrace` fixture.  Fixtures are
line-delimited JSON and store raw prover responses; parsing to
ProofState happens lazily so recorded sessions survive parser changes.
The live provider imports its process machinery (`subprocess`,
`selectors`, `shutil`) where it uses it, so a replay never loads it.
"""

import json
import os
import time
from itertools import zip_longest
from typing import BinaryIO, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .diagnostics import CoqatooError, decode_utf8, error
from .goal_parser import Hypothesis, ProofState, parse_state, normalize_text
from .script_parser import Script, ScriptItem

DEFAULT_TIMEOUT_SECS = 10
PROVER_ENV_VAR = "COQATOO_PROVER"

_PROMPT_MARKER = b"</prompt>"
_CHUNK_BYTES = 64 * 1024


class TraceStep(NamedTuple):
    tactic: str
    raw_state: str


class SessionTrace(NamedTuple):
    lemma: str
    initial_raw: str
    steps: Sequence[TraceStep] = ()
    prover_version: str = ""

    def states(self) -> List[ProofState]:
        """The initial state, then the state after each step.

        A hypothesis block is parsed once per call: states that print the
        same block share one `hypotheses` tuple.
        """
        contexts: Dict[str, Tuple[Hypothesis, ...]] = {}
        return [parse_state(raw, contexts)
                for raw in (self.initial_raw, *(step.raw_state for step in self.steps))]


def _norm_tactic(text: str) -> str:
    text = normalize_text(text)
    return text[:-1].strip() if text.endswith(".") else text


def _fields(record, first: str, second: str, fixture_path: str, number: int) -> Tuple[str, str]:
    """The string values of `first` and `second` in one decoded fixture record."""
    if isinstance(record, dict):
        a, b = record.get(first), record.get(second)
        if isinstance(a, str) and isinstance(b, str):
            return a, b
    raise CoqatooError(error("FIXTURE_PARSE", f"malformed fixture {fixture_path} record {number}: "
                             f"expected an object with string fields {first}, {second}"))


def _header(record, fixture_path: str) -> Tuple[str, str, str]:
    """Lemma, initial response and prover version of a decoded header record."""
    lemma, initial = _fields(record, "lemma", "initial_raw_state", fixture_path, 1)
    version = record.get("prover_version", "")
    if not isinstance(version, str):
        raise CoqatooError(error("FIXTURE_PARSE", f"malformed fixture {fixture_path} record 1: "
                                 "expected a string prover_version"))
    return lemma, initial, version


def _read_fixture(fh: BinaryIO, fixture_path: str) -> Tuple[str, str, str, Tuple[TraceStep, ...]]:
    """Lemma, initial response, prover version and steps of an open fixture,
    read one record at a time.

    The diagnostics are those of decoding the whole file before any record:
    the first byte that is not UTF-8, else the first record that is not
    JSON, else the first record of the wrong shape.
    """
    name = f"fixture {fixture_path}"
    header: Optional[Tuple[str, str, str]] = None
    steps: List[TraceStep] = []
    bad_json = bad_record = None   # raised once every byte has decoded
    offset = number = 0
    for raw in fh:   # a record ends at "\n" only: a JSON string may hold U+2028 and the like raw
        text = decode_utf8(raw, name, "FIXTURE_PARSE", offset)
        offset += len(raw)
        if text.endswith("\n"):   # a "\r\n" line end is one record end
            text = text[:-2] if text.endswith("\r\n") else text[:-1]
        if bad_json or not text or text.isspace():
            continue
        number += 1
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            bad_json = CoqatooError(error("FIXTURE_PARSE", f"malformed fixture {fixture_path}: {exc}"))
            continue
        if bad_record:
            continue
        try:
            if header is None:
                header = _header(record, fixture_path)
            else:
                steps.append(TraceStep(*_fields(record, "tactic", "raw_state", fixture_path, number)))
        except CoqatooError as exc:
            bad_record = exc
    if bad_json or bad_record:
        raise bad_json or bad_record
    if header is None:
        raise CoqatooError(error("FIXTURE_PARSE", f"fixture {fixture_path} is empty"))
    return (*header, tuple(steps))


def run_replay(script: Script, fixture_path: str) -> SessionTrace:
    """Replay a recorded session, verifying it matches the script."""
    try:
        with open(fixture_path, "rb") as fh:
            lemma, initial, version, steps = _read_fixture(fh, fixture_path)
    except OSError as exc:
        raise CoqatooError(error("IO", f"cannot read fixture {fixture_path}: {exc}"))

    script_lemma, fixture_lemma = normalize_text(script.lemma.text), normalize_text(lemma)
    if fixture_lemma != script_lemma:
        raise CoqatooError(error(
            "FIXTURE_MISMATCH",
            f"fixture records lemma {fixture_lemma!r}, script states {script_lemma!r}"))
    script_tactics = [_norm_tactic(it.text) for it in script.tactics]
    fixture_tactics = [_norm_tactic(s.tactic) for s in steps]
    for i, (a, b) in enumerate(zip_longest(script_tactics, fixture_tactics, fillvalue="(end of proof)")):
        if a != b:
            raise CoqatooError(error(
                "FIXTURE_MISMATCH",
                f"fixture diverges from script at tactic {i}: script has {a!r}, fixture has {b!r}"))
    return SessionTrace(lemma, initial, steps, version)


def record_session(trace: SessionTrace, out_path: str) -> None:
    """Write a trace as a replayable .cqtrace fixture."""
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"lemma": trace.lemma,
                                 "initial_raw_state": trace.initial_raw,
                                 "prover_version": trace.prover_version}) + "\n")
            for step in trace.steps:
                fh.write(json.dumps({"tactic": step.tactic, "raw_state": step.raw_state}) + "\n")
    except OSError as exc:
        raise CoqatooError(error("IO", f"cannot write fixture {out_path}: {exc}"))


class _ProverSession:
    """One strictly sequential conversation with a coqtop process.

    `coqtop -emacs` writes each response to stdout and then a
    `<prompt>...</prompt>` to stderr.  One selector loop reads both pipes
    in chunks (POSIX only); the stdout read before the first prompt is the
    banner.
    """

    def __init__(self, prover_path: str, timeout_secs: float):
        import selectors
        import subprocess
        self.timeout = timeout_secs
        try:
            self.proc = subprocess.Popen(
                [prover_path, "-emacs", "-q"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0)
        except OSError as exc:
            raise CoqatooError(error("PROVER_MISSING",
                                     f"cannot start prover {prover_path}: {exc.strerror}")) from None
        self._stdout = self.proc.stdout.fileno()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._stdout, selectors.EVENT_READ)
        self._selector.register(self.proc.stderr.fileno(), selectors.EVENT_READ)

    def read_response(self) -> str:
        """Read up to the next prompt; return the stdout written before it."""
        out, err = bytearray(), bytearray()
        deadline = time.monotonic() + self.timeout
        while _PROMPT_MARKER not in err:
            ready = self._selector.select(max(deadline - time.monotonic(), 0))
            if not ready:
                raise CoqatooError(error("PROVER_TIMEOUT", f"no prompt within {self.timeout}s"))
            for key, _ in ready:
                chunk = os.read(key.fd, _CHUNK_BYTES)
                if not chunk:
                    raise _exited(err)
                (out if key.fd == self._stdout else err).extend(chunk)
        # the response was written before the prompt: take what is still in the pipe
        while any(key.fd == self._stdout for key, _ in self._selector.select(0)):
            chunk = os.read(self._stdout, _CHUNK_BYTES)
            if not chunk:
                break
            out.extend(chunk)
        text = out.decode("utf-8", errors="replace")
        return text.replace("\r\n", "\n").replace("\r", "\n")

    def submit(self, sentence: str) -> str:
        """Send one sentence and return the full response."""
        if not sentence.rstrip().endswith("."):
            sentence = sentence.rstrip() + "."
        data = (sentence + "\n").encode("utf-8")
        try:
            while data:
                data = data[self.proc.stdin.write(data):]
        except BrokenPipeError:
            raise _exited(b"") from None
        return self.read_response()

    def close(self) -> None:
        self._selector.close()
        self.proc.kill()
        with self.proc:  # closes the pipes and reaps the child
            pass


def _exited(stderr: bytes) -> CoqatooError:
    detail = stderr.decode("utf-8", errors="replace").strip()[-200:]
    return CoqatooError(error("PROVER_EXITED", "prover exited before its prompt"
                              + (f": {detail}" if detail else "")))


def resolve_prover(cli_path: Optional[str] = None) -> Optional[str]:
    """CLI flag wins over COQATOO_PROVER; fall back to coqtop on PATH."""
    import shutil
    candidate = cli_path or os.environ.get(PROVER_ENV_VAR) or "coqtop"
    return shutil.which(candidate)


def run_live(script: Script, prover_path: Optional[str] = None,
             timeout_secs: float = DEFAULT_TIMEOUT_SECS) -> SessionTrace:
    """Execute the script against a live prover, capturing each response.

    The prover is `prover_path`, else $COQATOO_PROVER, else coqtop (`resolve_prover`).
    The banner's first non-blank line is kept as the trace's `prover_version`.
    """
    resolved = resolve_prover(prover_path)
    if resolved is None:
        raise CoqatooError(error("PROVER_MISSING", "no prover executable found (install coqtop, "
                                 f"set ${PROVER_ENV_VAR}, or pass --prover)"))

    lemma = script.lemma
    session = _ProverSession(resolved, timeout_secs)
    try:
        banner = session.read_response()
        version = next((line.strip() for line in banner.splitlines() if line.strip()), "")
        initial_raw = session.submit(lemma.text)
        _check_failure(initial_raw, lemma)
        steps = []
        for it in script.tactics:
            raw = session.submit(it.text)
            _check_failure(raw, it)
            steps.append(TraceStep(_norm_tactic(it.text), raw))
        return SessionTrace(normalize_text(lemma.text), initial_raw, tuple(steps), version)
    finally:
        session.close()


def _check_failure(raw: str, item: ScriptItem) -> None:
    for line in raw.splitlines():
        if line.startswith(("Error", "Toplevel input")):
            raise CoqatooError(error("TACTIC_FAILED",
                                     f"prover rejected {item.command!r}: {raw.strip()}", item.span))
