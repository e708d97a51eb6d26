"""The live provider: one coqtop process, driven sentence by sentence.

Only `state_provider.run_live` imports this module, so an import of the
package or a replay run neither compiles it nor loads its process
machinery.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import time

from .diagnostics import CoqatooError, error
from .goal_parser import FAILURE_MARKERS
from .script_parser import Script, ScriptItem
from .state_provider import PROVER_ENV_VAR, SessionTrace

_PROMPT_MARKER = b"</prompt>"
_CHUNK_BYTES = 64 * 1024


class _ProverSession:
    """One strictly sequential conversation with a coqtop process.

    `coqtop -emacs` writes each response to stdout and then a
    `<prompt>...</prompt>` to stderr.  One selector loop reads both pipes
    in chunks (POSIX only); the stdout read before the first prompt is the
    banner.
    """

    def __init__(self, prover_path: str, timeout_secs: float):
        self.timeout = timeout_secs
        try:
            self.proc = subprocess.Popen(
                [prover_path, "-emacs", "-q"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0)
        except OSError as exc:
            raise CoqatooError(error("PROVER_MISSING", f"cannot start prover {prover_path}: {exc.strerror} "
                                     f"(install coqtop, set ${PROVER_ENV_VAR}, or pass --prover)")) from None
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


def run_live(script: Script, prover_path: str | None, timeout_secs: float) -> SessionTrace:
    """`state_provider.run_live`: the prover's response to the lemma and to each tactic."""
    session = _ProverSession(prover_path or os.environ.get(PROVER_ENV_VAR) or "coqtop", timeout_secs)
    try:
        banner = session.read_response()
        version = next((line.strip() for line in banner.splitlines() if line.strip()), "")
        responses = []
        for item in (script.lemma, *script.tactics):
            raw = session.submit(item.prover_text)
            _check_failure(raw, item)
            responses.append(raw)
        return SessionTrace(tuple(responses), version)
    finally:
        session.close()


def _check_failure(raw: str, item: ScriptItem) -> None:
    for line in raw.splitlines():
        if line.startswith(FAILURE_MARKERS):
            raise CoqatooError(error("TACTIC_FAILED",
                                     f"prover rejected {item.command!r}: {raw.strip()}", item.span))
