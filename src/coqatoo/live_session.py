"""The live provider: one coqtop process, driven sentence by sentence.

`coqtop -emacs` writes each response to stdout and then a
`<prompt>...</prompt>` to stderr.  One selector loop (POSIX only) writes a
sentence to the prover's non-blocking stdin and reads both pipes in chunks,
all under the sentence's one deadline; the stdout read before the first
prompt is the banner.

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
from .script_parser import Script
from .state_provider import PROVER_ENV_VAR, SessionTrace

_PROMPT_MARKER = b"</prompt>"
_CHUNK_BYTES = 64 * 1024


def _exchange(proc: subprocess.Popen, selector: selectors.BaseSelector, data: bytes, timeout: float) -> str:
    """Send `data` and read up to the next prompt, both within `timeout` seconds;
    return the stdout written before the prompt."""
    stdin, stdout = proc.stdin.fileno(), proc.stdout.fileno()
    os.set_blocking(stdin, False)
    if data:
        selector.register(stdin, selectors.EVENT_WRITE)
    out, err = bytearray(), bytearray()
    deadline = time.monotonic() + timeout
    while data or _PROMPT_MARKER not in err:
        ready = selector.select(max(deadline - time.monotonic(), 0))
        if not ready:
            raise CoqatooError(error("PROVER_TIMEOUT", f"no prompt within {timeout}s"))
        for key, _ in ready:
            if key.fd == stdin:
                try:
                    data = data[os.write(stdin, data):]
                except BrokenPipeError:
                    raise _exited(err) from None
                if not data:
                    selector.unregister(stdin)
                continue
            chunk = os.read(key.fd, _CHUNK_BYTES)
            if not chunk:
                raise _exited(err)
            (out if key.fd == stdout else err).extend(chunk)
    # the response was written before the prompt: take what is still in the pipe
    while any(key.fd == stdout for key, _ in selector.select(0)) and (chunk := os.read(stdout, _CHUNK_BYTES)):
        out.extend(chunk)
    text = out.decode("utf-8", errors="replace")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _exited(stderr: bytes) -> CoqatooError:
    detail = stderr.decode("utf-8", errors="replace").strip()[-200:]
    return CoqatooError(error("PROVER_EXITED", "prover exited before its prompt"
                              + (f": {detail}" if detail else "")))


def run_live(script: Script, prover_path: str | None, timeout_secs: float) -> SessionTrace:
    """`state_provider.run_live`: the prover's response to the lemma and to each tactic."""
    prover = prover_path or os.environ.get(PROVER_ENV_VAR) or "coqtop"
    try:
        proc = subprocess.Popen([prover, "-emacs", "-q"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, bufsize=0)
    except OSError as exc:
        raise CoqatooError(error("PROVER_MISSING", f"cannot start prover {prover}: {exc.strerror} "
                                 f"(install coqtop, set ${PROVER_ENV_VAR}, or pass --prover)")) from None
    with proc, selectors.DefaultSelector() as selector:   # closes the pipes and reaps the child
        try:
            selector.register(proc.stdout, selectors.EVENT_READ)
            selector.register(proc.stderr, selectors.EVENT_READ)
            banner = _exchange(proc, selector, b"", timeout_secs)
            version = next((line.strip() for line in banner.splitlines() if line.strip()), "")
            responses = []
            for item in (script.lemma, *script.tactics):
                sentence = item.prover_text.rstrip().removesuffix(".") + ".\n"   # the last tactic may lack its "."
                raw = _exchange(proc, selector, sentence.encode("utf-8"), timeout_secs)
                if any(line.startswith(FAILURE_MARKERS) for line in raw.splitlines()):
                    raise CoqatooError(error("TACTIC_FAILED", f"prover rejected {item.command!r}: {raw.strip()}",
                                             item.span))
                responses.append(raw)
            return SessionTrace(tuple(responses), version)
        finally:
            proc.kill()
