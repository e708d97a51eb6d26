#!/usr/bin/env python3
"""A stand-in for `coqtop -emacs` that answers from a recorded `.cqtrace`.

The trace to answer from is named by $FAKE_COQTOP_TRACE.  Like coqtop in
emacs mode it prints a banner on stdout, then for every sentence read
from stdin it writes the response to stdout and `<prompt>...</prompt>`
to stderr, flushing each stream right after its write.  It sleeps
nowhere: ordering between the two pipes is left to the reader, exactly
as with the real prover.

The first sentence is answered with the trace's initial state, each
later one with the next recorded step.  A sentence that does not match
the recorded tactic gets an `Error:` response, as coqtop would give.
"""

import json
import os
import sys

TRACE_ENV_VAR = "FAKE_COQTOP_TRACE"
DEFAULT_VERSION = "The Coq Proof Assistant, version 8.9.1"


def _norm(sentence: str) -> str:
    text = " ".join(sentence.split())
    return text[:-1].strip() if text.endswith(".") else text


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(ln) for ln in fh if ln.strip()]
    return records[0], records[1:]


def _sentences(stream):
    """Yield whole sentences; a sentence may span several input lines."""
    buf = []
    for line in stream:
        buf.append(line)
        text = "".join(buf).strip()
        if text.endswith("."):
            buf = []
            yield text


def _prompt(count: int) -> None:
    sys.stderr.write(f"<prompt>Coq < {count} || 0 < </prompt>")
    sys.stderr.flush()


def main(argv) -> int:
    trace_path = os.environ.get(TRACE_ENV_VAR)
    header, steps = _load(trace_path) if trace_path else ({}, [])
    version = header.get("prover_version") or DEFAULT_VERSION
    if "--version" in argv:
        print(version)
        return 0
    if not trace_path:
        print(f"fake coqtop: set ${TRACE_ENV_VAR}", file=sys.stderr)
        return 2

    sys.stdout.write(f"Welcome to Coq ({version}, fake for benchmarking)\n")
    sys.stdout.flush()
    count = 1
    _prompt(count)
    step = -1  # -1: the lemma is next
    for sentence in _sentences(sys.stdin):
        if step < 0:
            response = header["initial_raw_state"]
        elif step < len(steps) and _norm(sentence) == _norm(steps[step]["tactic"]):
            response = steps[step]["raw_state"]
        else:
            expected = steps[step]["tactic"] if step < len(steps) else "(end of trace)"
            response = f"Error: fake coqtop expected {expected!r}, got {sentence!r}\n"
            step -= 1
        step += 1
        count += 1
        sys.stdout.write(response)
        sys.stdout.flush()
        _prompt(count)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
