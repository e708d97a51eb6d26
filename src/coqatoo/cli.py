"""Command-line front end: parse -> states -> diffs -> tree -> rewrite -> render."""

import argparse
import gc
import os
import sys
from typing import List, Optional, Sequence, TextIO

from . import pipeline, script_parser, state_provider
from .diagnostics import CoqatooError, Diagnostic, Severity, decode_utf8, error
from .rewriter import OutputMode, load_templates
from .tree_builder import to_dot

# diagnostic codes that mean "the prover or the filesystem failed", not
# "the input was rejected"
_EXIT2_CODES = {"PROVER_MISSING", "PROVER_TIMEOUT", "PROVER_EXITED", "TACTIC_FAILED", "IO"}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coqatoo",
        description="Generate a natural-language version of a Coq proof script.")
    parser.add_argument("input_path", metavar="input", help="path to a .v file, or - for standard input")
    parser.add_argument("--provider", choices=["live", "replay"], default="live",
                        help="run a live prover or replay a recorded session")
    parser.add_argument("--prover", dest="prover_path",
                        help=f"prover executable (overrides ${state_provider.PROVER_ENV_VAR})")
    parser.add_argument("--fixture", dest="fixture_path",
                        help="recorded session file (required with --provider replay)")
    parser.add_argument("--record", dest="record_path",
                        help="record the live session to this .cqtrace file")
    parser.add_argument("--lang", dest="language", default="en", help="output language tag")
    parser.add_argument("--mode", choices=["annotated", "plain", "latex"], default="annotated")
    parser.add_argument("--templates", dest="templates_dir", help="template directory override")
    parser.add_argument("--out", dest="out_path", help="write output here instead of stdout")
    parser.add_argument("--strict", action="store_true", help="treat warnings as errors")
    parser.add_argument("--timeout", dest="timeout_secs", type=int,
                        default=state_provider.DEFAULT_TIMEOUT_SECS,
                        help="per-sentence prover timeout in seconds")
    parser.add_argument("--dot", action="store_true",
                        help="emit the proof tree as a DOT graph instead of prose")
    return parser


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = build_arg_parser()
    config = parser.parse_args(list(argv))
    if config.provider == "replay" and not config.fixture_path:
        parser.error("--provider replay requires --fixture")
    if config.fixture_path and config.provider != "replay":
        parser.error("--fixture requires --provider replay")
    if config.record_path and config.provider != "live":
        parser.error("--record requires --provider live")
    if config.timeout_secs <= 0:
        parser.error("--timeout must be a positive number of seconds")
    return config


def _print_diag(diag: Diagnostic) -> None:
    print(diag.format(), file=sys.stderr)


def _rejects(diags: Sequence[Diagnostic], strict: bool) -> bool:
    """Print every diagnostic; true when one is an error, or any is under --strict."""
    for diag in diags:
        _print_diag(diag)
    return any(d.severity is Severity.ERROR or strict for d in diags)


def _read_source(path: str) -> str:
    """The script's text, decoded as UTF-8.  A file's CR LF and CR line ends
    become LF, as text-mode open() makes them; standard input's stay as read."""
    try:
        if path == "-":
            return decode_utf8(sys.stdin.buffer.read(), "standard input", "INPUT_ENCODING")
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CoqatooError(error("IO", f"cannot read {path}: {exc}"))
    return decode_utf8(data, path, "INPUT_ENCODING").replace("\r\n", "\n").replace("\r", "\n")


# characters per write: under PYTHONUNBUFFERED=1 each write to standard output is a system call
_CHUNK_CHARS = 64 * 1024


def _write_lines(lines: Sequence[str], fh: TextIO) -> None:
    """Write each line and a "\n" after it, about `_CHUNK_CHARS` at a time."""
    start = size = 0
    for end, line in enumerate(lines, 1):
        size += len(line) + 1
        if size >= _CHUNK_CHARS or end == len(lines):
            fh.write("\n".join(lines[start:end]) + "\n")
            start, size = end, 0


def _write_output(lines: Sequence[str], path: Optional[str]) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                _write_lines(lines, fh)
        except OSError as exc:
            raise CoqatooError(error("IO", f"cannot write {path}: {exc}"))
        return
    try:
        _write_lines(lines, sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        # the interpreter flushes standard output again at exit: that write goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise CoqatooError(error("IO", f"cannot write standard output: {exc}"))


def run(config: argparse.Namespace) -> int:
    try:
        script, diags = script_parser.parse_script(_read_source(config.input_path))
        if _rejects(diags, config.strict):
            return 1

        if config.provider == "replay":
            trace = state_provider.run_replay(script, config.fixture_path)
        else:
            trace = state_provider.run_live(script, config.prover_path, config.timeout_secs)
            if config.record_path:
                state_provider.record_session(trace, config.record_path)

        if config.dot:
            lines = to_dot(pipeline.build_proof_tree(script, trace))
        else:
            templates = load_templates(config.templates_dir, config.language)
            lines, diags = pipeline.generate(script, trace, templates, OutputMode(config.mode))
            if _rejects(diags, config.strict):
                return 1
        _write_output(lines, config.out_path)
    except CoqatooError as exc:
        _print_diag(exc.diagnostic)
        return 2 if exc.diagnostic.code in _EXIT2_CODES else 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Run on `argv`, or on the command line when it is None.

    A command-line run is the whole process and does no cyclic garbage
    collection: the collector is off from entry, and every object is frozen
    on any way out, so the collection at exit walks nothing.  Called with a
    list, it leaves the collector alone.
    """
    if argv is not None:
        return run(parse_args(argv))
    gc.disable()
    try:
        return run(parse_args(sys.argv[1:]))
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
