"""Command-line front end: parse -> states -> diffs -> tree -> rewrite -> render.

`_write` writes every byte the command line prints: the output, `--help`,
a usage error and each diagnostic.  Every diagnostic is decided before the
first chunk of output goes out.  `parse_args` reads a command line as
`getopt.gnu_getopt` does, with its messages, but imports neither `getopt`
(and `gettext`) nor `argparse` (and `locale`); it ignores `POSIXLY_CORRECT`.
"""

from __future__ import annotations

import errno
import gc
import os
import sys
from collections.abc import Sequence
from io import TextIOBase
from types import SimpleNamespace

from . import pipeline, script_parser, state_provider
from .diagnostics import CoqatooError, Diagnostic, Severity, decode_utf8, error
from .rewriter import OutputMode, load_templates
from .tree_builder import to_dot

# diagnostic codes that mean "the prover or the filesystem failed", not
# "the input was rejected"
_EXIT2_CODES = {"PROVER_MISSING", "PROVER_TIMEOUT", "PROVER_EXITED", "TACTIC_FAILED", "IO"}

# the longest --timeout: a selector waits at most 2**31 - 1 ms
_MAX_TIMEOUT_SECS = 2_147_483

# --name -> (setting, default, kind, help): the kind is bool for a flag, int or
# str for a value, or the tuple of the values allowed
_OPTIONS = {
    "provider": ("provider", "live", ("live", "replay"), "run a live prover or replay a recorded session"),
    "prover": ("prover_path", None, str, f"prover executable (overrides ${state_provider.PROVER_ENV_VAR})"),
    "fixture": ("fixture_path", None, str, "recorded session file (required with --provider replay)"),
    "record": ("record_path", None, str, "record the live session to this .cqtrace file"),
    "lang": ("language", "en", str, "output language tag"),
    "mode": ("mode", OutputMode.ANNOTATED.value, tuple(mode.value for mode in OutputMode), "output style"),
    "templates": ("templates_dir", None, str, "template directory override"),
    "out": ("out_path", None, str, "write output here instead of stdout"),
    "strict": ("strict", False, bool, "treat warnings as errors"),
    "timeout": ("timeout_secs", state_provider.DEFAULT_TIMEOUT_SECS, int,
                f"per-sentence prover timeout, 1 to {_MAX_TIMEOUT_SECS} seconds"),
    "dot": ("dot", False, bool, "emit the proof tree as a DOT graph instead of prose"),
}


_USAGE = "usage: coqatoo [-h] [options] input"


def _help() -> list[str]:
    """The usage line, then a line for each option: how it is written, then what it does."""
    lines = [_USAGE]
    for name, (setting, _, kind, text) in _OPTIONS.items():
        value = "" if kind is bool else f" {{{','.join(kind)}}}" if isinstance(kind, tuple) else " " + setting.upper()
        lines.append(f"  {'--' + name + value:<32}{text}")
    return lines


def _usage_error(message: str):
    _write([_USAGE, f"coqatoo: error: {message}"], "stderr")
    sys.exit(2)


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The settings of a run.  `--help` exits 0; a usage error prints the
    usage and one `coqatoo: error:` line, and exits 2."""
    opts, inputs, args = [], [], iter(argv)
    for arg in args:   # as getopt.gnu_getopt scans, with its messages
        if arg == "--":
            inputs += args
        elif arg.startswith("--"):
            name, equals, value = arg[2:].partition("=")
            names = [option for option in ("help", *_OPTIONS) if option.startswith(name)]
            if len(names) != 1 and name not in names:
                _usage_error(f"option --{name} {'not a unique prefix' if names else 'not recognized'}")
            name = name if name in names else names[0]
            flag = name == "help" or _OPTIONS[name][2] is bool
            if flag and equals:
                _usage_error(f"option --{name} must not have an argument")
            elif not (flag or equals) and (value := next(args, None)) is None:
                _usage_error(f"option --{name} requires argument")
            opts.append(("--" + name, value))
        elif arg.startswith("-") and arg != "-":
            if unknown := arg[1:].lstrip("h"):
                _usage_error(f"option -{unknown[0]} not recognized")
            opts.append(("-h", ""))
        else:
            inputs.append(arg)
    config = SimpleNamespace(input_path=None, **{setting: default for setting, default, _, _ in _OPTIONS.values()})
    for option, value in opts:
        if option in ("-h", "--help"):
            _write(_help())
            sys.exit(0)
        setting, _, kind, _ = _OPTIONS[option[2:]]
        if kind is bool:
            value = True
        elif kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"argument {option}: invalid int value: {value!r}")
        elif kind is str and not value:
            _usage_error(f"argument {option}: must not be empty")
        elif kind is not str and value not in kind:
            _usage_error(f"argument {option}: invalid choice: {value!r} (choose from {', '.join(map(repr, kind))})")
        setattr(config, setting, value)
    if not inputs:
        _usage_error("the following arguments are required: input")
    if len(inputs) > 1:
        _usage_error("unrecognized arguments: " + " ".join(inputs[1:]))
    config.input_path = inputs[0]
    if config.provider == "replay" and not config.fixture_path:
        _usage_error("--provider replay requires --fixture")
    if config.fixture_path and config.provider != "replay":
        _usage_error("--fixture requires --provider replay")
    if config.record_path and config.provider != "live":
        _usage_error("--record requires --provider live")
    if not 0 < config.timeout_secs <= _MAX_TIMEOUT_SECS:
        _usage_error(f"--timeout must be from 1 to {_MAX_TIMEOUT_SECS} seconds")
    return config


def _rejects(diags: Sequence[Diagnostic], strict: bool) -> bool:
    """Print every diagnostic; true when one is an error, or any is under --strict."""
    _write([diag.format() for diag in diags], "stderr")
    return any(d.severity is Severity.ERROR or strict for d in diags)


def _standard(name: str) -> TextIOBase:
    """sys.`name` as it is now; None, a standard stream closed when the process started, is EBADF."""
    if (stream := getattr(sys, name)) is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return stream


def _read_source(path: str) -> str:
    """The script's text as decoded from UTF-8, line ends and all, so that a span
    is the same offset into the file read from `path` and from standard input."""
    name = "standard input" if path == "-" else path
    try:
        if path == "-":
            data = _standard("stdin").buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise CoqatooError(error("IO", f"cannot read {name}: {exc}"))
    return decode_utf8(data, name, "INPUT_ENCODING")


# characters per write: under PYTHONUNBUFFERED=1 each write to standard output is a system call
_CHUNK_CHARS = 64 * 1024


def _write(lines: Sequence[str], stream: str = "stdout", path: str | None = None) -> None:
    """Write each line and a "\n" after it, about `_CHUNK_CHARS` at a time, to the file `path`, else to
    sys.`stream` as it is now, and flush.  A failure is IO, unless it is standard error's."""
    fh = None
    try:
        fh = open(path, "w", encoding="utf-8") if path else _standard(stream)
        start = size = 0
        for end, line in enumerate(lines, 1):
            size += len(line) + 1
            if size >= _CHUNK_CHARS:
                fh.write("\n".join(lines[start:end]) + "\n")
                start, size = end, 0
        if start < len(lines):
            fh.write("\n".join(lines[start:]) + "\n")
        fh.flush()
    except OSError as exc:
        if fh is not None:   # the stream is flushed again, at close or at exit: that write goes nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fh.fileno())
            os.close(devnull)
        if stream == "stdout":
            raise CoqatooError(error("IO", f"cannot write {path or 'standard output'}: {exc}"))
    finally:
        if path and fh is not None:
            fh.close()


def run(argv: Sequence[str]) -> int:
    """The exit status of a run on `argv`; `--help` and a usage error raise SystemExit."""
    try:
        config = parse_args(argv)
        script, diags = script_parser.parse_script(_read_source(config.input_path))
        if _rejects(diags, config.strict):
            return 1

        if config.provider == "replay":
            trace = state_provider.run_replay(script, config.fixture_path)
        else:
            trace = state_provider.run_live(script, config.prover_path, config.timeout_secs)
            if config.record_path:
                state_provider.record_session(script, trace, config.record_path)

        if config.dot:
            lines = to_dot(pipeline.build_proof_tree(script, trace))
        else:
            templates = load_templates(config.templates_dir, config.language)
            lines, diags = pipeline.generate(script, trace, templates, OutputMode(config.mode))
            if _rejects(diags, config.strict):
                return 1
        _write(lines, path=config.out_path)
    except CoqatooError as exc:
        _write([exc.diagnostic.format()], "stderr")
        return 2 if exc.diagnostic.code in _EXIT2_CODES else 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run on `argv`, or on the command line when it is None.

    A command-line run is the whole process: it runs without the cyclic
    garbage collector, and, every write flushed, it ends with `os._exit`,
    skipping the interpreter's teardown.  Nothing is left for a finalizer:
    files are opened with `with`, and the prover is reaped before `run`
    returns.  Called with a list, it returns the status and leaves the
    collector alone.
    """
    if argv is not None:
        return run(argv)
    gc.disable()
    try:
        status = run(sys.argv[1:])
    except SystemExit as exc:   # --help or a usage error
        status = exc.code
    os._exit(status)


if __name__ == "__main__":
    sys.exit(main())
