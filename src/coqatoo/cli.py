"""Command-line front end: parse -> states -> diffs -> tree -> rewrite -> render."""

import argparse
import os
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

from . import pipeline, script_parser, state_provider
from .diagnostics import CoqatooError, Diagnostic, Severity
from .rewriter import OutputMode, load_templates
from .script_parser import ItemKind
from .tree_builder import to_dot

# diagnostic codes that mean "the prover or the filesystem failed", not
# "the input was rejected"
_EXIT2_CODES = {"PROVER_MISSING", "PROVER_TIMEOUT", "PROVER_EXITED", "TACTIC_FAILED", "IO"}


@dataclass
class RunConfig:
    input_path: str
    provider: str = "live"
    prover_path: Optional[str] = None
    fixture_path: Optional[str] = None
    record_path: Optional[str] = None
    language: str = "en"
    mode: str = "annotated"
    templates_dir: Optional[str] = None
    out_path: Optional[str] = None
    strict: bool = False
    timeout_secs: int = state_provider.DEFAULT_TIMEOUT_SECS
    dot: bool = False


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


def parse_args(argv: Sequence[str]) -> RunConfig:
    parser = build_arg_parser()
    config = RunConfig(**vars(parser.parse_args(list(argv))))
    if config.provider == "replay" and not config.fixture_path:
        parser.error("--provider replay requires --fixture")
    if config.record_path and config.provider != "live":
        parser.error("--record requires --provider live")
    return config


def _print_diag(diag: Diagnostic) -> None:
    print(diag.format(), file=sys.stderr)


def _first_lemma_slice(items):
    """Keep everything from the first lemma header through its proof end."""
    start = next(i for i, it in enumerate(items) if it.kind is ItemKind.LEMMA_HEADER)
    end = len(items)
    for i in range(start, len(items)):
        if items[i].kind is ItemKind.PROOF_END:
            end = i + 1
            break
    rest = [it for it in items[end:] if it.kind is ItemKind.LEMMA_HEADER]
    if rest:
        print(f"warning[MULTIPLE_LEMMAS]: processing the first lemma only "
              f"({len(rest)} more ignored)", file=sys.stderr)
    return items[start:end]


def run(config: RunConfig) -> int:
    try:
        if config.input_path == "-":
            source = sys.stdin.read()
        else:
            with open(config.input_path, encoding="utf-8") as fh:
                source = fh.read()
    except OSError as exc:
        print(f"error[IO]: cannot read {config.input_path}: {exc}", file=sys.stderr)
        return 2

    try:
        items = script_parser.tokenize_script(source)
        items = _first_lemma_slice(items)

        diags = script_parser.detect_unsupported(items)
        fatal = False
        for diag in diags:
            _print_diag(diag)
            if diag.severity is Severity.ERROR or config.strict:
                fatal = True
        if fatal:
            return 1

        items = script_parser.preprocess_auto(items)

        if config.provider == "replay":
            trace = state_provider.run_replay(items, config.fixture_path)
        else:
            prover = state_provider.resolve_prover(config.prover_path)
            if prover is None:
                raise CoqatooError(Diagnostic(
                    Severity.ERROR, "no prover executable found (install coqtop, "
                    f"set ${state_provider.PROVER_ENV_VAR}, or pass --prover)", "PROVER_MISSING"))
            trace = state_provider.run_live(items, prover, config.timeout_secs)
            if config.record_path:
                state_provider.record_session(trace, config.record_path)

        if config.dot:
            output = to_dot(pipeline.build_proof_tree(items, trace)) + "\n"
        else:
            templates = load_templates(config.templates_dir, config.language)
            output = pipeline.generate(items, trace, templates, OutputMode(config.mode))
    except CoqatooError as exc:
        _print_diag(exc.diagnostic)
        return 2 if exc.diagnostic.code in _EXIT2_CODES else 1

    if config.out_path:
        try:
            with open(config.out_path, "w", encoding="utf-8") as fh:
                fh.write(output)
        except OSError as exc:
            print(f"error[IO]: cannot write {config.out_path}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(output)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    config = parse_args(sys.argv[1:] if argv is None else argv)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
