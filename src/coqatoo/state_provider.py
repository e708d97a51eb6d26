"""Produces the per-tactic proof state sequence.

Two providers share one output type: a live coqtop subprocess driver and
a deterministic replay of a recorded `.cqtrace` fixture.  Fixtures are
line-delimited JSON and store raw prover responses; parsing to
ProofState happens lazily so recorded sessions survive parser changes.
The live provider is its own module, `live_session`, which `run_live`
imports when it runs, so a replay never loads the process machinery
(`subprocess`, `selectors`).  Nor does it load `json`: records are read by
the C scanner of `_json`, and `json` is imported only to read a record that
scanner does not, and to write a recording.  So a record the scanner rejects
is worded by `json`, imported then: before 3.12 the scanner finds `json` only
in `sys.modules`, and without it fails with a bare `SystemError`.
This is the one module that spells a fixture: `run_replay` reads one in one
pass, which ends at its first bad record, and `record_session` writes one with
the lemma and tactic spellings of the script.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from io import BufferedIOBase
from itertools import zip_longest
from operator import itemgetter

from .diagnostics import CoqatooError, decode_utf8, error
from .goal_parser import ProofState, parse_state, normalize_text
from .script_parser import Script, sentence_command

DEFAULT_TIMEOUT_SECS = 10
PROVER_ENV_VAR = "COQATOO_PROVER"
# the buffer a fixture is read through: a long trace's records are a few KiB each, more than
# the file system's block, which `open` takes by default
_BUFFER_BYTES = 64 * 1024


class SessionTrace(namedtuple("SessionTrace", "responses prover_version", defaults=("",))):
    """responses: Sequence[str], the prover's answer to the lemma, then to each
    tactic, in the order they were sent; prover_version: str."""
    __slots__ = ()

    def states(self) -> list[ProofState]:
        """The state after each response."""
        return list(map(parse_state, self.responses))


@lru_cache(maxsize=1024)
def _norm_tactic(text: str) -> str:
    return sentence_command(normalize_text(text))


# the fields of a fixture's header record and of each later record -> the value of a missing one
_HEADER_FIELDS = {"lemma": None, "initial_raw_state": None, "prover_version": ""}
_STEP_FIELDS = {"tactic": None, "raw_state": None}


class _Decoding:
    """The settings of `json.JSONDecoder()`, which `_json.make_scanner` reads."""
    strict = True
    object_hook = object_pairs_hook = None
    parse_float, parse_int = float, int
    parse_constant = {"NaN": float("nan"), "Infinity": float("inf"), "-Infinity": float("-inf")}.__getitem__


# one JSON value at an index, and the index after it: what json.loads runs, without its Python frames
try:
    from _json import make_scanner
except ImportError:   # no C scanner: json's own, as json.scanner falls back to it
    import json
    _scan = json.JSONDecoder().scan_once
else:
    _scan = make_scanner(_Decoding())
# a step record's fields, KeyError or TypeError when one is missing or the record is no object
_step_fields = itemgetter(*_STEP_FIELDS)


def _fields(record, fields: dict[str, str | None], fixture_path: str, number: int) -> tuple[str, ...]:
    """The values of `fields` in one decoded fixture record, each a string that UTF-8
    can encode, which a string holding a lone surrogate (a JSON "\\ud800") is not."""
    where = f"malformed fixture {fixture_path} record {number}"
    if not isinstance(record, dict):
        raise CoqatooError(error("FIXTURE_PARSE", f"{where}: expected an object"))
    values = tuple(map(record.get, fields, fields.values()))
    for name, value in zip(fields, values):
        if not isinstance(value, str):
            raise CoqatooError(error("FIXTURE_PARSE", f"{where}: expected a string {name}"))
        try:
            value.isascii() or value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise CoqatooError(error("FIXTURE_PARSE", f"{where}: {name} holds a lone surrogate "
                                                      f"at character {exc.start}")) from None
    return values


def _read_fixture(fh: BufferedIOBase, fixture_path: str) -> Iterator[tuple[str, ...]]:
    """The lemma, initial response and prover version of an open fixture, then
    the tactic and response of each step, read one record at a time as they
    are asked for.  A record that is not UTF-8, is not JSON that `json`
    decodes or has the wrong fields raises FIXTURE_PARSE."""
    number = offset = 0   # the records and the bytes read
    for raw in fh:   # a record ends at "\n" only: a JSON string may hold U+2028 and the like raw
        offset += len(raw)
        try:   # the common record, one JSON value and then "\n", read with no Python frame of json.loads
            record, end = _scan(text := raw.decode(), 0)
            if text[end:] != "\n":
                raise ValueError
        except (StopIteration, ValueError, RecursionError, SystemError):   # any other line: json.loads, without its end
            text = decode_utf8(raw, f"fixture {fixture_path}", "FIXTURE_PARSE", offset - len(raw))
            text = text[:-2] if text.endswith("\r\n") else text.removesuffix("\n")   # "\r\n" is one record end
            if not text or text.isspace():
                continue
            import json
            try:
                record = json.loads(text)
            except (ValueError, RecursionError) as exc:   # not JSON, an integer too long, arrays nested too deep
                raise CoqatooError(error("FIXTURE_PARSE", f"malformed fixture {fixture_path}: {exc}"))
        number += 1
        if number == 1:
            yield _fields(record, _HEADER_FIELDS, fixture_path, 1)
            continue
        try:   # the common step, two ASCII strings, read and checked with no call of _fields
            tactic, response = _step_fields(record)
            if not (tactic.isascii() and response.isascii()):
                raise TypeError
        except (KeyError, TypeError, AttributeError):
            tactic, response = _fields(record, _STEP_FIELDS, fixture_path, number)
        yield tactic, response
    if not number:
        raise CoqatooError(error("FIXTURE_PARSE", f"fixture {fixture_path} is empty"))


def run_replay(script: Script, fixture_path: str) -> SessionTrace:
    """Replay a recorded session, verifying it matches the script in one pass that stops
    at the fixture's first bad record: one that is malformed or is not the script's."""
    try:
        with open(fixture_path, "rb", buffering=_BUFFER_BYTES) as fh:
            records = _read_fixture(fh, fixture_path)
            lemma, initial, version = next(records)
            script_lemma, fixture_lemma = normalize_text(script.lemma.text), normalize_text(lemma)
            if fixture_lemma != script_lemma:
                raise CoqatooError(error("FIXTURE_MISMATCH", f"fixture records lemma {fixture_lemma!r}, "
                                                             f"script states {script_lemma!r}"))
            responses = [initial]
            for i, (item, step) in enumerate(zip_longest(script.tactics, records)):
                a = item and _norm_tactic(item.prover_text)   # None past the end of the script
                b = step and _norm_tactic(step[0])            # ... or of the fixture
                if a != b:
                    a, b = ("(end of proof)" if it is None else it for it in (a, b))
                    raise CoqatooError(error(
                        "FIXTURE_MISMATCH",
                        f"fixture diverges from script at tactic {i}: script has {a!r}, fixture has {b!r}"))
                responses.append(step[1])
    except OSError as exc:
        raise CoqatooError(error("IO", f"cannot read fixture {fixture_path}: {exc}"))
    return SessionTrace(tuple(responses), version)


def record_session(script: Script, trace: SessionTrace, out_path: str) -> None:
    """Write the trace of a live run of `script` as a replayable .cqtrace fixture."""
    initial, *raws = trace.responses
    records = [{"lemma": normalize_text(script.lemma.text), "initial_raw_state": initial,
                "prover_version": trace.prover_version}]
    records += [{"tactic": _norm_tactic(it.prover_text), "raw_state": raw}
                for it, raw in zip(script.tactics, raws, strict=True)]
    import json
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(record) + "\n" for record in records)
    except OSError as exc:
        raise CoqatooError(error("IO", f"cannot write fixture {out_path}: {exc}"))


def run_live(script: Script, prover_path: str | None = None,
             timeout_secs: float = DEFAULT_TIMEOUT_SECS) -> SessionTrace:
    """Execute the script against a live prover, capturing each response.

    The prover is `prover_path`, else $COQATOO_PROVER, else coqtop, found as the
    system finds a command.
    The banner's first non-blank line is kept as the trace's `prover_version`.
    """
    from . import live_session
    return live_session.run_live(script, prover_path, timeout_secs)
