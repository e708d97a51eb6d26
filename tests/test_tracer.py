"""The benchmark's tracer (perfbench/tracer.py, loaded as it is) against this package.

Every span it lists must resolve to a name the package looks up, and its
wrapper must run; every work count must read more than 0.  A renamed stage
would otherwise leave the benchmark reading 0 for it, with no run failing.
"""

import dataclasses
import importlib.util
from collections import Counter

from coqatoo.cli import main

from helpers import CORPUS, ROOT, fixture_path, script_path

# a span the tracer still lists for a function the package no longer has
_STALE = {("script_parser", "preprocess_auto")}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(tmp_path, prover):
    """A replay of each committed fixture in each mode and with --dot, and one recorded live run."""
    for name in CORPUS:
        replay = [str(script_path(name)), "--provider", "replay", "--fixture", str(fixture_path(name))]
        for extra in (["--mode", "annotated"], ["--mode", "plain"], ["--mode", "latex"], ["--dot"]):
            yield replay + extra
    yield [str(script_path("and_commutes")), "--provider", "live", "--prover", prover,
           "--record", str(tmp_path / "live.cqtrace")]


def test_every_span_runs_and_no_count_reads_0(tmp_path, fake_prover, capsys):
    tracer = _load_tracer()
    calls = Counter()

    def counted(key, wrapper):
        def call(*args, **kwargs):
            calls[key] += 1
            return wrapper(*args, **kwargs)
        return call

    spans = {(mod.__name__.rsplit(".", 1)[1], attr): (mod, attr, wrapper)
             for mod, attr, wrapper in tracer.Tracer().replacements()}
    expected = {(module, attr) for module, attr, _ in tracer.SPANNED} - _STALE
    assert sorted(expected - spans.keys()) == []   # each resolves
    spans = [(mod, attr, counted(key, wrapper)) for key, (mod, attr, wrapper) in spans.items()]

    counts = tracer.Counts()
    prover = fake_prover(fixture_path("and_commutes"))
    with tracer.patched(spans):
        # the counters wrap the span wrappers where both replace one name, so both run
        with tracer.patched(counts.replacements()):
            statuses = [main(argv) for argv in _runs(tmp_path, prover)]
    capsys.readouterr()
    assert statuses == [0] * len(statuses)
    assert sorted(key for key in expected if not calls[key]) == []
    assert {name: value for name, value in dataclasses.asdict(counts).items() if not value} == {}
