#!/usr/bin/env python3
"""Benchmark of the coqatoo CLI on a seeded synthetic corpus.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is taken from the
checkout's `src/`.  The corpus is generated from the seed into
`.bench_work/<workload>/`, and coqatoo sees only the generated files.

--trace 0  End-to-end run.  A closed loop with one client: one `coqatoo`
           child process at a time, each proof timed from spawn to exit,
           for S seconds.  Every output is checked.
--trace 1  Traced run.  The same proofs go through `coqatoo.cli.main`
           in-process, once untraced and once with spans around each
           layer (see tracer.py), then once more counting work only.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  `correct` is false, and the exit code 1,
when a proof exited 0 with wrong output; a proof that exits non-zero
counts in `failed` and in ok_ratio.  The exit code is 2 when the
checkout lacks the program.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import random
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import checks
import corpus
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ["src/coqatoo/cli.py", "scripts/build_fixtures.py",
            "tests/fixtures/golden/conj_imp_equiv.annotated.en.txt"]

CLI_ENTRY = "import sys; from coqatoo.cli import main; sys.exit(main())"
SETUP_PROBE = ("import time; t0 = time.perf_counter(); import coqatoo.cli; t1 = time.perf_counter(); "
               "from coqatoo.rewriter import load_templates; load_templates(); t2 = time.perf_counter(); "
               "print(t1 - t0, t2 - t1)")
SETUP_EVERY_S = 2.0
# End-to-end times are scaled to a host on which `python -c pass` takes this long.
REFERENCE_INTERP_MS = 50.0
CHILD_TIMEOUT_S = 120
FIXTURES = ("conj_imp_equiv", "and_commutes", "modus_ponens")
MODES = ("annotated", "plain", "latex")
LANGS = ("en", "fr")


# ---------------------------------------------------------------- workloads

def small_proofs(out: Path, rng: random.Random, fmt):
    """The three committed fixtures, then 30 typical proofs of 2 to 16 leaves (4 to
    43 tactics); modes, languages and --dot rotate."""
    proofs = [corpus.fixture_proof(ROOT, name) for name in FIXTURES]
    proofs[0].golden = ROOT / "tests" / "fixtures" / "golden" / "conj_imp_equiv.annotated.en.txt"
    proofs += [corpus.small_proof(out, rng, f"small{i:02d}", fmt, 2 + i % 15) for i in range(30)]
    for i, proof in enumerate(proofs[1:], start=1):
        proof.mode, proof.lang, proof.dot = MODES[i % 3], LANGS[(i // 3) % 2], i % 8 == 4
    return proofs


def wide_context(out: Path, rng: random.Random, fmt):
    """Four conjunction chains of 44 to 56 conjuncts over 290 to 350 hypotheses;
    the sizes are fixed so that every seed costs the same, the seed draws the content."""
    return [corpus.wide_proof(out, rng, f"wide{i}", fmt, 44 + 4 * i, 330 - 20 * i) for i in range(4)]


def deep_narrow(out: Path, rng: random.Random, fmt):
    """Seven chains, one per 200-conjunct stratum from 100 to 1300 (+-5), in
    bit-reversed stratum order so that any prefix of a pass covers the range.
    Few strata with many samples each keep the median on one stratum."""
    order = sorted(range(7), key=lambda j: int(f"{j:03b}"[::-1], 2))
    return [corpus.deep_proof(out, rng, f"deep{j}", fmt, 100 + 200 * j + rng.randint(-5, 5))
            for j in order]


def live_session(out: Path, rng: random.Random, fmt):
    """Six longer typical proofs (16 to 31 leaves), run against the fake prover and recorded."""
    return [corpus.small_proof(out, rng, f"live{i}", fmt, 16 + 3 * i) for i in range(6)]


WORKLOADS: Dict[str, Tuple[Callable, bool]] = {
    "small_proofs": (small_proofs, False),
    "wide_context": (wide_context, False),
    "deep_narrow": (deep_narrow, False),
    "live_session": (live_session, True),
}


# ---------------------------------------------------------------- running coqatoo

class Bench:
    """Paths and helpers shared by both kinds of run."""

    def __init__(self, work: Path, live: bool):
        self.work = work
        self.live = live
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.prover = work / "fake-coqtop"
        self.prover.write_text("#!/bin/sh\nexec " + shlex.join([sys.executable, str(HERE / "fake_coqtop.py")])
                               + ' "$@"\n', encoding="utf-8")
        self.prover.chmod(0o755)
        self.references: Dict[str, str] = {}

    def args(self, proof, out: Optional[Path] = None, live: Optional[bool] = None) -> List[str]:
        args = [str(proof.script)]
        if self.live if live is None else live:
            args += ["--provider", "live", "--prover", str(self.prover),
                     "--record", str(self.work / "recorded.cqtrace")]
        else:
            args += ["--provider", "replay", "--fixture", str(proof.trace)]
        args += ["--mode", proof.mode, "--lang", proof.lang] + (["--dot"] if proof.dot else [])
        return args + (["--out", str(out)] if out else [])

    def spawn(self, argv: List[str], env: Dict[str, str], stdout: Path) -> Tuple[int, float, int]:
        """Run one child to exit: (exit code, wall seconds, peak RSS in KiB)."""
        with stdout.open("wb") as out, (self.work / "stderr.txt").open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, start_new_session=True)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)   # the prover a killed coqatoo may leave behind
        return proc.returncode, wall, usage.ru_maxrss

    def run_cli(self, proof, live: Optional[bool] = None) -> Tuple[int, float, int, str]:
        env = dict(self.env, FAKE_COQTOP_TRACE=str(proof.trace))
        out = self.work / "stdout.txt"
        rc, wall, rss = self.spawn([sys.executable, "-c", CLI_ENTRY] + self.args(proof, live=live), env, out)
        return rc, wall, rss, out.read_text(encoding="utf-8", errors="replace")

    def verdict(self, proof, rc: int, text: str) -> Tuple[str, str]:
        """("ok" | "failed" | "wrong", reason) for one finished run."""
        if rc != 0:
            lines = (self.work / "stderr.txt").read_text(errors="replace").strip().splitlines()
            return "failed", f"exit {rc}: {lines[-1] if lines else ''}"[:160]
        problem = checks.check_output(proof, text)
        if problem is None and self.live:
            problem = self.live_problem(proof, text)
        return ("wrong", problem) if problem else ("ok", "")

    def live_problem(self, proof, text: str) -> Optional[str]:
        """Live output must equal the replay of the same trace and of the recording."""
        if proof.name not in self.references:
            rc, _, _, self.references[proof.name] = self.run_cli(proof, live=False)
            if rc != 0:
                return f"replay reference exited {rc}"
        if text != self.references[proof.name]:
            return "live output differs from replay output"
        recorded = dataclasses.replace(proof, trace=self.work / "recorded.cqtrace")
        rc, _, _, again = self.run_cli(recorded, live=False)
        if rc != 0 or again != text:
            return "recorded session does not replay to the same output"
        return None

    def bare_probe(self) -> float:
        """Wall seconds of `python -c pass`, the interpreter alone."""
        return self.spawn([sys.executable, "-c", "pass"], self.env, self.work / "probe.txt")[1]

    def setup_probe(self) -> Tuple[float, float, float]:
        """(wall s, import s, load_templates s) of one fresh interpreter."""
        out = self.work / "probe.txt"
        rc, wall, _ = self.spawn([sys.executable, "-c", SETUP_PROBE], self.env, out)
        if rc != 0:
            raise SystemExit(f"set-up probe failed with exit {rc}")
        imported, templates = map(float, out.read_text().split())
        return wall, imported, templates


def _passes(proofs, deadline: float):
    """Whole passes over the corpus, starting a new pass only before the deadline,
    so that every run measures the same mix of proofs."""
    while time.perf_counter() < deadline:
        yield from proofs


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pgid, signal.SIGKILL)


# ---------------------------------------------------------------- end-to-end run

def end_to_end(bench: Bench, proofs, seconds: float) -> Tuple[dict, dict]:
    """Times are in reference ms: each one is divided by a bare interpreter start
    measured just before it and multiplied by REFERENCE_INTERP_MS (see README)."""
    bench.run_cli(proofs[0])    # warm the page cache and bytecode before timing
    setups, samples = [], []
    next_setup = time.perf_counter()
    deadline = time.perf_counter() + seconds
    for proof in _passes(proofs, deadline):
        if time.perf_counter() >= next_setup:   # spread over the run, like the proofs
            bare = bench.bare_probe()
            setups.append({"s": bench.setup_probe()[0], "bare_s": bare})
            next_setup += SETUP_EVERY_S
        bare = bench.bare_probe()
        rc, wall, rss, text = bench.run_cli(proof)
        verdict, reason = bench.verdict(proof, rc, text)
        samples.append({"proof": proof.name, "verdict": verdict, "reason": reason, "ms": wall * 1e3,
                        "bare_ms": bare * 1e3, "ref_ms": wall / bare * REFERENCE_INTERP_MS,
                        "tactics": len(proof.tactics), "rss_kb": rss})

    ok_ms = [s["ref_ms"] for s in samples if s["verdict"] == "ok"]
    per_proof: Dict[str, List[float]] = {}
    for s in samples:
        if s["verdict"] == "ok":
            per_proof.setdefault(s["proof"], []).append(s["ref_ms"])
    slowest_ok = max((statistics.median(times) for times in per_proof.values()), default=0.0)
    # A failed proof ranks behind every passing one.  Its time counts as the median
    # of the slowest passing proof plus its own: a median, because a maximum over
    # all samples would carry the host's worst hiccup into every failure.
    ranked = sorted(ok_ms) + sorted(slowest_ok + s["ref_ms"] for s in samples if s["verdict"] != "ok")
    n = len(ranked)
    tail_rank = max(0, n - 11)      # 0-based rank with at least 10 samples above it
    busy_s = sum(s["ref_ms"] for s in samples) / 1e3
    setup_ref = [p["s"] / p["bare_s"] * REFERENCE_INTERP_MS / 1e3 for p in setups]
    metrics = {
        "proof_ms_p50": ((ranked[(n - 1) // 2] + ranked[n // 2]) / 2, "ms"),
        "proof_ms_tail": (ranked[tail_rank], "ms"),
        "tactics_per_s": (sum(s["tactics"] for s in samples if s["verdict"] == "ok") / busy_s, "1/s"),
        "ok_ratio": (len(ok_ms) / n, "ratio"),
        "peak_rss_mb": (max(s["rss_kb"] for s in samples) / 1024, "MB"),
        "setup_s": (statistics.median(setup_ref), "s"),
    }
    raw_ms = statistics.median(s["ms"] for s in samples)
    bare_ms = statistics.median(s["bare_ms"] for s in samples)
    notes = {
        "proof_ms_p50": f"n={n}; unscaled {raw_ms:.1f} ms, bare interpreter {bare_ms:.1f} ms",
        "proof_ms_tail": f"p{100 * (tail_rank + 1) / n:.1f} of n={n}, {n - 1 - tail_rank} samples above",
        "tactics_per_s": f"{sum(s['tactics'] for s in samples)} tactics attempted",
        "ok_ratio": f"{len(ok_ms)} of {n}",
        "peak_rss_mb": "max over coqatoo children (wait4 ru_maxrss)",
        "setup_s": f"median of {len(setups)} fresh interpreters running import coqatoo.cli + load_templates(); "
                   f"unscaled {statistics.median(p['s'] for p in setups):.4f} s",
    }
    return _result(samples, metrics, notes), {"samples": samples, "setup_s": setups}


# ---------------------------------------------------------------- traced run

def traced(bench: Bench, proofs, probe, seconds: float) -> Tuple[dict, dict]:
    sys.path.insert(0, str(ROOT / "src"))
    import coqatoo.cli as cli

    interp = [bench.bare_probe() for _ in range(5)]
    setups = [bench.setup_probe() for _ in range(5)]
    trace = tracer.Tracer()
    spans = trace.replacements()
    out = bench.work / "inproc.txt"

    def main(proof, live=bench.live):
        os.environ["FAKE_COQTOP_TRACE"] = str(proof.trace)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                rc = cli.main(bench.args(proof, out, live))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:    # a traceback is a failure of this proof, not of the run
                print(f"{type(exc).__name__}: {exc}", file=err)
                rc = 1
        (bench.work / "stderr.txt").write_text(err.getvalue()[-2000:])
        return rc

    def traced_main(proof, pid, live=bench.live):
        with tracer.patched(spans):
            return trace.call(pid, main, proof, live)

    main(proofs[0])     # first call pays the imports
    samples, plain_ns, traced_ns = [], 0, 0
    deadline = time.perf_counter() + seconds
    for proof in _passes(proofs, deadline):
        k = len(samples)
        pid = f"{proof.name}#{k}"
        for traced_first in ([True, False] if k % 2 else [False, True]):
            with contextlib.suppress(FileNotFoundError):
                out.unlink()
            start = time.perf_counter_ns()
            rc = traced_main(proof, pid) if traced_first else main(proof)
            if traced_first:
                traced_ns += time.perf_counter_ns() - start
                text = out.read_text(encoding="utf-8") if rc == 0 else ""
                verdict, reason = bench.verdict(proof, rc, text)
                samples.append({"proof": proof.name, "id": pid, "verdict": verdict, "reason": reason,
                                "tactics": len(proof.tactics)})
            else:
                plain_ns += time.perf_counter_ns() - start

    # live layer: the workload itself when it is live, else a short live session
    live_ids = {s["id"] for s in samples} if bench.live else set()
    live_sentences = sum(1 + s["tactics"] for s in samples) if bench.live else 0
    if not bench.live:
        for k in range(3):
            traced_main(probe, f"live-probe#{k}", live=True)
            live_ids.add(f"live-probe#{k}")
            live_sentences += 1 + len(probe.tactics)

    counted = {}
    for proof in proofs:
        counts = tracer.Counts()
        with contextlib.suppress(FileNotFoundError):
            out.unlink()
        with tracer.patched(counts.replacements()):
            main(proof)
        counted[proof.name] = (counts, out.stat().st_size if out.exists() else 0)

    n = len(samples)
    inclusive, own = trace.totals({s["id"] for s in samples})
    live_ms, _ = trace.totals(live_ids)
    runs_live = len(live_ids)

    def per(total):         # per traced run of the workload
        return total / n

    def mean(field):        # per proof of the count-only pass
        return sum(getattr(c, field) for c, _ in counted.values()) / len(counted)

    metrics = {
        "cli.interp_start_ms": (statistics.median(interp) * 1e3, "ms"),
        "cli.import_ms": (statistics.median(s[1] for s in setups) * 1e3, "ms"),
        "cli.self_ms": (per(own.get("cli", 0.0)), "ms/proof"),
        "script_parser.tokenize_ms": (per(inclusive.get("script_parser.tokenize", 0.0)), "ms/proof"),
        "script_parser.check_ms": (per(inclusive.get("script_parser.check", 0.0)), "ms/proof"),
        "state_provider.replay_ms": (per(inclusive.get("state_provider.replay", 0.0)), "ms/proof"),
        "state_provider.live_ms": (live_ms.get("state_provider.live", 0.0) / runs_live, "ms/session"),
        "state_provider.sentence_ms": (live_ms.get("state_provider.live", 0.0) / live_sentences, "ms/sentence"),
        "state_provider.record_ms": (live_ms.get("state_provider.record", 0.0) / runs_live, "ms/session"),
        "goal_parser.parse_ms": (per(inclusive.get("goal_parser.parse", 0.0)), "ms/proof"),
        "goal_parser.normalize_calls": (mean("normalize_calls"), "count/proof"),
        "goal_parser.hypotheses": (mean("hypotheses"), "count/proof"),
        "goal_parser.raw_mb": (mean("raw_bytes") / 2**20, "MB/proof"),
        "goal_parser.states": (mean("states"), "count/proof"),
        "diff_engine.diff_ms": (per(inclusive.get("diff_engine.diff", 0.0)), "ms/proof"),
        "diff_engine.diffs": (mean("diffs"), "count/proof"),
        "tree_builder.build_ms": (per(inclusive.get("tree_builder.build", 0.0)), "ms/proof"),
        "tree_builder.max_depth": (max(c.max_depth for c, _ in counted.values()), "count"),
        "rewriter.load_templates_ms": (statistics.median(s[2] for s in setups) * 1e3, "ms"),
        "rewriter.rewrite_ms": (per(inclusive.get("rewriter.rewrite", 0.0)), "ms/proof"),
        "rewriter.render_ms": (per(inclusive.get("rewriter.render", 0.0)), "ms/proof"),
        "rewriter.output_mb": (sum(size for _, size in counted.values()) / len(counted) / 2**20, "MB/proof"),
        "rewriter.sentences": (mean("sentences"), "count/proof"),
        "pipeline.self_ms": (per(own.get("pipeline", 0.0)), "ms/proof"),
        "bench.trace_overhead_pct": (100.0 * (traced_ns - plain_ns) / plain_ns, "%"),
    }
    notes = {name: f"mean over {n} traced runs" for name, (_, unit) in metrics.items() if unit == "ms/proof"}
    notes["cli.interp_start_ms"] = f"median of {len(interp)} fresh `python -c pass`, spawn to exit"
    notes["cli.import_ms"] = f"median of {len(setups)} fresh interpreters, time of `import coqatoo.cli`"
    notes["rewriter.load_templates_ms"] = "same interpreters, first load_templates() after the import"
    notes["tree_builder.max_depth"] = f"deepest proof tree over {len(counted)} proofs"
    notes.update({name: f"mean over {len(counted)} proofs, count-only pass"
                  for name, (_, unit) in metrics.items() if unit.startswith(("count/", "MB/"))})
    live_source = "the workload" if bench.live else f"a {len(probe.tactics)}-tactic live probe, 3 runs"
    for name in ("state_provider.live_ms", "state_provider.sentence_ms", "state_provider.record_ms"):
        notes[name] = f"{live_source}; {live_sentences} sentences"
    notes["bench.trace_overhead_pct"] = f"traced {traced_ns / 1e9:.2f} s vs untraced {plain_ns / 1e9:.2f} s in-process"
    # in-process live sessions kill their prover without waiting for it
    for _ in range(500):
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                time.sleep(0.01)
        except ChildProcessError:
            break
    detail = {"samples": samples, "spans": trace.records()}
    return _result(samples, metrics, notes), detail


# ---------------------------------------------------------------- reporting

def _result(samples, metrics, notes) -> dict:
    return {"correct": not any(s["verdict"] == "wrong" for s in samples),
            "attempted": len(samples),
            "failed": sum(1 for s in samples if s["verdict"] != "ok"),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            "notes": notes}


def _print(workload: str, seed: int, trace: bool, result: dict) -> None:
    kind = "traced in-process run" if trace else "closed loop, 1 client, 1 coqatoo process at a time"
    print(f"perfbench {workload} seed={seed} ({kind}): {result['attempted']} proofs attempted, "
          f"{result['failed']} failed, outputs {'correct' if result['correct'] else 'WRONG'}")
    for name, metric in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"  {name:30s} {metric['value']:14.4f} {metric['unit']:12s} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a coqatoo checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "corpus"
    inputs.mkdir(parents=True)
    build, live = WORKLOADS[args.workload]
    fmt = corpus.load_state_format(ROOT)
    rng = random.Random(f"{args.workload}:{args.seed}")
    proofs = build(inputs, rng, fmt)
    bench = Bench(work, live)
    try:
        if args.trace:
            probe = corpus.small_proof(inputs, rng, "live_probe", fmt, 8)
            result, detail = traced(bench, proofs, probe, args.seconds)
        else:
            result, detail = end_to_end(bench, proofs, args.seconds)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    failures = {}
    for s in detail["samples"]:
        if s["verdict"] != "ok":
            failures.setdefault(f"{s['verdict']}: {s['reason']}", []).append(s["proof"])
    with (work / "report.json").open("w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "result": result, "samples": detail["samples"]}, fh, indent=1)
    if "spans" in detail:
        with (work / "spans.jsonl").open("w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(record) + "\n" for record in detail["spans"])

    _print(args.workload, args.seed, bool(args.trace), result)
    for reason, names in sorted(failures.items()):
        print(f"  {len(names):4d} x {reason}  [{', '.join(sorted(set(names))[:4])}]")
    del result["notes"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
