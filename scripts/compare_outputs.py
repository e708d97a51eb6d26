#!/usr/bin/env python3
"""Compare this checkout's coqatoo with another copy of the package, run by run.

    python3 scripts/compare_outputs.py OTHER_DIR [--seed N] [--fixtures-only]

OTHER_DIR holds another `coqatoo` package: a checkout's `src/`, or a
site-packages directory.  The inputs are the seed's `small_proofs`,
`wide_context` and `deep_narrow` corpora, built by the benchmark's own
builders (`perfbench/run.py`, imported and used as it is), the first three
of which are the committed fixtures; `--fixtures-only` runs those three
alone.  Each proof goes through both packages' `cli.main`, in this process,
in annotated, plain and LaTeX mode, each in `en` and `fr`, and with `--dot`.
Exit status, standard output and standard error must be equal; an exception
counts by its type, a `RecursionError` by its type alone.  Prints the run
count and the first differences, and exits 1 on any difference.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VARIANTS = [["--mode", mode, "--lang", lang] for mode in ("annotated", "plain", "latex") for lang in ("en", "fr")]
VARIANTS.append(["--dot"])
SHOWN = 5   # differences printed


def _other_cli(directory: Path):
    """`cli` of the package in `directory`, imported as `coqatoo_other` beside this checkout's."""
    init = directory / "coqatoo" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"compare_outputs: no coqatoo package in {directory}")
    spec = importlib.util.spec_from_file_location("coqatoo_other", init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return importlib.import_module("coqatoo_other.cli")


def _outcome(main, argv):
    """(exit status or exception, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        except RecursionError:
            status = "RecursionError"
        except Exception as exc:   # a traceback is an outcome to compare
            status = f"{type(exc).__name__}: {exc}"
    return status, out.getvalue(), err.getvalue()


def _difference(a, b) -> str:
    """What first differs between two outcomes."""
    for name, x, y in zip(("status", "stdout", "stderr"), a, b):
        if x == y:
            continue
        if name == "status":
            return f"exit {x!r} here, {y!r} there"
        here, there = x.splitlines(True), y.splitlines(True)
        i = next((i for i, (p, q) in enumerate(zip(here, there)) if p != q), min(len(here), len(there)))
        return f"{name} line {i + 1}: {''.join(here[i:i + 1])[:120]!r} here, {''.join(there[i:i + 1])[:120]!r} there"
    return ""


def _proofs(work: Path, seed: int, fixtures_only: bool):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus
    import run
    if fixtures_only:
        return [corpus.fixture_proof(ROOT, name) for name in run.FIXTURES]
    fmt = corpus.load_state_format(ROOT)
    proofs = []
    for workload in ("small_proofs", "wide_context", "deep_narrow"):
        build, _ = run.WORKLOADS[workload]
        out = work / workload
        out.mkdir()
        proofs += build(out, random.Random(f"{workload}:{seed}"), fmt)   # the seeding of perfbench/run.py
    return proofs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="directory holding the other coqatoo package")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--fixtures-only", action="store_true", help="run the three committed fixtures alone")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from coqatoo import cli
    other = _other_cli(args.other.resolve())
    runs, differences = 0, []
    with tempfile.TemporaryDirectory() as work:
        for proof in _proofs(Path(work), args.seed, args.fixtures_only):
            for variant in VARIANTS:
                argv = [str(proof.script), "--provider", "replay", "--fixture", str(proof.trace), *variant]
                difference = _difference(_outcome(cli.main, argv), _outcome(other.main, argv))
                runs += 1
                if difference:
                    differences.append(f"{proof.name} {' '.join(variant)}: {difference}")
    print(f"{runs} runs, {len(differences)} differences: {cli.__file__} here, {other.__file__} there")
    for line in differences[:SHOWN]:
        print("  " + line)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
