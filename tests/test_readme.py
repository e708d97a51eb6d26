"""README's examples are what coqatoo prints."""

import re
import shlex

import pytest

from coqatoo.cli import main

from helpers import GOLDEN_DIR, ROOT

README = (ROOT / "README.md").read_bytes().decode("utf-8")
# each fenced block: (language, text with each line's "\n", start, end)
BLOCKS = [(m.group(1), m.group(2), m.start(), m.end())
          for m in re.finditer(r"^```(\w*)\n(.*?)^```\n", README, re.M | re.S)]
# (command, output): an `sh` block of one `coqatoo` command, and the `text` block right after it
EXAMPLES = [(code.rstrip("\n"), output) for (lang, code, _, end), (next_lang, output, start, _) in zip(BLOCKS, BLOCKS[1:])
            if lang == "sh" and code.startswith("coqatoo") and next_lang == "text" and not README[end:start].strip()]


def test_readme_shows_every_output():
    """An annotated, a plain, a LaTeX and a --dot run, and --help."""
    commands = [command for command, _ in EXAMPLES]
    assert len(commands) >= 5
    assert all("\n" not in command for command in commands)
    for option in ("--mode plain", "--mode latex", "--dot", "--help"):
        assert any(option in command for command in commands), option
    assert any(not re.search(r"--(mode|dot|help)", command) for command in commands)


@pytest.mark.parametrize("command, output", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_readme_example_prints_its_output(monkeypatch, capsys, command, output):
    monkeypatch.chdir(ROOT)
    try:
        status = main(shlex.split(command)[1:])
    except SystemExit as exc:   # --help
        status = exc.code
    assert (status, *capsys.readouterr()) == (0, output, "")


def test_readme_python_example_prints_what_the_cli_prints(monkeypatch):
    code, = [code for lang, code, _, _ in BLOCKS if lang == "python"]
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert (namespace["diagnostics"], namespace["warnings"]) == ([], [])
    assert namespace["text"] == (GOLDEN_DIR / "and_commutes.annotated.en.txt").read_bytes().decode("utf-8")
