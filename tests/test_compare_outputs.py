"""scripts/compare_outputs.py on the committed fixtures: the checkout against the package under test,
the same code whether that is src/ or an installed copy, then against a changed copy of that package."""

import shutil
import subprocess
import sys

from helpers import PACKAGE, PACKAGE_PATH, ROOT

SCRIPT = ROOT / "scripts" / "compare_outputs.py"


def _compare(other):
    return subprocess.run([sys.executable, str(SCRIPT), str(other), "--fixtures-only"],
                          capture_output=True, text=True, timeout=120)


def test_the_checkout_matches_itself():
    result = _compare(PACKAGE_PATH)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.startswith("21 runs, 0 differences")


def test_a_changed_template_is_a_difference(tmp_path):
    shutil.copytree(PACKAGE, tmp_path / "coqatoo", ignore=shutil.ignore_patterns("__pycache__"))
    templates = tmp_path / "coqatoo" / "templates" / "fr.properties"
    templates.write_text(templates.read_text(encoding="utf-8").replace("case.label = ", "case.label = ! "),
                         encoding="utf-8")
    result = _compare(tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stdout.startswith("21 runs, 6 differences")
    assert "  and_commutes --mode plain --lang fr: stdout line 4: 'Cas Q :\\n' here, '! Cas Q :\\n' there" \
        in result.stdout.splitlines()
