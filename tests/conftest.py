import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import CORPUS, write_fake_coqtop  # noqa: E402


@pytest.fixture(params=CORPUS)
def corpus_name(request):
    return request.param


@pytest.fixture
def fake_prover(tmp_path, monkeypatch):
    """trace path -> the benchmark's fake coqtop, answering from that trace;
    `prelude` is shell run at each start of the prover."""
    def start(trace, prelude=""):
        monkeypatch.setenv("FAKE_COQTOP_TRACE", str(trace))
        return write_fake_coqtop(tmp_path, prelude)
    return start


@pytest.fixture
def live_prover(fake_prover):
    """trace path -> coqtop when it is installed, otherwise the fake answering from the trace."""
    return lambda trace: "coqtop" if shutil.which("coqtop") else fake_prover(trace)
