"""Run the benchmark's fake coqtop with every write cut into small pieces.

    python tests/split_writes.py SEED [fake coqtop arguments]

Each text the fake writes to stdout or stderr goes out as seeded random
pieces of 1 to 7 bytes, each flushed on its own, so a response or a
`</prompt>` reaches the reader across several reads.  The fake itself is
unchanged: it still ends a response on stdout before it writes the prompt.
"""

import random
import runpy
import sys
from pathlib import Path

FAKE_COQTOP = Path(__file__).resolve().parent.parent / "perfbench" / "fake_coqtop.py"


class _Pieces:
    """A text stream over `stream` that writes each text in 1-7-byte pieces."""

    def __init__(self, stream, rng: random.Random):
        self._out, self._rng = stream.buffer, rng

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        while data:
            size = self._rng.randint(1, 7)
            self._out.write(data[:size])
            self._out.flush()
            data = data[size:]
        return len(text)

    def flush(self) -> None:
        self._out.flush()


if __name__ == "__main__":
    rng = random.Random(int(sys.argv[1]))
    sys.stdout, sys.stderr = _Pieces(sys.stdout, rng), _Pieces(sys.stderr, rng)
    sys.argv = [str(FAKE_COQTOP), *sys.argv[2:]]
    runpy.run_path(str(FAKE_COQTOP), run_name="__main__")
