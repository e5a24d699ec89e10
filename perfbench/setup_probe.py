"""One timed set-up of the program: import ``hexcover.cli`` and warm it up.

Run as a script it prints the seconds from before the import to the end of
the warm-up; ``run.py`` starts it several times and reports the median as
``setup_s``.  ``run.py`` also calls ``warm_up`` in its own process before it
measures.

    python3 perfbench/setup_probe.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARM_UP_KAPPA = "0.01,0.1,0.9,0.5,0.1,0.5,0.5,0.1,0.5,0.5,0.1,0.9"  # a > 0, b < 0: case 4


def warm_up(main, workdir: Path) -> None:
    """One call of each kind the workloads make: certify a case-4 point, and a small table."""
    with contextlib.redirect_stdout(io.StringIO()):
        if main(["certify", "--kappa", WARM_UP_KAPPA]) not in (0, 1):
            raise RuntimeError("warm-up certify failed")
    with tempfile.TemporaryDirectory(dir=workdir, prefix=".perfbench-") as out:
        if main(["table1", "--n", "1000", "--seed", "1", "--out", f"{out}/"]) != 0:
            raise RuntimeError("warm-up table1 failed")


if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from hexcover.cli import main

    warm_up(main, ROOT)
    print(time.perf_counter() - start)
