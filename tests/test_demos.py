"""The demo scripts run end to end against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_demo_runs_cleanly():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 5
    for demo in demos:
        done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, ""), demo.name


def test_readme_library_tour_runs_cleanly():
    tour = (ROOT / "README.md").read_text().split("```python\n")[1].split("```")[0]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", tour], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
