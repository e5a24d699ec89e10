"""The demo scripts run end to end against the package in ``src``, each with its pinned stdout."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# SHA-256 of each demo's stdout; every demo is seeded, so its output is fixed
DEMO_STDOUT = {
    "01_circuit_numbers.py": "680678c3d282ac4ac0ab2ac36b0d52950d9aa58b80424e8b42b1425eeabc4f51",
    "02_enumerate_covers.py": "fd4e91271e48daa8c6f2745311fcc57dd5ba3674da608f296034d489780cad15",
    "03_certify_parameters.py": "a2539885a3167526c0a4dd07ad358e1ca1a6a2821e3bbea319e0a6b8b3cb5431",
    "04_monte_carlo_tables.py": "87a2f8c164c10439590127c61fb56eef61bc6b63f93d43df9f40feba34870b78",
    "05_containment_and_homotopies.py":
        "c6271bc35721e0d6ca11bfde373bad88f0e919eed3955950f6f7468083c168c4",
}


def test_every_demo_runs_cleanly():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert [demo.name for demo in demos] == list(DEMO_STDOUT)
    for demo in demos:
        done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, ""), demo.name
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == DEMO_STDOUT[demo.name], demo.name


def test_readme_library_tour_runs_cleanly():
    tour = (ROOT / "README.md").read_text().split("```python\n")[1].split("```")[0]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", tour], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
