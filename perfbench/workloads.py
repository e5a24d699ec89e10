"""The benchmark's two workloads.

A workload is run as a sequence of passes.  ``plan(index)`` makes the argv
lists of one pass (untimed): the Monte-Carlo commands, then a batch of
``certify --kappa`` calls.  The runner times each ``hexcover.cli.main``
call, and ``check(...)`` verifies what the pass produced (untimed).

- ``tables-t2``: table1, table2 --baseline 9 and containment at n = 10^6,
  2 threads.  The paper's tables as a user runs them: the threaded sampler
  pool, the serial consumer (coefficients, Theta, mask packing) and the
  containment matmul do nearly all the Monte-Carlo work.
- ``homotopy-t1``: the simplicial (4, 9, 15) and linear (4, 9) sweeps at
  n = 10^6, 1 thread.  The sweeps are over half the Monte-Carlo time; the
  sampler runs serially, so a change that helps serial draws but hurts the
  pool (or the reverse) shows in one workload and not the other.

Both end each pass with a closed loop of one client calling ``certify
--kappa`` on seeded points of (0, 1]^12, three case-4 points for each point
outside case 4.  Only the scalar path (covers, circuits, geometry, the
scalar formulas of model) runs there, and each exit code is checked
against the batch kernel's verdict on the same point.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from checks import (Check, batch_verdicts, check_digests, check_exit_codes, check_homotopy,
                    check_tables, reduce_kappa, rows_digest)

PINNED_SEED = 42
N_SAMPLES = 1_000_000
DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"


class CertifyBatch:
    """Seeded ``certify --kappa`` calls; each exit code is checked against the batch kernel."""

    def __init__(self, points: int):
        self.points = points
        self.case4 = points * 3 // 4  # three case-4 points for each point outside case 4

    def prepare(self, seed: int) -> None:
        from hexcover.experiment import CoverEvaluator

        self.seed = seed
        self.evaluator = CoverEvaluator()

    def _points(self, rng) -> np.ndarray:
        """(12, points) rate constants in (0, 1], in random order."""
        case4, other = [], []
        want_other = self.points - self.case4
        while sum(k.shape[1] for k in case4) < self.case4 or \
                sum(k.shape[1] for k in other) < want_other:
            kappa = 1.0 - rng.random((12, 1024))
            _, a, b = reduce_kappa(kappa)
            mask = (a > 0) & (b < 0)
            case4.append(kappa[:, mask])
            other.append(kappa[:, ~mask])
        points = np.concatenate([np.concatenate(case4, axis=1)[:, :self.case4],
                                 np.concatenate(other, axis=1)[:, :want_other]], axis=1)
        return points[:, rng.permutation(points.shape[1])]

    def plan(self, index: int) -> list[list[str]]:
        """Pass ``index`` draws fresh points from the generator seeded by (seed, index)."""
        from hexcover import experiment

        kappa = self._points(np.random.default_rng([self.seed, index]))
        self.expected = batch_verdicts(kappa, self.evaluator, experiment.hex_coefficient_arrays)
        return [["certify", "--kappa", ",".join(repr(float(v)) for v in kappa[:, j])]
                for j in range(kappa.shape[1])]

    def check(self, rcs) -> list[Check]:
        return check_exit_codes(rcs, self.expected)


class Workload:
    """A fixed list of Monte-Carlo CLI commands writing CSV/JSON via --out, then a certify batch."""

    def __init__(self, name, threads, commands, checker, certify_points):
        self.name = name
        self.threads = threads
        self.commands = commands  # (label, argv without the plan flags)
        self.checker = checker
        self.certify = CertifyBatch(certify_points)

    def prepare(self, seed: int, outdir: Path) -> None:
        self.seed, self.outdir = seed, outdir
        self.first_digests = None
        digests = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.is_file() else {}
        self.reference = digests.get(self.name) if seed == PINNED_SEED else None
        self.certify.prepare(seed)

    def plan(self, index: int) -> tuple[list[list[str]], list[list[str]]]:
        """The Monte-Carlo argvs and the certify argvs of pass ``index``."""
        flags = ["--n", str(N_SAMPLES), "--seed", str(self.seed), "--threads", str(self.threads)]
        argvs = []
        for label, argv in self.commands:
            out = self.outdir / label
            out.mkdir(exist_ok=True)
            for path in out.iterdir():
                path.unlink()  # a command that fails must not leave an earlier pass's output
            argvs.append(argv + flags + ["--out", f"{out}/"])
        return argvs, self.certify.plan(index)

    def samples_per_pass(self) -> int:
        return N_SAMPLES * len(self.commands)

    def outputs(self) -> tuple[dict[str, str], int]:
        """CSV text by command label, and the bytes of every file written."""
        csvs, size = {}, 0
        for label, _ in self.commands:
            for path in (self.outdir / label).iterdir():
                size += path.stat().st_size
                if path.suffix == ".csv":
                    csvs[label] = path.read_text()
        return csvs, size

    def check(self, rcs, certify_rcs, stdouts) -> tuple[list[Check], int]:
        """Checks of one pass, and the bytes it wrote to files and stdout."""
        checks = [Check(f"exit code:{label}", rc == 0, f"exit {rc}")
                  for (label, _), rc in zip(self.commands, rcs, strict=True)]
        outputs, size = self.outputs()
        checks += self.checker(outputs)
        digests = {label: rows_digest(text) for label, text in outputs.items()}
        if self.first_digests is None:
            self.first_digests = digests
        else:
            checks.append(Check("data rows repeat across passes", digests == self.first_digests))
        if self.reference is not None:
            checks += check_digests(outputs, self.reference)
        checks += self.certify.check(certify_rcs)
        return checks, size + sum(len(s) for s in stdouts)


def make_workloads() -> dict[str, Workload]:
    return {
        "tables-t2": Workload("tables-t2", 2, [
            ("table1", ["table1"]),
            ("table2", ["table2", "--baseline", "9"]),
            ("containment", ["containment"]),
        ], check_tables, certify_points=200),
        "homotopy-t1": Workload("homotopy-t1", 1, [
            ("homotopy-4-9-15", ["homotopy", "--covers", "4,9,15", "--delta", "0.03125"]),
            ("homotopy-4-9", ["homotopy", "--covers", "4,9", "--delta", "0.01"]),
        ], lambda outputs: check_homotopy(outputs, linear="homotopy-4-9",
                                          simplicial="homotopy-4-9-15"),
            certify_points=400),
    }
