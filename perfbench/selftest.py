"""Self-test of the benchmark's own checks: each planted fault must be counted.

Runs the real CLI at a small size (n = 2*10^5), then plants a corrupted CSV
row, a wrong exit code, a raising command and a missing per-layer metric,
and requires that every one is reported as a failed check.  Exits 1 if any
fault passes silently.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
from checks import check_digests, check_exit_codes, check_homotopy, check_tables, rows_digest
from workloads import CertifyBatch, Workload, make_workloads

CLI = run.load_program()

SMALL_N = "200000"
results = []


def expect(name: str, checks, want_failures: bool) -> None:
    failed = [c for c in checks if not c.ok]
    ok = bool(failed) == want_failures
    results.append(ok)
    shown = "; ".join(f"{c.name}: {c.detail}" for c in failed[:3])
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({shown})" if shown else ""))


def corrupt(csv_text: str, row: int) -> str:
    """Add 1 to the second field of the row-th data row."""
    lines = csv_text.splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    fields = lines[data[row]].split(",")
    fields[1] = str(int(fields[1]) + 1) if fields[1].isdigit() else f"{float(fields[1]) + 0.01:.5f}"
    lines[data[row]] = ",".join(fields)
    return "\n".join(lines) + "\n"


def small_outputs(workload: Workload, tmp: Path) -> dict[str, str]:
    workload.prepare(1, tmp)
    argvs = [[SMALL_N if prev == "--n" else a for prev, a in zip([None] + argv, argv)]
             for argv in workload.plan(0)[0]]
    rcs, _, _ = run.run_calls(CLI, argvs)
    assert rcs == [0] * len(argvs), rcs
    return workload.outputs()[0]


def main() -> int:
    workloads = make_workloads()
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
        tables = small_outputs(workloads["tables-t2"], Path(tmp))
        sweeps = small_outputs(workloads["homotopy-t1"], Path(tmp))
    homotopy = {"linear": "homotopy-4-9", "simplicial": "homotopy-4-9-15"}

    expect("clean tables pass", check_tables(tables), False)
    expect("clean sweeps pass", check_homotopy(sweeps, **homotopy), False)
    reference = {label: rows_digest(text) for label, text in tables.items()}
    expect("clean digests pass", check_digests(tables, reference), False)

    for label, row in (("table1", 3), ("table2", 0), ("containment", 0)):
        bad = dict(tables, **{label: corrupt(tables[label], row)})
        expect(f"corrupted {label} row fails its digest", check_digests(bad, reference), True)
    bad = dict(tables, table1=corrupt(tables["table1"], 9))  # CC(9) is table2's baseline
    expect("corrupted table1 row fails the table invariants", check_tables(bad), True)
    bad = dict(sweeps, **{"homotopy-4-9": corrupt(sweeps["homotopy-4-9"], 0)})
    expect("corrupted sweep endpoint fails", check_homotopy(bad, **homotopy), True)
    expect("missing CSV fails", check_tables({"table1": tables["table1"]}), True)

    certify = CertifyBatch(20)
    certify.prepare(1)
    argvs = certify.plan(0)
    rcs, _, _ = run.run_calls(CLI, argvs)
    expect("certify exit codes match the batch verdicts", certify.check(rcs), False)
    wrong = [rc + 1 if i == 7 else rc for i, rc in enumerate(rcs)]
    expect("wrong certify exit code fails", certify.check(wrong), True)
    tables_wl = workloads["tables-t2"]
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
        small_outputs(tables_wl, Path(tmp))
        certify_rcs, _, _ = run.run_calls(CLI, tables_wl.certify.plan(0))
        checks, _ = tables_wl.check([0, 0, 0], certify_rcs, [])
        expect("clean pass passes", checks, False)
        checks, _ = tables_wl.check([0, 1, 0], certify_rcs, [])
        expect("wrong table exit code fails", checks, True)
        wrong = [rc + 1 if i == 3 else rc for i, rc in enumerate(certify_rcs)]
        checks, _ = tables_wl.check([0, 0, 0], wrong, [])
        expect("wrong certify exit code in a pass fails", checks, True)

    class Raising:
        @staticmethod
        def main(argv):
            raise RuntimeError("planted fault")

    rcs, _, _ = run.run_calls(Raising, [["table1"]])
    expect("raising command fails", check_exit_codes(rcs, [0]), True)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: 1.0 for m in spec["per_layer"]}
    _, failures = run.summarize(values, spec["per_layer"], [])
    expect("all per-layer metrics present passes", failures, False)
    del values["experiment.blocks_wasted"]
    result, failures = run.summarize(values, spec["per_layer"], [])
    expect("missing per-layer metric fails", failures, True)
    results.append(not result["correct"] and result["failed"] == 1)

    print(f"{sum(results)} of {len(results)} self-test cases passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
