"""Output checks for the hexcover benchmark.

Every check returns a list of ``Check`` records; the runner counts each
record as one attempted check and each ``ok=False`` record as one failure.
The functions read what a user of the CLI sees (CSV text and exit codes),
so a corrupted row or a wrong exit code shows up as a failed record.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# Published Table 1 targets and tolerance, as in the acceptance criterion 5.
RATIO_TARGETS = {4: 0.97779, 9: 0.97852, 15: 0.98310}
UNION_TARGET = 0.98490
RATIO_TOL = 0.002


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def data_rows(csv_text: str) -> list[str]:
    """The CSV data rows: every non-empty line that is not a '#' header."""
    return [line for line in csv_text.splitlines() if line and not line.startswith("#")]


def rows_digest(csv_text: str) -> str:
    """SHA-256 of the data rows joined by newlines."""
    return hashlib.sha256("\n".join(data_rows(csv_text)).encode()).hexdigest()


def header_value(csv_text: str, key: str) -> str | None:
    for line in csv_text.splitlines():
        if line.startswith(f"# {key}: "):
            return line.split(": ", 1)[1]
    return None


def check_digests(outputs: dict[str, str], reference: dict[str, str]) -> list[Check]:
    """Data-row digests of each command's CSV against the reference digests."""
    return [
        Check(f"digest:{stem}", rows_digest(outputs.get(stem, "")) == want,
              f"got {rows_digest(outputs.get(stem, ''))[:12]}, want {want[:12]}")
        for stem, want in sorted(reference.items())
    ]


def _within(name: str, value: float, target: float) -> Check:
    return Check(name, abs(value - target) <= RATIO_TOL, f"{value:.5f} vs {target:.5f} +/- {RATIO_TOL}")


def _cover_id(label: str) -> int:
    if not (label.startswith("CC(") and label.endswith(")")):
        raise ValueError(f"bad cover label {label!r}")
    return int(label[3:-1])


def parse_table1(csv_text: str) -> tuple[dict[int, int], dict[int, float], int, float]:
    """(hits by cover, ratio by cover, union hits, union ratio)."""
    hits, ratios = {}, {}
    union_hits, union_ratio = None, None
    for row in data_rows(csv_text):
        label, h, r = row.split(",")
        if label == "sum":
            union_hits, union_ratio = int(h), float(r)
        else:
            cid = _cover_id(label)
            hits[cid], ratios[cid] = int(h), float(r)
    if sorted(hits) != list(range(1, 17)) or union_hits is None:
        raise ValueError("table1 needs one 'sum' row and rows CC(1)..CC(16)")
    return hits, ratios, union_hits, union_ratio


def check_tables(outputs: dict[str, str]) -> list[Check]:
    """Seed-independent invariants of table1, table2 and containment of one seed."""
    try:
        hits, ratios, union_hits, union_ratio = parse_table1(outputs["table1"])
        n = int(header_value(outputs["table1"], "n"))
        baseline = int(header_value(outputs["table2"], "baseline"))
        table2 = {}
        for row in data_rows(outputs["table2"]):
            fields = row.split(",")
            table2[_cover_id(fields[0])] = tuple(int(v) for v in fields[4:7])
        edges = [row.split(",") for row in data_rows(outputs["containment"])]
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [Check("tables:parse", False, repr(exc))]

    checks = [Check("tables:parse", True)]
    checks += [_within(f"table1:ratio CC({cid})", ratios[cid], t) for cid, t in RATIO_TARGETS.items()]
    checks.append(_within("table1:ratio union", union_ratio, UNION_TARGET))
    bad = [cid for cid in hits if f"{hits[cid] / n:.5f}" != f"{ratios[cid]:.5f}"]
    checks.append(Check("table1:ratio equals hits/n", not bad, f"covers {bad}"))
    checks.append(Check("table1:union bounds", max(hits.values()) <= union_hits <= n,
                        f"union {union_hits}, n {n}"))

    bad = [cid for cid in range(1, 17)
           if cid not in table2 or table2[cid][0] - table2[cid][1] != hits[cid] - hits[baseline]]
    checks.append(Check("table2:plus-minus equals hit difference", not bad, f"covers {bad}"))
    bad = [cid for cid, (plus, minus, zero) in table2.items() if plus + minus + zero > n]
    checks.append(Check("table2:counts within n", not bad, f"covers {bad}"))

    try:
        contained = [(int(a), int(b)) for a, b, kind in edges if kind == "contained"]
        kinds_ok = all(kind in ("contained", "near") for _, _, kind in edges)
        bad = [(a, b) for a, b in contained if hits[a] > hits[b]]
    except (ValueError, KeyError) as exc:
        return checks + [Check("containment:parse", False, repr(exc))]
    checks.append(Check("containment:edge kinds", kinds_ok))
    checks.append(Check("containment:contained edges respect hits", not bad, f"edges {bad}"))
    return checks


def _parse_sweep(csv_text: str) -> dict[tuple[float, ...], str]:
    """Grid point -> ratio text of one homotopy CSV."""
    points = {}
    for row in data_rows(csv_text):
        *grid, ratio = row.split(",")
        points[tuple(float(g) for g in grid)] = ratio
    return points


def check_homotopy(outputs: dict[str, str], linear: str, simplicial: str) -> list[Check]:
    """Endpoints and corners agree across a linear (a, b) and a simplicial (a, b, c) sweep.

    At t = 0 and t = 1 the linear sweep reduces to Theta(a) and Theta(b), and
    so does the simplicial sweep at its corners (1, 0) and (0, 1); all these
    ratios, and the corner (0, 0) = Theta(c), are plain cover ratios and must
    lie within the published Table 1 tolerances.
    """
    try:
        lin = _parse_sweep(outputs[linear])
        simp = _parse_sweep(outputs[simplicial])
        cover_ids = [int(c) for c in header_value(outputs[simplicial], "covers").split(",")]
        pairs = [("t=0 vs corner (1,0)", lin[(0.0,)], simp[(1.0, 0.0)]),
                 ("t=1 vs corner (0,1)", lin[(1.0,)], simp[(0.0, 1.0)])]
        corners = dict(zip(cover_ids, (simp[(1.0, 0.0)], simp[(0.0, 1.0)], simp[(0.0, 0.0)])))
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        return [Check("homotopy:parse", False, repr(exc))]
    checks = [Check("homotopy:parse", True)]
    checks += [Check(f"homotopy:{name}", a == b, f"{a} vs {b}") for name, a, b in pairs]
    checks += [_within(f"homotopy:corner CC({cid})", float(r), RATIO_TARGETS[cid])
               for cid, r in corners.items() if cid in RATIO_TARGETS]
    return checks


def reduce_kappa(kappa: np.ndarray):
    """eta rows (K1..K4, k3, k6, k9, k12) and (a, b) of a (12, k) kappa array.

    Same operations, in the same order, as ``hexcover.model.reduce`` and
    ``ab_values``, so each element equals the scalar value bit for bit.
    """
    k = kappa
    K1 = (k[1] + k[2]) / k[0]
    K2 = (k[4] + k[5]) / k[3]
    K3 = (k[7] + k[8]) / k[6]
    K4 = (k[10] + k[11]) / k[9]
    k3, k6, k9, k12 = k[2], k[5], k[8], k[11]
    a = k3 * k12 - k6 * k9
    b = (K2 + K3) * k3 * k12 - (K1 + K4) * k6 * k9
    return np.stack([K1, K2, K3, K4, k3, k6, k9, k12]), a, b


def batch_verdicts(kappa: np.ndarray, evaluator, hex_coefficient_arrays) -> np.ndarray:
    """Expected ``certify`` exit codes of a (12, k) kappa array from the batch kernel.

    Sign cases follow ``classify``; a case-4 point is certified (exit 0) when
    any cover's batch Theta sum from ``evaluator.theta_sums`` reaches -c_m,
    otherwise it is undetermined (exit 1).  Case 2 exits 2, case 1 exits 0.
    """
    eta, a, b = reduce_kappa(kappa)
    codes = np.full(a.shape, 1, dtype=np.int64)  # a == 0, b < 0: undetermined
    codes[a < 0] = 2
    codes[(a >= 0) & (b >= 0)] = 0
    case4 = (a > 0) & (b < 0)
    if case4.any():
        coeffs, c_m = hex_coefficient_arrays(eta[:, case4], a[case4], b[case4])
        theta = evaluator.theta_sums(np.log(coeffs))
        codes[case4] = np.where((theta >= -c_m).any(axis=0), 0, 1)
    return codes


def check_exit_codes(got: list[int], expected) -> list[Check]:
    """One check per call: the CLI exit code (None if it raised) against the expected one."""
    return [Check("certify:exit code", g == int(e), f"got {g}, want {e}")
            for g, e in zip(got, expected, strict=True)]
