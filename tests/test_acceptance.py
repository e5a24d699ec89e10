"""Acceptance suite: one test per criterion, each printing one pass/fail line.

Criteria 5-8 and 10 share a single 10^6-sample run (seed 42, box 1); the
statistical tolerances below are the published desk-scale targets.
"""

import math
import time

import numpy as np
import pytest

from hexcover.circuits import cover_theta_sum
from hexcover.covers import census, cover_fixture, enumerate_pure_covers
from hexcover.experiment import (
    CoverEvaluator,
    SamplePlan,
    binomial_sigma,
    case4_eta_points,
    compare_vs_baseline,
    containment_analysis,
    evaluate_covers,
    hex_coefficient_arrays,
    linear_homotopy,
    simplicial_homotopy,
)
from hexcover.geometry import HEXAGON_POSITIVE, LatticePoint, M, Simplex
from hexcover.model import ab_values, hex_coefficients, negative_prefactor, closed_form_bound
from hexcover import cli

from conftest import sample_case4

N_FULL = 1_000_000
SEED = 42


@pytest.fixture(scope="module")
def full_run():
    plan = SamplePlan(box_size=1.0, target_case4_samples=N_FULL, seed=SEED, threads=4)
    return evaluate_covers(plan, keep_theta=range(1, 17))


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_cover_census():
    start = time.perf_counter()
    covers = enumerate_pure_covers(HEXAGON_POSITIVE, M)
    counts = census(covers)
    elapsed = time.perf_counter() - start
    ok = (len(covers) == 16
          and counts == {"five-segment": 2, "special-triangle": 2, "row-spanning": 12}
          and elapsed < 1.0)
    report(1, ok, f"{len(covers)} covers, census {counts}, {elapsed:.2f}s")


def test_criterion_02_circuit_number_fixtures():
    start = time.perf_counter()
    tri = Simplex((LatticePoint(4, 2), LatticePoint(2, 0), LatticePoint(0, 1)))
    theta = cover_theta_sum((tri,), np.ones(len(HEXAGON_POSITIVE)))
    w_opt, value = cli.toy_optimum()
    elapsed = time.perf_counter() - start
    ok = (abs(theta - 3.0) <= 1e-12 and abs(w_opt - 0.5497) <= 1e-3
          and abs(value - 3.7996) <= 1e-3 and elapsed < 1.0)
    report(2, ok, f"theta={theta:.15f}, w={w_opt:.5f}, value={value:.5f}, {elapsed:.2f}s")


def test_criterion_03_closed_form_identity():
    start = time.perf_counter()
    worst = 0.0
    for box in (0.1, 1.0, 10.0, 100.0):
        for eta in case4_eta_points(100, seed=SEED, box_size=box):
            coeffs, _ = hex_coefficients(eta)
            pref = negative_prefactor(eta)
            for cid in range(1, 17):
                lhs = closed_form_bound(cid, eta) * pref
                rhs = cover_theta_sum(cover_fixture(cid).simplices, coeffs)
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(3, ok, f"max rel err {worst:.2e} over 4 boxes x 100 points x 16 covers, {elapsed:.2f}s")


def test_criterion_04_swap_symmetry():
    # tested at the normalized-bound level (Theta sum divided by the c_m
    # prefactor), where the K1<->K4, K2<->K3 swap identity is exact
    worst = 0.0
    for eta in case4_eta_points(1000, seed=SEED + 1):
        lhs = closed_form_bound(10, eta)
        rhs = closed_form_bound(12, eta.swapped())
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok = worst <= 1e-12
    report(4, ok, f"max rel err {worst:.2e} over 1000 points")


def test_criterion_05_table1(full_run):
    m = full_run
    r = {cid: float(m.ratios[cid - 1]) for cid in range(1, 17)}
    targets = {9: 0.97852, 15: 0.98310, 4: 0.97779}
    tol_ok = all(abs(r[cid] - t) <= 0.002 for cid, t in targets.items())
    union_ok = abs(m.union_ratio - 0.98490) <= 0.002
    rest = [r[cid] for cid in set(range(1, 17)) - {4, 9, 10, 12, 15}]
    rank_ok = (r[15] > r[10] and r[15] > r[12]
               and abs(r[10] - r[12]) <= 2 * binomial_sigma(r[10], m.n) * math.sqrt(2)
               and min(r[10], r[12]) > r[9] > r[4] > max(rest))
    ok = tol_ok and union_ok and rank_ok
    report(5, ok, f"CC9={r[9]:.5f} CC15={r[15]:.5f} CC4={r[4]:.5f} "
                  f"CC10={r[10]:.5f} CC12={r[12]:.5f} sum={m.union_ratio:.5f}")


def test_criterion_06_table2(full_run):
    m = full_run
    records = {rec.cover_id: rec for rec in compare_vs_baseline(m, 9)}
    scale = 100.0 / m.n
    plus15, minus15, zero15 = (records[15].plus * scale, records[15].minus * scale,
                               records[15].zero * scale)
    vals_ok = (abs(plus15 - 0.59) <= 0.10 and abs(minus15 - 0.13) <= 0.10
               and abs(zero15 - 1.56) <= 0.10)
    band = math.ceil(1e-7 * m.n)
    contained_ok = all(records[cid].plus <= band for cid in (1, 6, 7, 14))
    ok = vals_ok and contained_ok
    report(6, ok, f"CC15 (+,-,0)=({plus15:.2f},{minus15:.2f},{zero15:.2f}); "
                  f"'+' of 1/6/7/14 = {[records[c].plus for c in (1, 6, 7, 14)]}")


def test_criterion_07_containment(full_run):
    rep = containment_analysis(full_run)
    edges = set(rep.edges)
    strict_ok = {(1, 9), (6, 9), (7, 9), (14, 9), (4, 15)} <= edges
    near_ok = rep.matrix[2, 14] <= math.ceil(1e-7 * full_run.n)  # CC(3) vs CC(15)
    owners = {cid for cid in range(1, 17) if rep.unique_counts[cid - 1] > 0}
    owners_ok = owners <= {8, 9, 10, 12, 15}
    min_unique = int(0.0001 * full_run.n)
    share_ok = all(rep.unique_counts[cid - 1] >= min_unique for cid in (9, 10, 12, 15))
    ok = strict_ok and near_ok and owners_ok and share_ok
    report(7, ok, f"edges ok={strict_ok}, |3\\15|={rep.matrix[2, 14]}, owners={sorted(owners)}, "
                  f"unique 9/10/12/15={[int(rep.unique_counts[c - 1]) for c in (9, 10, 12, 15)]}")


def test_criterion_08_homotopies(full_run):
    m = full_run
    curve = linear_homotopy(m, 4, 9, dt=0.05)
    peak = max(curve.ratios)
    t_peak = curve.grid[curve.ratios.index(peak)][0]
    h49_ok = (abs(peak - 0.97907) <= 0.002
              and t_peak in (0.55, 0.60, 0.65)
              and peak > curve.ratios[0] and peak > curve.ratios[-1])

    curve1012 = linear_homotopy(m, 10, 12, dt=0.05)
    peak1012 = max(curve1012.ratios[1:-1])
    sigma = binomial_sigma(peak1012, m.n)
    h1012_ok = (peak1012 - curve1012.ratios[0] >= 2 * sigma
                and peak1012 - curve1012.ratios[-1] >= 2 * sigma)

    r15 = float(m.ratios[14])
    simp_ok = True
    for a, b in ((4, 9), (4, 10), (4, 12), (9, 10), (9, 12), (10, 12)):
        grid = simplicial_homotopy(m, a, b, 15, delta=1 / 16)
        simp_ok = simp_ok and max(grid.ratios) <= r15 + 3 * binomial_sigma(r15, m.n)
    ok = h49_ok and h1012_ok and simp_ok
    report(8, ok, f"H(4,9) peak {peak:.5f} at t={t_peak}; H(10,12) peak {peak1012:.5f} "
                  f"vs ends ({curve1012.ratios[0]:.5f},{curve1012.ratios[-1]:.5f}); "
                  f"simplicial<=CC15+3sigma: {simp_ok}")


def _grid_extrema(coeffs, c_m, grid_pts=100):
    """Vectorized min value and per-point scale of p over the log grid."""
    grid = np.logspace(-4, 4, grid_pts)
    x1, x3 = np.meshgrid(grid, grid, indexing="ij")
    monos = np.stack([(x1**p.x * x3**p.z).ravel() for p in (*HEXAGON_POSITIVE, M)])
    all_coeffs = np.concatenate([coeffs, c_m[None, :]])  # (11, k)
    values = all_coeffs.T @ monos                        # (k, grid)
    scales = np.abs(all_coeffs).T @ monos
    rel = values / scales
    return rel.min(axis=1)


def test_criterion_09_soundness(case2_etas):
    n = 10_000
    plan = SamplePlan(target_case4_samples=n + 2000, seed=SEED + 2)
    evaluator = CoverEvaluator()
    certified = []  # samples certified by at least one cover, as in the hit masks
    for eta, coeffs, c_m in sample_case4(plan):
        certified.append(eta[:, (evaluator.theta_sums(np.log(coeffs)) >= -c_m).any(axis=0)])
    eta = np.concatenate(certified, axis=1)[:, :n]
    coeffs, c_m = hex_coefficient_arrays(eta, *ab_values(eta))
    worst = 1.0
    for lo in range(0, n, 500):
        worst = min(worst, _grid_extrema(coeffs[:, lo:lo + 500], c_m[lo:lo + 500]).min())
    certified_ok = worst >= -1e-8

    neg_found = 0
    total2 = 0
    eta2 = case2_etas(SEED + 3, n)
    coeffs2, c_m2 = hex_coefficient_arrays(eta2, *ab_values(eta2))
    for lo in range(0, n, 500):
        mins = _grid_extrema(coeffs2[:, lo:lo + 500], c_m2[lo:lo + 500])
        neg_found += int((mins < 0).sum())
        total2 += mins.size
    case2_ok = neg_found / total2 >= 0.99
    ok = certified_ok and case2_ok
    report(9, ok, f"certified grid min (relative) {worst:.2e}; "
                  f"case-2 negatives {neg_found}/{total2} = {neg_found / total2:.4f}")


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for threads in ("1", "4"):
        prefix = str(tmp_path / f"t{threads}_")
        code = cli.main(["table1", "--n", str(N_FULL), "--box", "1", "--seed", str(SEED),
                         "--threads", threads, "--out", prefix])
        assert code == 0
        text = (tmp_path / f"t{threads}_table1.csv").read_bytes()
        outputs.append(b"\n".join(
            line for line in text.splitlines() if not line.startswith(b"#")))
    ok = outputs[0] == outputs[1]
    report(10, ok, f"CSV data rows byte-identical across --threads 1/4: {ok}")
