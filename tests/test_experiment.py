"""Sampling determinism, cover evaluation, and derived statistics."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from hexcover import experiment
from hexcover.experiment import (
    RAW_BLOCK,
    SamplePlan,
    binomial_sigma,
    case4_eta_points,
    classified_block,
    compare_vs_baseline,
    containment_analysis,
    evaluate_covers,
    linear_homotopy,
    sample_case4,
    simplicial_homotopy,
)


def collect_etas(plan, case="case4"):
    return np.concatenate([eta for eta, _, _ in sample_case4(plan, case)], axis=1)


def test_threads_do_not_change_stream():
    base = collect_etas(SamplePlan(target_case4_samples=30_000, seed=3, threads=1))
    parallel = collect_etas(SamplePlan(target_case4_samples=30_000, seed=3, threads=4))
    assert np.array_equal(base, parallel)


def test_sample_count_is_exact():
    etas = collect_etas(SamplePlan(target_case4_samples=12_345, seed=1))
    assert etas.shape == (8, 12_345)


def test_draws_strictly_positive_and_in_box():
    for box in (0.1, 10.0):
        eta, a, b = classified_block(seed=0, block=0, box_size=box, case="case4")
        assert (a > 0).all() and (b < 0).all()
        # the pass-through rate constants live in (0, box]
        for row in (4, 5, 6, 7):
            assert (eta[row] > 0).all() and (eta[row] <= box).all()


def test_acceptance_rate_scale_invariant():
    rates = []
    for box in (0.1, 1.0, 10.0, 100.0):
        accepted = sum(classified_block(0, blk, box, "case4")[1].size for blk in range(4))
        rates.append(accepted / (4 * RAW_BLOCK))
    p = rates[1]
    sigma = binomial_sigma(p, 4 * RAW_BLOCK)
    for r in rates:
        assert abs(r - p) <= 3 * math.sqrt(2) * sigma


def test_neighbor_seeds_agree_within_error(small_run):
    other = evaluate_covers(SamplePlan(target_case4_samples=small_run.n, seed=43),
                            keep_theta=())
    sigma = binomial_sigma(float(small_run.ratios[8]), small_run.n)
    for cid in range(1, 17):
        delta = abs(float(small_run.ratios[cid - 1] - other.ratios[cid - 1]))
        assert delta <= 3 * math.sqrt(2) * sigma


def test_union_dominates_each_cover(small_run):
    assert small_run.union_count >= small_run.counts.max()
    assert (small_run.counts <= small_run.n).all()
    expected_union = int((small_run.hits != 0).sum())
    assert small_run.union_count == expected_union


def test_pool_does_not_run_cancelled_lookahead(monkeypatch):
    plan = SamplePlan(target_case4_samples=20_000, seed=5, threads=2)
    needed = evaluate_covers(SamplePlan(target_case4_samples=20_000, seed=5),
                             keep_theta=()).raw_draws // RAW_BLOCK
    calls, released = [], threading.Event()
    original = experiment.classified_block

    def counted(seed, block, box_size, case):
        calls.append(block)
        if block >= needed:
            # hold each unneeded block so the look-ahead cannot drain before the stream closes
            released.wait(timeout=1.0)
        return original(seed, block, box_size, case)

    monkeypatch.setattr(experiment, "classified_block", counted)
    try:
        run = evaluate_covers(plan, keep_theta=())
    finally:
        released.set()
    assert run.raw_draws // RAW_BLOCK == needed
    assert len(calls) <= needed + plan.threads


def test_histogram_statistics_match_per_sample_bits(small_run):
    bits = ((small_run.hits[None, :] >> np.arange(16)[:, None]) & 1).astype(np.int64)
    assert np.array_equal(small_run.counts, bits.sum(axis=1))
    assert small_run.union_count == int(bits.any(axis=0).sum())
    diff = bits.sum(axis=1)[:, None] - bits @ bits.T
    np.fill_diagonal(diff, 0)
    rep = containment_analysis(small_run)
    assert np.array_equal(rep.matrix, diff)
    assert np.array_equal(rep.unique_counts, bits[:, bits.sum(axis=0) == 1].sum(axis=1))
    base = bits[8].astype(bool)
    for r in compare_vs_baseline(small_run, baseline=9):
        mine = bits[r.cover_id - 1].astype(bool)
        assert (r.plus, r.minus, r.zero) == (int((mine & ~base).sum()), int((base & ~mine).sum()),
                                             int((~mine & ~base).sum()))


def test_containment_allocates_nothing_per_sample(small_run):
    tracemalloc.start()
    try:
        containment_analysis(small_run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * small_run.n  # less than one 8-byte word per sample


def test_matrix_deterministic_across_threads(small_run):
    redo = evaluate_covers(
        SamplePlan(target_case4_samples=small_run.n, seed=small_run.plan.seed,
                   threads=4),
        keep_theta=(4, 9, 10, 12, 15))
    assert np.array_equal(redo.hits, small_run.hits)
    for cid in (4, 9, 10, 12, 15):
        assert np.array_equal(redo.theta[cid], small_run.theta[cid])


def test_table2_bookkeeping_identity(small_run):
    records = compare_vs_baseline(small_run, baseline=9)
    r9 = small_run.ratios[8]
    for r in records:
        lhs = small_run.ratios[r.cover_id - 1]
        rhs = r9 + (r.plus - r.minus) / small_run.n
        assert abs(lhs - rhs) <= 1e-12
    self_rec = compare_vs_baseline(small_run, baseline=5)[4]
    assert self_rec.plus == 0 and self_rec.minus == 0


def test_compare_rejects_bad_baseline(small_run):
    with pytest.raises(ValueError):
        compare_vs_baseline(small_run, baseline=0)


def test_containment_matrix_consistency(small_run):
    rep = containment_analysis(small_run)
    assert (np.diag(rep.matrix) == 0).all()
    for a, b in rep.edges:
        assert rep.matrix[a - 1, b - 1] == 0
    for a, b in rep.near_edges:
        assert 0 < rep.matrix[a - 1, b - 1] <= rep.near_band
    # unique counts: each sample certified by exactly one cover is owned once
    total_unique = int(rep.unique_counts.sum())
    per_sample = np.array([bin(int(h)).count("1") for h in small_run.hits[:2000]])
    assert (rep.unique_counts >= 0).all()
    assert total_unique <= small_run.n
    assert (per_sample == 1).sum() <= total_unique + (small_run.n - 2000)


def test_equal_groups_are_mutual_containments(small_run):
    rep = containment_analysis(small_run)
    for group in rep.equal_groups:
        for a in group:
            for b in group:
                assert rep.matrix[a - 1, b - 1] == 0


def test_linear_homotopy_endpoints_exact(small_run):
    curve = linear_homotopy(small_run, 4, 9)
    assert len(curve.ratios) == 21
    assert curve.ratios[0] == float(small_run.ratios[3])
    assert curve.ratios[-1] == float(small_run.ratios[8])


def test_homotopy_hit_implies_best_pure_hit(small_run):
    # a weighted certificate never beats the pointwise best of its two covers
    neg_cm = -small_run.c_m
    ta, tb = small_run.theta[4], small_run.theta[9]
    for t in (0.25, 0.5, 0.75):
        mixed = (1.0 - t) * ta + t * tb >= neg_cm
        best = np.maximum(ta, tb) >= neg_cm
        assert not (mixed & ~best).any()
    curve = linear_homotopy(small_run, 4, 9)
    assert max(curve.ratios) <= small_run.union_ratio


def test_simplicial_homotopy_corners(small_run):
    curve = simplicial_homotopy(small_run, 4, 9, 15, delta=1 / 4)
    grid = dict(zip(curve.grid, curve.ratios))
    assert grid[(1.0, 0.0)] == float(small_run.ratios[3])
    assert grid[(0.0, 1.0)] == float(small_run.ratios[8])
    assert grid[(0.0, 0.0)] == float(small_run.ratios[14])
    assert len(curve.ratios) == 15  # triangular grid with 5 points per side


def test_homotopy_rejects_uneven_step(small_run):
    with pytest.raises(ValueError):
        linear_homotopy(small_run, 4, 9, dt=0.3)
    with pytest.raises(ValueError):
        simplicial_homotopy(small_run, 4, 9, 15, delta=0.3)


def test_homotopy_requires_retained_theta(small_run):
    with pytest.raises(ValueError):
        linear_homotopy(small_run, 1, 9)


def test_case4_eta_points_deterministic():
    a = case4_eta_points(10, seed=4)
    b = case4_eta_points(10, seed=4)
    assert a == b
    assert len(a) == 10


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(target_case4_samples=0)
    with pytest.raises(ValueError):
        SamplePlan(box_size=0.0)
    for bad in ({"box_size": math.nan}, {"box_size": math.inf}, {"seed": -1}, {"seed": 2**64}):
        with pytest.raises(ValueError):
            SamplePlan(**bad)
