"""Sampling determinism, cover evaluation, and derived statistics."""

import hashlib
import math
import resource
import sys
import threading
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from hexcover import experiment
from hexcover.circuits import cover_theta_sum
from hexcover.experiment import (
    BOX_RANGE,
    MAX_SWEEP_STEPS,
    MAX_THREADS,
    RAW_BLOCK,
    SWEEP_SLACK,
    TILE,
    CoverEvaluator,
    CoverHitMatrix,
    SamplePlan,
    binomial_sigma,
    case4_eta_points,
    case4_thetas,
    classified_block,
    compare_vs_baseline,
    containment_analysis,
    evaluate_covers,
    linear_homotopy,
    simplicial_homotopy,
    sweep_steps,
)
from hexcover.model import _reduced, ab_values, is_case4

from conftest import sample_case4


def collect_etas(plan):
    return np.concatenate([eta for eta, _, _ in sample_case4(plan)], axis=1)


def per_sample_masks(plan):
    """Each sample's 16-bit hit mask, from the sample stream and the Theta kernel directly."""
    evaluator, chunks = CoverEvaluator(), []
    for _, coeffs, c_m in sample_case4(plan):
        hits = evaluator.theta_sums(np.log(coeffs)) >= -c_m
        chunks.append(sum(hits[i].astype(np.int64) << i for i in range(16)))
    return np.concatenate(chunks)


def per_sample_thetas(plan, cover_ids):
    """({cover id: each sample's Theta sum}, each sample's -c_m), from the stream and kernel directly."""
    evaluator, chunks = CoverEvaluator(), []
    for _, coeffs, c_m in sample_case4(plan):
        theta = evaluator.theta_sums(np.log(coeffs))
        chunks.append(np.vstack([theta[[cid - 1 for cid in cover_ids]], -c_m]))
    *thetas, neg_cm = np.concatenate(chunks, axis=1)
    return dict(zip(cover_ids, thetas)), neg_cm


@pytest.fixture(scope="module")
def small_masks(small_run):
    return per_sample_masks(small_run.plan)


@pytest.fixture(scope="module")
def small_thetas(small_run):
    return per_sample_thetas(small_run.plan, tuple(small_run.mixed_theta))


def test_threads_do_not_change_stream():
    base = collect_etas(SamplePlan(target_case4_samples=30_000, seed=3, threads=1))
    parallel = collect_etas(SamplePlan(target_case4_samples=30_000, seed=3, threads=4))
    assert np.array_equal(base, parallel)


def test_sample_count_is_exact():
    etas = collect_etas(SamplePlan(target_case4_samples=12_345, seed=1))
    assert etas.shape == (8, 12_345)


def test_draws_strictly_positive_and_in_box():
    for box in (0.1, 10.0):
        eta, a, b = classified_block(seed=0, block=0, box_size=box)
        assert (a > 0).all() and (b < 0).all()
        # the pass-through rate constants live in (0, box]
        for row in (4, 5, 6, 7):
            assert (eta[row] > 0).all() and (eta[row] <= box).all()


# the sampler keeps no other case; whole blocks are the pool's tiles, TILE the inline width
@pytest.mark.parametrize("case, tile", [("case4", RAW_BLOCK), ("case4", TILE)], ids=["case4", "case4-tile"])
@pytest.mark.parametrize("box", [1.0, 3.7, 2.0**-99, 2.0**150])
def test_classified_block_matches_stacked_reference(stacked_block, case, tile, box):
    for block in range(4):
        got, want = classified_block(7, block, box, tile), stacked_block(7, block, box, case)
        for x, y in zip(got, want):
            assert x.shape == y.shape and x.flags.c_contiguous
            assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


# SHA-256 of the first 10,000 case-2 eta columns at seed 45 (criterion 9's), as drawn
# by the sampler's former case-2 filter, recorded before that filter was removed
CASE2_SHA256 = "fa031afd49c1f06909c96c5628e2ee2855d4524c9e27c88ea6a9c86bbdc4203d"


def test_case2_helper_reproduces_the_former_case2_stream(case2_etas):
    eta = case2_etas(45, 10_000)
    assert eta.shape == (8, 10_000) and (ab_values(eta)[0] < 0).all()
    assert hashlib.sha256(eta.tobytes()).hexdigest() == CASE2_SHA256


@pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
def test_case4_thetas_rejects_values_outside_float64(bad):
    (_, coeffs, c_m), = sample_case4(SamplePlan(target_case4_samples=100, seed=3))
    evaluator = CoverEvaluator()
    theta, neg_cm = case4_thetas(evaluator, coeffs, c_m)
    assert np.array_equal(theta, evaluator.theta_sums(np.log(coeffs))) and np.array_equal(neg_cm, -c_m)
    column = np.arange(100) == 7
    with pytest.raises(FloatingPointError):
        case4_thetas(evaluator, np.where(column, bad, coeffs), c_m)
    with pytest.raises(FloatingPointError):
        case4_thetas(evaluator, coeffs, np.where(column, bad, c_m))


def test_acceptance_rate_scale_invariant():
    rates = []
    for box in (0.1, 1.0, 10.0, 100.0):
        accepted = sum(classified_block(0, blk, box)[1].size for blk in range(4))
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


def test_union_dominates_each_cover(small_run, small_masks):
    assert small_run.union_count >= small_run.counts.max()
    assert (small_run.counts <= small_run.n).all()
    expected_union = int((small_masks != 0).sum())
    assert small_run.union_count == expected_union
    # the histogram is exactly the per-sample masks counted
    masks, counts = np.unique(small_masks, return_counts=True)
    assert np.array_equal(small_run.masks, masks) and np.array_equal(small_run.mask_counts, counts)


def test_pool_does_not_run_cancelled_lookahead(monkeypatch):
    plan = SamplePlan(target_case4_samples=20_000, seed=5, threads=2)
    needed = evaluate_covers(SamplePlan(target_case4_samples=20_000, seed=5),
                             keep_theta=()).raw_draws // RAW_BLOCK
    calls, released = [], threading.Event()
    original = experiment.classified_block

    def counted(seed, block, box_size, tile):
        calls.append(block)
        if block >= needed:
            # hold each unneeded block so the look-ahead cannot drain before the stream closes
            released.wait(timeout=1.0)
        return original(seed, block, box_size, tile)

    monkeypatch.setattr(experiment, "classified_block", counted)
    try:
        run = evaluate_covers(plan, keep_theta=())
    finally:
        released.set()
    assert run.raw_draws // RAW_BLOCK == needed
    assert len(calls) <= needed + plan.threads


def test_lookahead_draws_only_needed_blocks(monkeypatch):
    calls = []
    original = experiment.classified_block

    def counted(seed, block, box_size, tile):
        calls.append(block)
        return original(seed, block, box_size, tile)

    monkeypatch.setattr(experiment, "classified_block", counted)
    # the first wave may not start a block per thread when n needs fewer,
    # e.g. 16 blocks for n = 1, or 8 for the 3 that n = 20,000 needs
    for threads, n in [(4, 100_000), (16, 1), (4, 1000), (8, 20_000)]:
        calls.clear()
        run = evaluate_covers(SamplePlan(target_case4_samples=n, seed=5, threads=threads))
        assert run.n == n
        assert sorted(calls) == list(range(run.raw_draws // RAW_BLOCK)), (threads, n)


def test_theta_sums_batch_of_one_matches_block():
    (eta, coeffs, c_m), = sample_case4(SamplePlan(target_case4_samples=6000, seed=8))
    evaluator = CoverEvaluator()
    log_coeffs = np.log(coeffs)
    block = evaluator.theta_sums(log_coeffs)
    single = np.concatenate([evaluator.theta_sums(log_coeffs[:, [j]]) for j in range(6000)],
                            axis=1)
    assert np.array_equal(single.view(np.uint64), block.view(np.uint64))
    # the scalar definition stays the reference; only log/exp rounding may differ
    for j in range(0, 6000, 60):
        for cover, theta in zip(evaluator.covers, block[:, j]):
            assert math.isclose(theta, cover_theta_sum(cover, coeffs[:, j]), rel_tol=1e-12)


def test_histogram_statistics_match_per_sample_bits(small_run, small_masks):
    bits = ((small_masks[None, :] >> np.arange(16)[:, None]) & 1).astype(np.int64)
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
    serial, parallel = [
        evaluate_covers(SamplePlan(target_case4_samples=small_run.n, seed=small_run.plan.seed,
                                   threads=threads), keep_theta=range(1, 17))
        for threads in (1, 4)]
    assert serial.raw_draws == parallel.raw_draws
    assert np.array_equal(serial.masks, parallel.masks)
    assert np.array_equal(serial.mask_counts, parallel.mask_counts)
    assert serial.n_always == parallel.n_always
    assert np.array_equal(serial.mixed_neg_cm.view(np.uint64), parallel.mixed_neg_cm.view(np.uint64))
    assert list(serial.mixed_theta) == list(range(1, 17))
    for cid in range(1, 17):
        assert serial.mixed_theta[cid].shape == serial.mixed_neg_cm.shape
        assert np.array_equal(serial.mixed_theta[cid].view(np.uint64),
                              parallel.mixed_theta[cid].view(np.uint64))
    assert np.array_equal(serial.mask_counts, small_run.mask_counts)


@pytest.fixture(scope="module")
def subset_run(small_run):
    """``small_run``'s stream with only covers 4, 9 and 15 evaluated and kept."""
    return evaluate_covers(SamplePlan(target_case4_samples=small_run.n, seed=small_run.plan.seed),
                           keep_theta=(15, 4, 9))


def test_subset_evaluator_rows_match_full_evaluator():
    full, subset = CoverEvaluator(), CoverEvaluator((4, 9, 15))
    assert (len(full._table), len(subset._table), len(CoverEvaluator((4, 9))._table)) == (21, 10, 8)
    assert subset.cover_ids == (4, 9, 15) and CoverEvaluator((15, 4, 9, 4)).cover_ids == (4, 9, 15)
    for bad in ((0,), (4, 17)):
        with pytest.raises(ValueError):
            CoverEvaluator(bad)
    (_, coeffs, _), = sample_case4(SamplePlan(target_case4_samples=5000, seed=8))
    rng = np.random.default_rng(3)
    for log_coeffs in (rng.uniform(-300.0, 300.0, coeffs.shape), np.log(coeffs)):
        rows, mine = full.theta_sums(log_coeffs)[[3, 8, 14]], subset.theta_sums(log_coeffs)
        assert np.array_equal(mine.view(np.uint64), rows.view(np.uint64))
    # -c_m within 32 ulps of each seeded Theta sum: both evaluators give the same verdicts
    neg_cm = rows * (1.0 + rng.integers(-32, 33, size=rows.shape) * 2.0**-52)
    verdicts = mine >= neg_cm
    assert np.array_equal(verdicts, rows >= neg_cm) and verdicts.any() and not verdicts.all()


@pytest.mark.parametrize("threads", [1, 2])
def test_subset_run_matches_full_run(small_run, subset_run, threads):
    ids = (4, 9, 15)
    run = subset_run if threads == 1 else evaluate_covers(
        SamplePlan(target_case4_samples=small_run.n, seed=small_run.plan.seed, threads=threads),
        keep_theta=ids)
    assert run.cover_ids == ids and list(run.mixed_theta) == list(ids)
    assert (run.n, run.raw_draws) == (small_run.n, small_run.raw_draws)
    # the subset's histogram is the full histogram with the other covers' bits dropped
    projected = sum(((small_run.masks >> (cid - 1)) & 1) << j for j, cid in enumerate(ids))
    histogram = np.bincount(projected, weights=small_run.mask_counts, minlength=8)
    assert np.array_equal(run.masks, np.flatnonzero(histogram))
    assert np.array_equal(run.mask_counts, histogram[histogram != 0])
    assert np.array_equal(run.counts, small_run.counts[[cid - 1 for cid in ids]])
    # a sample mixed for 3 covers is mixed for all 16: reclassifying the 16-cover rows
    # against the 3 gives the 3-cover run bit for bit
    always, mixed = experiment._classify([small_run.mixed_theta[cid] for cid in ids],
                                         small_run.mixed_neg_cm)
    assert run.n_always == small_run.n_always + always
    assert np.array_equal(run.mixed_neg_cm.view(np.uint64), small_run.mixed_neg_cm[mixed].view(np.uint64))
    for cid in ids:
        assert np.array_equal(run.mixed_theta[cid].view(np.uint64),
                              small_run.mixed_theta[cid][mixed].view(np.uint64))


def test_reports_need_all_covers(subset_run, small_run):
    with pytest.raises(ValueError):
        compare_vs_baseline(subset_run, baseline=9)
    with pytest.raises(ValueError):
        containment_analysis(subset_run)
    with pytest.raises(ValueError):
        containment_analysis(small_run, threshold=-1)


def _kept_bytes(plan, keep_theta):
    """The run and the bytes it still holds once ``evaluate_covers`` returns."""
    evaluate_covers(SamplePlan(target_case4_samples=1), keep_theta=())  # fill the module caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run = evaluate_covers(plan, keep_theta=keep_theta)
        return run, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_serial_run_peak_stays_within_a_few_tiles():
    """A serial run's traced peak, its draw buffer included, in a thread that has none yet."""
    evaluate_covers(SamplePlan(target_case4_samples=1), keep_theta=())  # fill the module caches
    peak = []

    def run():
        tracemalloc.start()
        try:
            evaluate_covers(SamplePlan(target_case4_samples=200_000, seed=11), keep_theta=(4, 9, 15))
            peak.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and len(peak) == 1
    # about 3.5 MB with TILE-wide draws; a full-width (12, RAW_BLOCK) buffer alone is 6.3 MB
    assert peak[0] < 5_000_000


def test_run_keeps_no_per_sample_arrays():
    run, kept = _kept_bytes(SamplePlan(target_case4_samples=200_000, seed=11), ())
    assert run.n == 200_000
    assert run.n_always == 0 and run.mixed_theta == {} and run.mixed_neg_cm.size == 0
    assert kept < 64 * 1024  # 2 bytes per sample would be 400,000


def test_homotopy_run_keeps_only_mixed_samples():
    run, kept = _kept_bytes(SamplePlan(target_case4_samples=200_000, seed=11), (4, 9, 15))
    assert run.n == 200_000 and 0 < run.mixed_neg_cm.size < run.n // 50
    for f in fields(CoverHitMatrix):
        value = getattr(run, f.name)
        for array in value.values() if isinstance(value, dict) else [value]:
            assert not isinstance(array, np.ndarray) or array.size < run.n, f.name
    assert kept < 256 * 1024  # the 3 Theta rows and c_m of every sample would be 6.4 MB


@pytest.mark.skipif(sys.platform != "linux", reason="reads minor page faults from getrusage")
def test_serial_run_reuses_its_pages():
    plan = SamplePlan(target_case4_samples=200_000, seed=11)
    evaluate_covers(plan)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    evaluate_covers(plan)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 4096


def test_classified_blocks_of_one_thread_share_no_memory():
    for tile in (RAW_BLOCK, TILE):
        first, second = classified_block(0, 0, 1.0, tile), classified_block(0, 1, 1.0, tile)
        buffer = experiment._draws.kappa
        assert buffer.shape == (12, tile)
        for x in first:
            assert not np.shares_memory(x, buffer)
            for y in second:
                assert not np.shares_memory(x, y)


def test_block_task_runs_on_workers(monkeypatch):
    threads, original = [], CoverEvaluator.theta_sums

    def recorded(self, log_coeffs):
        threads.append(threading.current_thread())
        return original(self, log_coeffs)

    monkeypatch.setattr(CoverEvaluator, "theta_sums", recorded)
    run = evaluate_covers(SamplePlan(target_case4_samples=50_000, seed=6, threads=2),
                          keep_theta=(4, 9))
    assert len(threads) == run.raw_draws // RAW_BLOCK
    assert threading.main_thread() not in threads


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


def test_containment_matrix_consistency(small_run, small_masks):
    rep = containment_analysis(small_run)
    assert (np.diag(rep.matrix) == 0).all()
    for a, b in rep.edges:
        assert rep.matrix[a - 1, b - 1] == 0
    for a, b in rep.near_edges:
        assert 0 < rep.matrix[a - 1, b - 1] <= rep.near_band
    # unique counts: each sample certified by exactly one cover is owned once
    total_unique = int(rep.unique_counts.sum())
    per_sample = np.array([bin(int(h)).count("1") for h in small_masks[:2000]])
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


def test_homotopy_hit_implies_best_pure_hit(small_run, small_thetas):
    # a weighted certificate never beats the pointwise best of its two covers
    thetas, neg_cm = small_thetas
    ta, tb = thetas[4], thetas[9]
    for t in (0.25, 0.5, 0.75):
        mixed = (1.0 - t) * ta + t * tb >= neg_cm
        best = np.maximum(ta, tb) >= neg_cm
        assert not (mixed & ~best).any()
    curve = linear_homotopy(small_run, 4, 9)
    assert max(curve.ratios) <= small_run.union_ratio


@pytest.mark.parametrize("steps", [3, 7, 10, 100])
def test_simplicial_grids_are_convex(small_run, steps):
    curve = simplicial_homotopy(small_run, 4, 9, 15, delta=1 / steps)
    assert len(curve.ratios) == (steps + 1) * (steps + 2) // 2


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


def test_homotopy_requires_retained_theta(subset_run):
    with pytest.raises(ValueError):
        linear_homotopy(subset_run, 1, 9)


def _brute_linear(per_sample, a, b, dt):
    """The grid loop that evaluated every sample at every point, kept as the reference."""
    steps = round(1.0 / dt)
    (thetas, neg_cm), n = per_sample, per_sample[1].size
    ta, tb = thetas[a], thetas[b]
    grid, ratios = [], []
    for k in range(steps + 1):
        t = k / steps
        ratios.append(float(((1.0 - t) * ta + t * tb >= neg_cm).sum()) / n)
        grid.append((t,))
    return experiment.HomotopyCurve((a, b), tuple(grid), tuple(ratios))


def _brute_simplicial(per_sample, a, b, c, delta):
    steps = round(1.0 / delta)
    (thetas, neg_cm), n = per_sample, per_sample[1].size
    ta, tb, tc = thetas[a], thetas[b], thetas[c]
    grid, ratios = [], []
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            s, t = i / steps, j / steps
            theta = s * ta + t * tb + (1.0 - s - t) * tc  # unclamped: may weight tc by -2^-53
            ratios.append(float((theta >= neg_cm).sum()) / n)
            grid.append((s, t))
    return experiment.HomotopyCurve((a, b, c), tuple(grid), tuple(ratios))


@pytest.mark.parametrize("dt", [0.05, 0.01, 0.1])
@pytest.mark.parametrize("covers", [(4, 9), (10, 12)])
def test_linear_sweep_matches_brute_force(small_run, small_thetas, covers, dt):
    assert linear_homotopy(small_run, *covers, dt=dt) == _brute_linear(small_thetas, *covers, dt)


@pytest.mark.parametrize("delta", [1 / 4, 1 / 16, 0.1])
def test_simplicial_sweep_matches_brute_force(small_run, small_thetas, delta):
    assert (simplicial_homotopy(small_run, 4, 9, 15, delta=delta)
            == _brute_simplicial(small_thetas, 4, 9, 15, delta))


def test_sweep_prune_exact_on_adversarial_thetas():
    rng = np.random.default_rng(2024)
    n = 40_000
    neg_cm = 10.0 ** rng.uniform(-15, 15, n)
    ulps = rng.integers(-32, 33, size=(3, n)) * 2.0**-52
    near = neg_cm * (1.0 + ulps)  # within 32 ulps of the threshold
    spread = neg_cm * 10.0 ** rng.uniform(-15, 15, (3, n))
    thetas = list(np.where(rng.random((3, n)) < 0.6, near, spread))
    for theta in thetas:  # inf and NaN are never classified: 0*inf is NaN at the corners
        theta[:2] = 2 * neg_cm[:2]
    thetas[1][:2] = np.inf, np.nan

    grid = [(i / 10, j / 10) for i in range(11) for j in range(11 - i)]
    grid += [(i / 7, j / 7) for i in range(8) for j in range(8 - i)]
    assert min(1.0 - s - t for s, t in grid) < 0  # 1.0-s-t rounds below 0 on these grids
    weights = [(s, t, max(0.0, 1.0 - s - t)) for s, t in grid] + [(1 / 3, 1 / 3, 1 / 3)]

    with np.errstate(invalid="ignore", over="ignore"):
        n_always, mixed = experiment._classify(thetas, neg_cm)
        run = CoverHitMatrix(masks=np.zeros(1, dtype=np.int64), mask_counts=np.array([n]),
                             raw_draws=0, plan=SamplePlan(), cover_ids=(1, 2, 3), n_always=n_always,
                             mixed_theta={cid: theta[mixed] for cid, theta in zip((1, 2, 3), thetas)},
                             mixed_neg_cm=neg_cm[mixed])
        counts = experiment._sweep(run, (1, 2, 3), weights)
        brute = [int(((w[0] * thetas[0] + w[1] * thetas[1] + w[2] * thetas[2]) >= neg_cm).sum())
                 for w in weights]
    assert counts == brute
    negative = next((s, t, 1.0 - s - t) for s, t in grid if 1.0 - s - t < 0)
    for bad in (negative, (0.5, 0.5 + 2.0**-40, 0.0), (0.5, 0.5, 0.5),
                (1.5, -0.5, 0.0), (math.nan, 0.5, 0.5)):
        with pytest.raises(ValueError):
            experiment._sweep(run, (1, 2, 3), [bad])
    lo = np.minimum(np.minimum(thetas[0], thetas[1]), thetas[2])
    close = ~mixed & (np.abs(lo / neg_cm - 1.0) <= 2 * SWEEP_SLACK)
    assert n_always > 0 and close.sum() > 100  # the prune decided samples within 32 ulps


def test_sweep_steps_bounds():
    assert sweep_steps(0.1) == 10 and sweep_steps(1.0) == 1
    assert sweep_steps(1 / MAX_SWEEP_STEPS) == MAX_SWEEP_STEPS
    for bad in (0.0, -0.5, math.nan, math.inf, 2.0, 0.3, 1e-9, 1 / (MAX_SWEEP_STEPS + 1), 5e-324):
        with pytest.raises(ValueError):
            sweep_steps(bad)


def test_keep_theta_ids_checked_and_deduplicated():
    plan = SamplePlan(target_case4_samples=1000, seed=3)
    run = evaluate_covers(plan, keep_theta=(4, 4))
    thetas, neg_cm = per_sample_thetas(plan, (4,))
    n_always, mixed = experiment._classify([thetas[4]], neg_cm)
    assert list(run.mixed_theta) == [4] and run.n_always == n_always
    assert np.array_equal(run.mixed_theta[4], thetas[4][mixed])
    assert np.array_equal(run.mixed_neg_cm, neg_cm[mixed])
    for bad in ((0,), (17,), (4, -1)):
        with pytest.raises(ValueError):
            evaluate_covers(plan, keep_theta=bad)


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
    for bad in ({"box_size": math.nan}, {"box_size": math.inf}, {"seed": -1}, {"seed": 2**64},
                {"seed": 42.9}, {"seed": 42.0}, {"seed": "42"}, {"target_case4_samples": 2000.5},
                {"target_case4_samples": 1e6}, {"threads": 1.5}, {"threads": 2.0}):
        with pytest.raises(ValueError):
            SamplePlan(**bad)
    # numpy integers are integers; validation only, no plan here is run
    plan = SamplePlan(target_case4_samples=np.int64(2000), seed=np.uint64(2**64 - 1),
                      threads=np.int32(2))
    assert (plan.target_case4_samples, plan.seed, plan.threads) == (2000, 2**64 - 1, 2)


def test_plan_box_range_ends():
    low, high = BOX_RANGE
    assert (low, high) == (2.0**-99, 2.0**150)
    assert SamplePlan(box_size=low).box_size == low
    assert SamplePlan(box_size=high).box_size == high
    for bad in (math.nextafter(low, 0.0), math.nextafter(high, math.inf), 1e-100, 1e-200, 1e200):
        with pytest.raises(ValueError):
            SamplePlan(box_size=bad)


@pytest.mark.parametrize("box", BOX_RANGE)
def test_box_range_corners_give_normal_coefficients(box):
    # every kappa component at N*2^-53 or N: the extremes of each K and k
    corners = (np.arange(1 << 12)[None, :] >> np.arange(12)[:, None]) & 1
    kappa = np.where(corners == 1, box, box * 2.0**-53)
    eta = np.stack(_reduced(kappa))
    a, b = ab_values(eta)
    case4 = is_case4(a, b)
    assert case4.sum() > 0
    coeffs, c_m = experiment.hex_coefficient_arrays(eta[:, case4], a[case4], b[case4])
    tiny, huge = np.finfo(np.float64).tiny, np.finfo(np.float64).max
    assert ((coeffs >= tiny) & (coeffs <= huge)).all()
    assert ((-c_m >= tiny) & (-c_m <= huge)).all()


def test_plan_rejects_thread_counts_out_of_range():
    # validation only: no plan here is run, so no thread is started
    assert SamplePlan(threads=MAX_THREADS).threads == MAX_THREADS
    for bad in (0, -1, MAX_THREADS + 1, 10**6):
        with pytest.raises(ValueError):
            SamplePlan(threads=bad)
