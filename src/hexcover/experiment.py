"""Seeded Monte-Carlo comparison of the 16 pure covers.

Rate constants are drawn uniformly from (0, N]^12, reduced to eta, and kept
when they land in case 4 (a > 0, b < 0).  Each accepted sample is tested
against every cover's certificate Theta-sum >= -c_m and stored as a 16-bit
hit mask.  Ratios, the baseline comparison and the containment poset depend
only on how often each mask occurs, so they are computed from the histogram
of the masks; homotopies reuse retained per-sample Theta sums.

Randomness comes from counter-based Philox streams keyed by (seed, block
index) over fixed-size raw blocks.  One generator yields the accepted blocks
in counter order and truncates only the last one, so parallel and serial
runs emit the same sample sequence bit for bit.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import count
from typing import Iterator

import numpy as np
from numpy.random import Generator, Philox

from .covers import all_covers
from .geometry import HEXAGON_POSITIVE, M, POINT_INDEX
from .model import _raw_hex_coefficients, _reduced, ab_values
from .circuits import _compiled_simplex

RAW_BLOCK = 1 << 16  # raw draws per counter block; fixed, independent of threading
LOOKAHEAD_PER_THREAD = 8  # most blocks queued ahead per worker thread


@dataclass(frozen=True)
class SamplePlan:
    """Sampling configuration for one experiment run.

    ``threads`` sets how many worker threads draw blocks; it never changes the
    sample stream, which depends only on the seed and the box size.
    """

    box_size: float = 1.0
    target_case4_samples: int = 1_000_000
    seed: int = 42
    threads: int = 1

    def __post_init__(self):
        if self.target_case4_samples < 1:
            raise ValueError("target_case4_samples must be >= 1")
        if not (math.isfinite(self.box_size) and self.box_size > 0):
            raise ValueError(f"box_size must be positive and finite, got {self.box_size}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


class CoverEvaluator:
    """Vectorized Theta sums of the 16 pure covers, one table row per distinct simplex.

    The covers use 66 simplex blocks but only 21 distinct simplices.  Each is
    evaluated once, elementwise, as exp(const + lambda_0*L[i0] + lambda_1*L[i1]
    (+ lambda_2*L[i2])) with lambdas and const from ``_compiled_simplex``, so
    a sample gets the same bits in any batch; a single point is a batch of one.
    """

    def __init__(self):
        self.covers = all_covers()
        rows: dict = {}
        self._cover_rows = [[rows.setdefault(s, len(rows)) for s in cover.simplices]
                            for cover in self.covers]
        self._table = [([POINT_INDEX[v] for v in s.vertices], *_compiled_simplex(s, M))
                       for s in rows]

    def theta_sums(self, log_coeffs: np.ndarray) -> np.ndarray:
        """(16, k) Theta sums from a (10, k) array of log coefficients."""
        thetas = [np.exp(sum((l * log_coeffs[i] for i, l in zip(idx, lams)), const))
                  for idx, lams, const in self._table]
        return np.stack([sum(thetas[r] for r in rows) for rows in self._cover_rows])


def classified_block(seed: int, block: int, box_size: float, case: str):
    """Accepted samples of one raw block as (eta, a, b), eta of shape (8, k).

    Draws use kappa = N*(1-U) so every component is strictly positive.
    ``case`` "case4" keeps a > 0, b < 0; "case2" keeps a < 0.
    """
    rng = Generator(Philox(key=[np.uint64(seed), np.uint64(block)]))
    kappa = box_size * (1.0 - rng.random((12, RAW_BLOCK)))
    eta = np.stack(_reduced(kappa))
    a, b = ab_values(eta)
    if case == "case4":
        mask = (a > 0) & (b < 0)
    elif case == "case2":
        mask = a < 0
    else:
        raise ValueError(f"unknown case filter {case!r}")
    return eta[:, mask], a[mask], b[mask]


def hex_coefficient_arrays(eta: np.ndarray, a: np.ndarray, b: np.ndarray):
    """(10, k) coefficient array in canonical point order plus c_m array."""
    cmap, c_m = _raw_hex_coefficients(*eta, a, b)
    return np.stack([cmap[p] for p in HEXAGON_POSITIVE]), c_m


def _accepted_blocks(plan: SamplePlan, case: str):
    """(eta, a, b) of raw blocks 0, 1, 2, ... until the plan's target is reached.

    Yields exactly one item per raw block drawn, so the caller can count raw
    draws; only the final block is truncated, so exactly
    ``target_case4_samples`` samples come out.  With several threads, blocks
    are drawn ahead (one per thread until the first returns, then at most
    ``LOOKAHEAD_PER_THREAD`` per thread) only while those in flight, at the
    acceptance seen so far, fall short of the samples still needed; any not
    yet started when the stream closes are cancelled.
    """
    pool = ThreadPoolExecutor(max_workers=plan.threads) if plan.threads > 1 else None
    ahead = deque()
    remaining = plan.target_case4_samples
    try:
        for block in count():
            if pool is None:
                eta, a, b = classified_block(plan.seed, block, plan.box_size, case)
            else:
                accepted = plan.target_case4_samples - remaining
                while len(ahead) < LOOKAHEAD_PER_THREAD * plan.threads and (
                        len(ahead) * accepted < remaining * block if block
                        else len(ahead) < plan.threads):
                    ahead.append(pool.submit(classified_block, plan.seed, block + len(ahead),
                                             plan.box_size, case))
                eta, a, b = ahead.popleft().result()
            if eta.shape[1] >= remaining:
                yield eta[:, :remaining], a[:remaining], b[:remaining]
                return
            remaining -= eta.shape[1]
            yield eta, a, b
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def sample_case4(plan: SamplePlan, case: str = "case4") -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Stream accepted samples as (eta, coeffs, c_m), one item per raw block.

    Fully deterministic in ``plan.seed``: blocks come in counter order and
    exactly ``target_case4_samples`` samples are emitted in total.
    """
    for eta, a, b in _accepted_blocks(plan, case):
        yield (eta, *hex_coefficient_arrays(eta, a, b))


@dataclass
class CoverHitMatrix:
    """Per-sample certificate hits for all 16 covers and their histogram.

    ``hits`` holds one uint16 bitmask per sample (bit i-1 set iff cover i
    certified the sample).  ``masks`` lists the distinct masks in ascending
    order and ``mask_counts`` how often each occurs; every joint count is
    computed from these two.  ``theta`` retains per-sample Theta sums for the
    covers in ``keep_theta``, and ``c_m`` the per-sample c_m when any are
    kept, so homotopies can reuse the same stream.
    """

    hits: np.ndarray
    raw_draws: int
    plan: SamplePlan
    theta: dict[int, np.ndarray] = field(default_factory=dict)
    c_m: np.ndarray | None = None
    eta: np.ndarray | None = None
    masks: np.ndarray = field(init=False)
    mask_counts: np.ndarray = field(init=False)

    def __post_init__(self):
        self.masks, self.mask_counts = np.unique(self.hits, return_counts=True)

    @property
    def n(self) -> int:
        return len(self.hits)

    @property
    def mask_bits(self) -> np.ndarray:
        """(distinct masks, 16) 0/1 matrix; column i-1 is cover i's hit bit."""
        return (self.masks[:, None] >> np.arange(16)) & 1

    @property
    def counts(self) -> np.ndarray:
        """Samples certified by each cover, in cover-id order."""
        return self.mask_counts @ self.mask_bits

    @property
    def union_count(self) -> int:
        return int(self.mask_counts[self.masks != 0].sum())

    @property
    def ratios(self) -> np.ndarray:
        return self.counts / self.n

    @property
    def union_ratio(self) -> float:
        return self.union_count / self.n


def evaluate_covers(plan: SamplePlan, keep_theta=(), keep_eta: bool = False) -> CoverHitMatrix:
    """Run the sampling plan and test every cover's certificate per sample."""
    evaluator = CoverEvaluator()
    keep_theta = tuple(keep_theta)
    hit_chunks, theta_chunks = [], {cid: [] for cid in keep_theta}
    cm_chunks, eta_chunks = [], []
    for eta, coeffs, c_m in sample_case4(plan):
        theta = evaluator.theta_sums(np.log(coeffs))
        hits = (theta >= -c_m).astype(np.uint16)
        mask = np.zeros(c_m.size, dtype=np.uint16)
        for i in range(16):
            mask |= hits[i] << np.uint16(i)
        hit_chunks.append(mask)
        for cid in keep_theta:
            theta_chunks[cid].append(theta[cid - 1].copy())
        if keep_theta:
            cm_chunks.append(c_m)
        if keep_eta:
            eta_chunks.append(eta)
    return CoverHitMatrix(
        hits=np.concatenate(hit_chunks),
        raw_draws=len(hit_chunks) * RAW_BLOCK,
        plan=plan,
        theta={cid: np.concatenate(cs) for cid, cs in theta_chunks.items()},
        c_m=np.concatenate(cm_chunks) if keep_theta else None,
        eta=np.concatenate(eta_chunks, axis=1) if keep_eta else None,
    )


@dataclass(frozen=True)
class ComparisonRecord:
    """Per-cover hit bookkeeping against a baseline cover."""

    cover_id: int
    versus: int
    plus: int    # certified by cover but not by baseline
    minus: int   # certified by baseline but not by cover
    zero: int    # certified by neither


def compare_vs_baseline(matrix: CoverHitMatrix, baseline: int = 9) -> list[ComparisonRecord]:
    if not 1 <= baseline <= 16:
        raise ValueError(f"baseline cover id out of range: {baseline}")
    bits = matrix.mask_bits.astype(bool)
    base = bits[:, [baseline - 1]]
    weights = matrix.mask_counts
    plus, minus, zero = (weights @ (bits & ~base), weights @ (base & ~bits),
                         weights @ ~(bits | base))
    return [ComparisonRecord(cover_id=cid, versus=baseline, plus=int(plus[cid - 1]),
                             minus=int(minus[cid - 1]), zero=int(zero[cid - 1]))
            for cid in range(1, 17)]


@dataclass
class ContainmentReport:
    """Pairwise set-difference counts and the derived containment poset."""

    matrix: np.ndarray            # matrix[i][j] = |CC(i+1) \ CC(j+1)|
    unique_counts: np.ndarray     # samples certified by exactly one cover
    threshold: int
    near_band: int                # upper count for the dashed near-containment edges
    edges: list[tuple[int, int]]        # A contained in B (count <= threshold)
    near_edges: list[tuple[int, int]]   # 0 < count <= near_band
    equal_groups: list[list[int]]       # covers with identical certified sets
    hasse_edges: list[tuple[int, int]]  # transitive reduction over group representatives


def containment_analysis(matrix: CoverHitMatrix, threshold: int = 0) -> ContainmentReport:
    """|A\\B| counts, containment edges, uniqueness, and the Hasse reduction."""
    bits, weights = matrix.mask_bits, matrix.mask_counts
    inter = bits.T @ (weights[:, None] * bits)  # |A & B|
    diff = matrix.counts[:, None] - inter  # |A \ B|
    np.fill_diagonal(diff, 0)
    single = bits.sum(axis=1) == 1
    unique_counts = weights[single] @ bits[single]
    near_band = max(threshold, math.ceil(1e-7 * matrix.n))
    off_diagonal = ~np.eye(16, dtype=bool)
    contained = off_diagonal & (diff <= threshold)
    near = off_diagonal & ~contained & (diff <= near_band)
    edges = [(i + 1, j + 1) for i, j in np.argwhere(contained).tolist()]
    near_edges = [(i + 1, j + 1) for i, j in np.argwhere(near).tolist()]

    # Merge equal covers (mutual containment) into one node: the components
    # of the mutual-containment graph, by transitive closure.
    same = ~off_diagonal | (contained & contained.T)
    for k in range(16):
        same |= same[:, [k]] & same[[k], :]
    equal_groups = [list(g) for g in sorted({tuple((np.flatnonzero(row) + 1).tolist())
                                              for row in same})]
    rep = {cid: int(np.argmax(same[cid - 1])) + 1 for cid in range(1, 17)}

    strict = {(rep[a], rep[b]) for a, b in edges if rep[a] != rep[b]}
    hasse = [
        (a, b) for a, b in sorted(strict)
        if not any((a, c) in strict and (c, b) in strict for c in set(rep.values()))
    ]
    return ContainmentReport(
        matrix=diff,
        unique_counts=unique_counts,
        threshold=threshold,
        near_band=near_band,
        edges=edges,
        near_edges=near_edges,
        equal_groups=equal_groups,
        hasse_edges=hasse,
    )


@dataclass(frozen=True)
class HomotopyCurve:
    """Certified-sample ratios along a weighted-cover parameter grid."""

    cover_ids: tuple[int, ...]
    grid: tuple            # (t,) tuples for linear, (s, t) for simplicial
    ratios: tuple[float, ...]


def _require_theta(matrix: CoverHitMatrix, cover_ids):
    for cid in cover_ids:
        if cid not in matrix.theta:
            raise ValueError(f"run did not retain Theta sums for cover {cid}")
    if matrix.c_m is None:
        raise ValueError("run did not retain c_m")


def linear_homotopy(matrix: CoverHitMatrix, a: int, b: int, dt: float = 0.05) -> HomotopyCurve:
    """Hit ratios of (1-t)*Theta(a) + t*Theta(b) >= -c_m on the stored stream."""
    steps = round(1.0 / dt)
    if abs(steps * dt - 1.0) > 1e-9:
        raise ValueError(f"step {dt} does not divide 1 evenly")
    _require_theta(matrix, (a, b))
    ta, tb, neg_cm = matrix.theta[a], matrix.theta[b], -matrix.c_m
    grid, ratios = [], []
    for k in range(steps + 1):
        t = k / steps
        ratios.append(float(((1.0 - t) * ta + t * tb >= neg_cm).sum()) / matrix.n)
        grid.append((t,))
    return HomotopyCurve((a, b), tuple(grid), tuple(ratios))


def simplicial_homotopy(matrix: CoverHitMatrix, a: int, b: int, c: int,
                        delta: float = 1 / 16) -> HomotopyCurve:
    """Ratios of s*Theta(a) + t*Theta(b) + (1-s-t)*Theta(c) over the triangle grid."""
    steps = round(1.0 / delta)
    if abs(steps * delta - 1.0) > 1e-9:
        raise ValueError(f"step {delta} does not divide 1 evenly")
    _require_theta(matrix, (a, b, c))
    ta, tb, tc, neg_cm = matrix.theta[a], matrix.theta[b], matrix.theta[c], -matrix.c_m
    grid, ratios = [], []
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            s, t = i / steps, j / steps
            theta = s * ta + t * tb + (1.0 - s - t) * tc
            ratios.append(float((theta >= neg_cm).sum()) / matrix.n)
            grid.append((s, t))
    return HomotopyCurve((a, b, c), tuple(grid), tuple(ratios))


def case4_eta_points(n: int, seed: int = 0, box_size: float = 1.0):
    """The first n accepted case-4 samples of a stream, as EtaPoint objects."""
    from .model import EtaPoint

    plan = SamplePlan(box_size=box_size, target_case4_samples=n, seed=seed)
    points = []
    for eta, _, _ in sample_case4(plan):
        points.extend(EtaPoint(*map(float, eta[:, j])) for j in range(eta.shape[1]))
    return points


def binomial_sigma(p: float, n: int) -> float:
    """Standard error of a ratio estimate."""
    return math.sqrt(p * (1.0 - p) / n)
