"""Seeded Monte-Carlo comparison of the 16 pure covers.

Rate constants are drawn uniformly from (0, N]^12, reduced to eta, and kept
only in case 4 (a > 0, b < 0).  ``CoverEvaluator.hit_masks``, which
``certify`` also runs, checks each sample in float64 and decides Theta-sum
>= -c_m for every cover the run evaluates: a hit mask with one bit per
cover, all 16 for the tables, only the swept 2 or 3 for a homotopy.  A
point runs the same expressions on its Python floats, so it gets its
sample's bits.  Ratios, the baseline comparison and the containment poset
depend only on how often each mask occurs, so a run keeps only the
histogram of the masks; homotopies keep Theta sums only of samples a sweep
can flip.

Randomness comes from counter-based Philox streams keyed by (seed, block
index) over fixed-size raw blocks.  A raw block is the unit of work: one
runner, ``_accepted_blocks``, draws it, a *block task* runs every
per-sample step on its samples, and the runner yields the results in
counter order, truncating only the last, so parallel and serial runs emit
the same sample sequence bit for bit.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import count

import numpy as np
from numpy.random import Generator, Philox

from .covers import all_covers, cover_fixture
from .model import EtaPoint, _reduced, a_value, b_value, hex_coefficient_arrays, is_case4
from .circuits import _compiled_simplex, theta_rows

RAW_BLOCK = 1 << 16  # raw draws per counter block; fixed, independent of threading
TILE = 1 << 14  # columns per tile of an inline block: its (5, TILE) float64 draw buffer is 640 KB
LOOKAHEAD_PER_THREAD = 8  # most blocks queued ahead per worker thread
MAX_THREADS = 64  # most worker threads a plan may ask for
MAX_SWEEP_STEPS = 1000  # most grid steps per side of a homotopy sweep
DEFAULT_LINEAR_STEP = 0.05  # grid step of a linear homotopy unless one is given
DEFAULT_SIMPLICIAL_STEP = 1 / 16  # grid step of a simplicial homotopy unless one is given
BOX_RANGE = (2.0**-99, 2.0**150)  # box sizes whose case-4 values stay normal; see SamplePlan
A_ROWS = (2, 5, 8, 11)  # kappa rows of k3, k6, k9 and k12, all that a = k3*k12 - k6*k9 reads
_draws = threading.local()  # each thread's reused (5, tile) draw buffer and 12 row generators


@dataclass(frozen=True)
class SamplePlan:
    """Sampling configuration for one experiment run.

    ``target_case4_samples``, ``seed`` and ``threads`` are integers, Python's
    or numpy's; any other type, a bool included, raises ValueError, and so
    does a bool ``box_size``.  ``threads`` (1 to ``MAX_THREADS``) sets how
    many worker threads draw blocks; it never changes the sample stream,
    which depends only on the seed and the box size.

    ``box_size`` N must lie in ``BOX_RANGE`` = [2^-99, 2^150].  There no draw
    can push a, b, a coefficient or c_m, nor any left-to-right product that
    computes them, out of the normal float64 range [2^-1022, 2^1024).  With
    u = 2^-53:

    - Each k = N*(1-U) lies in [N*u, N], because 1-U lies in [u, 1].  Each
      K = (k_b + k_c)/k_a lies in [2^-52, 2^54] for every N, and each sum
      K1+K4 or K2+K3 in [2^-51, 2^55].
    - a = k3*k12 - k6*k9 > 0 is a difference of two floats, so it is at least
      one ulp of the smaller, and an ulp of y exceeds u*y: a lies in
      [u*k6*k9, k3*k12].  Likewise |b| lies in [u*(K2+K3)*k3*k12,
      (K1+K4)*k6*k9] when b < 0.  So a and b each carry a *cancellation
      factor* in [u, 1].
    - Every one of these values is a product of at most five k's (each
      coefficient and c_m is homogeneous of degree 5 in N) and of K-factors:
      K's, K sums, the constant 2 and a cancellation factor.  The K-factors
      of any value multiply to within [2^-260, 2^270].  The extremes are K^5
      in A1, A2 and B1, and (K2+K3)*K1*K2*K3*u = 2^-51 * 2^-156 * 2^-53 in c_m.
    - A partial product takes a subset of these factors, so it is at least
      the product of min(1, lower bound) over all of them and at most the
      product of max(1, upper bound).  Every partial product thus lies in
      [2^-260 * min(1, N*u)^5, 2^270 * max(1, N)^5].

    At N = 2^-99 the lower end is 2^-1020 and at N = 2^150 the upper end is
    2^1020.  Both lie at least a factor 4 inside the normal range, far more
    than the (1 +- u)^15 drift of the roundings in any one value.
    """

    box_size: float = 1.0
    target_case4_samples: int = 1_000_000
    seed: int = 42
    threads: int = 1

    def __post_init__(self):
        for name in ("target_case4_samples", "seed", "threads"):
            if not isinstance(value := getattr(self, name), numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.target_case4_samples < 1:
            raise ValueError("target_case4_samples must be >= 1")
        if isinstance(self.box_size, (bool, np.bool_)) or not BOX_RANGE[0] <= self.box_size <= BOX_RANGE[1]:
            raise ValueError(f"box_size must be in [2**-99, 2**150], got {self.box_size}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ValueError(f"threads must be in [1, {MAX_THREADS}], got {self.threads}")


_NOT_FLOAT64 = "a coefficient or c_m is 0 or not finite in float64"


class CoverEvaluator:
    """Vectorized Theta sums and hit masks of some pure covers, one table row per distinct simplex.

    ``cover_ids`` picks at least one cover, all 16 by default, each an id
    that ``covers.cover_fixture`` accepts; ``self.cover_ids`` holds them in
    id order without repeats.  The 16 covers use 66 simplex blocks but only
    21 distinct simplices, and an evaluator keeps the ``_compiled_simplex``
    records of its own covers' (10 for covers 4, 9 and 15).  Each is
    evaluated once by ``circuits.theta_rows``, on a batch's rows or on one
    point's floats, and each cover adds its simplices left to right, so a
    sample gets the same bits in any batch, as a point, from any evaluator
    and from ``cover_theta_sum``.  ``hit_masks`` is the one float64 check
    and verdict of a Monte-Carlo block and of a ``certify`` point.
    """

    def __init__(self, cover_ids=range(1, 17)):
        wanted = set(map(cover_fixture, cover_ids))  # ValueError unless each id is an integer in 1..16
        if not wanted:
            raise ValueError("an evaluator needs at least one cover id")
        self.covers = [cover for cover in all_covers() if cover in wanted]
        self.cover_ids = tuple(cover.id for cover in self.covers)
        rows: dict = {}
        self._cover_rows = [operator.itemgetter(*(rows.setdefault(s, len(rows)) for s in cover.simplices))
                            for cover in self.covers]  # every cover has at least 4 simplices
        self._table = [*map(_compiled_simplex, rows)]  # looked up once, not on every call
        self._bits = 1 << np.arange(len(self.covers))

    def theta_sums(self, log_coeffs: np.ndarray) -> np.ndarray:
        """(covers, k) Theta sums from a (10, k) array of log coefficients; a (10,) column gives (covers,)."""
        thetas = theta_rows(self._table, log_coeffs)
        # left to right: ``sum`` adds Python floats with compensation from Python 3.12 on
        return np.array([functools.reduce(operator.add, rows(thetas)) for rows in self._cover_rows])

    def hit_masks(self, coeffs: np.ndarray, c_m):
        """(hit masks, Theta sums, -c_m) of case-4 samples: a Monte-Carlo block or a ``certify`` point.

        ``coeffs`` is (10, k) and ``c_m`` (k,), which give (k,) masks and a
        (covers, k) array.  A point's (10,) column and float c_m are decided
        on Python floats, as ``theta_rows`` takes a point's exponents: they
        give an int mask and a list of floats.  Bit j of a mask is set iff
        cover ``cover_ids[j]``'s Theta sum is >= -c_m.  FloatingPointError
        unless every coefficient and c_m is finite and nonzero, which no
        sample of a box in ``BOX_RANGE`` fails.
        """
        if coeffs.ndim == 1:
            if not all(v != 0 and math.isfinite(v) for v in [*coeffs.tolist(), c_m]):
                raise FloatingPointError(_NOT_FLOAT64)
            sums, neg_cm = self.theta_sums(np.log(coeffs)).tolist(), -c_m
            return sum(1 << j for j, s in enumerate(sums) if s >= neg_cm), sums, neg_cm
        if not all(np.isfinite(values).all() and np.asarray(values).all() for values in (coeffs, c_m)):
            raise FloatingPointError(_NOT_FLOAT64)
        theta, neg_cm = self.theta_sums(np.log(coeffs)), -c_m
        return self._bits @ (theta >= neg_cm), theta, neg_cm


def _row_generators(seed: int, block: int) -> list:
    """This thread's 12 generators, re-keyed for one raw block.

    Kappa row r's generator is Philox keyed by (seed, block) at counter
    r*RAW_BLOCK/4, the row's first counter in the block's one stream; an
    empty buffer (``buffer_pos`` 4) makes its bits those of a new
    ``Philox(key=..., counter=...)``, which would cost a ``SeedSequence`` each.
    """
    if (rngs := getattr(_draws, "rngs", None)) is None:
        rngs = _draws.rngs = [Generator(Philox()) for _ in range(12)]
    key = [int(seed), int(block)]
    for row, rng in enumerate(rngs):
        rng.bit_generator.state = {
            "bit_generator": "Philox", "state": {"counter": [row * RAW_BLOCK // 4, 0, 0, 0], "key": key},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rngs


def _to_kappa(u: np.ndarray, box_size: float) -> np.ndarray:
    """Uniform draws U turned in place into kappa = N*(1-U), so every component is > 0."""
    np.subtract(1.0, u, out=u)
    if box_size != 1.0:  # x*1.0 == x bit for bit for every finite x
        u *= box_size
    return u


def _classified_tile(rngs: list, buffer: np.ndarray, box_size: float):
    """(eta, a, b) of the case-4 samples in the next ``buffer.shape[1]`` columns of a block.

    k3, k6, k9 and k12 are drawn into the first four rows of ``buffer``, and
    only the columns with a > 0 go on; once their k's are copied out, those
    rows are spent.  ``model._reduced`` forms eta's rows: each k_on and k_off
    row it reads is drawn into the last row and compressed to those columns
    into the first, where it becomes kappa.  ``_reduced`` holds such a row
    only while it forms that K, so one slot serves all eight, and no tile
    allocates a row for them.  ``is_case4`` decides on the survivors, so the
    samples keep raw-column order.
    """
    a_rows, scratch = buffer[:len(A_ROWS)], buffer[-1]
    for row, out in zip(A_ROWS, a_rows):
        rngs[row].random(out=out)
    a = a_value(*_to_kappa(a_rows, box_size))
    survivors = np.flatnonzero(a > 0)
    a = a.take(survivors)
    k_cat = dict(zip(A_ROWS, a_rows.take(survivors, axis=1)))  # k3, k6, k9 and k12 of the survivors
    slot = buffer[0, :survivors.size]

    def drawn(row):  # any other kappa row at the survivors, drawn as ``_reduced`` reads it, not kept
        rngs[row].random(out=scratch)
        # mode="clip" changes nothing for in-range indices, and unlike "raise" it takes into ``out`` unbuffered
        return _to_kappa(scratch.take(survivors, out=slot, mode="clip"), box_size)

    rows = _reduced(lambda row: k_cat[row] if row in k_cat else drawn(row))
    b = b_value(rows)
    accepted = np.flatnonzero(is_case4(a, b))
    eta = np.empty((8, accepted.size))
    for row, out in zip(rows, eta):
        row.take(accepted, out=out)
    return eta, a[accepted], b[accepted]


def classified_block(seed: int, block: int, box_size: float, tile: int = RAW_BLOCK):
    """The case-4 samples (a > 0, b < 0) of one raw block as (eta, a, b), eta of shape (8, k).

    Row r of the block's (12, RAW_BLOCK) kappa is the r-th run of RAW_BLOCK
    draws of one Philox stream keyed by (seed, block), and since Philox is
    counter-based each row has its own generator (``_row_generators``).  The
    block is filtered ``tile`` columns at a time (``_classified_tile``), a
    divisor of ``RAW_BLOCK`` (ValueError otherwise), in the thread's one
    reused (5, tile) draw buffer, so no block faults in fresh draw rows; the
    tiles' samples are joined in column order, and no returned array aliases
    the buffer.
    """
    if tile < 1 or RAW_BLOCK % tile:
        raise ValueError(f"tile must divide RAW_BLOCK = {RAW_BLOCK}, got {tile}")
    if (buffer := getattr(_draws, "buffer", None)) is None or buffer.shape[1] != tile:
        buffer = _draws.buffer = np.empty((len(A_ROWS) + 1, tile))
    rngs = _row_generators(seed, block)
    tiles = [_classified_tile(rngs, buffer, box_size) for _ in range(RAW_BLOCK // tile)]
    return tuple(np.concatenate(parts, axis=-1) for parts in zip(*tiles))


def _accepted_blocks(plan: SamplePlan, task):
    """``task(eta, a, b)`` on the case-4 samples of raw blocks 0, 1, 2, ... until the target is reached.

    Each block is drawn by ``classified_block``: ``TILE`` columns at a time
    inline, so the draw buffer stays in cache, and whole on a pool; the width
    changes no bit.  Pool tiles lost where they were measured (2-core VM, n =
    10^6, two threads): 16,384-column tiles took a median 0.76 s against
    0.68 s for whole blocks (+12%, 6 pairs), and 32,768-column tiles 0.75 s
    against 0.62 s (+20%, 10 pairs).  With 32,768-column tiles a run took
    37-71k minor faults instead of at most 12k, and 7.5-8.6k voluntary
    context switches instead of 4-6k.

    A task returns a raw block's accepted samples as arrays, samples on the
    last axis; one item per raw block, so callers can count raw draws.  Only
    the last is truncated, to exactly ``target_case4_samples`` samples.  One
    thread runs blocks inline; a pool starts them ahead only while those in
    flight, at the acceptance seen so far, fall short of the samples still
    needed.  Until the first returns it starts one per thread, but no more
    than the target needs if every draw were accepted; after that at most
    ``LOOKAHEAD_PER_THREAD`` per thread.  Any not yet started when the
    stream closes are cancelled.
    """
    tile = TILE if plan.threads == 1 else RAW_BLOCK

    def run(block):
        return task(*classified_block(plan.seed, block, plan.box_size, tile))

    pool = ThreadPoolExecutor(max_workers=plan.threads) if plan.threads > 1 else None
    ahead = deque()
    remaining = plan.target_case4_samples
    first_wave = min(plan.threads, -(-remaining // RAW_BLOCK))  # a block yields <= RAW_BLOCK samples
    try:
        for block in count():
            if pool is None:
                item = run(block)
            else:
                accepted = plan.target_case4_samples - remaining
                while len(ahead) < LOOKAHEAD_PER_THREAD * plan.threads and (
                        len(ahead) * accepted < remaining * block if block
                        else len(ahead) < first_wave):
                    ahead.append(pool.submit(run, block + len(ahead)))
                item = ahead.popleft().result()
            if item[0].shape[-1] >= remaining:
                yield tuple(x[..., :remaining] for x in item)
                return
            remaining -= item[0].shape[-1]
            yield item
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


@dataclass
class CoverHitMatrix:
    """The histogram of a run's hit masks over the covers it evaluated.

    Bit j of a mask is set iff cover ``cover_ids[j]`` certified the sample;
    ``masks`` lists the distinct masks in ascending order and ``mask_counts``
    how often each occurs; every joint count is computed from these two, and
    a run reports no count for a cover it did not evaluate.  For the covers
    in ``keep_theta``, ``n_always`` counts the samples every convex weighting
    certifies, and ``mixed_theta`` and ``mixed_neg_cm`` hold the Theta sums
    and -c_m of the *mixed* samples (see ``_classify``).
    """

    masks: np.ndarray
    mask_counts: np.ndarray
    raw_draws: int
    plan: SamplePlan
    cover_ids: tuple[int, ...]
    n_always: int
    mixed_theta: dict[int, np.ndarray]
    mixed_neg_cm: np.ndarray

    @property
    def n(self) -> int:
        return int(self.mask_counts.sum())

    @property
    def mask_bits(self) -> np.ndarray:
        """(distinct masks, covers) 0/1 matrix; column j is cover ``cover_ids[j]``'s hit bit."""
        return (self.masks[:, None] >> np.arange(len(self.cover_ids))) & 1

    @property
    def counts(self) -> np.ndarray:
        """Samples certified by each evaluated cover, in ``cover_ids`` order."""
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


def evaluate_covers(plan: SamplePlan, keep_theta=()) -> CoverHitMatrix:
    """Run the sampling plan; each block's task computes its hit masks, the consumer counts them.

    The run evaluates exactly the covers in ``keep_theta``, or all 16 when it
    is empty, and each truncated block is classified against all covers in
    ``keep_theta``.  Min and max Theta over any subset lie between those over
    the whole set, so a sweep over any of these covers stays exact.
    """
    keep_theta = tuple(keep_theta)
    evaluator = CoverEvaluator(keep_theta or range(1, 17))  # ValueError unless ids in 1..16
    ids = evaluator.cover_ids
    kept_rows = len(ids) if keep_theta else 0

    def task(eta, a, b):
        mask, theta, neg_cm = evaluator.hit_masks(*hex_coefficient_arrays(eta, a, b))
        return mask, theta[:kept_rows], neg_cm
    histogram, n_always, kept = np.zeros(1 << len(ids), dtype=np.int64), 0, [np.empty((kept_rows + 1, 0))]
    for blocks, (mask, theta, neg_cm) in enumerate(_accepted_blocks(plan, task), 1):
        histogram += np.bincount(mask, minlength=histogram.size)
        if keep_theta:
            always, mixed = _classify(theta, neg_cm)
            n_always += always
            kept.append(np.vstack([theta[:, mixed], neg_cm[mixed]]))
    *mixed_theta, mixed_neg_cm = np.concatenate(kept, axis=1)
    return CoverHitMatrix(
        masks=np.flatnonzero(histogram),
        mask_counts=histogram[histogram != 0],
        raw_draws=blocks * RAW_BLOCK,
        plan=plan,
        cover_ids=ids,
        n_always=n_always,
        mixed_theta=dict(zip(ids, mixed_theta)),
        mixed_neg_cm=mixed_neg_cm,
    )


def _require_all_covers(matrix: CoverHitMatrix) -> None:
    """ValueError unless the run evaluated all 16 covers, as the two reports need."""
    if matrix.cover_ids != tuple(range(1, 17)):
        raise ValueError(f"the report needs all 16 covers; the run evaluated {matrix.cover_ids}")


@dataclass(frozen=True)
class ComparisonRecord:
    """Per-cover hit bookkeeping against a baseline cover."""

    cover_id: int
    plus: int    # certified by cover but not by baseline
    minus: int   # certified by baseline but not by cover
    zero: int    # certified by neither


def compare_vs_baseline(matrix: CoverHitMatrix, baseline: int = 9) -> list[ComparisonRecord]:
    _require_all_covers(matrix)
    cover_fixture(baseline)  # ValueError unless the id is in 1..16
    bits = matrix.mask_bits.astype(bool)
    base = bits[:, [baseline - 1]]
    weights = matrix.mask_counts
    plus, minus, zero = (weights @ (bits & ~base), weights @ (base & ~bits),
                         weights @ ~(bits | base))
    return [ComparisonRecord(cover_id=cid, plus=int(plus[cid - 1]),
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


def check_containment_threshold(threshold: int) -> None:
    """ValueError unless ``threshold`` is an integer >= 0, Python's or numpy's but not a bool."""
    if not isinstance(threshold, numbers.Integral) or isinstance(threshold, bool) or threshold < 0:
        raise ValueError(f"threshold must be an integer >= 0, got {threshold!r}")


def containment_analysis(matrix: CoverHitMatrix, threshold: int = 0) -> ContainmentReport:
    """|A\\B| counts, containment edges, uniqueness, and the Hasse reduction.

    ValueError unless the run evaluated all 16 covers and ``threshold`` is an integer >= 0.
    """
    _require_all_covers(matrix)
    check_containment_threshold(threshold)
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


SWEEP_SLACK = 16 * 2.0**-52  # relative slack of the sweep prune, derived in ``_classify``
_WEIGHT_SUM_TOL = 4 * 2.0**-52  # the prune needs grid weights summing to 1 within this
_PRUNE_RANGE = (2.0**-960, 2.0**960)  # the prune classifies only inside this range


def sweep_steps(step: float) -> int:
    """Grid steps per side for a homotopy step size; ValueError unless it divides 1 evenly."""
    if not 0 < step <= 1:
        raise ValueError(f"step must be in (0, 1], got {step}")
    steps = round(min(1.0 / step, MAX_SWEEP_STEPS + 1))  # 1/step can overflow for a subnormal step
    if steps > MAX_SWEEP_STEPS:
        raise ValueError(f"step {step} gives more than {MAX_SWEEP_STEPS} grid steps")
    if abs(steps * step - 1.0) > 1e-9:
        raise ValueError(f"step {step} does not divide 1 evenly")
    return steps


def _hits(weights, thetas, neg_cm) -> int:
    """Samples with w_0*Theta_0 + w_1*Theta_1 (+ w_2*Theta_2) >= -c_m, summed left to right."""
    total = weights[0] * thetas[0]
    for w, theta in zip(weights[1:], thetas[1:]):
        total = total + w * theta
    return int(np.count_nonzero(total >= neg_cm))


def _classify(thetas, neg_cm: np.ndarray) -> tuple[int, np.ndarray]:
    """(number of *always* samples, mask of *mixed* samples) by each sample's extreme Thetas.

    A sample is *always* certified when min Theta >= -c_m*(1+d), *never* when
    max Theta < -c_m*(1-d), with d = SWEEP_SLACK; a sweep evaluates only the
    *mixed* rest per weight tuple, with the same float expression as ``_hits``.

    Why d = 16*2^-52 keeps the counts exact: let u = 2^-53.  If the weights
    are >= 0 and ``math.fsum`` puts their sum within 4*2^-52 = 8u of 1, their
    exact sum W is within eta ~ 9u of 1.  The expression has at most 3
    products and 2 additions of nonnegative numbers, each rounded once, so it
    returns V with W*min Theta*(1-u)^3 <= V <= W*max Theta*(1+u)^3, and the
    thresholds -c_m*(1+-d) are rounded once more.  So an *always* sample has
    V >= -c_m*(1+d)(1-u)^4(1-eta) >= -c_m, and a *never* sample V <
    -c_m*(1-d)(1+u)^4(1+eta) <= -c_m, whenever d >= 4u + eta + O(u^2) ~ 13u;
    d = 32u leaves more than twice that.  Only samples with -c_m in
    ``_PRUNE_RANGE`` are classified, and *always* needs max Theta in it too,
    so nothing overflows, underflow errs by less than 2^-110 of -c_m, and an
    inf or NaN Theta leaves its sample mixed.
    """
    low, high = _PRUNE_RANGE
    prunable = (neg_cm >= low) & (neg_cm <= high)
    lo, hi = functools.reduce(np.minimum, thetas), functools.reduce(np.maximum, thetas)
    always = prunable & (lo >= neg_cm * (1.0 + SWEEP_SLACK)) & (hi <= high)
    never = prunable & (hi < neg_cm * (1.0 - SWEEP_SLACK))
    return int(np.count_nonzero(always)), ~(always | never)


def _sweep(matrix: CoverHitMatrix, cover_ids, weights) -> list[int]:
    """Counts of ``_hits`` at each weight tuple: the run's *always* samples plus its mixed hits.

    ValueError unless the run kept the covers and each tuple is a convex
    combination, >= 0 with a ``math.fsum`` within 4*2^-52 of 1, as the bound
    in ``_classify`` needs.
    """
    for cid in cover_ids:
        if cid not in matrix.mixed_theta:
            raise ValueError(f"run did not retain Theta sums for cover {cid}")
    for w in weights:
        if not (min(w) >= 0 and abs(math.fsum(w) - 1.0) <= _WEIGHT_SUM_TOL):
            raise ValueError(f"weights {w} are not a convex combination")
    thetas = [matrix.mixed_theta[cid] for cid in cover_ids]
    return [matrix.n_always + _hits(w, thetas, matrix.mixed_neg_cm) for w in weights]


def linear_homotopy(matrix: CoverHitMatrix, a: int, b: int, dt: float = DEFAULT_LINEAR_STEP) -> HomotopyCurve:
    """Hit ratios of (1-t)*Theta(a) + t*Theta(b) >= -c_m on the stored stream."""
    steps = sweep_steps(dt)
    ts = [k / steps for k in range(steps + 1)]
    counts = _sweep(matrix, (a, b), [(1.0 - t, t) for t in ts])
    return HomotopyCurve((a, b), tuple((t,) for t in ts), tuple(k / matrix.n for k in counts))


def simplicial_homotopy(matrix: CoverHitMatrix, a: int, b: int, c: int,
                        delta: float = DEFAULT_SIMPLICIAL_STEP) -> HomotopyCurve:
    """Ratios of s*Theta(a) + t*Theta(b) + (1-s-t)*Theta(c) over the triangle grid.

    1-s-t is clamped at 0: on the hypotenuse it can round to -2^-53.
    """
    steps = sweep_steps(delta)
    grid = [(i / steps, j / steps) for i in range(steps + 1) for j in range(steps + 1 - i)]
    counts = _sweep(matrix, (a, b, c), [(s, t, max(0.0, 1.0 - s - t)) for s, t in grid])
    return HomotopyCurve((a, b, c), tuple(grid), tuple(k / matrix.n for k in counts))


def case4_eta_points(n: int, seed: int = 0, box_size: float = 1.0):
    """The first n accepted case-4 samples of a stream, as EtaPoint objects."""
    plan = SamplePlan(box_size=box_size, target_case4_samples=n, seed=seed)
    blocks = _accepted_blocks(plan, lambda *block: block)
    return [EtaPoint(*column) for eta, _, _ in blocks for column in eta.T.tolist()]


def binomial_sigma(p: float, n: int) -> float:
    """Standard error of a ratio estimate."""
    return math.sqrt(p * (1.0 - p) / n)
