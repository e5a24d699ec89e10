from itertools import count

import numpy as np
import pytest
from numpy.random import Generator, Philox

from hexcover import SamplePlan, evaluate_covers
from hexcover.experiment import RAW_BLOCK, _accepted_blocks, classified_block
from hexcover.model import _reduced, ab_values, hex_coefficient_arrays, is_case4


def sample_case4(plan):
    """The plan's case-4 samples as (eta, coeffs, c_m), one item per raw block, with the block task's bits."""
    blocks = _accepted_blocks(
        plan, lambda block: classified_block(plan.seed, block, plan.box_size, plan.tile))
    for eta, a, b in blocks:  # the kernel works per element, so truncating first keeps every bit
        yield (eta, *hex_coefficient_arrays(eta, a, b))


@pytest.fixture(scope="session")
def small_run():
    """A shared 20k-sample run for the lightweight experiment tests."""
    plan = SamplePlan(box_size=1.0, target_case4_samples=20_000, seed=42)
    return evaluate_covers(plan, keep_theta=range(1, 17))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


def _stacked_block(seed, block, box_size, case):
    """A raw block's samples in ``case`` as (eta, a, b), by stacking all draws and masking.

    "case4" keeps a > 0 > b, as ``classified_block`` does; "case2" keeps
    a < 0, which the sampler never does.
    """
    kappa = 1.0 - Generator(Philox(key=[np.uint64(seed), np.uint64(block)])).random((12, RAW_BLOCK))
    kappa *= box_size
    eta = np.stack(_reduced(kappa))
    a, b = ab_values(eta)
    mask = is_case4(a, b) if case == "case4" else a < 0
    return eta[:, mask], a[mask], b[mask]


def _case2_etas(seed, n):
    """The first n case-2 samples (a < 0) of the raw blocks of ``seed`` at box 1, as one (8, n) array."""
    chunks, total = [], 0
    for block in count():
        if total >= n:
            return np.concatenate(chunks, axis=1)[:, :n]
        chunks.append(_stacked_block(seed, block, 1.0, "case2")[0])
        total += chunks[-1].shape[1]


@pytest.fixture(scope="session")
def stacked_block():
    """``stacked_block(seed, block, box_size, case)``: the reference for ``classified_block``."""
    return _stacked_block


@pytest.fixture(scope="session")
def case2_etas():
    """``case2_etas(seed, n)``: case-2 samples for the tests that need negative values."""
    return _case2_etas
