import numpy as np
import pytest

from hexcover import SamplePlan, evaluate_covers


@pytest.fixture(scope="session")
def small_run():
    """A shared 20k-sample run for the lightweight experiment tests."""
    plan = SamplePlan(box_size=1.0, target_case4_samples=20_000, seed=42)
    return evaluate_covers(plan, keep_theta=range(1, 17))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
