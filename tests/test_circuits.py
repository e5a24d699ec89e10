"""Circuit numbers, cover sums, the toy weighted split, and the soundness oracle."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hexcover.circuits import (
    CircuitSupport,
    NotACircuitError,
    circuit_number,
    cover_theta_sum,
    is_nonnegative,
    optimize_scalar_weight,
)
from hexcover.cli import toy_split
from hexcover.covers import cover_fixture
from hexcover.geometry import (
    HEXAGON_POSITIVE,
    M,
    POINT_INDEX,
    DegenerateSimplexError,
    LatticePoint,
    Simplex,
    barycentric_coordinates,
    contains_in_relative_interior,
)

TRIANGLE = Simplex((LatticePoint(4, 2), LatticePoint(2, 0), LatticePoint(0, 1)))
SEGMENT = Simplex((LatticePoint(1, 0), LatticePoint(3, 2)))

positive = st.floats(min_value=1e-3, max_value=1e3)


def unit_support(simplex, interior=M, c=0.0):
    return CircuitSupport(simplex, interior, {v: 1.0 for v in simplex}, c)


def test_theta_equals_three():
    assert abs(circuit_number(unit_support(TRIANGLE)) - 3.0) <= 1e-12


def test_segment_theta_equals_two():
    assert abs(circuit_number(unit_support(SEGMENT)) - 2.0) <= 1e-12


@given(positive, positive, positive)
def test_triangle_theta_symbolic_form(a, b, c):
    support = CircuitSupport(TRIANGLE, M, dict(zip(TRIANGLE, (a, b, c))))
    expected = 3.0 * (a * b * c) ** (1.0 / 3.0)
    assert math.isclose(circuit_number(support), expected, rel_tol=1e-12)


def test_not_a_circuit_error():
    s = Simplex((LatticePoint(0, 0), LatticePoint(2, 0), LatticePoint(0, 1)))
    with pytest.raises(NotACircuitError):
        circuit_number(unit_support(s))


@pytest.mark.parametrize("coeffs", [
    {LatticePoint(4, 2): 1.0, LatticePoint(2, 0): 1.0},  # a vertex missing
    {LatticePoint(4, 2): 1.0, LatticePoint(2, 0): 1.0, LatticePoint(0, 1): 1.0, M: 1.0},  # not a vertex
])
def test_support_keys_must_be_the_simplex_vertices(coeffs):
    with pytest.raises(ValueError, match="exactly the simplex vertices"):
        CircuitSupport(TRIANGLE, M, coeffs)


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan])
def test_support_coefficients_must_be_positive(c):
    with pytest.raises(ValueError, match="must be positive"):
        CircuitSupport(TRIANGLE, M, dict(zip(TRIANGLE, (1.0, c, 1.0))))


def test_nonnegativity_threshold():
    assert is_nonnegative(unit_support(TRIANGLE, c=-3.0))
    assert not is_nonnegative(unit_support(TRIANGLE, c=-(3.0 + 1e-6)))
    # positive "negative" coefficient: trivially nonnegative
    assert is_nonnegative(unit_support(TRIANGLE, c=5.0))


def test_hexagon_circuit_closed_form():
    # the single-circuit certificate on {a2, a6, a4} with interior m reduces
    # to -b*P <= 3*P*cbrt(K1*K4^2*k6^2*k9^2*a) with P = K1*K2*K3*k3*k6*k12
    from hexcover.model import EtaPoint, ab_values, hex_coefficients, negative_prefactor
    from hexcover.experiment import case4_eta_points

    tri = Simplex((LatticePoint(2, 0), LatticePoint(0, 1), LatticePoint(4, 2)))
    for eta in case4_eta_points(20, seed=11):
        coeffs, c_m = hex_coefficients(eta)
        a, b = ab_values(eta)
        P = negative_prefactor(eta)
        support = CircuitSupport(tri, M, {v: coeffs[POINT_INDEX[v]] for v in tri}, c_m)
        rhs = 3.0 * P * (eta.K1 * eta.K4**2 * eta.k6**2 * eta.k9**2 * a) ** (1 / 3)
        assert math.isclose(circuit_number(support), rhs, rel_tol=1e-12)
        assert is_nonnegative(support) == (-b * P <= rhs)


def test_cover_theta_sum_all_ones():
    # five-segment cover whose segments all have m as midpoint: 5 * 2 = 10
    midpoint_cover = cover_fixture(16)
    for s in midpoint_cover.simplices:
        lam = barycentric_coordinates(s, M)
        assert set(lam) == {type(lam[0])(1, 2)}
    ones = np.ones(len(HEXAGON_POSITIVE))
    assert math.isclose(cover_theta_sum(midpoint_cover, ones), 10.0, rel_tol=1e-12)
    # the barycentric two-triangle cover: 3 + 3 + 2 + 2 = 10
    assert math.isclose(cover_theta_sum(cover_fixture(9), ones), 10.0, rel_tol=1e-12)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_cover_theta_sum_homogeneous(t):
    ones = np.ones(len(HEXAGON_POSITIVE))
    scaled = np.full(len(HEXAGON_POSITIVE), t)
    base = cover_theta_sum(cover_fixture(9), ones)
    assert math.isclose(cover_theta_sum(cover_fixture(9), scaled), t * base, rel_tol=1e-12)


def test_cover_theta_sum_rejects_nonpositive():
    def column_with(value):
        column = np.ones(len(HEXAGON_POSITIVE))
        column[POINT_INDEX[LatticePoint(0, 0)]] = value
        return column

    for bad in (column_with(0.0), column_with(-1.0), column_with(math.nan), np.ones(9),
                np.ones((len(HEXAGON_POSITIVE), 1))):
        with pytest.raises(ValueError):
            cover_theta_sum(cover_fixture(9), bad)


# ------------------------------------------------------- toy weighted split


def test_toy_weighted_optimum():
    w_opt, value = optimize_scalar_weight(toy_split)
    assert abs(w_opt - 0.5497) <= 1e-3
    assert abs(value - 3.7996) <= 1e-3


def test_optimizer_constant_and_linear():
    _, value = optimize_scalar_weight(lambda t: 7.0)
    assert value == 7.0
    w, value = optimize_scalar_weight(lambda t: (1 - t) * 10.0 + t * 8.0)
    assert w == 0.0 and value == 10.0


def test_optimizer_returns_for_zero_and_negative_tol():
    # below the float spacing the golden points stop moving; a subprocess turns a hang into a failure
    code = ("from hexcover.circuits import optimize_scalar_weight\n"
            "for tol in (0.0, -1.0):\n"
            "    w, value = optimize_scalar_weight(lambda t: -(t - 0.3) ** 2, tol=tol)\n"
            "    assert abs(w - 0.3) <= 1e-6 and value <= 0.0, (tol, w, value)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


# -------------------------------------------------------------- properties


@given(st.permutations(range(3)), positive, positive, positive)
def test_circuit_number_permutation_invariant(perm, a, b, c):
    coeffs = dict(zip(TRIANGLE, (a, b, c)))
    base = circuit_number(CircuitSupport(TRIANGLE, M, coeffs))
    shuffled = Simplex(TRIANGLE[i] for i in perm)
    assert math.isclose(circuit_number(CircuitSupport(shuffled, M, coeffs)), base,
                        rel_tol=1e-12)


@given(positive, positive, positive, st.sampled_from([0.5, 2.0, 10.0]))
def test_coefficient_homogeneity(a, b, c, k):
    coeffs = dict(zip(TRIANGLE, (a, b, c)))
    scaled = {v: k * x for v, x in coeffs.items()}
    assert math.isclose(
        circuit_number(CircuitSupport(TRIANGLE, M, scaled)),
        k * circuit_number(CircuitSupport(TRIANGLE, M, coeffs)),
        rel_tol=1e-12)


@given(positive, positive)
def test_amgm_segment(a, b):
    seg = Simplex((LatticePoint(1, 0), LatticePoint(3, 2)))
    theta = circuit_number(CircuitSupport(seg, M, dict(zip(seg, (a, b)))))
    assert math.isclose(theta, 2.0 * math.sqrt(a * b), rel_tol=1e-12)
    assert theta <= a + b + 1e-12 * (a + b)


def test_soundness_on_random_circuits(rng):
    """Certified circuits stay nonnegative on a log grid over (x1, x3)."""
    simplices = []
    for k in (2, 3):
        for verts in itertools.combinations(HEXAGON_POSITIVE, k):
            try:
                s = Simplex(verts)
            except DegenerateSimplexError:
                continue
            if contains_in_relative_interior(s, M):
                simplices.append(s)
    grid = np.logspace(-3, 3, 60)
    x1, x3 = np.meshgrid(grid, grid, indexing="ij")
    certified = 0
    for _ in range(1000):
        s = simplices[rng.integers(len(simplices))]
        coeffs = {v: float(c) for v, c in zip(s, rng.uniform(1e-6, 10.0, len(s)))}
        theta = circuit_number(CircuitSupport(s, M, coeffs))
        c_m = -float(rng.uniform(0.0, 1.5)) * theta
        support = CircuitSupport(s, M, coeffs, c_m)
        if not is_nonnegative(support):
            continue
        certified += 1
        value = c_m * x1**M.x * x3**M.z
        scale = np.abs(value)
        for v, c in coeffs.items():
            term = c * x1**v.x * x3**v.z
            value = value + term
            scale = np.maximum(scale, term)
        assert (value >= -1e-9 * scale).all()
    assert certified > 300  # the acceptance probability is ~2/3 by construction
