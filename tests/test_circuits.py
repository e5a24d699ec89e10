"""Circuit numbers, cover sums, the toy weighted split, and the soundness oracle."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hexcover.circuits import (
    CircuitSupport,
    NotACircuitError,
    circuit_number,
    cover_theta_sum,
    is_nonnegative,
)
from hexcover.cli import toy_optimum, toy_split
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
    with pytest.raises(NotACircuitError):
        is_nonnegative(unit_support(s, c=-1.0))


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


@pytest.mark.parametrize("simplex, tie", [
    (TRIANGLE, 3.0),
    (Simplex((LatticePoint(0, 0), LatticePoint(4, 2))), 2.0),  # the segment (a1, a4)
])
def test_nonnegativity_exact_at_the_tie(simplex, tie):
    """Unit coefficients make Theta exactly ``tie``: c up to it is certified, one ulp above is not."""
    below, above = math.nextafter(tie, 0.0), math.nextafter(tie, math.inf)
    assert is_nonnegative(unit_support(simplex, c=-below))
    assert is_nonnegative(unit_support(simplex, c=-tie))
    assert not is_nonnegative(unit_support(simplex, c=-above))
    assert not is_nonnegative(unit_support(simplex, c=-(tie + 4e-15)))


def test_nonnegativity_non_finite_and_huge():
    assert not is_nonnegative(unit_support(TRIANGLE, c=math.nan))
    assert not is_nonnegative(unit_support(TRIANGLE, c=-math.inf))
    assert is_nonnegative(unit_support(TRIANGLE, c=math.inf))
    assert is_nonnegative(CircuitSupport(TRIANGLE, M, dict(zip(TRIANGLE, (math.inf, 1.0, 1.0))), -1e300))
    # Theta = 3e308 is beyond float64, but the exact verdict takes no exp and warns of no overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_nonnegative(CircuitSupport(TRIANGLE, M, dict.fromkeys(TRIANGLE, 1e308), -1.7e308))


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
    w_opt, value = toy_optimum()
    assert abs(w_opt - 0.5497) <= 1e-3
    assert abs(value - 3.7996) <= 1e-3


def test_toy_optimum_solves_the_first_order_condition():
    """toy_split(w) = 3 w^(1/3) + 2 (1 - w)^(1/2), so its slope is w^(-2/3) - (1 - w)^(-1/2).

    The slope is 0 where (1 - w)^(1/2) = w^(2/3), that is where w^(4/3) + w = 1.
    """
    w_opt, value = toy_optimum()
    root = 0.5
    for _ in range(50):  # Newton on f(w) = w^(4/3) + w - 1, convex and increasing on (0, 1)
        root -= (root ** (4 / 3) + root - 1.0) / (4 / 3 * root ** (1 / 3) + 1.0)
    assert abs(w_opt - root) <= 1e-12
    assert value == toy_split(w_opt)
    assert all(value >= toy_split(k / 10_000) for k in range(10_001))


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
