"""Circuit numbers, cover sums, the toy weighted split, and the soundness oracle."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hexcover.circuits import NotACircuitError, _compiled_simplex, cover_theta_sum, is_nonnegative, theta_rows
from hexcover.cli import toy_optimum, toy_split
from hexcover.covers import all_covers, cover_fixture
from hexcover.geometry import (
    A1,
    A2,
    A4,
    A6,
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
ONES = np.ones(len(HEXAGON_POSITIVE))  # the (10,) coefficient column of a unit circuit

positive = st.floats(min_value=1e-3, max_value=1e3)


def column_on(simplex, values):
    """``ONES`` with ``values`` on ``simplex``'s vertices, in vertex order."""
    column = ONES.copy()
    column[[POINT_INDEX[v] for v in simplex]] = values
    return column


def test_theta_equals_three():
    assert abs(cover_theta_sum((TRIANGLE,), ONES) - 3.0) <= 1e-12


def test_segment_theta_equals_two():
    assert abs(cover_theta_sum((SEGMENT,), ONES) - 2.0) <= 1e-12


@given(positive, positive, positive)
def test_triangle_theta_symbolic_form(a, b, c):
    expected = 3.0 * (a * b * c) ** (1.0 / 3.0)
    assert math.isclose(cover_theta_sum((TRIANGLE,), column_on(TRIANGLE, (a, b, c))), expected,
                        rel_tol=1e-12)


def test_not_a_circuit_error():
    s = Simplex((LatticePoint(0, 0), LatticePoint(2, 0), LatticePoint(0, 1)))
    with pytest.raises(NotACircuitError):
        cover_theta_sum((s,), ONES)
    with pytest.raises(NotACircuitError):
        is_nonnegative(s, ONES, -1.0)


@pytest.mark.parametrize("coeffs", [
    np.ones(len(HEXAGON_POSITIVE) - 1),  # a hexagon point missing
    np.ones(len(HEXAGON_POSITIVE) + 1),  # one point more, such as m
])
def test_circuit_column_must_hold_the_ten_coefficients(coeffs):
    with pytest.raises(ValueError, match="ten positive coefficients"):
        is_nonnegative(TRIANGLE, coeffs, -1.0)


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan])
def test_support_coefficients_must_be_positive(c):
    with pytest.raises(ValueError, match="positive"):
        is_nonnegative(TRIANGLE, column_on(TRIANGLE, (1.0, c, 1.0)), -1.0)


def test_nonnegativity_threshold():
    assert is_nonnegative(TRIANGLE, ONES, -3.0)
    assert not is_nonnegative(TRIANGLE, ONES, -(3.0 + 1e-6))
    # positive "negative" coefficient: trivially nonnegative
    assert is_nonnegative(TRIANGLE, ONES, 5.0)


@pytest.mark.parametrize("simplex, tie", [
    (TRIANGLE, 3.0),
    (Simplex((LatticePoint(0, 0), LatticePoint(4, 2))), 2.0),  # the segment (a1, a4)
])
def test_nonnegativity_exact_at_the_tie(simplex, tie):
    """Unit coefficients make Theta exactly ``tie``: c up to it is certified, one ulp above is not."""
    below, above = math.nextafter(tie, 0.0), math.nextafter(tie, math.inf)
    assert is_nonnegative(simplex, ONES, -below)
    assert is_nonnegative(simplex, ONES, -tie)
    assert not is_nonnegative(simplex, ONES, -above)
    assert not is_nonnegative(simplex, ONES, -(tie + 4e-15))


def test_nonnegativity_non_finite_and_huge():
    assert not is_nonnegative(TRIANGLE, ONES, math.nan)
    assert not is_nonnegative(TRIANGLE, ONES, -math.inf)
    assert is_nonnegative(TRIANGLE, ONES, math.inf)
    assert is_nonnegative(TRIANGLE, column_on(TRIANGLE, (math.inf, 1.0, 1.0)), -1e300)
    # Theta = 3e308 is beyond float64, but the exact verdict takes no exp and warns of no overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_nonnegative(TRIANGLE, column_on(TRIANGLE, (1e308,) * 3), -1.7e308)
        # the same Theta is finite, so c = -inf is not certified; +inf is, and NaN is not
        assert not is_nonnegative(TRIANGLE, column_on(TRIANGLE, (1e308,) * 3), -math.inf)
        assert is_nonnegative(TRIANGLE, column_on(TRIANGLE, (1e308,) * 3), math.inf)
        assert not is_nonnegative(TRIANGLE, column_on(TRIANGLE, (1e308,) * 3), math.nan)


COVER_SIMPLICES = tuple(dict.fromkeys(s for cover in all_covers() for s in cover.simplices))
TOY_TRIANGLE, TOY_SEGMENT = Simplex((A4, A2, A6)), Simplex((A1, A4))


@pytest.mark.parametrize("simplex", [*COVER_SIMPLICES, TOY_TRIANGLE, TOY_SEGMENT],
                         ids=lambda s: "-".join(str(POINT_INDEX[v]) for v in s))
def test_compiled_record_holds_exact_and_float_lambdas(simplex):
    """p_i/q are the exact barycentrics of m; the float lambdas and const keep their bits."""
    record, lam = _compiled_simplex(simplex), barycentric_coordinates(simplex, M)
    terms, const, powers, q = record
    assert tuple(Fraction(p, q) for p in powers) == lam
    assert q == math.lcm(*(l.denominator for l in lam))
    floats = tuple(map(float, lam))
    assert terms == tuple(zip([POINT_INDEX[v] for v in simplex], floats))
    assert const == -sum(l * math.log(l) for l in floats)
    assert _compiled_simplex(simplex) is record


def test_cover_theta_sum_takes_any_iterable_of_simplices():
    column = np.exp(np.random.default_rng(5).uniform(-5.0, 5.0, len(HEXAGON_POSITIVE)))
    cover = cover_fixture(9).simplices
    assert cover_theta_sum(list(cover), column) == cover_theta_sum(cover, column)
    assert cover_theta_sum(iter(cover), column) == cover_theta_sum(cover, column)
    assert len(COVER_SIMPLICES) == 21
    for s in COVER_SIMPLICES:
        assert cover_theta_sum([s], column) == cover_theta_sum((s,), column)


def test_a_simplex_where_simplices_are_due_is_a_type_error():
    with pytest.raises(TypeError, match=r"LatticePoint\(x=4, z=2\)"):
        cover_theta_sum(TRIANGLE, ONES)
    with pytest.raises(TypeError, match="Simplex"):
        cover_theta_sum([tuple(TRIANGLE)], ONES)  # equal to TRIANGLE, but not a Simplex
    with pytest.raises(TypeError):
        is_nonnegative(tuple(TRIANGLE), ONES, -1.0)


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
        rhs = 3.0 * P * (eta.K1 * eta.K4**2 * eta.k6**2 * eta.k9**2 * a) ** (1 / 3)
        assert math.isclose(cover_theta_sum((tri,), coeffs), rhs, rel_tol=1e-12)
        assert is_nonnegative(tri, coeffs, c_m) == (-b * P <= rhs)


def test_cover_theta_sum_all_ones():
    # five-segment cover whose segments all have m as midpoint: 5 * 2 = 10
    midpoint_cover = cover_fixture(16)
    for s in midpoint_cover.simplices:
        lam = barycentric_coordinates(s, M)
        assert set(lam) == {type(lam[0])(1, 2)}
    ones = np.ones(len(HEXAGON_POSITIVE))
    assert math.isclose(cover_theta_sum(midpoint_cover.simplices, ones), 10.0, rel_tol=1e-12)
    # the barycentric two-triangle cover: 3 + 3 + 2 + 2 = 10
    assert math.isclose(cover_theta_sum(cover_fixture(9).simplices, ones), 10.0, rel_tol=1e-12)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_cover_theta_sum_homogeneous(t):
    ones = np.ones(len(HEXAGON_POSITIVE))
    scaled = np.full(len(HEXAGON_POSITIVE), t)
    base = cover_theta_sum(cover_fixture(9).simplices, ones)
    assert math.isclose(cover_theta_sum(cover_fixture(9).simplices, scaled), t * base, rel_tol=1e-12)


def test_cover_theta_sum_rejects_nonpositive():
    def column_with(value):
        column = np.ones(len(HEXAGON_POSITIVE))
        column[POINT_INDEX[LatticePoint(0, 0)]] = value
        return column

    for bad in (column_with(0.0), column_with(-1.0), column_with(math.nan), np.ones(9),
                np.ones((len(HEXAGON_POSITIVE), 1))):
        with pytest.raises(ValueError):
            cover_theta_sum(cover_fixture(9).simplices, bad)


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


# ------------------------------------------------------------- pinned bits


def test_toy_optimum_bits():
    assert toy_optimum() == (0.5497004779019701, 3.7996047535960713)


def test_unit_triangle_and_segment_bits():
    """float64 puts the unit triangle's exact 3 one ulp low; the (b1, b2) segment at (4, 9) gives 12."""
    assert cover_theta_sum((TRIANGLE,), ONES) == 2.9999999999999996
    assert cover_theta_sum((SEGMENT,), column_on(SEGMENT, (4.0, 9.0))) == 12.0


def test_point_theta_matches_batch_column_bits():
    """One simplex's Theta from a (10,) column has the bits of its (10, k) batch column."""
    batch = np.exp(np.random.default_rng(21).uniform(-20.0, 20.0, (len(HEXAGON_POSITIVE), 64)))
    rows = theta_rows([*map(_compiled_simplex, COVER_SIMPLICES)], np.log(batch))
    for s, row in zip(COVER_SIMPLICES, rows):
        for j, theta in enumerate(row.tolist()):
            assert cover_theta_sum((s,), batch[:, j]) == theta


# -------------------------------------------------------------- properties


@given(st.permutations(range(3)), positive, positive, positive)
def test_circuit_number_permutation_invariant(perm, a, b, c):
    coeffs = column_on(TRIANGLE, (a, b, c))
    base = cover_theta_sum((TRIANGLE,), coeffs)
    shuffled = Simplex(TRIANGLE[i] for i in perm)
    assert math.isclose(cover_theta_sum((shuffled,), coeffs), base, rel_tol=1e-12)


@given(positive, positive, positive, st.sampled_from([0.5, 2.0, 10.0]))
def test_coefficient_homogeneity(a, b, c, k):
    coeffs = column_on(TRIANGLE, (a, b, c))
    assert math.isclose(cover_theta_sum((TRIANGLE,), k * coeffs),
                        k * cover_theta_sum((TRIANGLE,), coeffs), rel_tol=1e-12)


@given(positive, positive)
def test_amgm_segment(a, b):
    seg = Simplex((LatticePoint(1, 0), LatticePoint(3, 2)))
    theta = cover_theta_sum((seg,), column_on(seg, (a, b)))
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
        values = rng.uniform(1e-6, 10.0, len(s))
        coeffs = column_on(s, values)
        theta = cover_theta_sum((s,), coeffs)
        c_m = -float(rng.uniform(0.0, 1.5)) * theta
        if not is_nonnegative(s, coeffs, c_m):
            continue
        certified += 1
        value = c_m * x1**M.x * x3**M.z
        scale = np.abs(value)
        for v, c in zip(s, values.tolist()):
            term = c * x1**v.x * x3**v.z
            value = value + term
            scale = np.maximum(scale, term)
        assert (value >= -1e-9 * scale).all()
    assert certified > 300  # the acceptance probability is ~2/3 by construction
