"""Exact-geometry unit tests with independent rational oracles."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hexcover.geometry import (
    HEXAGON_POSITIVE,
    M,
    DegenerateSimplexError,
    LatticePoint,
    Simplex,
    barycentric_coordinates,
    contains_in_relative_interior,
)


# --------------------------------------------------------------- oracles


def gauss_barycentrics(vertices, p):
    """Rational Gaussian elimination on the full (sum-to-one + coords) system."""
    n = len(vertices)
    rows = [
        [Fraction(1)] * n + [Fraction(1)],
        [Fraction(v.x) for v in vertices] + [Fraction(p.x)],
        [Fraction(v.z) for v in vertices] + [Fraction(p.z)],
    ]
    col = 0
    pivots = []
    for r in range(len(rows)):
        piv = next((i for i in range(r, len(rows)) if col < n and rows[i][col] != 0), None)
        while piv is None and col < n - 1:
            col += 1
            piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            # remaining rows must be all-zero for consistency
            if any(any(x != 0 for x in rows[i]) for i in range(r, len(rows))):
                return None
            break
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, col))
        col += 1
    sol = [Fraction(0)] * n
    for r, c in pivots:
        sol[c] = rows[r][n]
    # verify (handles the overdetermined segment case)
    if sum(sol) != 1:
        return None
    if sum(s * v.x for s, v in zip(sol, vertices)) != p.x:
        return None
    if sum(s * v.z for s, v in zip(sol, vertices)) != p.z:
        return None
    return tuple(sol)


def oracle_contains(vertices, p):
    """Sign-of-area / segment-parametrization relative-interior oracle."""
    if len(vertices) == 2:
        a, b = vertices
        # p strictly between a and b: collinear and strictly inside the bbox
        cross = (b.x - a.x) * (p.z - a.z) - (b.z - a.z) * (p.x - a.x)
        if cross != 0:
            return False
        dot = (p.x - a.x) * (b.x - a.x) + (p.z - a.z) * (b.z - a.z)
        length2 = (b.x - a.x) ** 2 + (b.z - a.z) ** 2
        return 0 < dot < length2
    a, b, c = vertices

    def area(u, v, w):
        return (v.x - u.x) * (w.z - u.z) - (v.z - u.z) * (w.x - u.x)

    total = area(a, b, c)
    if total == 0:
        return False
    signs = [area(p, b, c), area(a, p, c), area(a, b, p)]
    if total < 0:
        signs = [-s for s in signs]
    return all(s > 0 for s in signs)


# --------------------------------------------------------------- examples


def test_triangle_barycentrics_equal_thirds():
    s = Simplex((LatticePoint(4, 2), LatticePoint(2, 0), LatticePoint(0, 1)))
    lam = barycentric_coordinates(s, M)
    assert lam == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def test_segment_midpoint_barycentrics():
    s = Simplex((LatticePoint(1, 0), LatticePoint(3, 2)))
    lam = barycentric_coordinates(s, M)
    assert lam == (Fraction(1, 2), Fraction(1, 2))


def test_barycentrics_match_gaussian_elimination():
    s = Simplex((LatticePoint(0, 0), LatticePoint(2, 0), LatticePoint(3, 2)))
    lam = barycentric_coordinates(s, M)
    assert lam == gauss_barycentrics(s.vertices, M)


def test_relative_interior_examples():
    assert contains_in_relative_interior(Simplex((LatticePoint(0, 1), LatticePoint(4, 1))), M)
    assert not contains_in_relative_interior(
        Simplex((LatticePoint(0, 0), LatticePoint(2, 0), LatticePoint(0, 1))), M)
    assert contains_in_relative_interior(
        Simplex((LatticePoint(0, 0), LatticePoint(2, 0), LatticePoint(3, 2))), M)


def test_hexagon_points_canonical_order():
    assert HEXAGON_POSITIVE == (
        LatticePoint(0, 0), LatticePoint(2, 0), LatticePoint(4, 1), LatticePoint(4, 2),
        LatticePoint(2, 2), LatticePoint(0, 1), LatticePoint(1, 0), LatticePoint(3, 2),
        LatticePoint(1, 1), LatticePoint(3, 1),
    )
    assert M == LatticePoint(2, 1)


def _hull_indices(points):
    """Andrew monotone chain over integer points; returns hull vertex set."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a.x - o.x) * (b.z - o.z) - (a.z - o.z) * (b.x - o.x)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return set(half(pts) + half(pts[::-1]))


def test_alpha_points_are_hull_vertices():
    hull = _hull_indices([*HEXAGON_POSITIVE, M])
    assert hull == set(HEXAGON_POSITIVE[:6])


def test_hull_membership_of_non_vertices():
    # beta points sit on hull edges; iota points and m are strictly interior
    alphas = HEXAGON_POSITIVE[:6]
    edges = [(alphas[i], alphas[(i + 1) % 6]) for i in range(6)]

    def strictly_inside(p):
        # interior to some triangulation triangle, or interior to a diagonal
        tris = [(alphas[0], alphas[i], alphas[i + 1]) for i in range(1, 5)]
        diags = [(alphas[0], alphas[i]) for i in range(2, 5)]
        return (any(oracle_contains(t, p) for t in tris)
                or any(oracle_contains(d, p) for d in diags))

    beta1, beta2, iota1, iota2 = HEXAGON_POSITIVE[6:]
    for p in (beta1, beta2):
        assert any(oracle_contains(e, p) for e in edges)
        assert not strictly_inside(p)
    for p in (iota1, iota2, M):
        assert strictly_inside(p)
        assert not any(oracle_contains(e, p) for e in edges)


# ------------------------------------------------------------- properties

subset_strategy = st.lists(
    st.sampled_from(HEXAGON_POSITIVE), min_size=2, max_size=3, unique=True)


@given(subset_strategy)
def test_interior_agrees_with_oracle(verts):
    verts = tuple(verts)
    try:
        s = Simplex(verts)
    except DegenerateSimplexError:
        assert not oracle_contains(verts, M) if len(verts) == 3 else True
        return
    assert contains_in_relative_interior(s, M) == oracle_contains(verts, M)


def test_all_subsets_agree_with_oracle():
    # exhaustive: every 2- or 3-subset of the ten positive points
    for k in (2, 3):
        for verts in itertools.combinations(HEXAGON_POSITIVE, k):
            try:
                s = Simplex(verts)
            except DegenerateSimplexError:
                continue
            assert contains_in_relative_interior(s, M) == oracle_contains(verts, M), verts


@given(subset_strategy, st.integers(0, 4), st.integers(0, 2))
def test_reconstruction_exact(verts, px, pz):
    try:
        s = Simplex(tuple(verts))
    except DegenerateSimplexError:
        return
    p = LatticePoint(px, pz)
    lam = barycentric_coordinates(s, p)
    if lam is None:
        return
    assert sum(lam) == 1
    assert sum(l * v.x for l, v in zip(lam, s.vertices)) == p.x
    assert sum(l * v.z for l, v in zip(lam, s.vertices)) == p.z
    floats = tuple(map(float, lam))
    assert abs(sum(floats) - 1.0) <= 1e-12


@given(subset_strategy)
def test_interior_permutation_invariant(verts):
    try:
        Simplex(tuple(verts))
    except DegenerateSimplexError:
        return
    results = {
        contains_in_relative_interior(Simplex(perm), M)
        for perm in itertools.permutations(verts)
    }
    assert len(results) == 1


def test_degenerate_simplices_raise():
    with pytest.raises(DegenerateSimplexError):
        Simplex((LatticePoint(0, 0), LatticePoint(0, 0)))
    with pytest.raises(DegenerateSimplexError):
        Simplex((LatticePoint(0, 0), LatticePoint(1, 0), LatticePoint(2, 0)))
    with pytest.raises(DegenerateSimplexError):
        Simplex((LatticePoint(0, 0),))
