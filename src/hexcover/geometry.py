"""Exact plane geometry for the integer point configurations used by circuit covers.

All predicates (affine independence, relative-interior membership, barycentric
coordinates) run in exact rational arithmetic via :class:`fractions.Fraction`.
Floating point enters only when barycentric coordinates feed the circuit-number
power formula downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence


class LatticePoint(NamedTuple):
    """An integer exponent vector in the projected (x1, x3) plane."""

    x: int
    z: int


# Canonical labels of the hexagonal face, in fixture order.  The first ten
# points carry positive coefficients; M is the lone interior negative point.
A1 = LatticePoint(0, 0)
A2 = LatticePoint(2, 0)
A3 = LatticePoint(4, 1)
A4 = LatticePoint(4, 2)
A5 = LatticePoint(2, 2)
A6 = LatticePoint(0, 1)
B1 = LatticePoint(1, 0)
B2 = LatticePoint(3, 2)
I1 = LatticePoint(1, 1)
I2 = LatticePoint(3, 1)
M = LatticePoint(2, 1)

HEXAGON_POSITIVE = (A1, A2, A3, A4, A5, A6, B1, B2, I1, I2)
POINT_INDEX = {p: i for i, p in enumerate(HEXAGON_POSITIVE)}
POINT_NAMES = ("a1", "a2", "a3", "a4", "a5", "a6", "b1", "b2", "i1", "i2")


class DegenerateSimplexError(ValueError):
    """Raised when a simplex violates its affine-independence invariant."""


@dataclass(frozen=True)
class Simplex:
    """An ordered list of 2 or 3 pairwise-distinct, affinely independent points."""

    vertices: tuple[LatticePoint, ...]

    def __init__(self, vertices: Sequence[LatticePoint]):
        verts = tuple(LatticePoint(*v) for v in vertices)
        object.__setattr__(self, "vertices", verts)
        self._validate()

    def _validate(self) -> None:
        verts = self.vertices
        if len(verts) not in (2, 3):
            raise DegenerateSimplexError(f"simplex needs 2 or 3 vertices, got {len(verts)}")
        if len(set(verts)) != len(verts):
            raise DegenerateSimplexError(f"repeated vertex in {verts}")
        if len(verts) == 3 and _signed_area2(*verts) == 0:
            raise DegenerateSimplexError(f"collinear vertices {verts}")

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self):
        return len(self.vertices)


def _signed_area2(a: LatticePoint, b: LatticePoint, c: LatticePoint) -> int:
    """Doubled signed area of triangle abc."""
    return (b.x - a.x) * (c.z - a.z) - (b.z - a.z) * (c.x - a.x)


def barycentric_coordinates(s: Simplex, p: LatticePoint) -> tuple[Fraction, ...] | None:
    """Exact barycentric coordinates of ``p`` in ``s``, one Fraction per vertex, or None if outside.

    "Outside" covers any lambda <= 0 or >= 1, and (for segments) points off
    the affine hull.  The same overdetermined solve handles both simplex
    dimensions: two coordinate rows plus the sum-to-one row.
    """
    p = LatticePoint(*p)
    verts = s.vertices
    if len(verts) == 3:
        a, b, c = verts
        area = _signed_area2(a, b, c)
        l0 = Fraction(_signed_area2(p, b, c), area)
        l1 = Fraction(_signed_area2(a, p, c), area)
        l2 = 1 - l0 - l1
        lambdas = (l0, l1, l2)
    else:
        a, b = verts
        dx, dz = b.x - a.x, b.z - a.z
        # p = a + t*(b-a); solve from whichever coordinate varies, then
        # verify the other for affine-hull consistency.
        if dx != 0:
            t = Fraction(p.x - a.x, dx)
        elif dz != 0:
            t = Fraction(p.z - a.z, dz)
        else:  # pragma: no cover - excluded by simplex invariant
            raise DegenerateSimplexError("zero-length segment")
        if a.x + t * dx != p.x or a.z + t * dz != p.z:
            return None
        lambdas = (1 - t, t)
    if any(l <= 0 or l >= 1 for l in lambdas):
        return None
    return lambdas


def contains_in_relative_interior(s: Simplex, p: LatticePoint) -> bool:
    """True iff ``p`` has all-strictly-interior barycentrics in ``s``."""
    return barycentric_coordinates(s, p) is not None


def hexagon_points() -> tuple[tuple[LatticePoint, ...], LatticePoint]:
    """The ten positive support points of the hexagonal face and the negative point."""
    return HEXAGON_POSITIVE, M
