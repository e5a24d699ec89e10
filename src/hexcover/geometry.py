"""Exact plane geometry for the integer point configurations used by circuit covers.

All predicates (affine independence, relative-interior membership, barycentric
coordinates) run in exact rational arithmetic via :class:`fractions.Fraction`.
Floating point enters only when barycentric coordinates feed the circuit-number
power formula downstream.
"""

from __future__ import annotations

import collections
import numbers
from fractions import Fraction
from typing import Iterable


class LatticePoint(collections.namedtuple("LatticePoint", "x z")):
    """An integer exponent vector (x, z) in the projected (x1, x3) plane, as a named tuple.

    Python's and numpy's integers are kept as ints; any other coordinate, a
    float such as 2.0 or a bool included, raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, x, z):
        for name, value in (("x", x), ("z", z)):
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"lattice coordinate {name} must be an integer, got {value!r}")
        return super().__new__(cls, int(x), int(z))

    @classmethod
    def _make(cls, iterable):  # namedtuple's _make, and so _replace, would skip the check
        return cls(*iterable)


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


class Simplex(tuple):
    """An ordered tuple of 2 or 3 pairwise-distinct, affinely independent points."""

    __slots__ = ()

    def __new__(cls, vertices: Iterable[LatticePoint]):
        verts = tuple(LatticePoint(*v) for v in vertices)
        if len(verts) not in (2, 3):
            raise DegenerateSimplexError(f"simplex needs 2 or 3 vertices, got {len(verts)}")
        if len(set(verts)) != len(verts):
            raise DegenerateSimplexError(f"repeated vertex in {verts}")
        if len(verts) == 3 and _signed_area2(*verts) == 0:
            raise DegenerateSimplexError(f"collinear vertices {verts}")
        return super().__new__(cls, verts)

    def __repr__(self) -> str:
        return f"Simplex(vertices={tuple.__repr__(self)})"


def _signed_area2(a: LatticePoint, b: LatticePoint, c: LatticePoint) -> int:
    """Doubled signed area of triangle abc."""
    return (b.x - a.x) * (c.z - a.z) - (b.z - a.z) * (c.x - a.x)


def barycentric_coordinates(s: Simplex, p: LatticePoint) -> tuple[Fraction, ...] | None:
    """Exact barycentric coordinates of ``p`` in ``s``, one Fraction per vertex, or None if outside.

    "Outside" covers any lambda <= 0 or >= 1, and (for segments) points off
    the affine hull.  A triangle's coordinates come from Cramer's rule on
    doubled signed areas; a segment's from the parameter t of p = a + t*(b-a)
    along a coordinate that varies, with the other coordinate checked.
    """
    p = LatticePoint(*p)
    if len(s) == 3:
        a, b, c = s
        area = _signed_area2(a, b, c)
        l0 = Fraction(_signed_area2(p, b, c), area)
        l1 = Fraction(_signed_area2(a, p, c), area)
        l2 = 1 - l0 - l1
        lambdas = (l0, l1, l2)
    else:
        a, b = s
        dx, dz = b.x - a.x, b.z - a.z
        # dx and dz are not both 0: a Simplex has no repeated vertex
        t = Fraction(p.x - a.x, dx) if dx != 0 else Fraction(p.z - a.z, dz)
        if a.x + t * dx != p.x or a.z + t * dz != p.z:
            return None
        lambdas = (1 - t, t)
    if any(l <= 0 or l >= 1 for l in lambdas):
        return None
    return lambdas


def contains_in_relative_interior(s: Simplex, p: LatticePoint) -> bool:
    """True iff ``p`` has all-strictly-interior barycentrics in ``s``."""
    return barycentric_coordinates(s, p) is not None
