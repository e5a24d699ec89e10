"""Circuit numbers on the hexagonal face, from first principles.

Walks through the basic certificate machinery: barycentric coordinates of the
interior point, the circuit number Theta, the nonnegativity threshold, and the
toy weighted split whose optimum motivates weighted covers.
"""

import numpy as np

from hexcover import (
    LatticePoint,
    Simplex,
    barycentric_coordinates,
    cover_theta_sum,
    is_nonnegative,
)
from hexcover.cli import toy_optimum, toy_split
from hexcover.geometry import HEXAGON_POSITIVE, M, POINT_INDEX

# The canonical triangle: vertices (4,2), (2,0), (0,1) with m = (2,1) inside.
tri = Simplex((LatticePoint(4, 2), LatticePoint(2, 0), LatticePoint(0, 1)))
lam = barycentric_coordinates(tri, M)
print("barycentrics of m in the canonical triangle:", lam)

# A circuit is a simplex around m plus the column of the ten positive
# coefficients, one per hexagon point; its Theta is the sum over a cover of
# that one simplex.  Unit coefficients give Theta = 3: the polynomial
#   x^4 y^2 + x^2 + y - c x^2 y
# is nonnegative on the positive orthant exactly when c <= 3.
ones = np.ones(len(HEXAGON_POSITIVE))
print("Theta =", cover_theta_sum((tri,), ones))
for c in (2.5, 3.0, 3.0 + 1e-6):
    print(f"  c = {c}: nonnegative = {is_nonnegative(tri, ones, -c)}")

# Segments behave like a weighted AM-GM: midpoint interior gives Theta = 2*sqrt(ab).
seg = Simplex((LatticePoint(1, 0), LatticePoint(3, 2)))
coeffs = ones.copy()
coeffs[[POINT_INDEX[v] for v in seg]] = 4.0, 9.0
print("segment Theta with coefficients (4, 9):", cover_theta_sum((seg,), coeffs))

# Splitting a coefficient across two circuits can beat either circuit alone.
# g(x,y) = x^4 y^2 + x^2 + y + 1 - c x^2 y supports the triangle above plus the
# segment {(0,0),(4,2)}; the vertex (4,2) is shared with weight w vs 1-w.
w_opt, value = toy_optimum()
print(f"optimal split weight w = {w_opt:.4f}, Theta sum = {value:.4f}")
print("  (either circuit alone certifies less: "
      f"w=1 -> {toy_split(1.0):.4f}, w=0 -> {toy_split(0.0):.4f})")
