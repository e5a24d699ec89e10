"""Circuit polynomials on the positive orthant: circuit numbers and cover sums.

A circuit polynomial has positive coefficients on the vertices of a simplex
and one (sign-unrestricted) coefficient on a point in the simplex's relative
interior.  Its circuit number Theta = prod_i (c_i / lambda_i)**lambda_i decides
nonnegativity on the positive orthant: the polynomial is nonnegative iff
-c_beta <= Theta.

Theta is evaluated as exp(const + sum_i lambda_i log c_i); the float lambdas
and const = -sum_i lambda_i log lambda_i of each simplex are compiled once and
shared by ``circuit_number`` and the batch kernel ``experiment.CoverEvaluator``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .geometry import LatticePoint, Simplex, barycentric_coordinates


class NotACircuitError(ValueError):
    """Interior point is not strictly inside the simplex."""


@dataclass(frozen=True)
class CircuitSupport:
    """Support and coefficients of a single circuit polynomial.

    ``positive_coeffs`` maps each simplex vertex to its (positive) coefficient;
    ``negative_coeff`` is the coefficient at the interior point, any sign.
    """

    simplex: Simplex
    interior: LatticePoint
    positive_coeffs: Mapping[LatticePoint, float]
    negative_coeff: float = 0.0

    def __post_init__(self):
        if set(self.positive_coeffs) != set(self.simplex.vertices):
            raise ValueError("positive_coeffs keys must be exactly the simplex vertices")
        for v, c in self.positive_coeffs.items():
            if not c > 0:
                raise ValueError(f"coefficient at {v} must be positive, got {c}")


@functools.cache
def _compiled_simplex(simplex: Simplex, interior: LatticePoint) -> tuple[tuple[float, ...], float]:
    """(float lambdas, const = -sum lambda_i log lambda_i) of ``interior`` in ``simplex``.

    Raises :class:`NotACircuitError` unless ``interior`` is relatively interior.
    """
    lam = barycentric_coordinates(simplex, interior)
    if lam is None:
        raise NotACircuitError(f"{interior} not in the relative interior of {simplex.vertices}")
    lams = lam.as_floats()
    return lams, -sum(l * math.log(l) for l in lams)


def circuit_number(c: CircuitSupport) -> float:
    """Theta = prod (c_i / lambda_i)**lambda_i, evaluated in log space.

    The log-space form exp(const + sum lambda_i ln c_i) avoids overflow for
    coefficients spanning many orders of magnitude.
    """
    lams, const = _compiled_simplex(c.simplex, c.interior)
    return math.exp(sum((l * math.log(c.positive_coeffs[v]) for v, l in zip(c.simplex, lams)), const))


def is_nonnegative(c: CircuitSupport) -> bool:
    """Nonnegativity on the positive orthant: -c_beta <= Theta.

    The comparison allows a few ulps of slack on Theta so that exact boundary
    cases (such as unit coefficients with -c_beta equal to the true circuit
    number) are not misclassified by log/exp rounding; ties count as
    nonnegative.
    """
    theta = circuit_number(c)
    return -c.negative_coeff <= theta * (1.0 + 8.0 * sys.float_info.epsilon)


@dataclass(frozen=True)
class PureCover:
    """A partition of the positive support points into simplices around ``m``."""

    id: int
    simplices: tuple[Simplex, ...]

    def points(self) -> set[LatticePoint]:
        return {v for s in self.simplices for v in s.vertices}


def cover_theta_sum(cover, coeffs: Mapping[LatticePoint, float], interior: LatticePoint | None = None) -> float:
    """Sum of circuit numbers of a cover's simplices under ``coeffs``.

    ``cover`` is a :class:`PureCover` or a plain sequence of simplices.  The
    interior point defaults to the hexagon's negative point m; its coefficient
    is not consumed here, callers compare the sum against -c_m themselves.
    """
    from .geometry import M

    interior = M if interior is None else interior
    return sum(circuit_number(CircuitSupport(s, interior, {v: coeffs[v] for v in s.vertices}))
               for s in getattr(cover, "simplices", cover))


@dataclass(frozen=True)
class WeightedCover:
    """Convex-combination splitting of vertex coefficients across several covers.

    ``covers`` holds pure covers or plain simplex lists; ``weights`` maps
    (cover index, point) to a weight in [0, 1].  For every point used by more
    than zero covers the weights must sum to 1.
    """

    covers: tuple
    weights: Mapping[tuple[int, LatticePoint], float]
    tol: float = field(default=1e-12, compare=False)

    def __post_init__(self):
        totals: dict[LatticePoint, float] = {}
        for (i, v), w in self.weights.items():
            if w < -self.tol:
                raise ValueError(f"negative weight {w} at cover {i}, point {v}")
            totals[v] = totals.get(v, 0.0) + w
        for v, t in totals.items():
            if abs(t - 1.0) > self.tol:
                raise ValueError(f"weights at {v} sum to {t}, expected 1")


def weighted_theta_sum(w: WeightedCover, coeffs: Mapping[LatticePoint, float],
                       interior: LatticePoint | None = None) -> float:
    """Theta sum of a weighted cover; zero-weight simplices contribute exactly 0.

    A vanishing effective coefficient sends the whole circuit number to its
    continuous limit 0 (w**lambda times a positive factor as w -> 0), keeping
    homotopy endpoints well defined.
    """
    from .geometry import M

    interior = M if interior is None else interior
    total = 0.0
    for i, cover in enumerate(w.covers):
        simplices = getattr(cover, "simplices", cover)
        for s in simplices:
            eff = {v: w.weights.get((i, v), 1.0) * coeffs[v] for v in s.vertices}
            if any(c <= 0 for c in eff.values()):
                continue  # limit contribution is exactly zero
            total += circuit_number(CircuitSupport(s, interior, eff))
    return total


def scalar_weighted_cover(covers: Sequence, ts: Sequence[float]) -> WeightedCover:
    """Equal per-vertex weighting: cover i gets scalar weight ts[i] on all its points."""
    weights = {}
    for i, cover in enumerate(covers):
        simplices = getattr(cover, "simplices", cover)
        for s in simplices:
            for v in s.vertices:
                weights[(i, v)] = float(ts[i])
    return WeightedCover(tuple(covers), weights)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def optimize_scalar_weight(theta_fn: Callable[[float], float],
                           tol: float = 1e-6) -> tuple[float, float]:
    """Maximize ``theta_fn`` on [0, 1]: golden-section search plus a 101-point grid.

    Unimodality is assumed but not proven for our objectives, so the grid scan
    guards against a golden-section miss; the better of the two wins.
    """
    a, b = 0.0, 1.0
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = theta_fn(c), theta_fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = theta_fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = theta_fn(d)
    w_gold = 0.5 * (a + b)
    f_gold = theta_fn(w_gold)
    best_w, best_f = w_gold, f_gold
    for k in range(101):
        w = k / 100.0
        f = theta_fn(w)
        if f > best_f:
            best_w, best_f = w, f
    return best_w, best_f
