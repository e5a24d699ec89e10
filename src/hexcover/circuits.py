"""Circuit polynomials on the positive orthant: circuit numbers and cover sums.

A circuit polynomial has positive coefficients on the vertices of a simplex
and one (sign-unrestricted) coefficient on a point in the simplex's relative
interior.  Its circuit number Theta = prod_i (c_i / lambda_i)**lambda_i decides
nonnegativity on the positive orthant: the polynomial is nonnegative iff
-c_beta <= Theta.

Theta has one expression: numpy's exp of ``theta_exponent``, const + sum_i
lambda_i log c_i added left to right, with each simplex's lambdas and const
compiled once.  A batch takes one exp per simplex row; a point
(``cover_theta_sum``, ``circuit_number``) adds its exponents on Python floats
and takes one exp over them.  All other operations are correctly rounded, so
a point gets its sample's bits.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from collections.abc import Mapping
from fractions import Fraction

import numpy as np

from .geometry import HEXAGON_POSITIVE, M, POINT_INDEX, LatticePoint, Simplex, barycentric_coordinates


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
        if set(self.positive_coeffs) != set(self.simplex):
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
        raise NotACircuitError(f"{interior} not in the relative interior of {simplex}")
    lams = tuple(map(float, lam))
    return lams, -sum(l * math.log(l) for l in lams)


@functools.cache
def _simplex_table(simplices: tuple[Simplex, ...]) -> tuple:
    """(terms, const) per simplex around m; a term is (vertex's index in ``HEXAGON_POSITIVE``, lambda)."""
    return tuple((tuple(zip([POINT_INDEX[v] for v in s], lams)), const)
                 for s in simplices for lams, const in [_compiled_simplex(s, M)])


def theta_exponent(terms, const, logs):
    """log Theta = const + lam*logs[index] + ... left to right; ``logs`` holds floats or batch rows.

    A loop, not ``sum``, which adds Python floats with compensation from Python 3.12 on.
    """
    total = const
    for index, lam in terms:
        total = total + lam * logs[index]
    return total


def theta_rows(table, log_coeffs) -> list:
    """Theta of each ``_simplex_table`` simplex, from the log coefficients in ``HEXAGON_POSITIVE`` order.

    A (10, k) batch gives a (k,) row per simplex, one exp each (stacking the
    rows for one exp costs more).  A point's (10,) column gives floats: its
    exponents run on Python floats, and one exp takes them all.
    """
    if log_coeffs.ndim == 1:
        logs = log_coeffs.tolist()
        return np.exp([theta_exponent(terms, const, logs) for terms, const in table]).tolist()
    return [np.exp(theta_exponent(terms, const, log_coeffs)) for terms, const in table]


def circuit_number(c: CircuitSupport) -> float:
    """Theta = prod (c_i / lambda_i)**lambda_i, on a point's float path: ``theta_exponent``, one exp."""
    lams, const = _compiled_simplex(c.simplex, c.interior)
    logs = np.log([c.positive_coeffs[v] for v in c.simplex]).tolist()
    return float(np.exp(theta_exponent(enumerate(lams), const, logs)))


def is_nonnegative(c: CircuitSupport) -> bool:
    """Nonnegativity on the positive orthant: -c_beta <= Theta, decided exactly; ties count as nonnegative.

    With lambda_i = p_i/q, Theta**q = prod (c_i/lambda_i)**p_i is a rational
    number in the coefficients' float values, so for -c_beta > 0 the test
    compares (-c_beta)**q with it in Fractions, and no exp can overflow.
    Non-finite values compare as floats against ``circuit_number``, so NaN
    gives False.
    """
    lams = barycentric_coordinates(c.simplex, c.interior)
    neg, values = -c.negative_coeff, [c.positive_coeffs[v] for v in c.simplex]
    if lams is None or not all(map(math.isfinite, [neg, *values])):
        return neg <= circuit_number(c)  # NotACircuitError when lams is None
    q = math.lcm(*(lam.denominator for lam in lams))
    theta_q = math.prod((Fraction(v) / lam) ** int(lam * q) for v, lam in zip(values, lams))
    return neg <= 0 or Fraction(neg) ** q <= theta_q


@dataclass(frozen=True)
class PureCover:
    """A partition of the positive support points into simplices around ``m``."""

    id: int
    simplices: tuple[Simplex, ...]


def cover_theta_sum(cover: PureCover, coeffs) -> float:
    """Theta sum of a :class:`PureCover` around the hexagon's m.

    ``coeffs`` is the (10,) ``HEXAGON_POSITIVE`` column of ``hex_coefficient_arrays``;
    ValueError unless it has that shape and all ten are positive.
    ``theta_rows`` runs on the cover's cached table, as in ``CoverEvaluator``,
    so the sum has the batch's bits; callers compare it to -c_m.
    """
    column = np.asarray(coeffs, dtype=float)
    if column.shape != (len(HEXAGON_POSITIVE),) or not all(v > 0 for v in column.tolist()):
        raise ValueError(f"need ten positive coefficients, got {column}")
    thetas = theta_rows(_simplex_table(cover.simplices), np.log(column))
    return functools.reduce(operator.add, thetas, 0.0)  # left to right, as the batch adds
