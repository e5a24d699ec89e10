"""Circuit polynomials on the positive orthant: circuit numbers and cover sums.

A circuit polynomial has positive coefficients on the vertices of a simplex
and one (sign-unrestricted) coefficient on a point in the simplex's relative
interior.  Here that point is the hexagon's m: a circuit is a ``Simplex`` of
hexagon points around m, with its coefficients in the (10,)
``HEXAGON_POSITIVE`` column that ``hex_coefficients`` returns.  Its circuit
number Theta = prod_i (c_i / lambda_i)**lambda_i decides nonnegativity on the
positive orthant: the polynomial is nonnegative iff -c_m <= Theta.  A circuit
is a cover of one simplex, so its Theta is ``cover_theta_sum((simplex,), coeffs)``.

Each simplex around m is compiled once, into the one record that
``_compiled_simplex`` caches.  Theta has one expression: numpy's exp of
``theta_exponent``, const + sum_i lambda_i log c_i added left to right.  A
batch takes one exp per simplex row; a point (``cover_theta_sum``) adds its
exponents on Python floats and takes one exp over them.  All other
operations are correctly rounded, so a point gets its sample's bits.
``is_nonnegative`` decides in Fractions, with no exp.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import HEXAGON_POSITIVE, M, POINT_INDEX, Simplex, barycentric_coordinates


class NotACircuitError(ValueError):
    """m is not strictly inside the simplex."""


@functools.lru_cache(maxsize=None, typed=True)  # typed: an equal tuple of points is no Simplex
def _compiled_simplex(simplex: Simplex) -> tuple:
    """The one record of m in ``simplex``, compiled once: (terms, const, powers, q).

    A term is (vertex's index in ``HEXAGON_POSITIVE``, float lambda), const is
    -sum lambda_i log lambda_i, and lambda_i = powers[i]/q exactly.  TypeError
    unless ``simplex`` is a ``Simplex``, :class:`NotACircuitError` unless m is relatively interior.
    """
    if not isinstance(simplex, Simplex):
        raise TypeError(f"need a Simplex around m, got {simplex!r}")
    lam = barycentric_coordinates(simplex, M)
    if lam is None:
        raise NotACircuitError(f"{M} not in the relative interior of {simplex}")
    lams, q = tuple(map(float, lam)), math.lcm(*(l.denominator for l in lam))
    terms = tuple(zip([POINT_INDEX[v] for v in simplex], lams))
    return terms, -sum(l * math.log(l) for l in lams), tuple(int(l * q) for l in lam), q


def theta_exponent(terms, const, logs):
    """log Theta = const + lam*logs[index] + ... left to right; ``logs`` holds floats or batch rows.

    A loop, not ``sum``, which adds Python floats with compensation from Python 3.12 on.
    """
    total = const
    for index, lam in terms:
        total = total + lam * logs[index]
    return total


def theta_rows(table, log_coeffs) -> list:
    """Theta of each ``_compiled_simplex`` record, from the log coefficients in ``HEXAGON_POSITIVE`` order.

    A (10, k) batch gives a (k,) row per simplex, one exp each (stacking the
    rows for one exp costs more).  A point's (10,) column gives floats: its
    exponents run on Python floats, and one exp takes them all.
    """
    if log_coeffs.ndim == 1:
        logs = log_coeffs.tolist()
        return np.exp([theta_exponent(terms, const, logs) for terms, const, _, _ in table]).tolist()
    return [np.exp(theta_exponent(terms, const, log_coeffs)) for terms, const, _, _ in table]


@dataclass(frozen=True)
class PureCover:
    """A partition of the positive support points into simplices around ``m``."""

    id: int
    simplices: tuple[Simplex, ...]


def _coefficient_column(coeffs) -> np.ndarray:
    """``coeffs`` as a float array; ValueError unless it is ten positive ``HEXAGON_POSITIVE`` coefficients."""
    column = np.asarray(coeffs, dtype=float)
    if column.shape != (len(HEXAGON_POSITIVE),) or not all(v > 0 for v in column.tolist()):
        raise ValueError(f"need ten positive coefficients, got {column}")
    return column


def cover_theta_sum(simplices, coeffs) -> float:
    """Theta sum of ``simplices`` around the hexagon's m, such as a cover's or one circuit's.

    ``simplices`` is any iterable of ``Simplex``, ``coeffs`` the (10,) ``HEXAGON_POSITIVE`` column
    of ``hex_coefficient_arrays``; ValueError unless it has that shape and all ten are positive.
    ``theta_rows`` runs on the simplices' records, as in ``CoverEvaluator``,
    so the sum has the batch's bits; callers compare it to -c_m.
    """
    thetas = theta_rows([*map(_compiled_simplex, simplices)], np.log(_coefficient_column(coeffs)))
    return functools.reduce(operator.add, thetas, 0.0)  # left to right, as the batch adds


def is_nonnegative(simplex: Simplex, coeffs, c: float) -> bool:
    """Nonnegativity of the circuit on ``simplex`` with m's coefficient ``c``: -c <= Theta, decided exactly.

    ``coeffs`` is the (10,) column that ``cover_theta_sum`` takes; ties count
    as nonnegative.  With the record's lambda_i = p_i/q, Theta**q = prod
    (c_i/lambda_i)**p_i is a rational number in the coefficients' float values,
    so for -c > 0 the test compares (-c)**q with it in Fractions, and no exp
    can overflow.  NaN gives False; a +inf coefficient makes Theta = inf, and
    any other Theta is finite, below -c = inf.
    """
    column = _coefficient_column(coeffs).tolist()
    terms, _, powers, q = _compiled_simplex(simplex)
    neg, values = -c, [column[index] for index, _ in terms]
    if math.isnan(neg):
        return False
    if neg <= 0 or math.inf in values:  # Theta > 0, or Theta = inf
        return True
    return neg < math.inf and Fraction(neg) ** q <= math.prod(
        (Fraction(v) * q / p) ** p for v, p in zip(values, powers))
