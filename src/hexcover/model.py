"""The dual-phosphorylation instance: parameters, sign cases, and coefficients.

The 12 reaction rate constants reduce to the 8-dimensional parameter vector
eta = (K1..K4, k3, k6, k9, k12) via the Michaelis-Menten constants.  The signs
of a(eta) and b(eta) split parameter space into four cases; in case 4 the
restricted polynomial on the hexagonal face has ten positive coefficients and
one negative coefficient at m = (2, 1), and each circuit cover yields a
sufficient certificate of nonnegativity (hence monostationarity).  The
coefficient formulas run only in ``hex_coefficient_arrays``, on a point's 8
floats or on a batch, with correctly rounded products only, so a point and its
Monte-Carlo sample get the same bits.  A point's coefficients are one (10,)
column in ``HEXAGON_POSITIVE`` order plus the float c_m, as a batch's are a
(10, k) array plus a (k,) row.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .circuits import cover_theta_sum
from .covers import cover_fixture
from .geometry import A1, A2, A3, A4, A5, A6, B1, B2, HEXAGON_POSITIVE, I1, I2


@dataclass(frozen=True)
class KappaVector:
    """The twelve positive reaction rate constants."""

    k: tuple[float, ...]

    def __post_init__(self):
        if len(self.k) != 12:
            raise ValueError(f"need 12 rate constants, got {len(self.k)}")
        if not all(v > 0 for v in self.k):
            raise ValueError("all rate constants must be strictly positive")


@dataclass(frozen=True)
class EtaPoint:
    """Reduced parameters (K1, K2, K3, K4, k3, k6, k9, k12), all positive."""

    K1: float
    K2: float
    K3: float
    K4: float
    k3: float
    k6: float
    k9: float
    k12: float

    def __post_init__(self):
        if not all(v > 0 for v in self.as_tuple()):
            raise ValueError("all eta components must be strictly positive")

    def as_tuple(self) -> tuple[float, ...]:
        return (self.K1, self.K2, self.K3, self.K4, self.k3, self.k6, self.k9, self.k12)

    def __iter__(self):
        return iter(self.as_tuple())

    def swapped(self) -> "EtaPoint":
        """The (K1 <-> K4, K2 <-> K3) swap relating the two mirror covers."""
        return EtaPoint(self.K4, self.K3, self.K2, self.K1, self.k3, self.k6, self.k9, self.k12)


def _reduced(k):
    """Michaelis-Menten reduction of rate constants k[0..11] to (K1..K4, k3, k6, k9, k12).

    Works with floats or numpy rows alike.
    """
    return ((k[1] + k[2]) / k[0], (k[4] + k[5]) / k[3], (k[7] + k[8]) / k[6],
            (k[10] + k[11]) / k[9], k[2], k[5], k[8], k[11])


def reduce(kappa: KappaVector) -> EtaPoint:
    """Michaelis-Menten reduction of the 12 rate constants to eta."""
    return EtaPoint(*_reduced(kappa.k))


def ab_values(eta):
    """a = k3*k12 - k6*k9 and b = (K2+K3)*k3*k12 - (K1+K4)*k6*k9.

    ``eta`` is an EtaPoint, an (8, k) array or a sequence of 8 rows of the
    same components; the result is a pair of floats or of arrays.
    """
    K1, K2, K3, K4, k3, k6, k9, k12 = eta
    a = k3 * k12 - k6 * k9
    b = (K2 + K3) * k3 * k12 - (K1 + K4) * k6 * k9
    return a, b


class Case(enum.Enum):
    CASE1_MONOSTATIONARY = 1
    CASE2_MULTISTATIONARY = 2
    CASE3_A_ZERO_B_NEG = 3
    CASE4_A_POS_B_NEG = 4


@dataclass(frozen=True)
class SignCase:
    tag: Case
    a_value: float
    b_value: float


def is_case4(a, b):
    """The case-4 rule a > 0 and b < 0, on floats or arrays alike; NaN is never case 4."""
    return (a > 0) & (b < 0)


def classify(eta: EtaPoint) -> SignCase:
    """Sign-exact case split on (a, b); no epsilon, exact comparison to zero.

    Raises ValueError when a or b is NaN, which no case describes.
    """
    a, b = ab_values(eta)
    if math.isnan(a) or math.isnan(b):
        raise ValueError(f"a and b must not be NaN, got a={a}, b={b}")
    if is_case4(a, b):
        tag = Case.CASE4_A_POS_B_NEG
    elif a < 0:
        tag = Case.CASE2_MULTISTATIONARY
    elif b >= 0:
        tag = Case.CASE1_MONOSTATIONARY
    else:
        tag = Case.CASE3_A_ZERO_B_NEG
    return SignCase(tag, a, b)


def hex_coefficient_arrays(eta, a, b):
    """Positive coefficients in ``HEXAGON_POSITIVE`` order and c_m, of 8 eta rows.

    8 Python floats give (10,) and a float, an (8, k) array (10, k) and (k,);
    ``a`` and ``b`` are eta's ``ab_values``.  Only products run, each
    correctly rounded, so floats and arrays get the same bits on any CPU:
    each power is taken once, a cube as square times base (no libm pow), and
    every product runs left to right, c_m as b*K1*K2*K3*k3*k6*k12.
    """
    K1, K2, K3, K4, k3, k6, k9, k12 = eta
    K1_2, K2_2, K3_2, k3_2, k6_2, k9_2, k12_2 = (x * x for x in (K1, K2, K3, k3, k6, k9, k12))
    K1_3, k6_3 = K1_2 * K1, k6_2 * k6
    by_point = {
        A1: K1_3 * K3_2 * k6_3 * k12_2,
        A2: K1_2 * K2 * K3 * K4 * k3 * k6_2 * k9 * k12,
        A3: K1 * K2_2 * K4 * k3_2 * k6 * k9_2,
        A4: a * K2_2 * K4 * k3_2 * k9,
        A5: a * K1 * K2 * K3 * k3 * k6 * k12,
        A6: K1_2 * K3_2 * k6_3 * k12_2,
        B1: K1_2 * K2 * K3_2 * k3 * k6_2 * k12_2,
        B2: a * K2_2 * K3 * k3_2 * k12,
        I1: 2 * K1_2 * K2 * K3 * k3 * k6_2 * k12_2,
        I2: 2 * K1 * K2 * K3 * K4 * k3_2 * k6 * k9 * k12,
    }
    return np.array([by_point[p] for p in HEXAGON_POSITIVE]), b * K1 * K2 * K3 * k3 * k6 * k12


def negative_prefactor(eta: EtaPoint) -> float:
    """K1*K2*K3*k3*k6*k12, the factor multiplying b in the coefficient of m."""
    return eta.K1 * eta.K2 * eta.K3 * eta.k3 * eta.k6 * eta.k12


def hex_coefficients(eta: EtaPoint) -> tuple[np.ndarray, float]:
    """(coeffs, c_m) of a case-4 point: ``hex_coefficient_arrays`` on its 8 floats.

    ``coeffs`` is the (10,) ``HEXAGON_POSITIVE`` column, all positive, and
    c_m < 0 the coefficient of x1^2*x3.  The kernel's products are correctly
    rounded, so the point gets the bits of its Monte-Carlo sample.
    Non-case-4 input is rejected: outside case 4 the three a-multiplied
    coefficients are not all positive.
    """
    sc = classify(eta)
    if sc.tag is not Case.CASE4_A_POS_B_NEG:
        raise ValueError(f"hex coefficients require case 4 input, got {sc.tag.name}")
    return hex_coefficient_arrays(eta.as_tuple(), sc.a_value, sc.b_value)


def eval_hex_poly(coeffs, c_m, x1, x3):
    """Evaluate the hexagon-restricted bivariate polynomial from its (10,) column and c_m."""
    value = c_m * x1**2 * x3
    for p, c in zip(HEXAGON_POSITIVE, coeffs):
        value = value + c * x1**p.x * x3**p.z
    return value


CLOSED_FORM_IDS = (4, 9, 10, 12, 15)


def closed_form_bound(cover_id: int, eta: EtaPoint, theta_sum: float | None = None) -> float:
    """Right-hand side of the displayed sufficient condition for one cover.

    The certificate holds iff -b(eta) <= closed_form_bound(cover_id, eta); the
    bound equals the cover's Theta sum divided by the prefactor K1*K2*K3*k3*k6*k12.
    Cover 9 has no displayed simplification, so its bound is that quotient of
    ``theta_sum`` when the caller holds the sum (``certify`` does), else of
    ``cover_theta_sum`` on the ``hex_coefficients`` column; the other covers
    ignore it.
    """
    K1, K2, K3, K4, k3, k6, k9, k12 = eta.as_tuple()
    a, b = ab_values(eta)
    if not is_case4(a, b):
        raise ValueError("closed-form bounds require case 4 (a > 0, b < 0)")
    x = k3 * k6**2 * k9**2 * k12  # shared radicand of the mixed-row segments
    if cover_id == 15:
        return (
            4 * math.sqrt(K1 * K4 * k6 * k9 * a)
            + 2 * math.sqrt(K2 * K3 * k3 * k12 * a)
            + 3 * (K1 * K2 * K3 * K4 * x) ** (1 / 3)
            * ((K2 * K4) ** (1 / 3) / K2 + (K1 * K3) ** (1 / 3) / K3)
        )
    if cover_id == 4:
        return (
            4 * (K1 * K2 * K3 * K4 * k3 * k6 * k9 * k12) ** 0.25 * math.sqrt(2 * a)
            + 3 * (K1 * K2 * K3 * K4 * x) ** (1 / 3)
            * ((K2 * K4) ** (1 / 3) / K2 + (K1 * K3) ** (1 / 3) / K3)
        )
    if cover_id == 10:
        return (
            4 / K2 * (K1**2 * K2**3 * K3 * K4**2 * x * a) ** 0.25
            + 3 * (K1 * K4**2 * k6**2 * k9**2 * a) ** (1 / 3)
            + 2 * math.sqrt(K2 * K3 * k3 * k12 * a)
            + 3 / K3 * (K1**2 * K2 * K3**2 * K4 * x) ** (1 / 3)
        )
    if cover_id == 12:
        return (
            4 / K3 * (K1**2 * K2 * K3**3 * K4**2 * x * a) ** 0.25
            + 3 * (K1**2 * K4 * k6**2 * k9**2 * a) ** (1 / 3)
            + 2 * math.sqrt(K2 * K3 * k3 * k12 * a)
            + 3 / K2 * (K1 * K2**2 * K3 * K4**2 * x) ** (1 / 3)
        )
    if cover_id == 9:
        if theta_sum is None:
            theta_sum = cover_theta_sum(cover_fixture(9), hex_coefficients(eta)[0])
        return theta_sum / negative_prefactor(eta)
    raise ValueError(f"no closed-form bound for cover {cover_id}; supported: {CLOSED_FORM_IDS}")
