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

import collections
import enum
import math
from dataclasses import dataclass

import numpy as np

from .circuits import cover_theta_sum
from .covers import cover_fixture
from .geometry import HEXAGON_POSITIVE


class KappaVector(tuple):
    """The twelve positive reaction rate constants."""

    __slots__ = ()

    def __new__(cls, k):
        self = super().__new__(cls, k)
        if len(self) != 12:
            raise ValueError(f"need 12 rate constants, got {len(self)}")
        if not all(v > 0 for v in self):
            raise ValueError("all rate constants must be strictly positive")
        return self


class EtaPoint(collections.namedtuple("EtaPoint", "K1 K2 K3 K4 k3 k6 k9 k12")):
    """Reduced parameters (K1, K2, K3, K4, k3, k6, k9, k12), all positive, as a named tuple."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not all(v > 0 for v in self):
            raise ValueError("all eta components must be strictly positive")
        return self

    @classmethod
    def _make(cls, iterable):  # namedtuple's _make, and so _replace, would skip the check
        return cls(*iterable)

    def swapped(self) -> "EtaPoint":
        """The (K1 <-> K4, K2 <-> K3) swap relating the two mirror covers."""
        return EtaPoint(self.K4, self.K3, self.K2, self.K1, self.k3, self.k6, self.k9, self.k12)


def _reduced(k):
    """Michaelis-Menten reduction of rate constants k(0..11) to (K1..K4, k3, k6, k9, k12).

    Enzyme i's K = (k_off + k_cat) / k_on runs only here, on k(3i+1), k(3i+2) and k(3i),
    floats or numpy rows; k(3i) and k(3i+1) are asked for only while that K is formed.
    """
    return (*[(k(i + 1) + k(i + 2)) / k(i) for i in range(0, 12, 3)], *map(k, range(2, 12, 3)))


def reduce(kappa: KappaVector) -> EtaPoint:
    """Michaelis-Menten reduction of the 12 rate constants to eta."""
    return EtaPoint(*_reduced(kappa.__getitem__))


def a_value(k3, k6, k9, k12):
    """a = k3*k12 - k6*k9, of eta's last four components as floats or rows."""
    return k3 * k12 - k6 * k9


def b_value(eta):
    """b = (K2+K3)*k3*k12 - (K1+K4)*k6*k9; ``eta`` as in ``ab_values``."""
    K1, K2, K3, K4, k3, k6, k9, k12 = eta
    return (K2 + K3) * k3 * k12 - (K1 + K4) * k6 * k9


def ab_values(eta):
    """(a, b) of eta: ``a_value`` and ``b_value``.

    ``eta`` is 8 floats (an EtaPoint), an (8, k) array or a sequence of 8
    rows of the same components; the result is a pair of floats or of arrays.
    """
    return a_value(*eta[4:]), b_value(eta)


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
    """Positive coefficients in ``HEXAGON_POSITIVE`` order and c_m, of eta's 8 components.

    8 Python floats (an EtaPoint) give (10,) and a float, an (8, k) array (10, k) and (k,);
    ``a`` and ``b`` are eta's ``ab_values``.  Only products run, each
    correctly rounded, so floats and arrays get the same bits on any CPU:
    each power is taken once, a cube as square times base (no libm pow), and
    every product runs left to right, c_m as b*K1*K2*K3*k3*k6*k12.
    """
    K1, K2, K3, K4, k3, k6, k9, k12 = eta
    K1_2, K2_2, K3_2, k3_2, k6_2, k9_2, k12_2 = (x * x for x in (K1, K2, K3, k3, k6, k9, k12))
    K1_3, k6_3 = K1_2 * K1, k6_2 * k6
    column = [
        K1_3 * K3_2 * k6_3 * k12_2,  # a1
        K1_2 * K2 * K3 * K4 * k3 * k6_2 * k9 * k12,  # a2
        K1 * K2_2 * K4 * k3_2 * k6 * k9_2,  # a3
        a * K2_2 * K4 * k3_2 * k9,  # a4
        a * K1 * K2 * K3 * k3 * k6 * k12,  # a5
        K1_2 * K3_2 * k6_3 * k12_2,  # a6
        K1_2 * K2 * K3_2 * k3 * k6_2 * k12_2,  # b1
        a * K2_2 * K3 * k3_2 * k12,  # b2
        2 * K1_2 * K2 * K3 * k3 * k6_2 * k12_2,  # i1
        2 * K1 * K2 * K3 * K4 * k3_2 * k6 * k9 * k12,  # i2
    ]
    return np.array(column), b * K1 * K2 * K3 * k3 * k6 * k12


def negative_prefactor(eta: EtaPoint) -> float:
    """K1*K2*K3*k3*k6*k12, the factor multiplying b in the coefficient of m."""
    return eta.K1 * eta.K2 * eta.K3 * eta.k3 * eta.k6 * eta.k12


def hex_coefficients(eta: EtaPoint) -> tuple[np.ndarray, float]:
    """(coeffs, c_m) of a case-4 point: ``hex_coefficient_arrays`` on the EtaPoint, its 8 floats.

    ``coeffs`` is the (10,) ``HEXAGON_POSITIVE`` column, all positive, and
    c_m < 0 the coefficient of x1^2*x3.  The kernel's products are correctly
    rounded, so the point gets the bits of its Monte-Carlo sample.
    Non-case-4 input is rejected: outside case 4 the three a-multiplied
    coefficients are not all positive.
    """
    sc = classify(eta)
    if sc.tag is not Case.CASE4_A_POS_B_NEG:
        raise ValueError(f"hex coefficients require case 4 input, got {sc.tag.name}")
    return hex_coefficient_arrays(eta, sc.a_value, sc.b_value)


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
    K1, K2, K3, K4, k3, k6, k9, k12 = eta
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
            theta_sum = cover_theta_sum(cover_fixture(9).simplices, hex_coefficients(eta)[0])
        return theta_sum / negative_prefactor(eta)
    raise ValueError(f"no closed-form bound for cover {cover_id}; supported: {CLOSED_FORM_IDS}")
