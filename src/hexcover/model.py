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
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circuits import _compiled_simplex, cover_theta_sum  # noqa: F401, perfbench wraps this binding
from .covers import all_covers, cover_fixture
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


CLOSED_FORM_IDS = (4, 9, 10, 12, 15)  # the covers whose bounds ``certify`` prints
MONOMIAL_INPUTS = ("K1", "K2", "K3", "K4", "k3", "k6", "k9", "k12", "a")  # x = (eta, a)


@functools.cache
def condition_table() -> dict:
    """Theta_s / prefactor of each simplex of the 16 covers as one monomial kappa * prod_j x_j**e_j.

    x is ``MONOMIAL_INPUTS``.  A row is (e, kappa**q, q), exact, then kappa and
    each (j, e_j) with e_j != 0, as floats.  Coefficient i is C_i * x**E_i and c_m
    is b * x**E_pref, read off the kernel at b = 1: x = 1 gives C_i, and x_j = 2
    gives C_i * 2**E_ij exactly.  With m's exact lambda_i = p_i/q in the simplex,
    e = sum lambda_i E_i - E_pref and kappa**q = prod (C_i/lambda_i)**p_i.
    """
    n = len(MONOMIAL_INPUTS)
    x = np.hstack([np.ones((n, 1)), 1.0 + np.eye(n)])  # columns: x = 1, then each x_j = 2
    probes = np.vstack(hex_coefficient_arrays(x[:-1], x[-1], np.ones(n + 1)))  # coefficients and c_m
    C = probes[:, 0].tolist()
    *E, E_pref = np.rint(np.log2(probes[:, 1:] / probes[:, :1])).astype(int).tolist()  # E[i][j]
    table = {}
    for simplex in {s for cover in all_covers() for s in cover.simplices}:
        terms, _, powers, q = _compiled_simplex(simplex)
        lams = [(i, Fraction(p, q), p) for (i, _), p in zip(terms, powers)]
        e = tuple(sum(lam * E[i][j] for i, lam, _ in lams) - E_pref[j] for j in range(n))
        kappa_q = math.prod((Fraction(C[i]) / lam) ** p for i, lam, p in lams)
        nonzero = tuple((j, float(v)) for j, v in enumerate(e) if v)
        table[simplex] = e, kappa_q, q, float(kappa_q) ** (1 / q), nonzero
    return table


def closed_form_bound(cover_id: int, eta: EtaPoint, theta_sum: float | None = None) -> float:
    """The bound in the sufficient condition -b(eta) <= bound of cover ``cover_id``, any id in 1..16.

    It is the cover's Theta sum over the prefactor K1*K2*K3*k3*k6*k12: ``theta_sum`` over it when
    the caller holds the sum (``certify`` does), else the sum of the cover's ``condition_table`` rows.
    """
    simplices = cover_fixture(cover_id).simplices  # ValueError unless the id is in 1..16
    a, b = ab_values(eta)
    if not is_case4(a, b):
        raise ValueError("closed-form bounds require case 4 (a > 0, b < 0)")
    if theta_sum is not None:
        return theta_sum / negative_prefactor(eta)
    x, rows = (*eta, a), map(condition_table().__getitem__, simplices)
    return functools.reduce(operator.add, (kappa * math.prod(x[j] ** e for j, e in powers)
                                           for *_, kappa, powers in rows))
