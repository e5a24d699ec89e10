"""Parameter reduction, sign cases, coefficient map, and closed-form bounds."""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hexcover.circuits import cover_theta_sum
from hexcover.covers import cover_fixture
from hexcover import experiment, model
from hexcover.experiment import (RAW_BLOCK, CoverEvaluator, SamplePlan, case4_eta_points,
                                 classified_block, hex_coefficient_arrays)
from hexcover.geometry import A2, A4, A6, POINT_INDEX
from hexcover.model import (
    Case,
    EtaPoint,
    KappaVector,
    MONOMIAL_INPUTS,
    ab_values,
    classify,
    closed_form_bound,
    condition_table,
    eval_hex_poly,
    hex_coefficients,
    negative_prefactor,
    reduce,
)

from conftest import sample_case4

rate = st.floats(min_value=1e-2, max_value=1e2)


def test_reduce_all_ones():
    eta = reduce(KappaVector((1.0,) * 12))
    assert eta == (2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0)


def test_reduce_k1_ratio():
    k = [1.0] * 12
    k[0] = 2.0  # kappa1 = 2, kappa2 = kappa3 = 1
    assert reduce(KappaVector(tuple(k))).K1 == 1.0


def test_reduce_bits_match_michaelis_menten_per_enzyme():
    """``reduce`` gives K = (k_off + k_cat) / k_on of each enzyme and its k_cat, bit for bit."""
    kappas = np.exp(np.random.default_rng(2024).uniform(-20.0, 20.0, (1000, 12))).tolist()
    for k in kappas:
        expected = ((k[1] + k[2]) / k[0], (k[4] + k[5]) / k[3], (k[7] + k[8]) / k[6], (k[10] + k[11]) / k[9],
                    k[2], k[5], k[8], k[11])
        assert tuple(reduce(KappaVector(k))) == expected


@given(st.tuples(*([rate] * 12)), st.floats(min_value=0.5, max_value=4.0))
def test_reduce_scale_compatible(k, c):
    eta = reduce(KappaVector(k))
    scaled = list(k)
    scaled[0] *= c
    scaled[1] *= c
    scaled[2] *= c
    eta2 = reduce(KappaVector(tuple(scaled)))
    assert math.isclose(eta2.K1, eta.K1, rel_tol=1e-12)


def test_kappa_validation():
    with pytest.raises(ValueError):
        KappaVector((1.0,) * 11)
    with pytest.raises(ValueError):
        KappaVector((0.0,) + (1.0,) * 11)
    with pytest.raises(ValueError):
        EtaPoint(1, 1, 1, 1, 1, 1, 1, -1)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_every_eta_and_kappa_constructor_checks(bad):
    eta = EtaPoint(5.0, 1.0, 1.0, 5.0, 2.0, 1.0, 1.0, 1.0)
    fields = eta._asdict()
    for make in (lambda: EtaPoint(*eta[:7], bad), lambda: EtaPoint(**{**fields, "K3": bad}),
                 lambda: EtaPoint._make([bad, *eta[1:]]), lambda: eta._replace(k6=bad)):
        with pytest.raises(ValueError, match="all eta components must be strictly positive"):
            make()
    for make in (lambda: KappaVector((1.0,) * 11 + (bad,)), lambda: KappaVector(k=[bad] + [1.0] * 11)):
        with pytest.raises(ValueError, match="all rate constants must be strictly positive"):
            make()
    for make in (lambda: KappaVector((1.0,) * 11), lambda: KappaVector(k=iter([1.0] * 13))):
        with pytest.raises(ValueError, match="need 12 rate constants"):
            make()
    with pytest.raises(TypeError):
        EtaPoint(*eta[:7])


def test_eta_and_kappa_are_their_values():
    kappa = KappaVector(k=[1.0] * 12)
    eta = reduce(kappa)
    assert isinstance(kappa, tuple) and kappa == (1.0,) * 12
    assert isinstance(eta, tuple) and tuple(eta) == (eta.K1, eta.K2, eta.K3, eta.K4, eta.k3, eta.k6, eta.k9, eta.k12)
    assert EtaPoint(K1=3, K2=1, K3=1, K4=3, k3=1, k6=1, k9=1, k12=1) == (3, 1, 1, 3, 1, 1, 1, 1)
    assert eta.swapped() == (eta.K4, eta.K3, eta.K2, eta.K1, *eta[4:])


def test_ab_all_ones():
    assert ab_values(reduce(KappaVector((1.0,) * 12))) == (0.0, 0.0)


CASE3_WITNESS = EtaPoint(K1=3, K2=1, K3=1, K4=3, k3=1, k6=1, k9=1, k12=1)


def test_case3_witness():
    a, b = ab_values(CASE3_WITNESS)
    assert a == 0.0 and b == -4.0
    assert classify(CASE3_WITNESS).tag is Case.CASE3_A_ZERO_B_NEG


def test_classify_examples():
    assert classify(reduce(KappaVector((1.0,) * 12))).tag is Case.CASE1_MONOSTATIONARY
    # k6*k9 > k3*k12 forces a < 0
    assert classify(EtaPoint(1, 1, 1, 1, 1, 2, 2, 1)).tag is Case.CASE2_MULTISTATIONARY
    assert classify(EtaPoint(5, 1, 1, 5, 2, 1, 1, 1)).tag is Case.CASE4_A_POS_B_NEG


def test_classify_rejects_nan():
    with pytest.raises(ValueError):
        classify(EtaPoint(1, 1, 1, 1, math.inf, math.inf, 1, 1))  # a = inf - inf


def test_case4_rule_never_holds_for_nan(monkeypatch):
    # every (a, b) over +-0, +-1, +-inf and NaN, fed to the three users of the case-4 rule
    values = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan)
    pairs = list(itertools.product(values, values))
    eta = EtaPoint(*(2.0,) * 8)  # stands in for any point: a and b come from the patch
    for a, b in pairs:
        monkeypatch.setattr(model, "ab_values", lambda _: (a, b))
        case4 = a > 0 and b < 0
        if math.isnan(a) or math.isnan(b):
            with pytest.raises(ValueError):
                classify(eta)
        else:
            assert (classify(eta).tag is Case.CASE4_A_POS_B_NEG) == case4
        if case4:
            closed_form_bound(15, eta)
        else:
            with pytest.raises(ValueError):
                closed_form_bound(15, eta)

    tiled_a, tiled_b = (np.resize([p[i] for p in pairs], RAW_BLOCK) for i in (0, 1))
    monkeypatch.setattr(experiment, "a_value", lambda k3, k6, k9, k12: tiled_a)
    # the block computes b only on the columns its a > 0 pre-filter keeps
    monkeypatch.setattr(experiment, "b_value", lambda eta: tiled_b[tiled_a > 0])
    _, a, b = classified_block(1, 0, 1.0)
    case4 = np.array([x > 0 and y < 0 for x, y in zip(tiled_a, tiled_b)])
    assert not (np.isnan(a).any() or np.isnan(b).any())
    assert np.array_equal(a, tiled_a[case4]) and np.array_equal(b, tiled_b[case4])


def test_case4_inequality_chain():
    # sampled case-4 points satisfy (K1+K4)/(K2+K3) > k3*k12/(k6*k9) > 1
    rng = np.random.default_rng(99)
    kappa = rng.uniform(0.0, 1.0, (12, 100_000))
    kappa = 1.0 - kappa  # strictly positive
    K1 = (kappa[1] + kappa[2]) / kappa[0]
    K2 = (kappa[4] + kappa[5]) / kappa[3]
    K3 = (kappa[7] + kappa[8]) / kappa[6]
    K4 = (kappa[10] + kappa[11]) / kappa[9]
    k3, k6, k9, k12 = kappa[2], kappa[5], kappa[8], kappa[11]
    a = k3 * k12 - k6 * k9
    b = (K2 + K3) * k3 * k12 - (K1 + K4) * k6 * k9
    mask = (a > 0) & (b < 0)
    assert mask.sum() > 1000
    ratio = (k3 * k12 / (k6 * k9))[mask]
    assert (ratio > 1.0).all()
    assert (((K1 + K4) / (K2 + K3))[mask] > ratio).all()


def test_hex_coefficients_match_example_circuit():
    # the {m, a2, a6, a4} coefficients of the displayed single-circuit example
    for eta in case4_eta_points(5, seed=21):
        K1, K2, K3, K4, k3, k6, k9, k12 = eta
        a, b = ab_values(eta)
        coeffs, c_m = hex_coefficients(eta)
        assert math.isclose(c_m, b * K1 * K2 * K3 * k3 * k6 * k12, rel_tol=1e-12)
        assert math.isclose(coeffs[POINT_INDEX[A2]], K1**2 * K2 * K3 * K4 * k3 * k6**2 * k9 * k12,
                            rel_tol=1e-12)
        assert math.isclose(coeffs[POINT_INDEX[A6]], K1**2 * K3**2 * k6**3 * k12**2, rel_tol=1e-12)
        assert math.isclose(coeffs[POINT_INDEX[A4]], a * K2**2 * K4 * k3**2 * k9, rel_tol=1e-12)


def unchecked_coefficients(etas):
    """(coeffs, c_m) of each column of an (8, k) array, in any sign case."""
    coeffs, c_m = hex_coefficient_arrays(etas, *ab_values(etas))
    return list(zip(coeffs.T, c_m.tolist()))


def test_hex_coefficients_flag_non_case4():
    eta = reduce(KappaVector((1.0,) * 12))
    with pytest.raises(ValueError):
        hex_coefficients(eta)
    # the batch kernel checks no case and gives the raw (partially nonpositive) coefficients
    [(coeffs, _)] = unchecked_coefficients(np.array(eta)[:, None])
    assert coeffs[POINT_INDEX[A4]] == 0.0


def eval_p_eta(eta: EtaPoint, x1: float, x2: float, x3: float) -> float:
    """Direct evaluation of the full trivariate polynomial at positive x, the oracle of ``_h_part``."""
    if not (x1 > 0 and x2 > 0 and x3 > 0):
        raise ValueError("x must be strictly positive")
    K1, K2, K3, K4, k3, k6, k9, k12 = eta
    a, b = ab_values(eta)
    value = K2 * k3 * a * (
        K2 * K4 * k3 * k9 * x1**4 * x3**2
        + K1 * K3 * k6 * k12 * (x1**3 * x2**2 * x3 + x1**2 * x2**3 * x3 + x1**2 * x2**2 * x3**2)
        + K2 * K3 * k3 * k12 * x1**3 * x2 * x3**2
    )
    value += K1 * K2 * K3 * k3 * k6 * k12 * b * x1**2 * x2**2 * x3
    value += K1 * k6 * (
        K2**2 * K4 * k3**2 * k9**2 * x1**4 * x3
        + 2 * K2 * K3 * K4 * k3**2 * k9 * k12 * x1**3 * x2 * x3
        + K1 * K2 * K3 * k3 * k6 * k12 * (k9 + k12) * x1**2 * x2**3
        + K1 * K2 * K3 * K4 * k3 * k6 * k9 * k12 * x1**2 * x2**2
        + K1 * K3**2 * k6 * k12**2 * (k3 + k6) * x1 * x2**4
        + 2 * K1 * K2 * K3 * k3 * k6 * k12**2 * x1 * x2**3 * x3
        + K1 * K2 * K3**2 * k3 * k6 * k12**2 * x1 * x2**3
        + K1 * K3**2 * k6**2 * k12**2 * x2**4 * x3
        + K1**2 * K3**2 * k6**2 * k12**2 * x2**4
    )
    return value


def _h_part(eta, x1, x3):
    """Degree-separation oracle for the hexagonal-face restriction.

    The face carries exactly the monomials of joint degree 4 in (x1, x2); the
    rest of the polynomial has joint degree 5.  Evaluating at (x1, 1) and
    (2*x1, 2) separates the two homogeneous parts exactly.
    """
    p1 = eval_p_eta(eta, x1, 1.0, x3)
    p2 = eval_p_eta(eta, 2.0 * x1, 2.0, x3)
    return 2.0 * p1 - p2 / 16.0


def test_hex_poly_matches_full_polynomial():
    rng = np.random.default_rng(5)
    for eta in case4_eta_points(20, seed=33):
        coeffs, c_m = hex_coefficients(eta)
        for _ in range(5):
            x1, x3 = rng.uniform(0.2, 5.0, 2)
            direct = eval_hex_poly(coeffs, c_m, x1, x3)
            assert math.isclose(direct, _h_part(eta, x1, x3), rel_tol=1e-10)


def test_case1_positive_everywhere():
    eta = EtaPoint(2, 2, 2, 2, 2, 1, 1, 1)  # a = 1 > 0, b = 8 - 4 = 4 > 0
    rng = np.random.default_rng(6)
    for _ in range(20):
        x1, x2, x3 = rng.uniform(0.1, 10.0, 3)
        assert eval_p_eta(eta, x1, x2, x3) > 0.0


def test_case2_attains_negative_values(case2_etas):
    grid = np.logspace(-4, 4, 100)
    x1, x3 = np.meshgrid(grid, grid, indexing="ij")
    found = 0
    for coeffs, c_m in unchecked_coefficients(case2_etas(8, 20)):
        if eval_hex_poly(coeffs, c_m, x1, x3).min() < 0:
            found += 1
    assert found >= 19  # grid-resolution misses are rare


def test_eval_p_eta_rejects_nonpositive_x():
    eta = reduce(KappaVector((1.0,) * 12))
    with pytest.raises(ValueError):
        eval_p_eta(eta, 0.0, 1.0, 1.0)


# ---------------------------------------------------------- closed forms


def paper_bound(cover_id, eta):
    """The paper's displayed conditions for covers 4, 10, 12 and 15, typed by hand: the table's oracle."""
    K1, K2, K3, K4, k3, k6, k9, k12 = eta
    a, _ = ab_values(eta)
    x = k3 * k6**2 * k9**2 * k12  # shared radicand of the mixed-row segments
    mixed = 3 * (K1 * K2 * K3 * K4 * x) ** (1 / 3) * ((K2 * K4) ** (1 / 3) / K2 + (K1 * K3) ** (1 / 3) / K3)
    return {
        15: (4 * math.sqrt(K1 * K4 * k6 * k9 * a) + 2 * math.sqrt(K2 * K3 * k3 * k12 * a) + mixed),
        4: 4 * (K1 * K2 * K3 * K4 * k3 * k6 * k9 * k12) ** 0.25 * math.sqrt(2 * a) + mixed,
        10: (4 / K2 * (K1**2 * K2**3 * K3 * K4**2 * x * a) ** 0.25
             + 3 * (K1 * K4**2 * k6**2 * k9**2 * a) ** (1 / 3)
             + 2 * math.sqrt(K2 * K3 * k3 * k12 * a)
             + 3 / K3 * (K1**2 * K2 * K3**2 * K4 * x) ** (1 / 3)),
        12: (4 / K3 * (K1**2 * K2 * K3**3 * K4**2 * x * a) ** 0.25
             + 3 * (K1**2 * K4 * k6**2 * k9**2 * a) ** (1 / 3)
             + 2 * math.sqrt(K2 * K3 * k3 * k12 * a)
             + 3 / K2 * (K1 * K2**2 * K3 * K4**2 * x) ** (1 / 3)),
    }[cover_id]


def test_closed_form_matches_theta_sum():
    for box in (0.1, 1.0, 10.0, 100.0):
        for eta in case4_eta_points(25, seed=13, box_size=box):
            coeffs, _ = hex_coefficients(eta)
            pref = negative_prefactor(eta)
            for cid in range(1, 17):
                lhs = closed_form_bound(cid, eta) * pref
                rhs = cover_theta_sum(cover_fixture(cid).simplices, coeffs)
                assert math.isclose(lhs, rhs, rel_tol=1e-10), (cid, box)


def test_table_matches_the_displayed_conditions():
    for box in (0.1, 1.0, 10.0, 100.0):
        for eta in case4_eta_points(25, seed=13, box_size=box):
            for cid in (4, 10, 12, 15):
                assert math.isclose(closed_form_bound(cid, eta), paper_bound(cid, eta), rel_tol=1e-12), (cid, box)


def test_closed_form_swap_identity():
    for eta in case4_eta_points(50, seed=17):
        assert math.isclose(closed_form_bound(10, eta),
                            closed_form_bound(12, eta.swapped()), rel_tol=1e-12)
        assert math.isclose(closed_form_bound(12, eta),
                            closed_form_bound(10, eta.swapped()), rel_tol=1e-12)


def test_closed_form_9_is_generic_path():
    eta = case4_eta_points(1, seed=19)[0]
    coeffs, _ = hex_coefficients(eta)
    expected = cover_theta_sum(cover_fixture(9).simplices, coeffs) / negative_prefactor(eta)
    assert math.isclose(closed_form_bound(9, eta), expected, rel_tol=1e-12)


def test_closed_form_rejects_bad_input():
    eta = case4_eta_points(1, seed=19)[0]
    for bad in (0, 17, 9.0, True):
        with pytest.raises(ValueError):
            closed_form_bound(bad, eta)
    with pytest.raises(ValueError):
        closed_form_bound(15, reduce(KappaVector((1.0,) * 12)))


TAU = (3, 2, 1, 0, 7, 6, 5, 4, 8)  # the enzyme swap on x = (eta, a): K1<->K4, K2<->K3, k3<->k12, k6<->k9


def _condition(cover_id, permutation=range(9)):
    """A cover's condition as its sorted exact rows (exponents, kappa**60), at x permuted by ``permutation``."""
    rows = map(condition_table().__getitem__, cover_fixture(cover_id).simplices)
    return sorted((tuple(e[j] for j in permutation), kappa_q ** (60 // q)) for e, kappa_q, q, *_ in rows)


def test_twin_and_mirror_covers_are_identities_of_the_table():
    """Covers 1 = 14, 2 = 5, 6 = 7 and 11 = 13 are one multiset of rows each, exactly.

    No other two covers are, and the enzyme swap tau maps 10 to 12 and {2, 5} to {11, 13}, and
    every other class to itself.  Each kappa**q is a Fraction, so kappa**60 compares kappas exactly.
    """
    table = condition_table()
    assert len(table) == 21 and len(set(table.values())) == 15
    classes = {}
    for cid in range(1, 17):
        classes.setdefault(tuple(_condition(cid)), []).append(cid)
    assert sorted(classes.values()) == [[1, 14], [2, 5], [3], [4], [6, 7], [8], [9], [10], [11, 13],
                                        [12], [15], [16]]
    mirror = {tuple(ids): classes[tuple(_condition(ids[0], TAU))] for ids in classes.values()}
    assert mirror == {**{tuple(ids): ids for ids in classes.values()},
                      (10,): [12], (12,): [10], (2, 5): [11, 13], (11, 13): [2, 5]}


def _power(name, k):
    return name if k == 1 else f"{name}^{k}"


def _term(row, count):
    """count * kappa * x**e as README prints it: kappa an integer or a q-th root, x**e under one root."""
    exponents, kappa_q, q, kappa, _ = row
    if round(kappa) ** q == kappa_q:
        coefficient = str(count * round(kappa))
    else:
        base = str(kappa_q) if kappa_q.denominator == 1 else f"({kappa_q})"
        coefficient = ("" if count == 1 else f"{count}*") + f"{base}^(1/{q})"
    d = math.lcm(*(e.denominator for e in exponents))
    num, den = ("*".join(_power(x, abs(e) * d) for x, e in zip(MONOMIAL_INPUTS, exponents) if sign * e > 0)
                for sign in (1, -1))
    body = num + (f"/{den}" if den else "")
    return f"{coefficient}*" + (f"({body})^(1/{d})" if d > 1 else body)


def condition_line(cover_id):
    """A cover's condition, -b <= its monomials in fixture order, with equal monomials merged."""
    table, counts = condition_table(), {}
    for simplex in cover_fixture(cover_id).simplices:
        counts[table[simplex]] = counts.get(table[simplex], 0) + 1
    return f"CC({cover_id}): -b <= " + " + ".join(_term(m, n) for m, n in counts.items())


def test_readme_lists_the_table_conditions():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = [line for line in readme.splitlines() if line.startswith("CC(") and " -b <= " in line]
    assert listed == [condition_line(cid) for cid in range(1, 17)]


def test_certificate_scale_invariance():
    # scaling (k3, k6, k9, k12) by t scales a, b by t^2 and both certificate
    # sides identically, so the verdict is invariant
    for eta in case4_eta_points(10, seed=23):
        for t in (0.1, 3.0):
            scaled = EtaPoint(eta.K1, eta.K2, eta.K3, eta.K4,
                              t * eta.k3, t * eta.k6, t * eta.k9, t * eta.k12)
            a0, b0 = ab_values(eta)
            a1, b1 = ab_values(scaled)
            assert math.isclose(a1, t * t * a0, rel_tol=1e-12)
            assert math.isclose(b1, t * t * b0, rel_tol=1e-12)
            for cid in (4, 9, 10, 12, 15):
                verdict0 = -b0 <= closed_form_bound(cid, eta)
                verdict1 = -b1 <= closed_form_bound(cid, scaled)
                assert verdict0 == verdict1


def test_scalar_c_m_matches_batch_bits():
    """A single point is a batch of one: the scalar API gets each sample's batch bits.

    The ten coefficients and c_m, every cover's Theta sum (from
    ``cover_theta_sum`` and from ``CoverEvaluator`` on the point's (10,)
    column) and the cover-9 bound of its sum of 20,000 case-4 samples equal
    the Monte-Carlo kernels' values; the table's cover-9 bound agrees within 1e-12.
    """
    plan = SamplePlan(target_case4_samples=20_000, seed=11)
    eta, coeffs, c_m = (np.concatenate(parts, axis=-1) for parts in zip(*sample_case4(plan)))
    evaluator = CoverEvaluator()
    thetas = evaluator.theta_sums(np.log(coeffs))
    scalar_coeffs, scalar_c_m, scalar_thetas, bound9, table9, prefactor = [], [], [], [], [], []
    for column in eta.T.tolist():
        point = EtaPoint(*column)
        column, point_c_m = hex_coefficients(point)
        scalar_coeffs.append(column)
        scalar_c_m.append(point_c_m)
        scalar_thetas.append([cover_theta_sum(cover.simplices, column) for cover in evaluator.covers])
        bound9.append(closed_form_bound(9, point, scalar_thetas[-1][evaluator.cover_ids.index(9)]))
        table9.append(closed_form_bound(9, point))
        prefactor.append(negative_prefactor(point))
    assert np.array_equal(np.array(scalar_coeffs).T, coeffs)
    assert np.array_equal(np.array(scalar_c_m), c_m)
    assert np.array_equal(np.array(scalar_thetas).T, thetas)
    row9 = thetas[evaluator.cover_ids.index(9)]
    assert np.array_equal(np.array(bound9), row9 / np.array(prefactor))
    assert np.allclose(table9, bound9, rtol=1e-12, atol=0)
    column_thetas = np.array([evaluator.theta_sums(np.log(coeffs[:, j])) for j in range(coeffs.shape[1])])
    assert np.array_equal(column_thetas.T.view(np.uint64), thetas.view(np.uint64))


def _rounded_product(*factors):
    """factors[0] * factors[1] * ... left to right, each product exact and then rounded to float64."""
    total = factors[0]
    for factor in factors[1:]:
        total = float(Fraction(total) * Fraction(factor))  # Fraction -> float rounds correctly
    return total


def _reference_coefficients(eta, a, b):
    """The coefficient formulas with every power written out as rounded products (no pow)."""
    K1, K2, K3, K4, k3, k6, k9, k12 = eta
    p = _rounded_product
    K1_2, K2_2, K3_2, k3_2, k6_2, k9_2, k12_2 = (p(x, x) for x in (K1, K2, K3, k3, k6, k9, k12))
    K1_3, k6_3 = p(K1_2, K1), p(k6_2, k6)
    coeffs = [  # A1, A2, A3, A4, A5, A6, B1, B2, I1, I2: HEXAGON_POSITIVE order
        p(K1_3, K3_2, k6_3, k12_2),
        p(K1_2, K2, K3, K4, k3, k6_2, k9, k12),
        p(K1, K2_2, K4, k3_2, k6, k9_2),
        p(a, K2_2, K4, k3_2, k9),
        p(a, K1, K2, K3, k3, k6, k12),
        p(K1_2, K3_2, k6_3, k12_2),
        p(K1_2, K2, K3_2, k3, k6_2, k12_2),
        p(a, K2_2, K3, k3_2, k12),
        p(2.0, K1_2, K2, K3, k3, k6_2, k12_2),
        p(2.0, K1, K2, K3, K4, k3_2, k6, k9, k12),
    ]
    return coeffs, p(b, K1, K2, K3, k3, k6, k12)


@pytest.mark.parametrize("box", [1.0, 2.0**-99, 2.0**150], ids=["1", "2^-99", "2^150"])
def test_coefficient_kernel_is_ieee_products_on_floats_columns_and_batches(box):
    """Python floats, an (8, 1) column and the (8, k) batch give the same bits,
    and those of a reference that rounds after every product: no pow is left."""
    (eta, coeffs, c_m), = sample_case4(SamplePlan(box_size=box, target_case4_samples=300, seed=5))
    a, b = ab_values(eta)
    batch = np.vstack([coeffs, c_m]).view(np.uint64)
    for j, column in enumerate(eta.T.tolist()):
        point_a, point_b = ab_values(column)
        point_coeffs, point_c_m = hex_coefficient_arrays(column, point_a, point_b)
        assert type(point_c_m) is float and point_coeffs.shape == (10,)
        col_coeffs, col_c_m = hex_coefficient_arrays(eta[:, [j]], a[j], b[j])
        ref_coeffs, ref_c_m = _reference_coefficients(column, point_a, point_b)
        for values in ([*point_coeffs, point_c_m], [*col_coeffs[:, 0], col_c_m[0]], [*ref_coeffs, ref_c_m]):
            assert np.array_equal(np.array(values).view(np.uint64), batch[:, j]), (box, j)
