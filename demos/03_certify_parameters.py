"""Certifying monostationarity for sampled rate constants.

Reduces a 12-dimensional rate-constant vector to the 8 parameters eta,
classifies the sign case, and (in case 4) runs every cover certificate plus
the closed-form sufficient conditions.
"""

from hexcover import (
    KappaVector,
    ab_values,
    case4_eta_points,
    classify,
    closed_form_bound,
    cover_theta_sum,
    hex_coefficients,
    reduce,
)
from hexcover.covers import all_covers
from hexcover.model import negative_prefactor

# Symmetric rate constants land in case 1: every coefficient is nonnegative
# and the network is monostationary outright.
eta = reduce(KappaVector((1.0,) * 12))
print("all-ones kappa ->", classify(eta).tag.name)

# A case-4 point needs the circuit certificates.  Take one from the seeded
# sampling stream so the demo is reproducible.
eta = case4_eta_points(1, seed=2024)[0]
a, b = ab_values(eta)
print(f"\nsampled case-4 point: a = {a:.4g}, b = {b:.4g}")

coeffs, c_m = hex_coefficients(eta)
neg_cm = -c_m
print(f"certificate threshold -c_m = {neg_cm:.6g}\n")

hits = []
for cover in all_covers():
    theta = cover_theta_sum(cover.simplices, coeffs)
    verdict = "certified" if theta >= neg_cm else "-"
    hits.append(theta >= neg_cm)
    print(f"CC({cover.id:>2}): Theta sum = {theta:10.4f}  {verdict}")

print("\nunion verdict:", "monostationary" if any(hits) else "undetermined")

# The five displayed bounds agree with the generic Theta-sum machinery.
pref = negative_prefactor(eta)
print("\nclosed-form bounds (certificate holds iff -b <= bound):")
for cid in (4, 9, 10, 12, 15):
    bound = closed_form_bound(cid, eta)
    print(f"  CC({cid:>2}): bound = {bound:10.4f}   Theta/prefactor = "
          f"{cover_theta_sum(all_covers()[cid - 1].simplices, coeffs) / pref:10.4f}")
