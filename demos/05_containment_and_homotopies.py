"""Containment structure of the 16 certificates and weighted-cover homotopies.

The per-sample hit bitmasks admit richer questions than plain ratios: which
covers' certified regions (empirically) contain which, which covers own points
no other cover certifies, and whether convex combinations of two covers beat
both endpoints.
"""

from hexcover import (
    SamplePlan,
    binomial_sigma,
    containment_analysis,
    evaluate_covers,
    linear_homotopy,
    simplicial_homotopy,
)

N = 200_000
plan = SamplePlan(box_size=1.0, target_case4_samples=N, seed=42, threads=4)
matrix = evaluate_covers(plan, keep_theta=range(1, 17))

report = containment_analysis(matrix)
print("containment edges (A certified-subset-of B, zero violations):")
for a, b in report.edges:
    print(f"  CC({a}) -> CC({b})")
print("near-containment (within the numerical-noise band):", report.near_edges)
print("covers with identical certified sets:", [g for g in report.equal_groups if len(g) > 1])
print("Hasse edges after merging equals and reducing transitively:", report.hasse_edges)

uniq = {cid: int(report.unique_counts[cid - 1]) for cid in range(1, 17)
        if report.unique_counts[cid - 1] > 0}
print("unique-point owners (samples certified by exactly one cover):", uniq)

# Linear homotopy between covers 4 and 9: the certificate
# (1-t)*Theta(4) + t*Theta(9) >= -c_m interpolates the two pure covers, and
# its hit ratio peaks strictly inside (0, 1).
curve = linear_homotopy(matrix, 4, 9, dt=0.05)
print("\nH(4,9) hit ratio along t:")
for (t,), r in zip(curve.grid, curve.ratios):
    bar = "#" * int((r - 0.976) * 4000)
    print(f"  t={t:4.2f}  {r:.5f} {bar}")

# The mirror pair 10/12 also improves when mixed.
curve1012 = linear_homotopy(matrix, 10, 12, dt=0.05)
peak = max(curve1012.ratios)
print(f"\nH(10,12): endpoints {curve1012.ratios[0]:.5f} / {curve1012.ratios[-1]:.5f}, "
      f"interior peak {peak:.5f} (~{(peak - curve1012.ratios[0]) / binomial_sigma(peak, N):.1f} sigma up)")

# Three-cover mixtures on a triangular grid never beat the best pure cover 15.
grid = simplicial_homotopy(matrix, 10, 12, 15, delta=1 / 16)
print(f"\nsimplicial H(10,12,15): best grid ratio {max(grid.ratios):.5f} "
      f"vs pure CC(15) {matrix.ratios[14]:.5f}")
