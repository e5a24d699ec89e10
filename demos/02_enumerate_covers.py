"""Enumerating the 16 pure covers of the hexagonal face.

A pure cover partitions the ten positive support points into segments and
triangles that each contain the negative point m = (2,1) in their relative
interior.  Enumeration is exact (rational arithmetic throughout).
"""

from hexcover import canonical_key, enumerate_pure_covers
from hexcover.covers import census
from hexcover.geometry import HEXAGON_POSITIVE, M, POINT_NAMES, POINT_INDEX

covers = enumerate_pure_covers(HEXAGON_POSITIVE, M)
print(f"{len(covers)} pure covers of the hexagon\n")

for cover in sorted(covers, key=lambda c: c.id):
    blocks = []
    for s in cover.simplices:
        blocks.append("{" + ",".join(POINT_NAMES[POINT_INDEX[v]] for v in s.vertices) + "}")
    print(f"CC({cover.id:>2}): {' '.join(blocks):45s} key={canonical_key(cover)}")

print("\nstructure census:", census(covers))

# The enumerator is generic; the toy quadrilateral of the weighted example has
# no pure cover at all, which is why the coefficient there must be split.
toy = [(4, 2), (2, 0), (0, 1), (0, 0)]
print("pure covers of the toy quadrilateral:", enumerate_pure_covers(toy, (2, 1)))
