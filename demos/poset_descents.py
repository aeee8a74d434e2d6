"""Ideal descents of linear extensions, and the edge-counting identity.

For any bounded poset and proper order ideal, the descent counts over all
linear extensions add up to the number of extensions, and average to one
on every even/odd orbit.
"""

import random

from braidhooks import (
    Shape,
    descents,
    dihedral_orbits,
    linear_extensions,
    order_ideals,
    poset_phi,
    poset_phi_inverse,
    random_bounded_poset,
    shape_poset,
    verify_edges,
)
from braidhooks.posets import diamond_poset

print("== the diamond ==")
poset = diamond_poset()
extensions = linear_extensions(poset)
ideal = frozenset({"bot"})
for ext in extensions:
    print("extension", ext.seq, "descents for {bot}:", descents(ext, ideal))
report = verify_edges(poset, ideal)
print(f"extensions: {report['lhs']}, total descents: {report['rhs']},"
      f" per-orbit averages {[str(o['average']) for o in report['per_orbit']]}")

print("\n== the descent bijection on the diamond ==")
pairs = [(p, ext) for ext in extensions for p in descents(ext, ideal)]
for p, ext in pairs:
    image = poset_phi(p, ext, ideal)
    back = poset_phi_inverse(image, ideal)
    print(f"({p}, {ext.seq}) -> {image.seq} -> back {back == (p, ext)}")

print("\n== the staircase cells form a bounded poset too ==")
cells = shape_poset(Shape.right((4, 3, 2, 1)))
bottom = cells.minimum()
report = verify_edges(cells, frozenset({bottom}))
print(f"12 fillings revisited: lhs {report['lhs']} = rhs {report['rhs']},"
      f" ok {report['ok']}")

print("\n== a seeded random sweep ==")
rng = random.Random(7)
checked = 0
for _ in range(25):
    poset = random_bounded_poset(rng, rng.randint(3, 7))
    extensions = linear_extensions(poset)
    orbits = dihedral_orbits(extensions)
    for ideal in order_ideals(poset):
        if not ideal or len(ideal) == poset.size:
            continue
        checked += 1
        assert verify_edges(poset, ideal)["ok"]
print(f"{checked} (poset, ideal) pairs verified, all averages one")
