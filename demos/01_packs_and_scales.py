#!/usr/bin/env python3
"""Tour of the pack zoo: generators, boundary distances, ladders, annuli.

Run:  python3 demos/01_packs_and_scales.py
"""

import c0cover as cc

# A pack is a finite metric sample with a distinguished boundary X.
# The simplest interesting one: cylinders X x {geometric levels}.
pack = cc.generate_pack("finite_cylinder", n_base=3, n_levels=6)
print(f"finite_cylinder: {pack.n_points} points, |X| = {len(pack.boundary)}, "
      f"k_sup = {pack.k_sup:g}, resolution floor = {pack.delta_res:g}")

# Boundary distances are exact levels on product packs.
deepest = min(pack.interior, key=lambda p: pack.boundary_dist[p])
print(f"deepest interior point sits at distance {pack.boundary_dist[deepest]:g} from X")

# A scale ladder realizes the nested neighborhoods W_n = B(X, r_n).
ladder = cc.default_ladder(pack)
print(f"default ladder: {len(ladder)} rungs from {ladder[0]:g} down to {ladder[-1]:g}")

# Annuli are the differences W_n minus the closure of W_{n+2}; they cover the
# interior with every point in at most two consecutive ones.
counts = {p: 0 for p in pack.interior}
for n in range(len(ladder) - 2):
    for p in cc.annulus(pack, ladder, n):
        counts[p] += 1
print("annulus membership counts:", sorted(set(counts.values())))

# The boundary-approach profile h: how far a boundary point can be from the
# part of the pack at depth >= t.  It decays to the resolution floor.
h = cc.h_profile(pack, ladder)
for t in (1.2, 0.3, 0.01, ladder[-1]):
    print(f"  h({t:g}) = {h.value_at(t):g}")

# The other generators: a 65-point interval cross 12 levels, a circle collar,
# a cube face, and the countable triangular pack.
for kind in ("interval_cylinder", "circle_in_disk", "cube_face", "countable_example"):
    p = cc.generate_pack(kind)
    print(f"{kind}: {p.n_points} points, known_dim = {p.known_dim}, cylindrical = {p.cylindrical}")
