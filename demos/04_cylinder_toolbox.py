#!/usr/bin/env python3
"""Product-space toolbox: the coarse equivalence maps, pullbacks, the lower bound.

Run:  python3 demos/04_cylinder_toolbox.py
"""

import c0cover as cc
from c0cover.cylinder import fg_displacement

pack = cc.generate_pack("finite_cylinder", n_base=3, n_levels=12)
ladder = cc.default_ladder(pack)
h = cc.h_profile(pack, ladder)

# f sends an interior point to (nearest boundary point, depth); g picks the
# point at depth >= t nearest a boundary point.  Their round trip moves a
# slot by at most 3 h(t).
z = sorted(pack.boundary)[0]
for t in (0.9, 0.2, 0.05):
    d = fg_displacement(pack, z, t)
    print(f"f(g({z}, {t:g})) moved by {d:g} <= 3 h(t) = {3 * h.value_at(t):g}")

# Transported relations stay controlled.
e = cc.controlled_E(pack, ladder, cc.LambdaSpec.identity(ladder))
print("f x f image accepts:", cc.fxf_modulus(pack, e).accept)

# Pullbacks along embeddings never increase multiplicity.
host = cc.generate_pack("circle_in_disk")
emb = cc.collar_embedding(host)
lad = cc.default_ladder(host)
alpha, _ = cc.minimal_canonical(host, cc.ball_cover(cc.controlled_E(host, lad, cc.LambdaSpec.identity(lad))))
beta = cc.pullback_cover(emb, alpha)
print(f"collar pullback: mult {cc.multiplicity(beta)} <= {cc.multiplicity(alpha)} "
      f"(embedding distortion {emb.distortion:.3f})")

# The lower bound mult >= dim X + 2 compares the multiplicity witness with
# the bound.  The circle's accepted alpha falls short of it: its base sample
# is too coarse to resolve the deep witnesses (an open item of ROADMAP.md).
res = cc.lower_bound_check(host, alpha, lad)
print(f"lower bound on the circle's alpha: mult {res.mult} >= {res.bound} is {res.holds}")
