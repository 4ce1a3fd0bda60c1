#!/usr/bin/env python3
"""Relation algebra and displacement verdicts.

Run:  python3 demos/02_relations_and_verdicts.py
"""

import c0cover as cc

pack = cc.generate_pack("interval_cylinder", n_base=33, n_levels=10)
ladder = cc.default_ladder(pack)

# The controlled diagonal neighborhood: pairs closer than the gauge
# phi(t) = h(t) + lambda(t) + h(t + lambda(t)) at the nearer endpoint's depth.
lam = cc.LambdaSpec.identity(ladder)
e = cc.controlled_E(pack, ladder, lam)
print(f"controlled relation: {len(e)} pairs, symmetric = {e.is_symmetric()}, "
      f"diagonal = {e.contains_diagonal()}")

# Its displacement curve decays toward the boundary and accepts.
verdict = cc.c0_modulus(pack, ladder, e)
print(f"displacement verdict: accept = {verdict.accept}, floor value = {verdict.floor_value:g}")
# The curve is a running max, so it keeps only the rungs where its value changes.
print(f"  curve: {len(verdict.curve.samples)} breakpoints over {len(ladder)} rungs")

# The all-pairs relation drags far-apart boundary points together: reject.
bad = cc.c0_modulus(pack, ladder, cc.full_relation(pack))
print(f"all-pairs verdict:    accept = {bad.accept}, floor value = {bad.floor_value:g}")

# Relation algebra obeys the usual identities on the nose.
diag = cc.diagonal(pack)
assert cc.compose(diag, e) == e
x = sorted(pack.interior)[5]
assert cc.compose(e, e).ball(x) == e.image(e.ball(x))
print("compose/ball/image identities check out")

# Balls of an accepted relation cover the interior; the cover is uniform.
gamma = cc.ball_cover(e)
uv = cc.uniformity_verdict(pack, ladder, gamma)
print(f"ball cover: {len(gamma)} members, uniform accept = {uv.accept}")

# Shrinking along the relation keeps the multiplicity controlled.
shrunk = cc.shrink_cover(e, gamma)
print(f"shrunk cover: {len(shrunk)} members, "
      f"mult along E = {cc.mult_along(shrunk, e)} <= mult(gamma) = {cc.multiplicity(gamma)}")
