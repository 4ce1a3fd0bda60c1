import hashlib
import json

import numpy as np
import pytest

import c0cover as cc
from c0cover.cylinder import (
    _column_structure,
    cylinder_over_boundary,
    fg_displacement,
    fxf_image,
    image_density_gap,
    induced_pack,
)
from c0cover.errors import (
    BoundaryInput,
    EmptyOuterSet,
    NonCylindricalPack,
    PackMismatch,
    ProviderMismatch,
    UniformityRejected,
)


def test_f_map_examples(line3, cyl_fixture):
    # fixed point on exact cylinders
    p = next(q for q in cyl_fixture.interior if cyl_fixture.boundary_dist[q] == 0.25)
    z, t = cc.f_map(cyl_fixture, p)
    assert (z, t) == (cyl_fixture.meta["base_of"][p], 0.25)
    # lowest-id tiebreak on the line
    assert cc.f_map(line3, 1) == (0, 1.0)
    with pytest.raises(BoundaryInput):
        cc.f_map(line3, 0)


def test_g_map_examples(line3):
    pack = cc.generate_pack("finite_cylinder", n_base=1, n_levels=3, ratio=0.5)
    y = cc.g_map(pack, 0, 0.3)
    assert pack.boundary_dist[y] == 0.5  # smallest level >= t
    y_top = cc.g_map(pack, 0, pack.k_sup)
    assert pack.boundary_dist[y_top] == pack.k_sup
    with pytest.raises(EmptyOuterSet):
        cc.g_map(pack, 0, pack.k_sup + 0.1)


def test_fg_roundtrip_exact(cyl_fixture):
    levels = sorted({float(t) for t in cyl_fixture.boundary_dist if t > 0})
    for z in cyl_fixture.boundary:
        for t in (0.09, 0.3, 0.6, 1.0):
            y = cc.g_map(cyl_fixture, z, t)
            z2, t2 = cc.f_map(cyl_fixture, y)
            assert z2 == z
            assert t2 == min(l for l in levels if l >= t)


def test_fg_displacement_bound(finite_pack, interval_pack, countable_pack):
    for pack in (finite_pack, interval_pack, countable_pack):
        h = cc.h_profile(pack, cc.default_ladder(pack))
        levels = sorted({float(t) for t in pack.boundary_dist if t > 0})
        ts = levels + [0.7 * t for t in levels[:4]]
        for z in sorted(pack.boundary)[:8]:
            for t in ts:
                if t <= pack.k_sup:
                    assert fg_displacement(pack, z, t) <= 3 * h.value_at(t) + 1e-12


def test_fxf_image_accepts(finite_pack, countable_pack):
    for pack in (finite_pack, countable_pack):
        ladder = cc.default_ladder(pack)
        e = cc.controlled_E(pack, ladder, cc.LambdaSpec.identity(ladder))
        verdict = cc.fxf_modulus(pack, e)
        assert verdict.accept


def test_fxf_identity_on_exact_cylinders(finite_pack):
    ladder = cc.default_ladder(finite_pack)
    e = cc.controlled_E(finite_pack, ladder, cc.LambdaSpec.identity(ladder))
    cyl, fe = fxf_image(finite_pack, e)
    assert cyl.n_points == finite_pack.n_points
    assert len(fe) == len(e)


def test_image_density(finite_pack, countable_pack):
    # every cylinder slot lies within h(level) of the image (a third of the
    # proof's 3 h(t) chain bound)
    for pack in (finite_pack, countable_pack):
        assert image_density_gap(pack) <= 1.0 / 3.0 + 1e-12


def test_pullback_identity(finite_pipeline):
    pack, alpha = finite_pipeline["pack"], finite_pipeline["alpha"]
    emb = cc.identity_embedding(pack)
    assert cc.pullback_cover(emb, alpha) == alpha
    singles = cc.singleton_cover(pack)
    assert cc.pullback_cover(emb, singles) == singles


def test_pullback_circle_collar(circle_pipeline):
    host, alpha = circle_pipeline["pack"], circle_pipeline["alpha"]
    emb = cc.collar_embedding(host)
    assert emb.distortion > 0  # chord-sum vs Euclidean differ off the boundary
    beta = cc.pullback_cover(emb, alpha)
    assert cc.multiplicity(beta) <= cc.multiplicity(alpha)
    ind = induced_pack(emb)
    lad2 = cc.default_ladder(ind)
    assert cc.uniformity_verdict(ind, lad2, beta).accept


def test_lower_bound_examples(interval_pipeline, countable_pack):
    pack, ladder, alpha = (
        interval_pipeline["pack"],
        interval_pipeline["ladder"],
        interval_pipeline["alpha"],
    )
    res = cc.lower_bound_check(pack, alpha, ladder)
    assert res.holds and res.mult == 3 and res.bound == 3
    assert res.refutation is None
    assert cc.mult_at(alpha.members, res.witness_point) == res.mult_at_witness

    with pytest.raises(NonCylindricalPack):
        cc.lower_bound_check(countable_pack, cc.singleton_cover(countable_pack))

    with pytest.raises(UniformityRejected):
        cc.lower_bound_check(pack, cc.whole_space_cover(pack), ladder)


def test_cover_checks_refuse_a_cover_over_another_pack():
    source = cc.generate_pack("interval_cylinder", n_base=33, n_levels=9)
    pack = cc.generate_pack("interval_cylinder", n_base=33, n_levels=10)
    ladder = cc.default_ladder(pack)
    for cand in cc.random_uniform_candidates(source, np.random.default_rng(0), 10):
        # the ids fit inside the larger pack, but miss a whole level of it
        assert len(pack.interior - set().union(*cand.members)) == 33
        with pytest.raises(PackMismatch):
            cc.is_canonical(pack, ladder, cand)
        with pytest.raises(PackMismatch):
            cc.lower_bound_check(pack, cand, ladder)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the circle's accepted alpha has multiplicity 2 < 3, "
    "and the experiment leaves it out of the sweep through _deep_witness_resolved",
)
def test_circle_alpha_holds_the_lower_bound(circle_pipeline):
    pack, ladder, alpha = circle_pipeline["pack"], circle_pipeline["ladder"], circle_pipeline["alpha"]
    assert cc.lower_bound_check(pack, alpha, ladder).holds


def test_random_candidates_hold_bound(finite_pack, interval_pack, circle_pack, rng):
    for pack in (finite_pack, interval_pack):
        ladder = cc.default_ladder(pack)
        for cand in cc.random_uniform_candidates(pack, rng, 20):
            res = cc.lower_bound_check(pack, cand, ladder)
            assert res.holds, f"refutation on {pack.kind}: {res.mult} < {res.bound}"
    # the circle's slabs run over its rings; slabs over the 42 distinct depths of 24x10's
    # 10 rings could hold part of a ring and refute the bound falsely
    circles = [cc.generate_pack("circle_in_disk", n_angles=n, n_levels=10) for n in (24, 32)]
    for pack in (*circles, circle_pack):
        ladder = cc.default_ladder(pack)
        for seed in range(5):
            for cand in cc.random_uniform_candidates(pack, np.random.default_rng(seed), 40):
                res = cc.lower_bound_check(pack, cand, ladder)
                assert res.holds, f"refutation on circle seed {seed}: {res.mult} < {res.bound}"


@pytest.mark.parametrize("n_angles, n_levels", [(32, 10), (48, 12)])
def test_circle_slots_are_rings(n_angles, n_levels):
    pack = cc.generate_pack("circle_in_disk", n_angles=n_angles, n_levels=n_levels)
    _, levels, slots = _column_structure(pack)
    assert slots.shape == (n_angles, n_levels) and len(levels) == n_levels
    assert (slots >= 0).all()  # every (angle, ring) slot holds its point: 320/320 and 576/576


def test_candidates_refuse_noncylindrical(countable_pack, rng):
    with pytest.raises(NonCylindricalPack):
        cc.random_uniform_candidates(countable_pack, rng, 1)


def test_cylinder_over_boundary_structure(line3):
    cyl = cylinder_over_boundary(line3, [1.0, 0.5])
    assert cyl.n_points == 2 + 4
    assert cyl.k_sup == 1.0
    b_idx = {b: i for i, b in enumerate(cyl.meta["source_boundary"])}
    grid = list(zip(cyl.meta["base_of"], cyl.meta["level_of"]))
    p = grid.index((b_idx[0], 0.5))
    assert cyl.boundary_dist[p] == 0.5
    assert cyl.nearest_boundary[p] == b_idx[0]


# -- outputs pinned on the per-point loops that computed f and the levels before ------------------


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else json.dumps(data).encode()).hexdigest()


@pytest.mark.parametrize(
    "kind, params, sha256",
    [
        ("finite_cylinder", dict(n_base=3, n_levels=10), "0301305929946e46309c33fdbd3074cb057f348469731e1d772e9593ce4e7006"),
        ("interval_cylinder", dict(n_base=33, n_levels=10), "75373b2b822e1ca14361e37b88c1cdaddd23d3e0ffc4b4e071c006972a2031d5"),
        ("circle_in_disk", dict(n_angles=32, n_levels=10), "7ba8d17bb77dd6d822b71a7797e5c98138d1eaee5d939a6b7c44050d7290c7b1"),
    ],
)
def test_random_candidates_pinned(kind, params, sha256):
    pack = cc.generate_pack(kind, **params)
    covers = cc.random_uniform_candidates(pack, np.random.default_rng(7), 20)
    assert _sha([sorted(sorted(m) for m in c.members) for c in covers]) == sha256


@pytest.mark.parametrize(
    "kind, params, pairs_sha256, dist_sha256, gap",
    [
        (
            "finite_cylinder",
            dict(n_base=3, n_levels=12),
            "c1db2243e162c454a224dfb1f3d89ce134d60fc803228c6dcbcbb243e59d99d5",
            "91ff8cdf80b099be2429b26b463e8d4d0141c3b090a917ba079307dc39ec27f5",
            0.0,
        ),
        (
            "countable_example",
            dict(n_y=6),
            "9db335a48681c729713ac844bbf76dda9adc4c3a9140c519eaad9df04dfe7085",
            "57c4cf0e30bfe6289d5648f1a56bbc8b711b15c4b1975b0e1dbc77f389d85392",
            0.25,
        ),
    ],
)
def test_fxf_image_pinned(kind, params, pairs_sha256, dist_sha256, gap):
    pack = cc.generate_pack(kind, **params)
    ladder = cc.default_ladder(pack)
    e = cc.controlled_E(pack, ladder, cc.LambdaSpec.identity(ladder))
    cyl, fe = fxf_image(pack, e)
    assert _sha(sorted(fe.pairs)) == pairs_sha256
    assert _sha(cyl.dist.tobytes()) == dist_sha256
    levels = sorted({float(t) for t in pack.boundary_dist if t > 0})
    assert _sha(cylinder_over_boundary(pack, levels).dist.tobytes()) == dist_sha256
    assert image_density_gap(pack) == gap


def test_image_density_gap_pinned_circle():
    pack = cc.generate_pack("circle_in_disk", n_angles=32, n_levels=10)
    assert image_density_gap(pack) == 4.3730281716954246e-14


def test_induced_cylinder_draws_the_generators_candidates():
    pack = cc.generate_pack("finite_cylinder", n_base=3, n_levels=10)
    cyl = cylinder_over_boundary(pack, pack.meta["levels"])
    assert (cyl.cylindrical, cyl.known_dim) == (True, 0)
    want = cc.random_uniform_candidates(pack, np.random.default_rng(0), 20)
    got = cc.random_uniform_candidates(cyl, np.random.default_rng(0), 20)
    assert [(c.ids.tolist(), c.offsets.tolist()) for c in got] == [(c.ids.tolist(), c.offsets.tolist()) for c in want]
    ladder = cc.default_ladder(cyl)
    assert all(cc.lower_bound_check(cyl, c, ladder).holds for c in got)


def test_induced_interval_cylinder_runs_the_lower_bound():
    pack = cc.generate_pack("interval_cylinder", n_base=9, n_levels=4)
    cyl = cylinder_over_boundary(pack, pack.meta["levels"])
    assert (cyl.cylindrical, cyl.known_dim) == (True, 1)
    # the singletons are uniform, and their multiplicity 1 refutes the bound on both packs alike
    got = cc.lower_bound_check(cyl, cc.singleton_cover(cyl))
    assert got.to_dict() == cc.lower_bound_check(pack, cc.singleton_cover(pack)).to_dict()
    assert not got.holds
    # no coordinates give the induced cylinder a base line yet
    with pytest.raises(ProviderMismatch):
        cc.random_uniform_candidates(cyl, np.random.default_rng(0), 5)


def test_collar_induced_pack_keeps_the_dimension():
    host = cc.generate_pack("circle_in_disk", n_angles=8, n_levels=3)
    ind = induced_pack(cc.collar_embedding(host))
    assert (ind.cylindrical, ind.known_dim) == (True, 1)


def test_cylinder_over_boundary_is_a_product_pack(finite_pack):
    # the induced cylinder over an exact cylinder is the generator's pack again
    cyl = cylinder_over_boundary(finite_pack, finite_pack.meta["levels"])
    for name in ("k_sup", "delta_res", "boundary"):
        assert getattr(cyl, name) == getattr(finite_pack, name)
    for name in ("levels", "base_of", "level_of"):
        assert cyl.meta[name] == finite_pack.meta[name]
    assert cyl.dist.tobytes() == finite_pack.dist.tobytes()
    assert cyl.meta["source_boundary"] == sorted(finite_pack.boundary)
