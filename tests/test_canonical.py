import dataclasses
import hashlib
import json

import numpy as np
import pytest

import c0cover as cc
from c0cover import covers, relations
from c0cover.canonical import (
    ExtBetas,
    _build_dim0,
    ball_betas,
    boundary_ball_cover,
    default_mesh_targets,
    ext_family,
)
from c0cover.errors import (
    BadParams,
    BetaDoesNotCoverBoundary,
    LadderExhausted,
    NotBoundarySubset,
    ProviderMismatch,
    UniformityRejected,
)


def test_ext_examples(line3):
    assert cc.ext(line3, {0}) == {0}  # the tied midpoint is excluded
    assert cc.ext(line3, {0, 2}) == frozenset(line3.points)
    assert cc.ext(line3, set()) == frozenset()
    with pytest.raises(NotBoundarySubset):
        cc.ext(line3, {1})


def test_ext_properties_exhaustive(line3):
    from c0cover.verify import check_ext_properties, random_pack

    rng = np.random.default_rng(5)
    small_cyl = cc.generate_pack("finite_cylinder", n_base=2, n_levels=4)
    rnd = random_pack(rng, 12, 5)
    results = check_ext_properties([line3, small_cyl, rnd], seed=5, n_random=50)
    assert all(r.failures == 0 for r in results)


def whole(pack):
    return np.ones((1, pack.n_points), dtype=bool)


def rows_of(pack, members):
    """The members x points bool matrix of a list of point sets."""
    rows = np.zeros((len(members), pack.n_points), dtype=bool)
    for i, m in enumerate(members):
        rows[i, sorted(m)] = True
    return rows


def test_build_alpha_annuli_only(cyl_fixture, cyl_ladder):
    betas = [whole(cyl_fixture)] * 3
    alpha = cc.build_alpha(cyl_fixture, cyl_ladder, betas)
    got = set(alpha.members)
    want = {cc.annulus(cyl_fixture, cyl_ladder, n) for n in range(3)}
    assert got == want
    assert cc.multiplicity(alpha) == 2
    assert alpha.covers_flag


def test_build_alpha_beta_not_covering(cyl_fixture, cyl_ladder):
    betas = [whole(cyl_fixture), rows_of(cyl_fixture, [cyl_fixture.interior]), whole(cyl_fixture)]
    with pytest.raises(BetaDoesNotCoverBoundary):
        cc.build_alpha(cyl_fixture, cyl_ladder, betas)


def test_build_alpha_needs_enough_betas(cyl_fixture, cyl_ladder):
    with pytest.raises(LadderExhausted):
        cc.build_alpha(cyl_fixture, cyl_ladder, [whole(cyl_fixture)])


def test_build_alpha_interval_betas_bound(interval_pipeline):
    assert interval_pipeline["report"].multiplicity <= 3


def test_refine_subsequence_singletons(finite_pack):
    ladder = cc.default_ladder(finite_pack)
    betas = ball_betas(finite_pack, 40)
    gamma = cc.singleton_cover(finite_pack)
    indices, alpha, witness = cc.refine_subsequence(finite_pack, ladder, betas, gamma)
    assert indices[0] == 0 and all(b > a for a, b in zip(indices, indices[1:]))
    assert witness.verify()
    assert alpha.covers_flag


def test_refine_subsequence_builds_no_curve(finite_pack, monkeypatch):
    """gamma's uniformity check needs ACCEPT alone: it reads the floor value and builds no curve."""
    calls = []
    for module in (covers, relations):
        real = module._scale_curve_verdict
        monkeypatch.setattr(module, "_scale_curve_verdict", lambda *a, real=real, **k: calls.append(a) or real(*a, **k))
    ladder = cc.default_ladder(finite_pack)
    cc.refine_subsequence(finite_pack, ladder, ball_betas(finite_pack, 40), cc.singleton_cover(finite_pack))
    assert calls == []


def test_refine_subsequence_ball_cover(finite_pipeline):
    pack, ladder = finite_pipeline["pack"], finite_pipeline["ladder"]
    gamma = cc.Cover.make(pack, [*finite_pipeline["gamma"].members, *cc.singleton_cover(pack).members])
    betas = ball_betas(pack, 40)
    indices, alpha, witness = cc.refine_subsequence(pack, ladder, betas, gamma)
    assert witness.verify()
    for v, u in witness.assignment.items():
        assert v <= u


def test_refine_subsequence_ladder_exhausted(finite_pack):
    short = cc.ScaleLadder((2.5, 1.1, 0.9))  # never reaches the sample floor
    with pytest.raises((LadderExhausted, cc.C0CoverError)):
        betas = ball_betas(finite_pack, 40)
        cc.refine_subsequence(finite_pack, short, betas, cc.singleton_cover(finite_pack))


def test_canonical_refining_countable():
    # deep enough that the bottom annuli sit below the uniformity threshold
    pack = cc.generate_pack("countable_example", n_y=40)
    singles = cc.singleton_cover(pack)
    alpha = cc.canonical_refining(pack, singles)
    assert alpha.covers_flag
    ladder = cc.default_ladder(pack)
    assert cc.uniformity_verdict(pack, ladder, alpha).accept
    assert cc.refines(singles, alpha).verify()


def test_canonical_refining_rejects_bad_gamma(finite_pack):
    whole = cc.whole_space_cover(finite_pack)
    with pytest.raises(UniformityRejected):
        cc.canonical_refining(finite_pack, whole)


def test_star_expand_trivial(finite_pack):
    from c0cover.canonical import star_expand_members

    ladder = cc.default_ladder(finite_pack)
    diag = cc.diagonal(finite_pack)
    singles = cc.singleton_cover(finite_pack)
    out = cc.star_expand(diag, singles, singles, ladder)
    assert out == singles
    # the raw formula on the whole-space family (which fails the op's
    # uniformity precondition): star over everything is everything
    whole = cc.whole_space_cover(finite_pack)
    assert star_expand_members(diag, singles, whole) == [finite_pack.interior]
    with pytest.raises(UniformityRejected):
        cc.star_expand(diag, singles, whole, ladder)


def test_star_expand_chain_inequality():
    from c0cover.verify import check_star_expansion

    results = check_star_expansion(seed=11, n_each=80)
    assert all(r.failures == 0 for r in results)


def test_boundary_ball_cover(interval_pack):
    cov = boundary_ball_cover(interval_pack, 0.3)
    assert cov.covers_flag
    assert all(interval_pack.diam(m) <= 0.6 for m in cov.members)


def provider_covers(provider, pack):
    """The provider's boundary covers over the whole default mesh schedule, made by index."""
    targets = default_mesh_targets(pack)
    make = provider.build(pack, targets)
    return targets, [make(i) for i in range(len(targets))]


def test_cover_sequence_validation(interval_pack):
    provider = cc.interval_dim1_provider()
    targets, covers = provider_covers(provider, interval_pack)
    assert set(covers[0].members) == {interval_pack.boundary}
    for i, cov in enumerate(covers):
        assert cov.covers_flag
        assert cc.multiplicity(cov) <= 2
        assert cc.mesh(interval_pack, cov) <= targets[i]
        if i + 1 < len(covers):
            assert cc.common_multiplicity(cov, covers[i + 1]) <= provider.common_mult_bound == 3


def test_beta_length_counts_the_circle_rings():
    # 8 + ceil(log(k_sup / delta_res) / log 1.4) = 33 beats 10 rings + 8; the 50 float-noise depths gave 58
    pack = cc.generate_pack("circle_in_disk", n_angles=32, n_levels=10)
    assert cc.canonical.beta_length_for(pack) == 33


def test_finite_provider_blocks(finite_pack):
    provider = cc.finite_dim0_provider()
    targets, covers = provider_covers(provider, finite_pack)
    for i, cov in enumerate(covers[1:], 1):
        assert cc.multiplicity(cov) == 1  # partitions
        assert cc.mesh(finite_pack, cov) <= targets[i]
    assert max(map(cc.common_multiplicity, covers, covers[1:])) <= provider.common_mult_bound == 2


def test_circle_provider_adapts(circle_pack):
    provider = cc.interval_dim1_provider()
    _, covers = provider_covers(provider, circle_pack)
    assert all(cov.covers_flag for cov in covers)
    assert max(map(cc.common_multiplicity, covers, covers[1:])) <= 3


def test_minimal_canonical_finite(finite_pipeline):
    rep = finite_pipeline["report"]
    assert rep.multiplicity == 2
    assert rep.bound_dim_plus_2 == 2
    assert rep.witness_ok
    assert rep.uniformity["accept"]
    assert finite_pipeline["alpha"].covers_flag


def test_minimal_canonical_interval(interval_pipeline):
    rep = interval_pipeline["report"]
    assert rep.multiplicity == 3
    assert rep.naive_bound_2dim_plus_2 == 4
    assert rep.witness_ok
    assert rep.uniformity["accept"]


def test_pipeline_report_is_small(interval_pipeline):
    # the written form of `cover build --report`: curves as breakpoints, not one sample per rung
    text = json.dumps(interval_pipeline["report"].to_dict(), sort_keys=True, indent=2)
    assert interval_pipeline["report"].ladder_rungs > 10_000
    assert len(text.encode()) < 2_000


def test_minimal_canonical_circle(circle_pack):
    ladder = cc.default_ladder(circle_pack)
    e = cc.controlled_E(circle_pack, ladder, cc.LambdaSpec.identity(ladder))
    gamma = cc.ball_cover(e)
    alpha, rep = cc.minimal_canonical(circle_pack, gamma)
    assert rep.multiplicity <= 3
    assert rep.witness_ok
    assert rep.uniformity["accept"]


def test_minimal_canonical_bound_from_common_mult(finite_pipeline, interval_pipeline):
    for pipe in (finite_pipeline, interval_pipeline):
        rep = pipe["report"]
        assert rep.multiplicity <= rep.max_common_mult


def test_minimal_canonical_makes_only_the_covers_it_reads(monkeypatch):
    # the mesh schedule has 33 covers; alpha and max_common_mult read covers 0, skip, ... up to the subsequence's length
    pack = cc.generate_pack("interval_cylinder", n_base=33, n_levels=10)
    ladder = cc.default_ladder(pack)
    gamma = cc.ball_cover(cc.controlled_E(pack, ladder, cc.LambdaSpec.identity(ladder)))
    made, make = [], cc.Cover.make.__func__
    record = classmethod(lambda cls, *a, **kw: made.append(kw.get("target")) or make(cls, *a, **kw))
    monkeypatch.setattr(cc.Cover, "make", record)
    _, rep = cc.minimal_canonical(pack, gamma)
    assert len(default_mesh_targets(pack)) == 33
    assert 0 < made.count("boundary") <= len(rep.subsequence) + 1


def ball_gamma(pack, ladder):
    return cc.ball_cover(cc.controlled_E(pack, ladder, cc.LambdaSpec.identity(ladder)))


def test_circle_128_builds():
    # the covers past the fast-forward meet the bound; the pair of covers 2 and 3, which alpha never reads, does not
    pack = cc.generate_pack("circle_in_disk", n_angles=128, n_levels=12)
    alpha, rep = cc.minimal_canonical(pack, ball_gamma(pack, cc.default_ladder(pack)))
    assert alpha.covers_flag and rep.witness_ok
    assert rep.multiplicity <= rep.max_common_mult <= 3


def test_circle_256_holds_the_lower_bound():
    # the resolved circle: the sample is fine enough that alpha reaches dim X + 2 = 3
    pack = cc.generate_pack("circle_in_disk", n_angles=256, n_levels=12)
    ladder = cc.default_ladder(pack)
    alpha, rep = cc.minimal_canonical(pack, ball_gamma(pack, ladder), cc.provider_for(pack), ladder, 0.1)
    assert rep.multiplicity == cc.multiplicity(alpha) == 3
    assert cc.is_canonical(pack, ladder, alpha, 0.1)
    assert cc.lower_bound_check(pack, alpha, ladder, 0.1).holds


def shifted_dim0(pack, targets):
    make = _build_dim0(pack, targets)
    return lambda i: make(i + 1)  # cover 0 is a block partition, not {X}


@pytest.mark.parametrize(
    "provider, message",
    [
        (dataclasses.replace(cc.finite_dim0_provider(), common_mult_bound=1), "common multiplicity 2 of covers 0,"),
        (cc.Provider("whole", 0, 2, lambda pack, _: lambda i: cc.whole_space_cover(pack, "boundary")), "mesh target"),
        (cc.Provider("shifted", 0, 2, shifted_dim0), "cover 0 must be the one-member family"),
    ],
    ids=["bound_1", "mesh", "cover_0"],
)
def test_minimal_canonical_checks_the_covers_it_reads(finite_pipeline, provider, message):
    with pytest.raises(BadParams, match=message):
        cc.minimal_canonical(finite_pipeline["pack"], finite_pipeline["gamma"], provider)


def test_provider_mismatch(finite_pack):
    gamma = cc.singleton_cover(finite_pack)
    with pytest.raises(ProviderMismatch):
        cc.minimal_canonical(finite_pack, gamma, cc.interval_dim1_provider())


def test_provider_for_unknown_dim():
    cube = cc.generate_pack("cube_face", n_side=3, n_levels=3)
    with pytest.raises(ProviderMismatch):
        cc.provider_for(cube)


def test_ext_family_matches_pointwise(line3):
    images = ext_family(line3, rows_of(line3, [{0}, {0, 2}]))
    assert images.dtype == bool and images.shape == (2, 3)
    assert [set(np.flatnonzero(row).tolist()) for row in images] == [cc.ext(line3, {0}), cc.ext(line3, {0, 2})]


# sha256 of cover_to_json(alpha) for both entry points; the cube_face pin is
# the only run of the dimension-2 path
ALPHA_PINS = [
    ("minimal", "interval_cylinder", dict(n_base=33, n_levels=10),
     "c7c44dc8ae558adbf6cbee121b197719ab81dd762616e9ea67b78e89638096b6"),
    ("minimal", "circle_in_disk", dict(n_angles=32, n_levels=10),
     "3d75af949fe2198a59f06f02288c5aa5b4245f97b337ed5416d659554344d632"),
    ("refining", "cube_face", {}, "0d06659b7ea2d3dd05910264bff8e7d9fffe89f7da83da69dacfc4b0d59962b8"),
    ("refining", "countable_example", dict(n_y=40),
     "4a05d22e4b4bd4548204f360af7b36f37a815c508cadbc5faee2eabd53343346"),
]


@pytest.mark.parametrize("entry, kind, params, digest", ALPHA_PINS)
def test_alpha_pinned(entry, kind, params, digest):
    pack = cc.generate_pack(kind, **params)
    ladder = cc.default_ladder(pack)
    if entry == "minimal":
        gamma = cc.ball_cover(cc.controlled_E(pack, ladder, cc.LambdaSpec.identity(ladder)))
        alpha, _ = cc.minimal_canonical(pack, gamma)
    else:
        gamma = cc.singleton_cover(pack)
        alpha = cc.canonical_refining(pack, gamma)
    assert alpha.covers_flag
    assert cc.refines(gamma, alpha).verify()
    assert hashlib.sha256(cc.covers.cover_to_json(alpha).encode()).hexdigest() == digest


def test_ext_betas_family_zero_is_whole_space(interval_pack):
    betas = ExtBetas(interval_pack, 2, lambda n: cc.whole_space_cover(interval_pack, "boundary"))
    assert betas[0].tolist() == betas[1].tolist() == whole(interval_pack).tolist()
    assert not betas[1].flags.writeable and betas[1] is betas[1]
    with pytest.raises(IndexError):
        betas[2]
