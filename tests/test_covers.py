
import numpy as np
import pytest

import c0cover as cc
from c0cover.covers import cover_from_json, cover_to_json, image_family
from c0cover.errors import BadParams, EmptyMember, MemberOutsideTarget, NotACover, NotARefinement, PackMismatch


def make_pack(n):
    """n points on a line at unit spacing, endpoints as boundary."""
    d = [[abs(i - j) for j in range(n)] for i in range(n)]
    return cc.validate_pack(n, d, [0, n - 1])


def test_multiplicity_examples():
    fam = [frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})]
    assert cc.multiplicity(fam) == 2
    assert cc.mult_at(fam, 2) == 2
    assert cc.mult_on(fam, {1, 4}) == 2
    assert cc.multiplicity([]) == 0


def test_mult_along_diagonal_matches_multiplicity(cyl_fixture):
    fam = [frozenset(list(cyl_fixture.interior)[:2]), frozenset(list(cyl_fixture.interior)[1:])]
    diag = cc.diagonal(cyl_fixture)
    assert cc.mult_along(fam, diag) == cc.multiplicity(fam)


def test_mult_along_dominates_multiplicity(rng):
    from c0cover.verify import random_family, random_pack, random_relation

    for _ in range(100):
        pack = random_pack(rng, 8, 2)
        alpha = random_family(rng, pack, int(rng.integers(1, 5)))
        e = random_relation(rng, pack)
        e = cc.Relation(pack, e.pairs | {(p, p) for p in pack.points})
        assert cc.mult_along(alpha, e) >= cc.multiplicity(alpha)


def test_common_multiplicity_examples():
    a = [frozenset({1, 2}), frozenset({2, 3})]
    assert cc.common_multiplicity(a, a) == 2 * cc.multiplicity(a)
    # singleton partitions of a finite set
    p1 = [frozenset({1}), frozenset({2})]
    p2 = [frozenset({1, 2})]
    assert cc.common_multiplicity(p1, p2) == 2
    assert cc.common_multiplicity(p1) == cc.multiplicity(p1) == 1


def test_common_multiplicity_dominates_union():
    a = [frozenset({1, 2}), frozenset({2, 3})]
    b = [frozenset({2, 4})]
    union = a + b
    assert cc.common_multiplicity(a, b) >= cc.multiplicity(union)
    # equality when the families are disjoint as set families
    assert cc.common_multiplicity(a, b) == cc.multiplicity(union)


def test_mesh_star_delta_trivial(cyl_fixture):
    singles = cc.singleton_cover(cyl_fixture)
    assert cc.mesh(cyl_fixture, singles) == 0.0
    s = set(list(cyl_fixture.interior)[:2])
    assert cc.star(singles, s) == s
    assert cc.delta_of(singles) == cc.diagonal(cyl_fixture)

    whole = cc.whole_space_cover(cyl_fixture)
    assert cc.star(whole, s) == cyl_fixture.interior
    interior = sorted(cyl_fixture.interior)
    assert cc.delta_of(whole).pairs == {(p, q) for p in interior for q in interior}


def test_star_equals_delta_image_exhaustive(rng):
    from c0cover.verify import random_family, random_pack

    pack = random_pack(rng, 8, 2)
    pts = list(pack.points)
    for _ in range(30):
        alpha = cc.Cover.make(pack, random_family(rng, pack, 3), target=pack.points)
        rel = cc.delta_of(alpha)
        for bits in range(256):
            s = frozenset(p for p in pts if (bits >> p) & 1)
            assert cc.star(alpha, s) == rel.image(s)


def test_star_monotone(rng):
    from c0cover.verify import random_family, random_pack, random_subset

    for _ in range(50):
        pack = random_pack(rng, 8, 2)
        alpha = random_family(rng, pack, 4)
        s = random_subset(rng, pack.points)
        s2 = s | random_subset(rng, pack.points)
        assert cc.star(alpha, s) <= cc.star(alpha, s2)


def test_refines_examples(cyl_fixture):
    singles = cc.singleton_cover(cyl_fixture)
    whole = cc.whole_space_cover(cyl_fixture)
    w = cc.refines(singles, whole)
    assert w.verify()
    w2 = cc.refines(whole, whole)
    assert w2.verify()
    assert all(v == u for v, u in w2.assignment.items())


def test_refines_failure():
    fam_a = [frozenset({0, 1}), frozenset({2, 3})]
    fam_b = [frozenset({1, 2})]  # straddles both members
    with pytest.raises(NotARefinement):
        cc.refines(fam_b, fam_a)


@pytest.mark.parametrize(
    "finer, coarser",
    [([{-1}], [{3}]), ([{1.5}], [{0, 1, 2}]), ([{"a"}], [{3}]), ([{0}], [{0, -1}])],
    ids=["negative", "fraction", "string", "negative_coarser"],
)
def test_refines_refuses_ids_that_are_no_point(finer, coarser):
    # read as an index, -1 would wrap onto the last point and 1.5 truncate to 1
    with pytest.raises(BadParams):
        cc.refines(finer, coarser)


def test_lebesgue_whole_target():
    pack = make_pack(4)
    target = list(pack.points)
    whole = [frozenset(target)]
    assert cc.lebesgue_number(pack, whole, target) == pack.diam(target)


def test_lebesgue_two_halves():
    pack = make_pack(4)
    beta = [frozenset({0, 1}), frozenset({2, 3})]
    assert cc.lebesgue_number(pack, beta, pack.points) == 1.0


def test_lebesgue_not_a_cover():
    pack = make_pack(4)
    with pytest.raises(NotACover):
        cc.lebesgue_number(pack, [frozenset({0, 1})], pack.points)


@pytest.mark.parametrize("p", [-1, -3, 20, 99])
def test_plain_family_ids_outside_the_pack_are_typed(p):
    """An id past the end would fail untyped, and numpy would wrap a negative one."""
    pack = cc.generate_pack("interval_cylinder", n_base=5, n_levels=3)
    ladder = cc.default_ladder(pack)
    everything = frozenset(pack.points)
    msg = f"point {p} outside the pack"
    calls = [
        lambda: cc.lebesgue_number(pack, [everything, {p}], pack.points),
        lambda: cc.lebesgue_number(pack, [everything], [*pack.points, p]),
        lambda: cc.mesh(pack, [{0, p}]),
        lambda: cc.uniformity_verdict(pack, ladder, [{5, p}]),
        lambda: cc.covers.member_stats(pack, [[0, 1], [p]]),
    ]
    assert pack.n_points == 20
    for call in calls:
        with pytest.raises(PackMismatch, match=msg):
            call()


def test_lebesgue_guarantee_random(rng):
    from c0cover.verify import random_family, random_pack

    for _ in range(500):
        pack = random_pack(rng, int(rng.integers(5, 9)), 2)
        pts = frozenset(pack.points)
        fam = random_family(rng, pack, int(rng.integers(2, 5)))
        rest = pts - frozenset().union(*fam)
        if rest:
            fam.append(rest)
        ell = cc.lebesgue_number(pack, fam, pts)
        n = pack.n_points
        for bits in range(1, 1 << n):
            s = frozenset(p for p in range(n) if (bits >> p) & 1)
            if pack.diam(s) < ell:
                assert any(s <= m for m in fam)


def test_uniformity_singletons_accept(cyl_fixture, cyl_ladder):
    v = cc.uniformity_verdict(cyl_fixture, cyl_ladder, cc.singleton_cover(cyl_fixture))
    assert v.accept
    assert v.floor_value == 0.0


def test_uniformity_whole_space_rejects(cyl_fixture, cyl_ladder, interval_pack):
    v = cc.uniformity_verdict(cyl_fixture, cyl_ladder, cc.whole_space_cover(cyl_fixture))
    assert not v.accept
    assert v.floor_value == pytest.approx(cyl_fixture.diam(cyl_fixture.interior))
    v2 = cc.uniformity_verdict(interval_pack, cc.default_ladder(interval_pack), cc.whole_space_cover(interval_pack))
    assert not v2.accept


def test_uniformity_canonical_output_accepts(finite_pipeline):
    pack, ladder, alpha = finite_pipeline["pack"], finite_pipeline["ladder"], finite_pipeline["alpha"]
    assert cc.uniformity_verdict(pack, ladder, alpha).accept


def test_uniformity_preserved_under_refinement(finite_pipeline, rng):
    """Refined families have pointwise-dominated curves."""
    pack, ladder, alpha = finite_pipeline["pack"], finite_pipeline["ladder"], finite_pipeline["alpha"]
    base = cc.uniformity_verdict(pack, ladder, alpha)
    assert base.accept
    members = []
    for m in alpha.members:  # random shrink of every member
        pts = sorted(m)
        keep = [p for p in pts if rng.uniform() < 0.6] or [pts[0]]
        members.append(frozenset(keep))
    beta = cc.Cover.make(pack, members, target="interior")
    fine = cc.uniformity_verdict(pack, ladder, beta)
    assert fine.accept
    assert np.all(fine.curve.value_at(ladder.array) <= base.curve.value_at(ladder.array) + 1e-12)


def test_cover_construction_checks(cyl_fixture):
    with pytest.raises(EmptyMember):
        cc.Cover.make(cyl_fixture, [frozenset()], target="interior")
    with pytest.raises(MemberOutsideTarget):
        cc.Cover.make(cyl_fixture, [cyl_fixture.boundary], target="interior")
    for p in (-1, cyl_fixture.n_points):  # a custom target holds point ids of the pack
        with pytest.raises(PackMismatch):
            cc.Cover.make(cyl_fixture, [[p]], target=[p])
    fam = cc.Cover.make(cyl_fixture, [list(cyl_fixture.interior)[:1]], target="interior")
    assert not fam.covers_flag
    with pytest.raises(NotACover):
        fam.require_cover()


def test_image_family_drops_and_dedupes(line3):
    e = cc.Relation(line3, [(0, 1), (2, 1)])
    fam = [frozenset({1}), frozenset({1, 0}), frozenset({0})]
    out = image_family(e, fam)
    assert frozenset({0, 2}) in out
    assert len(out) == len(set(out))


def test_cover_json_roundtrip(cyl_fixture):
    cov = cc.singleton_cover(cyl_fixture)
    back = cover_from_json(cyl_fixture, cover_to_json(cov))
    assert back == cov
