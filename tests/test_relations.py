import numpy as np
import pytest

import c0cover as cc
from c0cover.errors import BadParams, LambdaNotDecaying, MemberOutsideTarget, NotCovering, PackMismatch
from c0cover.relations import relation_from_json, relation_to_json


def test_compose_ball_examples(line3):
    diag = cc.diagonal(line3, line3.points)
    assert cc.compose(diag, diag) == diag
    for p in line3.points:
        assert diag.ball(p) == {p}
    e = cc.Relation(line3, [(0, 1)])
    f = cc.Relation(line3, [(1, 2)])
    assert cc.compose(e, f).pairs == {(0, 2)}


def test_inverse_and_image(line3):
    e = cc.Relation(line3, [(0, 1), (1, 2)])
    assert e.inverse().pairs == {(1, 0), (2, 1)}
    assert e.image({1, 2}) == {0, 1}
    assert e.ball(1) == {0}


def test_pack_mismatch(line3, cyl_fixture):
    e = cc.Relation(line3, [(0, 1)])
    f = cc.Relation(cyl_fixture, [(0, 1)])
    with pytest.raises(PackMismatch):
        cc.compose(e, f)


def test_image_meet_identity_exhaustive(rng):
    """E(A) meets B iff A meets E^{-1}(B), all subsets of a 6-point pack."""
    from c0cover.verify import random_pack, random_relation

    pack = random_pack(rng, 6, 2)
    pts = list(pack.points)
    for _ in range(20):
        e = random_relation(rng, pack, 0.3)
        inv = e.inverse()
        for bits_a in range(64):
            a = frozenset(p for p in pts if (bits_a >> p) & 1)
            for bits_b in range(64):
                b = frozenset(p for p in pts if (bits_b >> p) & 1)
                assert bool(e.image(a) & b) == bool(a & inv.image(b))


def test_c0_diagonal_accepts(cyl_fixture, cyl_ladder):
    verdict = cc.c0_modulus(cyl_fixture, cyl_ladder, cc.diagonal(cyl_fixture))
    assert verdict.accept
    assert all(v == 0.0 for v in verdict.curve.values)


def test_c0_all_pairs_rejects(line3):
    ladder = cc.ScaleLadder((1.5, 0.7, 0.5))
    verdict = cc.c0_modulus(line3, ladder, cc.full_relation(line3))
    assert not verdict.accept
    # the far boundary pair keeps the curve at the diameter at every scale
    assert verdict.floor_value == 2.0
    assert all(v == 2.0 for v in verdict.curve.values)


def test_c0_controlled_E_dominated_by_phi(finite_pack):
    ladder = cc.default_ladder(finite_pack)
    lam = cc.LambdaSpec.identity(ladder)
    e = cc.controlled_E(finite_pack, ladder, lam)
    verdict = cc.c0_modulus(finite_pack, ladder, e)
    assert verdict.accept
    phi = cc.relations.controlled_phi(finite_pack, ladder, lam)
    assert np.all(verdict.curve.value_at(ladder.array) <= phi.values + 1e-12)


def test_diag_nbhd_tiny_and_huge(line3):
    ladder = cc.ScaleLadder((1.5, 0.7, 0.5))
    tiny = cc.LambdaSpec.constant(ladder, 1e-9)
    assert cc.diag_nbhd_from_lambda(line3, tiny) == cc.diagonal(line3)
    huge = cc.LambdaSpec.constant(ladder, 10.0)
    interior = sorted(line3.interior)
    want = {(p, q) for p in interior for q in interior}
    assert cc.diag_nbhd_from_lambda(line3, huge).pairs == want


def test_diag_nbhd_identity_gauge_enumeration():
    """lambda(t) = t on a two-column fixture, derived by direct enumeration."""
    pack = cc.generate_pack("finite_cylinder", n_base=2, n_levels=4, spacing=2.0, ratio=0.5)
    ladder = cc.ScaleLadder((1.5, 0.9, 0.6, 0.35, 0.18, 0.09, 0.04))
    lam = cc.LambdaSpec.identity(ladder)
    e = cc.diag_nbhd_from_lambda(pack, lam)
    interior = sorted(pack.interior)
    expected = set()
    for p in interior:
        for q in interior:
            t = min(pack.boundary_dist[p], pack.boundary_dist[q])
            if pack.d(p, q) < lam.at(t):
                expected.add((p, q))
    assert e.pairs == expected
    assert e.is_symmetric()
    assert e.contains_diagonal()


def test_controlled_E_symmetric_with_diagonal(finite_pack):
    ladder = cc.default_ladder(finite_pack)
    e = cc.controlled_E(finite_pack, ladder, cc.LambdaSpec.identity(ladder))
    assert e.is_symmetric()
    assert e.contains_diagonal()


def test_controlled_E_rejects_nondecaying(finite_pack):
    ladder = cc.default_ladder(finite_pack)
    lam = cc.LambdaSpec.constant(ladder, 0.5)  # never decays
    with pytest.raises(LambdaNotDecaying):
        cc.controlled_E(finite_pack, ladder, lam)


def test_ball_cover_examples(cyl_fixture, countable_pack):
    singles = cc.ball_cover(cc.diagonal(cyl_fixture))
    assert set(singles.members) == {frozenset([p]) for p in cyl_fixture.interior}

    # deep balls shrink with the gauge: each stays inside the phi ball of its
    # center, so the deepest members are tiny relative to the shallow ones
    deep = cc.generate_pack("countable_example", n_y=20)
    ladder = cc.default_ladder(deep)
    lam = cc.LambdaSpec.identity(ladder)
    e = cc.controlled_E(deep, ladder, lam)
    cover = cc.ball_cover(e)
    phi = cc.relations.controlled_phi(deep, ladder, lam)
    deepest = min(deep.interior, key=lambda p: deep.boundary_dist[p])
    deep_ball = e.ball(deepest)
    assert deep.diam(deep_ball) <= 2 * phi.value_at(float(deep.boundary_dist[deepest]))
    shallow = max(deep.interior, key=lambda p: deep.boundary_dist[p])
    assert deep.diam(deep_ball) < deep.diam(e.ball(shallow))
    assert cover.covers_flag

    no_diag = cc.Relation(cyl_fixture, [])
    with pytest.raises(NotCovering):
        cc.ball_cover(no_diag)


def test_shrink_cover_diagonal_identity(cyl_fixture):
    diag = cc.diagonal(cyl_fixture)
    alpha = cc.singleton_cover(cyl_fixture)
    assert cc.shrink_cover(diag, alpha) == alpha


def test_shrink_cover_full(cyl_fixture):
    interior = sorted(cyl_fixture.interior)
    full = cc.Relation(cyl_fixture, [(p, q) for p in interior for q in interior])
    whole = cc.whole_space_cover(cyl_fixture)
    assert cc.shrink_cover(full, whole) == whole


def test_shrink_cover_random_property(rng):
    from c0cover.verify import check_shrink

    results = check_shrink(seed=3, n_each=60)
    assert all(r.failures == 0 for r in results)


def test_relation_json_roundtrip(line3):
    e = cc.Relation(line3, [(0, 1), (2, 0)])
    assert relation_from_json(line3, relation_to_json(e)) == e


@pytest.mark.parametrize("text", ["not json", "{}", "[[1]]", '[["a", 1]]', "[[0, 1.5]]", "[[0, true]]"])
def test_relation_file_malformed(line3, text):
    with pytest.raises(BadParams):
        relation_from_json(line3, text)


def test_relation_file_out_of_range(line3):
    with pytest.raises(PackMismatch):
        relation_from_json(line3, "[[0, 3]]")


@pytest.fixture(scope="module")
def finite_3x10():
    pack = cc.generate_pack("finite_cylinder", n_base=3, n_levels=10)
    ladder = cc.default_ladder(pack)
    e = cc.controlled_E(pack, ladder, cc.LambdaSpec.identity(ladder))
    return pack, ladder, e, cc.ball_cover(e)


TOL_ENTRY_POINTS = {
    "c0_modulus": lambda pack, ladder, e, gamma, tol: cc.c0_modulus(pack, ladder, e, tol),
    "uniformity_verdict": lambda pack, ladder, e, gamma, tol: cc.uniformity_verdict(pack, ladder, gamma, tol),
    "is_canonical": lambda pack, ladder, e, gamma, tol: cc.is_canonical(pack, ladder, gamma, tol),
    "lower_bound_check": lambda pack, ladder, e, gamma, tol: cc.lower_bound_check(pack, gamma, ladder, tol),
    "controlled_E": lambda pack, ladder, e, gamma, tol: cc.controlled_E(
        pack, ladder, cc.LambdaSpec.identity(ladder), tol
    ),
}


@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
@pytest.mark.parametrize("tol", [-0.05, 0.0, float("nan"), float("inf")])
def test_verdict_tolerance_must_be_positive_and_finite(finite_3x10, entry, tol):
    with pytest.raises(BadParams, match="must be positive and finite"):
        TOL_ENTRY_POINTS[entry](*finite_3x10, tol)


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_is_canonical_checks_the_tolerance_of_a_family_that_misses(finite_3x10, tol):
    pack, ladder, _, _ = finite_3x10
    one = cc.Cover.make(pack, [[min(pack.interior)]])
    assert not one.covers_flag and not cc.is_canonical(pack, ladder, one)
    with pytest.raises(BadParams, match="must be positive and finite"):
        cc.is_canonical(pack, ladder, one, tol)


def test_is_canonical_reads_a_plain_family_as_a_cover():
    pack = cc.generate_pack("interval_cylinder", n_base=5, n_levels=3)  # boundary 0..4, interior 5..19
    ladder = cc.default_ladder(pack)
    assert cc.is_canonical(pack, ladder, [{5, 6}]) is False  # misses the interior
    singles = [{p} for p in sorted(pack.interior)]
    assert cc.is_canonical(pack, ladder, singles) == cc.is_canonical(pack, ladder, cc.singleton_cover(pack))
    for outside in (20, -1, 0):  # past the last point, negative, on the boundary
        with pytest.raises(MemberOutsideTarget, match="leaves the target"):
            cc.is_canonical(pack, ladder, [{5, outside}])
