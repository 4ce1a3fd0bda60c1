import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import c0cover as cc
from c0cover.cylinder import cylinder_over_boundary, induced_pack
from c0cover.errors import (
    BadLadder,
    BadParams,
    C0CoverError,
    EmptyComplement,
    EmptySide,
    IndexOutOfLadder,
    ProviderMismatch,
    TriangleViolation,
)
from c0cover.packs import _check_metric, boundary_line, pack_from_json, pack_to_json, w_set


def test_validate_line3(line3):
    assert line3.k_sup == 1.0
    assert sorted(line3.boundary) == [0, 2]
    assert sorted(line3.interior) == [1]
    assert line3.delta_res == 1.0


def test_validate_triangle_violation():
    with pytest.raises(TriangleViolation):
        cc.validate_pack(3, [[0, 1, 5], [1, 0, 1], [5, 1, 0]], [0, 2])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_validate_rejects_non_finite_distances(bad):
    with pytest.raises(BadParams, match="non-finite"):
        cc.validate_pack(3, [[0, 1, bad], [1, 0, 1], [bad, 1, 0]], [0, 2])


def test_validate_point_count_must_match_the_matrix():
    with pytest.raises(BadParams, match="disagree"):
        cc.validate_pack(3, [[0, 1], [1, 0]], [0])


@pytest.mark.parametrize(
    "boundary",
    # ids must be integers: no truncation of fractions, strings or a short bool mask
    [[0, 7], [-1], [1.5], [-0.5], ["0"], [True], [0, True], [np.float64(1.0)], 5],
)
def test_validate_boundary_ids_in_range(boundary):
    with pytest.raises(BadParams, match="boundary ids"):
        cc.validate_pack(3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], boundary)


@pytest.mark.parametrize(
    "boundary", [[0, 2], [np.int64(2), 0], (0, 2), [True, False, True], np.array([True, False, True])]
)
def test_validate_boundary_accepts_ids_and_masks(boundary):
    assert cc.validate_pack(3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], boundary).boundary == {0, 2}


@pytest.mark.parametrize(
    "dist",
    [[[0, 1], [1]], [["a", 1], [1, 0]], [0, 1, 2], [[[0.0]]]],
    ids=["ragged", "non_numeric", "flat", "three_axes"],
)
def test_validate_malformed_matrix_is_typed(dist):
    with pytest.raises(BadParams):
        cc.validate_pack(2, dist, [0])


@pytest.mark.parametrize("meta", ["ab", [1, 2], 5, np.array(3.0)], ids=["string", "list", "number", "array"])
def test_validate_meta_must_be_a_dict(meta):
    with pytest.raises(BadParams, match="pack meta must be an object"):
        cc.validate_pack(3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], [0], meta=meta)


@pytest.mark.parametrize(
    "coords",
    ["x", [[0], [1]], [[0], [1], [2, 3]], [[], [], []], [[0], [True], [2]], [[0], [math.nan], [2]],
     [[0], [10**400], [2]], [[0], ["1"], [2]], [0, 1, 2], np.array(1.0), np.zeros((3, 0)),
     [[0.0, 1.5], [1.0, np.bool_(True)], [2.0, 0.5]], [[0], [1j], [2]], [[0.0], [np.float32("inf")], [2.0]]],
    ids=["string", "short", "ragged", "empty_rows", "bool", "nan", "huge_int", "string_entry", "flat",
         "scalar_array", "empty_array", "numpy_bool_among_floats", "complex", "numpy_inf"],
)
def test_validate_malformed_coords_are_typed(coords):
    with pytest.raises(BadParams, match="coords"):
        cc.validate_pack(3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], [0], meta={"coords": coords})


@pytest.mark.parametrize(
    "meta", [{"levels": np.array(0.5)}, {"base_of": np.array(1), "level_of": np.array(1.0)}],
    ids=["levels", "cylinder_lists"],
)
def test_validate_scalar_array_meta_fields_are_typed(meta):
    with pytest.raises(BadParams, match="pack meta"):
        cc.validate_pack(3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], [0], meta=meta)


@pytest.mark.parametrize(
    "coords",
    [[[0], [1], [2]], [(0, 1.5), (1, 0), (2, 0)], np.arange(9.0).reshape(3, 3), [np.zeros(2)] * 3,
     [[np.float32(0.5)], [np.int64(1)], [2.0]]],
)
def test_validate_accepts_coords_of_any_width(coords):
    pack = cc.validate_pack(3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], [0], meta={"coords": coords})
    assert pack.coords.shape == np.shape(coords)


def test_validate_empty_side():
    with pytest.raises(EmptySide):
        cc.validate_pack(3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], [0, 1, 2])
    with pytest.raises(EmptySide):
        cc.validate_pack(3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], [])


def test_boundary_distance(line3, cyl_fixture):
    assert line3.boundary_dist[1] == 1.0
    assert line3.boundary_dist[0] == 0.0
    quarter = next(p for p in cyl_fixture.interior if cyl_fixture.boundary_dist[p] == 0.25)
    assert cyl_fixture.boundary_dist[quarter] == 0.25


def test_h_profile_values(cyl_fixture, cyl_ladder):
    h = cc.h_profile(cyl_fixture, cyl_ladder)
    assert h.value_at(0.3) == 0.5
    assert h.value_at(1.2) == 1.0  # capped at k_sup beyond k_sup
    assert h.value_at(0.05) == 0.125  # resolution floor


def test_h_profile_monotone_on_generated(finite_pack, interval_pack, countable_pack):
    for pack in (finite_pack, interval_pack, countable_pack):
        h = cc.h_profile(pack, cc.default_ladder(pack))
        assert h.is_nondecreasing()


def test_h_profile_resolution_floor(finite_pack, interval_pack):
    for pack in (finite_pack, interval_pack):
        h = cc.h_profile(pack, cc.default_ladder(pack))
        assert h.values[-1] <= 2 * pack.delta_res


def test_h_profile_empty_complement(cyl_fixture):
    # only an inconsistent pack (overstated k_sup) can leave a scale empty
    from c0cover.packs import DiscretePack, _finish_pack

    bad = DiscretePack(
        dist=cyl_fixture.dist.copy(),
        boundary=cyl_fixture.boundary,
        k_sup=5.0,
        delta_res=cyl_fixture.delta_res,
        meta={},
    )
    _finish_pack(bad)
    with pytest.raises(EmptyComplement):
        cc.h_profile(bad, cc.ScaleLadder((6.0, 2.0, 0.05)))


def test_annulus_contents(cyl_fixture, cyl_ladder):
    def depths(pts):
        return sorted(float(cyl_fixture.boundary_dist[p]) for p in pts)

    assert depths(cc.annulus(cyl_fixture, cyl_ladder, 0)) == [0.5, 1.0]
    assert depths(cc.annulus(cyl_fixture, cyl_ladder, 1)) == [0.125, 0.25, 0.5]
    assert depths(cc.annulus(cyl_fixture, cyl_ladder, 2)) == [0.125, 0.25]
    with pytest.raises(IndexOutOfLadder):
        cc.annulus(cyl_fixture, cyl_ladder, 3)


def test_annuli_cover_interior_at_most_twice(finite_pack, interval_pack):
    for pack in (finite_pack, interval_pack):
        ladder = cc.default_ladder(pack)
        counts = {p: 0 for p in pack.interior}
        for n in range(len(ladder) - 2):
            for p in cc.annulus(pack, ladder, n):
                counts[p] += 1
        assert all(1 <= c <= 2 for c in counts.values())


def test_generate_finite_cylinder_counts():
    pack = cc.generate_pack("finite_cylinder", n_base=3, n_levels=6)
    assert len(pack.boundary) == 3
    assert len(pack.interior) == 18
    assert pack.known_dim == 0
    assert pack.cylindrical


def test_generate_interval_cylinder():
    pack = cc.generate_pack("interval_cylinder", n_base=65, n_levels=4)
    assert pack.known_dim == 1
    assert len(pack.boundary) == 65
    assert type(pack) is cc.DiscretePack and pack.cylindrical


def test_generate_countable_triangular():
    pack = cc.generate_pack("countable_example", n_y=5)
    assert len(pack.boundary) == 5
    assert len(pack.interior) == 15  # 1 + 2 + ... + 5
    assert pack.known_dim == 0
    assert not pack.cylindrical
    # level 1/n holds exactly the first n sequence points
    for n in range(1, 6):
        level_pts = [p for p in pack.interior if abs(pack.boundary_dist[p] - 1.0 / n) < 1e-12]
        assert len(level_pts) == n


def test_generate_bad_params():
    with pytest.raises(BadParams):
        cc.generate_pack("finite_cylinder", n_base=0)
    with pytest.raises(BadParams):
        cc.generate_pack("interval_cylinder", n_levels=0)
    with pytest.raises(BadParams):
        cc.PackKind("no_such_kind")


def test_cylinder_metric_is_exact_sum():
    pack = cc.generate_pack("interval_cylinder", n_base=5, n_levels=3)
    for p in list(pack.points)[:8]:
        for q in list(pack.points)[:8]:
            bx = pack.meta["base_of"][p]
            by = pack.meta["base_of"][q]
            expect = abs(bx - by) / 4 + abs(pack.meta["level_of"][p] - pack.meta["level_of"][q])
            assert pack.d(p, q) == pytest.approx(expect, abs=1e-12)


def test_boundary_distance_equals_level(interval_pack):
    for p in sorted(interval_pack.interior)[:50]:
        assert interval_pack.boundary_dist[p] == interval_pack.meta["level_of"][p]


def test_ladder_invariants(finite_pack):
    with pytest.raises(BadLadder):
        cc.ScaleLadder((1.0, 1.0, 0.5))
    with pytest.raises(BadLadder):
        cc.ScaleLadder((1.0, 0.5))
    for radii in ((10**400, 0.5, 0.25), (math.inf, 0.5, 0.25), (1.0, math.nan, 0.25)):
        with pytest.raises(BadLadder):
            cc.ScaleLadder(radii)
    lad = cc.ScaleLadder((0.9, 0.5, 0.1))
    with pytest.raises(BadLadder):
        lad.validate_for(finite_pack)  # top rung below k_sup


def test_default_ladder_properties(finite_pack, interval_pack, countable_pack):
    for pack in (finite_pack, interval_pack, countable_pack):
        lad = cc.default_ladder(pack)
        lad.validate_for(pack)
        assert lad[0] > pack.k_sup
        assert lad[-1] < pack.delta_res
        values = set(np.round(pack.boundary_dist[sorted(pack.interior)], 15).tolist())
        assert not values & set(np.round(lad.radii, 15).tolist())


@pytest.mark.parametrize("n_angles, n_levels", [(32, 10), (48, 12), (64, 12), (256, 12)])
def test_merged_levels_count_the_circle_rings(n_angles, n_levels):
    pack = cc.generate_pack("circle_in_disk", n_angles=n_angles, n_levels=n_levels)
    merged = cc.merged_levels(pack)
    assert len(merged) == n_levels < len(cc.sample_levels(pack))  # copies of one ring depth are float noise
    assert set(merged.tolist()) <= set(cc.sample_levels(pack).tolist())


@pytest.mark.parametrize("kind", ["finite_cylinder", "interval_cylinder", "cube_face", "countable_example"])
def test_merged_levels_keep_distinct_depths(kind):
    pack = cc.generate_pack(kind)
    merged = cc.merged_levels(pack)
    assert merged.tolist() == cc.sample_levels(pack).tolist()
    assert np.diff(merged).min() > 1e6 * 1e-12 * pack.k_sup  # far from the merging tolerance


def test_w_set_nesting(finite_pack):
    lad = cc.default_ladder(finite_pack)
    prev = None
    for r in lad.radii:
        cur = w_set(finite_pack, r)
        if prev is not None:
            assert cur <= prev
        assert w_set(finite_pack, r, closed=True) >= cur
        prev = cur


def test_modulus_curve_step_interpolation():
    curve = cc.ModulusCurve(((1.0, 10.0), (0.5, 5.0), (0.25, 2.0)))
    assert curve.value_at(0.75) == 10.0  # smallest sample >= t
    assert curve.value_at(0.5) == 5.0
    assert curve.value_at(0.1) == 2.0  # clamp below
    assert curve.value_at(2.0) == 10.0  # clamp above
    assert curve.is_nondecreasing()
    assert curve.to_csv().splitlines()[0] == "t,value"


def test_pack_json_roundtrip(finite_pack):
    text = pack_to_json(finite_pack)
    back = pack_from_json(text)
    assert type(back) is cc.DiscretePack
    assert back.meta["base_of"] == finite_pack.meta["base_of"]
    assert back.meta["level_of"] == finite_pack.meta["level_of"]
    assert back.n_points == finite_pack.n_points
    assert back.boundary == finite_pack.boundary
    assert np.array_equal(back.dist, finite_pack.dist)
    assert back.known_dim == finite_pack.known_dim
    obj = json.loads(text)
    assert set(obj) == {"generator"}
    assert obj["generator"]["kind"] == "finite_cylinder"


def test_ladder_json_roundtrip(finite_pack):
    lad = cc.default_ladder(finite_pack)
    back = cc.packs.ladder_from_json(cc.packs.ladder_to_json(lad))
    assert back.radii == lad.radii


# sha256 of the dense form of the two packs the cli-files benchmark writes:
# the dense format is fixed, so a faster writer must produce the same bytes
PINNED_PACK_JSON = [
    ("interval_cylinder", {"n_base": 33, "n_levels": 10}, "cfc66f08666f40645c4e5da5b3d9ec49c8d588d0c7e605708903901f5f53dae1"),
    ("circle_in_disk", {"n_angles": 32, "n_levels": 10}, "db6b0f6dab0ffb86fcbad31a90cdc040abd261809ad2d3d795f47e4aaf8feb3c"),
]


@pytest.mark.parametrize("kind, params, sha256", PINNED_PACK_JSON, ids=[k for k, _, _ in PINNED_PACK_JSON])
def test_pack_json_bytes_pinned(kind, params, sha256):
    text = json.dumps(cc.generate_pack(kind, **params).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


# the files pack_to_json writes for the same two packs: the generator form
PINNED_GENERATOR_JSON = [
    ("interval_cylinder", {"n_base": 33, "n_levels": 10},
     '{"generator": {"kind": "interval_cylinder", "params": {"n_base": 33, "n_levels": 10}}}'),
    ("circle_in_disk", {"n_angles": 32, "n_levels": 10},
     '{"generator": {"kind": "circle_in_disk", "params": {"n_angles": 32, "n_levels": 10}}}'),
]


@pytest.mark.parametrize("kind, params, text", PINNED_GENERATOR_JSON, ids=[k for k, _, _ in PINNED_GENERATOR_JSON])
def test_pack_generator_json_bytes_pinned(kind, params, text):
    pack = cc.generate_pack(kind, **params)
    assert pack_to_json(pack) == text
    # loading the file gives exactly the generated pack, delta_res included
    back = pack_from_json(text)
    assert type(back) is type(pack) and np.array_equal(back.dist, pack.dist)
    assert (back.k_sup, back.delta_res) == (pack.k_sup, pack.delta_res)
    assert back.to_json_dict() == pack.to_json_dict()


def _small_cylinder():
    return cc.generate_pack("finite_cylinder", n_base=2, n_levels=3)


def _rebuilt_cylinder():
    """The small cylinder rebuilt from its matrix: the same pack, but not made by generate_pack."""
    pack = _small_cylinder()
    return cc.validate_pack(pack.n_points, pack.dist, sorted(pack.boundary), meta=pack.meta)


DENSE_PACKS = {
    "validate_pack": lambda: cc.validate_pack(3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], [0, 2], meta={"coords": [[0], [1], [2]]}),
    "induced_pack": lambda: induced_pack(cc.identity_embedding(_small_cylinder())),
    "rebuilt_from_matrix": _rebuilt_cylinder,
}


@pytest.mark.parametrize("make", list(DENSE_PACKS.values()), ids=list(DENSE_PACKS))
def test_dense_form_round_trips_exactly(make):
    pack = make()
    text = pack_to_json(pack)
    assert text == json.dumps(pack.to_json_dict(), sort_keys=True)
    assert set(json.loads(text)) == {"points", "dist", "boundary", "meta"}
    back = pack_from_json(text)
    assert type(back) is type(pack)
    assert np.array_equal(back.dist, pack.dist) and back.boundary == pack.boundary
    assert pack_to_json(back) == text


@pytest.mark.parametrize("make", [_small_cylinder, _rebuilt_cylinder], ids=["generator", "dense"])
def test_every_load_runs_the_triangle_check(make, monkeypatch):
    text = pack_to_json(make())
    checked = []
    monkeypatch.setattr(cc.packs, "_check_metric", lambda *a: checked.append(a) or _check_metric(*a))
    pack_from_json(text)
    assert len(checked) == 1


def _cylinder_file(**meta):
    obj = _small_cylinder().to_json_dict()
    obj["meta"] |= meta
    return json.dumps(obj)


def _generator_file(**fields):
    return json.dumps({"generator": {"kind": "finite_cylinder", "params": {"n_base": 2}} | fields})


MALFORMED_PACKS = {
    "not_json": "{points: 3",
    "not_an_object": "[1, 2, 3]",
    "no_dist": json.dumps({"points": 3, "boundary": [0]}),
    "no_points": json.dumps({"dist": [[0, 1], [1, 0]], "boundary": [0]}),
    "no_boundary": json.dumps({"points": 2, "dist": [[0, 1], [1, 0]]}),
    "points_string": json.dumps({"points": "ab", "dist": [[0, 1], [1, 0]], "boundary": [0]}),
    "dist_strings": json.dumps(
        {"points": 3, "dist": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]], "boundary": [0]}
    ),
    "dist_booleans": json.dumps({"points": 2, "dist": [[False, True], [True, False]], "boundary": [0]}),
    "meta_not_an_object": json.dumps({"points": 2, "dist": [[0, 1], [1, 0]], "boundary": [0], "meta": 5}),
    "meta_base_of_non_numeric": json.dumps(
        {"points": 2, "dist": [[0, 1], [1, 0]], "boundary": [0], "meta": {"base_of": ["x", 0], "level_of": [0, 1]}}
    ),
    "meta_base_of_short": _cylinder_file(base_of=[0, 1, 0]),
    "meta_base_of_fractional": _cylinder_file(base_of=[0, 1, 0, 1.5, 0, 1, 0, 1]),
    "meta_level_of_string": _cylinder_file(level_of=["0"] * 8),
    "meta_level_of_infinite": _cylinder_file(level_of=[0.0] * 7 + [math.inf]),
    "meta_levels_string": _cylinder_file(levels="ab"),
    "meta_levels_non_numeric": _cylinder_file(levels=[0.5, "x"]),
    "meta_levels_not_a_list": _cylinder_file(levels=7),
    "meta_levels_bool": _cylinder_file(levels=[True, 0.2, 0.08]),
    "meta_levels_zero": _cylinder_file(levels=[0.5, 0.0]),
    "meta_levels_infinite": _cylinder_file(levels=[0.5, math.inf]),
    "meta_coords_string": _cylinder_file(coords="x"),
    "meta_coords_short": _cylinder_file(coords=_small_cylinder().meta["coords"][:-1]),
    "meta_coords_ragged": _cylinder_file(coords=[[0.0, 1.0]] * 7 + [[0.0]]),
    "meta_coords_empty_rows": _cylinder_file(coords=[[]] * 8),
    "meta_coords_non_numeric": _cylinder_file(coords=[[0.0, "x"]] * 8),
    "generator_unknown_kind": _generator_file(kind="moebius_band"),
    "generator_kind_not_a_string": _generator_file(kind=["finite_cylinder"]),
    "generator_params_not_an_object": _generator_file(params=[2, 3]),
    "generator_unknown_parameter": _generator_file(params={"n_bases": 2}),
    "generator_parameter_float_for_int": _generator_file(params={"n_base": 2.0}),
    "generator_parameter_bool": _generator_file(params={"n_levels": True}),
    "generator_parameter_string": _generator_file(params={"ratio": "0.4"}),
    "generator_parameter_nan": _generator_file(params={"ratio": math.nan}),
    "generator_rejected_value": _generator_file(params={"n_base": 0}),
    "generator_no_params": json.dumps({"generator": {"kind": "finite_cylinder"}}),
    "generator_extra_field": _generator_file(levels=[1.0]),
    "generator_not_an_object": json.dumps({"generator": "finite_cylinder"}),
    "generator_extra_keys": json.dumps({"generator": {"kind": "finite_cylinder", "params": {}}, "meta": {}}),
    "generator_over_the_point_budget": json.dumps(
        {"generator": {"kind": "interval_cylinder", "params": {"n_base": 2, "n_levels": 3000000}}}
    ),
}


@pytest.mark.parametrize("text", list(MALFORMED_PACKS.values()), ids=list(MALFORMED_PACKS))
def test_pack_from_json_malformed_is_typed(text):
    with pytest.raises(BadParams):
        pack_from_json(text)


def test_cylinder_levels_come_from_level_of():
    for kind in sorted(cc.packs.KNOWN_DIMS):  # the generators' meta agrees with their sample levels
        pack = cc.generate_pack(kind)
        assert cc.merged_levels(pack)[::-1].tolist() == pytest.approx(pack.meta["levels"], rel=1e-12)
        if "level_of" in pack.meta:  # a product pack: exactly its positive levels, listed and attained
            listed = sorted({t for t in pack.meta["level_of"] if t > 0}, reverse=True)
            assert listed == pack.meta["levels"] == cc.sample_levels(pack)[::-1].tolist()


# every generator at its defaults, then the packs the benchmark builds: the
# experiment configs and the cover-scale interval cylinders (845, 1935, 3855 points)
REDUCTION_PACKS = [(kind, {}) for kind in sorted(cc.packs.KNOWN_DIMS)] + [
    ("interval_cylinder", {"n_base": 33, "n_levels": 10}),
    ("circle_in_disk", {"n_angles": 32, "n_levels": 10}),
    ("finite_cylinder", {"n_base": 3, "n_levels": 10}),
    ("interval_cylinder", {"n_base": 65, "n_levels": 12}),
    ("interval_cylinder", {"n_base": 129, "n_levels": 14}),
    ("interval_cylinder", {"n_base": 257, "n_levels": 14}),
]


def _assert_lists_are_the_reduction(pack):
    """The pack is a DiscretePack whose meta lists base_of and level_of are exactly its boundary reduction."""
    assert type(pack) is cc.DiscretePack
    assert pack.meta["base_of"] == pack.nearest_boundary.tolist()
    assert pack.meta["level_of"] == pack.boundary_dist.tolist()


@pytest.mark.parametrize(
    "kind, params", REDUCTION_PACKS, ids=[f"{k}-{'x'.join(map(str, p.values())) or 'default'}" for k, p in REDUCTION_PACKS]
)
def test_cylinder_lists_are_the_boundary_reduction(kind, params):
    pack = cc.generate_pack(kind, **params)
    assert type(pack) is cc.DiscretePack
    assert ("base_of" in pack.meta) == (kind in ("finite_cylinder", "interval_cylinder", "cube_face"))
    if "base_of" in pack.meta:
        _assert_lists_are_the_reduction(pack)
    if pack.cylindrical:  # the induced cylinder at the listed levels and at the attained depths, as f reads it
        for levels in {tuple(sorted(pack.meta["levels"])), tuple(cc.sample_levels(pack).tolist())}:
            cyl = cylinder_over_boundary(pack, levels)
            _assert_lists_are_the_reduction(cyl)


@pytest.mark.parametrize("kind", ["finite_cylinder", "interval_cylinder", "cube_face"])
def test_dense_cylinder_file_loads_a_discrete_pack(kind):
    text = json.dumps(cc.generate_pack(kind).to_json_dict(), sort_keys=True)
    obj = json.loads(text)
    pack = cc.validate_pack(obj["points"], obj["dist"], obj["boundary"], meta=obj["meta"])
    _assert_lists_are_the_reduction(pack)
    assert json.dumps(pack.to_json_dict(), sort_keys=True) == text


POINT_COUNTS = [
    ("finite_cylinder", {"n_base": 5, "n_levels": 2}),
    ("interval_cylinder", {"n_levels": 3}),
    ("circle_in_disk", {"n_angles": 7, "n_levels": 2}),
    ("cube_face", {"n_side": 4, "n_levels": 3}),
    ("countable_example", {"n_y": 9}),
] + [(kind, {}) for kind in sorted(cc.packs.KNOWN_DIMS)]


@pytest.mark.parametrize("kind, params", POINT_COUNTS)
def test_point_count_in_closed_form(kind, params):
    assert cc.packs._generated_points(kind, params) == cc.generate_pack(kind, **params).n_points


OVER_BUDGET = {
    "finite_cylinder": {"n_base": 2, "n_levels": 3000000},
    "interval_cylinder": {"n_base": 16384},
    "circle_in_disk": {"n_angles": 1490, "n_levels": 10},
    "cube_face": {"n_side": 128},
    "countable_example": {"n_y": 181},
}


@pytest.mark.parametrize("kind", sorted(OVER_BUDGET))
def test_point_budget_refuses_before_building(kind, monkeypatch):
    params = OVER_BUDGET[kind]
    assert cc.packs._generated_points(kind, params) > cc.packs.MAX_GENERATED_POINTS
    monkeypatch.setitem(cc.packs._GENERATORS, kind, lambda **_: pytest.fail("the generator ran"))
    with pytest.raises(BadParams, match="limit"):
        cc.generate_pack(kind, **params)


def test_point_budget_admits_the_largest_benchmark_pack():
    assert cc.generate_pack("interval_cylinder", n_base=257, n_levels=14).n_points == 3855


# every generator with its size parameters drawn small (the defaults reach 845
# points), then any parameters at all laid over them, so most draws are malformed
_SIZES = {"n_base", "n_levels", "n_angles", "n_side", "n_y"}
_PARAM_NAMES = sorted({name for types in cc.packs._PARAM_TYPES.values() for name in types})
_PARAM_VALUES = st.one_of(
    st.integers(-1, 5),
    st.floats(-0.5, 2.5),
    st.sampled_from([math.nan, math.inf, True, None, "2", [2]]),
)


@st.composite
def generator_files(draw):
    kind = draw(st.sampled_from(sorted(cc.packs.KNOWN_DIMS) + ["moebius_band", 3, None]))
    known = cc.packs._PARAM_TYPES.get(kind, {}) if isinstance(kind, str) else {}
    params = {name: draw(st.integers(1, 5)) for name in sorted(_SIZES & known.keys())}
    params |= draw(st.dictionaries(st.sampled_from(_PARAM_NAMES + ["bogus"]), _PARAM_VALUES, max_size=3))
    spec = {"kind": kind, "params": draw(st.sampled_from([params] * 8 + [[params], None]))}
    obj = {"generator": spec}
    if draw(st.integers(0, 9)) == 0:
        obj["meta"] = {}
    return json.dumps(obj)


@settings(max_examples=150, deadline=None)
@given(generator_files())
def test_generator_form_loads_checked_or_fails_typed(text):
    try:
        pack = pack_from_json(text)
    except C0CoverError:
        return
    again = cc.validate_pack(pack.n_points, pack.dist, sorted(pack.boundary), meta=pack.meta)
    assert type(again) is type(pack) and again.boundary == pack.boundary
    assert pack_to_json(pack_from_json(pack_to_json(pack))) == pack_to_json(pack)


MALFORMED_LADDERS = [
    "[2.0, 1.0",
    '["a"]',
    '{"radii": [2, 1, 0.5]}',
    "[[2], [1], [0.5]]",
    pytest.param("[1" + "0" * 400 + ", 0.5, 0.25]", id="int_beyond_float"),
    '["1.0", "0.5", "0.25"]',
    "[true, 0.5, 0.25]",
]


@pytest.mark.parametrize("text", MALFORMED_LADDERS)
def test_ladder_from_json_malformed_is_typed(text):
    with pytest.raises((BadParams, BadLadder)):
        cc.packs.ladder_from_json(text)


def test_boundary_line(interval_pack, circle_pack):
    xs = boundary_line(interval_pack)
    assert xs == [float(interval_pack.coords[b][0]) for b in sorted(interval_pack.boundary)]
    angles = boundary_line(circle_pack)
    assert len(angles) == len(circle_pack.boundary)
    assert all(0 <= a < 2 * math.pi for a in angles)
    assert len(set(angles)) == len(angles)
    # the same positions survive a round trip through a pack file
    assert boundary_line(pack_from_json(pack_to_json(circle_pack))) == angles
    with pytest.raises(ProviderMismatch):
        boundary_line(cc.generate_pack("cube_face", n_side=3, n_levels=3))
    with pytest.raises(ProviderMismatch):
        boundary_line(cc.validate_pack(3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], [0, 2]))
    # a circle's angle needs two coordinates; one column is no boundary line
    obj = circle_pack.to_json_dict()
    obj["meta"]["coords"] = [row[:1] for row in obj["meta"]["coords"]]
    with pytest.raises(ProviderMismatch):
        boundary_line(pack_from_json(json.dumps(obj)))


# -- validate_pack on arbitrary dense input -------------------------------------------------------

#: entries of every kind a JSON file or a caller could hand over
ENTRIES = st.one_of(
    st.floats(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.complex_numbers(max_magnitude=3),
    st.text(max_size=2),
    st.none(),
)


def _listish(n):
    """Scalars, short or n-long lists and arrays: what a meta list field might hold."""
    return st.one_of(
        ENTRIES,
        st.lists(ENTRIES, max_size=13),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n),
        st.lists(st.floats(0.01, 1.0), max_size=4).map(np.array),
        st.just(np.array(0.5)),
    )


def _coords(n):
    return st.one_of(
        _listish(n),
        st.integers(1, 3).flatmap(lambda w: st.lists(st.lists(st.floats(-1, 1), min_size=w, max_size=w),
                                                     min_size=n, max_size=n)),
        st.lists(st.lists(ENTRIES, max_size=3), min_size=n, max_size=n),
        st.integers(0, 3).map(lambda w: np.zeros((n, w))),
    )


@st.composite
def dense_pack_inputs(draw):
    """(points, dist, boundary, meta) for validate_pack: a true metric with a valid boundary
    and meta, with at most two of the arguments (or meta fields) drawn malformed instead."""
    n = draw(st.integers(0, 12))
    broken = draw(st.sets(st.sampled_from(["dist", "points", "boundary", "meta", "fields"]), max_size=2))
    pts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.0, 1.0, (n, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)).tolist()
    if "dist" in broken:
        dist = draw(st.one_of(
            st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.lists(st.floats(0, 1), max_size=12), min_size=n, max_size=n),  # ragged
            st.lists(ENTRIES, max_size=12),  # one axis
            st.just(np.zeros((n, n, 2)).tolist()),  # three axes
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)), ENTRIES).map(
                lambda ije: [[ije[2] if (i, j) == ije[:2] else d for j, d in enumerate(row)]
                             for i, row in enumerate(dist)]),  # one bad entry
        ))
    points = n
    if "points" in broken:
        points = draw(st.one_of(st.integers(-1, 13), st.lists(st.integers(0, 12), max_size=13),
                                st.text(max_size=3), st.none()))
    boundary = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=1, max_size=3))
    if "boundary" in broken:
        boundary = draw(st.one_of(
            st.lists(st.booleans(), max_size=13),
            st.lists(st.one_of(st.integers(-3, 14), st.integers(-(2**70), 2**70), st.booleans(), st.floats()),
                     max_size=4),
            st.integers(),
            st.none(),
        ))
    fields = {"levels": st.lists(st.floats(0.01, 1.0), max_size=4),
              "coords": st.integers(1, 3).map(lambda w: pts[:, :1].repeat(w, axis=1).tolist())}
    if "fields" in broken:
        fields = {"levels": _listish(n), "coords": _coords(n), "base_of": _listish(n), "level_of": _listish(n)}
    meta = draw(st.one_of(st.none(), st.fixed_dictionaries({}, optional=fields)))
    if "meta" in broken:
        meta = draw(st.one_of(st.text(max_size=3), st.lists(st.integers(), max_size=3), st.integers(),
                              st.just(np.array(1.0))))
    return points, dist, boundary, meta


@settings(max_examples=200, deadline=None)
@given(dense_pack_inputs())
def test_validate_pack_fuzz_returns_a_pack_or_fails_typed(args):
    points, dist, boundary, meta = args
    try:
        pack = cc.validate_pack(points, dist, boundary, meta=meta)
    except C0CoverError:
        return
    assert isinstance(pack, cc.DiscretePack) and 0 < len(pack.boundary) < pack.n_points
    if pack.coords is not None:  # what the renderer and boundary_line read
        assert pack.coords.ndim == 2 and len(pack.coords) == pack.n_points and np.isfinite(pack.coords).all()
    assert type(pack) is cc.DiscretePack
    if "base_of" in pack.meta and "level_of" in pack.meta:  # checked, and kept as given
        assert pack.meta["base_of"] is meta["base_of"] and pack.meta["level_of"] is meta["level_of"]
        assert len(pack.meta["base_of"]) == len(pack.meta["level_of"]) == pack.n_points


# -- the other loaders on arbitrary JSON -------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)
ID_LISTS = st.lists(st.one_of(st.integers(-1, 3), JSON_VALUES), max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries(
        {"members": st.lists(ID_LISTS, max_size=4) | JSON_VALUES},
        optional={"target": st.sampled_from(["interior", "boundary"]) | ID_LISTS | JSON_VALUES},
    ),
))
def test_cover_from_json_fuzz_returns_a_cover_or_fails_typed(line3, obj):
    try:
        alpha = cc.covers.cover_from_json(line3, json.dumps(obj))
    except C0CoverError:
        return
    assert isinstance(alpha, cc.Cover) and alpha.pack is line3


RADII = st.one_of(st.floats(), st.integers(), st.just(10**400), JSON_VALUES)


@settings(max_examples=200, deadline=None)
@given(
    JSON_VALUES
    | st.lists(RADII, min_size=3, max_size=5)
    | st.lists(st.floats(1e-3, 10.0), min_size=3, max_size=5).map(lambda r: sorted(r, reverse=True))
)
def test_ladder_from_json_fuzz_returns_a_ladder_or_fails_typed(obj):
    try:
        ladder = cc.packs.ladder_from_json(json.dumps(obj))
    except C0CoverError:
        return
    assert all(isinstance(r, float) and math.isfinite(r) for r in ladder.radii)


CONFIG_KEYS = ["kind", "params", "ladder", "lambda_kind", "provider", "candidates", "seed", "c0_tol", "unif_tol"]


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES | st.dictionaries(st.sampled_from(CONFIG_KEYS) | st.text(max_size=4), JSON_VALUES, max_size=5))
def test_experiment_config_fuzz_returns_a_config_or_fails_typed(obj):
    try:
        config = cc.experiment.ExperimentConfig.from_dict(obj)
    except C0CoverError:
        return
    assert isinstance(config.kind, str) and isinstance(config.params, dict)


@pytest.mark.parametrize(
    "radii",
    [(True, 0.5, 0.25), (2.0, np.True_, 0.25), (2.0, "1.0", 0.5), (math.inf, 0.5, 0.25), (2.0, math.nan, 0.5), (10**400, 0.5, 0.25), 5],
    ids=["bool_top", "numpy_bool", "string", "infinite", "nan", "overflow", "scalar"],
)
def test_scale_ladder_refuses_radii_that_are_no_finite_number(radii):
    with pytest.raises(BadLadder, match="radii must be finite numbers"):
        cc.ScaleLadder(radii)


def test_scale_ladder_keeps_the_radii_as_given():
    ladder = cc.ScaleLadder((4, np.float64(2.0), 0.5))
    assert ladder.radii == (4, 2.0, 0.5) and type(ladder[0]) is int
    assert ladder.array.tolist() == [4.0, 2.0, 0.5]
