"""One table for the point-id reader ``packs._point_ids``: every entry point
that indexes by a caller's ids refuses an id that is no point with a typed
error, and reads numpy integers as it reads Python ints.

An id that is no point is a fraction, a bool (Python's or numpy's), a
string, -1 (which numpy would wrap onto the last point), the pack size n
(one past the end) or an int past int64.  ``Cover.make`` keeps its own
contract for an integer id outside its target, MemberOutsideTarget, and a
family read with no pack cannot refuse n, which is a point of a larger pack.
A set query never refuses: it answers False for an id that is no point.
"""

import json

import numpy as np
import pytest

import c0cover as cc
from c0cover import covers, cylinder, relations
from c0cover.cli import main
from c0cover.errors import BadParams, MemberOutsideTarget, PackMismatch
from c0cover.packs import pack_to_json

PACK = cc.generate_pack("finite_cylinder", n_base=2, n_levels=3)  # boundary 0, 1; interior 2..7
LADDER = cc.default_ladder(PACK)
N = PACK.n_points
EVERY = frozenset(PACK.points)
BAD = {"fraction": 2.5, "bool": True, "numpy_bool": np.True_, "string": "2", "negative": -1, "n": N, "past_int64": 2**70}


# name -> (call of one id x, a valid id, whether it reads the id with no pack)
ROWS = {
    "Cover.make member": (lambda x: cc.Cover.make(PACK, [[x], [2, 3, 4, 5, 6, 7]]), 3, False),
    "Cover.make target": (lambda x: cc.Cover.make(PACK, [[2]], target=[2, x]), 3, False),
    # an object array keeps each id as given, where numpy would turn True into 1 and 2.5 into a float array
    "Cover.make ndarray target": (lambda x: cc.Cover.make(PACK, [[2]], target=np.array([2, x], dtype=object)), 3, False),
    "validate_pack boundary": (lambda x: cc.validate_pack(N, PACK.dist, [0, 1, x]).boundary, 1, False),
    "Relation pairs": (lambda x: cc.Relation(PACK, [(2, x), (x, 2)]), 3, False),
    "diagonal": (lambda x: cc.diagonal(PACK, [2, x]), 3, False),
    "full_relation": (lambda x: cc.full_relation(PACK, [2, x]), 3, False),
    "map_relation": (lambda x: relations.map_relation(cc.Relation(PACK, [(2, 3)]), {2: 2, 3: x}, PACK), 4, False),
    "lebesgue_number target": (lambda x: cc.lebesgue_number(PACK, [EVERY], [2, x]), 3, False),
    "lebesgue_number family": (lambda x: cc.lebesgue_number(PACK, [EVERY, {x}], PACK.points), 3, False),
    "refines": (lambda x: cc.refines([{x}], [{2, 3}]).index, 3, True),
    "mesh": (lambda x: cc.mesh(PACK, [{2, x}]), 3, False),
    "uniformity_verdict": (lambda x: cc.uniformity_verdict(PACK, LADDER, [{2, x}]), 3, False),
    "is_canonical": (lambda x: cc.is_canonical(PACK, LADDER, [{2, x}, EVERY - PACK.boundary]), 3, False),
    "member_stats": (lambda x: covers.member_stats(PACK, [[2, x], [x]]), 3, False),
    "multiplicity": (lambda x: cc.multiplicity([{2, x}, {x}]), 3, True),
    "mult_witness": (lambda x: covers.mult_witness([{2, x}, {x}]), 3, True),
    "common_multiplicity": (lambda x: cc.common_multiplicity([{2, x}], [{x}]), 3, True),
    "ext": (lambda x: cc.ext(PACK, [0, x]), 1, False),
    "f_map": (lambda x: cylinder.f_map(PACK, x), 3, False),
    "g_map": (lambda x: cylinder.g_map(PACK, x, 0.1), 1, False),
    "fg_displacement": (lambda x: cylinder.fg_displacement(PACK, x, 0.1), 1, False),
    "Embedding.mapping": (lambda x: cylinder.Embedding(PACK, PACK, (*range(N - 1), x)).distortion, N - 1, False),
    "DiscretePack.diam": (lambda x: PACK.diam([2, x]), 3, False),
    "DiscretePack.d": (lambda x: PACK.d(2, x), 3, False),
    "DiscretePack.set_dist points": (lambda x: PACK.set_dist([2, x], [0, 1]), 3, False),
    "DiscretePack.set_dist targets": (lambda x: PACK.set_dist([2, 3], [0, x]), 1, False),
}
# set queries: an id that is no point is in no pair
SET_QUERIES = {
    "Relation.contains_diagonal": (lambda x: cc.full_relation(PACK).contains_diagonal([2, x]), 3),
    "Relation.__contains__": (lambda x: (2, x) in cc.full_relation(PACK), 3),
}
# an integer id outside the target of Cover.make is a member leaving the target
OUTSIDE_TARGET = {("Cover.make member", "negative"), ("Cover.make member", "n"), ("is_canonical", "negative"), ("is_canonical", "n")}


def _cases():
    for row, (_, _, packless) in ROWS.items():
        for bad in BAD:
            if not (packless and bad == "n"):
                yield pytest.param(row, bad, id=f"{row}-{bad}")


@pytest.mark.parametrize("row, bad", list(_cases()))
def test_an_id_that_is_no_point_is_refused_typed(row, bad):
    call = ROWS[row][0]
    expected = MemberOutsideTarget if (row, bad) in OUTSIDE_TARGET else (BadParams, PackMismatch)
    with pytest.raises(expected):
        call(BAD[bad])


@pytest.mark.parametrize("row", list(SET_QUERIES))
@pytest.mark.parametrize("bad", list(BAD))
def test_a_set_query_answers_false_for_an_id_that_is_no_point(row, bad):
    call, good = SET_QUERIES[row]
    assert call(good) is True
    assert call(BAD[bad]) is False


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b) and a.dtype == b.dtype
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("row", [*ROWS, *SET_QUERIES])
def test_numpy_integer_ids_read_as_python_ints(row):
    call, good = ROWS[row][:2] if row in ROWS else SET_QUERIES[row]
    for kind in (np.int64, np.int32, np.uint8):
        assert _same(call(kind(good)), call(good))


def test_an_integer_array_target_reads_like_the_list():
    want = cc.Cover.make(PACK, [[2], [3]], target=[2, 3])
    for dtype in (np.int64, np.int32, np.uint8):
        got = cc.Cover.make(PACK, [[2], [3]], target=np.array([2, 3], dtype=dtype))
        assert got == want and got.target_tag == "custom" and {type(p) for p in got.target} == {int}


def test_distances_read_through_the_reader_match_the_matrix():
    assert PACK.d(np.int64(7), 0) == PACK.d(7, 0) == float(PACK.dist[7, 0])
    got = PACK.set_dist(np.array([7, 2]), np.array([0, 1]))
    assert got.tobytes() == PACK.dist[[7, 2]][:, [0, 1]].min(axis=1).tobytes()
    assert PACK.set_dist([2], []).tolist() == [np.inf]


def test_a_cover_made_from_numpy_ids_holds_python_ints():
    alpha = cc.Cover.make(PACK, [np.array([3, 2]), [np.int64(4)]], target=[np.int64(p) for p in range(2, 5)])
    assert alpha.members == (frozenset({2, 3}), frozenset({4}))
    assert {type(p) for m in alpha.members for p in m} == {int}
    assert {type(p) for p in alpha.target} == {int}


def test_cli_render_refuses_a_cover_member_holding_true(tmp_path):
    pack_file = tmp_path / "pack.json"
    pack_file.write_text(pack_to_json(PACK))
    cover_file = tmp_path / "cover.json"
    cover_file.write_text(json.dumps({"members": [[2, True], [3, 4, 5, 6, 7]]}))
    assert main(["render", "--pack", str(pack_file), "--cover", str(cover_file), "--out", str(tmp_path / "x.svg")]) == 2
    assert not (tmp_path / "x.svg").exists()
