"""The stacked validation kernel ``packs._validated_stack`` against
``validate_pack``, one pack at a time, and both against a loop oracle.

A stack that passes gives the packs ``validate_pack`` gives, array for array
in dtype, shape and bytes, and read-only; a stack with bad packs raises the
error of its first bad pack, in stack order, exactly as ``validate_pack``
raises it for that pack alone.  Since ``validate_pack`` is the stack of one,
the oracle, written from the definitions with a loop per point, pins what
both give.  The verify sweeps validate their random packs in one stack per
size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import c0cover as cc
from c0cover import packs
from c0cover.errors import (
    AsymmetricDistance,
    BadParams,
    C0CoverError,
    DegeneratePack,
    EmptySide,
    TriangleViolation,
)
from c0cover.packs import DEFAULT_TRIANGLE_TOL, _check_meta, _validated_stack

GOOD = ["planar", "integer", "ties", "asymmetric"]
BAD = ["inflated", "depth0", "no_interior", "bad_coords", "bad_both", "skewed", "self_distance", "infinite"]


def drawn_pack(rng, n, case):
    """(dist, boundary ids, meta) of one pack of ``case``, one of GOOD or BAD (bad, or likely so)."""
    pts = rng.uniform(0.0, 1.0, (n, 2))
    if case in ("integer", "ties"):
        # entries 2..4 always satisfy the triangle inequality; ties abound
        upper = np.triu(rng.integers(2, 5, (n, n)).astype(float), 1)
        dist = upper + upper.T
    else:
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    boundary = sorted(rng.permutation(n)[: int(rng.integers(1, n))].tolist())
    interior = [p for p in range(n) if p not in boundary]
    if case == "ties":  # an interior point at one distance from every boundary point
        p = interior[0]
        dist[p, boundary] = dist[boundary, p] = 3.0
    elif case == "asymmetric":  # within the tolerance
        dist += rng.uniform(0.0, 1e-9, (n, n)) * (rng.uniform(size=(n, n)) < 0.3) * (1 - np.eye(n))
    elif case in ("inflated", "bad_both"):
        a, b = rng.choice(n, 2, replace=False)
        factor = rng.uniform(1.0, 3.0)
        dist[a, b] *= factor
        dist[b, a] *= factor
    elif case == "depth0":
        p, x = interior[0], boundary[0]
        dist[p, x] = dist[x, p] = 0.0
    elif case == "no_interior":
        boundary = list(range(n))
    elif case == "skewed":  # beyond the tolerance
        dist[0, 1] += 1e-6
    elif case == "self_distance":
        dist[n - 1, n - 1] = 1e-6
    elif case == "infinite":
        dist[1, 0] = np.inf
    meta = {"coords": pts.tolist()}
    if case in ("bad_coords", "bad_both"):  # bad_both: the metric, checked first, may fail too
        meta["coords"] = pts[:-1].tolist()
    return dist, boundary, meta


@st.composite
def pack_stacks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 14))
    s = draw(st.integers(1, 40))
    bad = draw(st.sampled_from([0.0, 0.02, 0.2]))  # the share of packs drawn from the bad cases
    cases = [BAD[int(rng.integers(len(BAD)))] if rng.uniform() < bad else GOOD[int(rng.integers(len(GOOD)))] for _ in range(s)]
    return [drawn_pack(rng, n, case) for case in cases]


def outcome(call):
    """The packs a call returns, or its error as type, message and triangle triple."""
    try:
        return call()
    except TriangleViolation as exc:
        return TriangleViolation, str(exc), (exc.p, exc.q, exc.r, exc.defect)
    except C0CoverError as exc:
        return type(exc), str(exc)


def one_at_a_time(drawn):
    out = []
    for dist, boundary, meta in drawn:
        got = outcome(lambda: cc.validate_pack(len(dist), dist, boundary, meta))
        if not isinstance(got, cc.DiscretePack):
            return got
        out.append(got)
    return out


def oracle_validate(dist, boundary, meta):
    """``validate_pack``'s checks in its order, from the definitions, for one pack:
    its boundary and sides, the metric, the meta, then the boundary reduction
    (k_sup, delta_res, d(p, X), nearest boundary ids, tie pairs) point by point."""
    n, tol = len(dist), DEFAULT_TRIANGLE_TOL
    if not (min(boundary) >= 0 and max(boundary) < n):
        raise BadParams(f"boundary ids must lie in 0..{n - 1}")
    if len(set(boundary)) == n:
        raise EmptySide("interior X-hat is empty")
    if not np.isfinite(dist).all():
        raise BadParams("distance matrix has non-finite entries")
    if np.any(np.abs(np.diag(dist)) > tol):
        raise DegeneratePack("nonzero self-distance")
    asym = np.abs(dist - dist.T)
    if asym.max() > tol:
        i, j = np.unravel_index(int(asym.argmax()), asym.shape)
        raise AsymmetricDistance(f"d({i},{j}) != d({j},{i})")
    if min(dist[i, j] for i in range(n) for j in range(n) if i != j) <= 0:
        raise DegeneratePack("distinct points at distance <= 0")
    worst, worst_ijk = -np.inf, None
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if len({i, j, k}) == 3 and dist[i, j] - (dist[i, k] + dist[k, j]) > worst:
                    worst, worst_ijk = dist[i, j] - (dist[i, k] + dist[k, j]), (i, k, j)
    if worst > tol:
        raise TriangleViolation(*worst_ijk, worst)
    _check_meta(meta, n)
    bidx = sorted(boundary)
    bdist, near, ties = [], [], []
    for p in range(n):
        row = [float(dist[p, x]) for x in bidx]
        nearest = [x for x, v in zip(bidx, row) if v == min(row)]
        bdist.append(0.0 if p in boundary else min(row))
        near.append(p if p in boundary else nearest[0])
        ties += [(p, x) for x in nearest] if p not in boundary and len(nearest) > 1 else []
    depth = [bdist[p] for p in range(n) if p not in boundary]
    return max(depth), min(depth), np.array(bdist), np.array(near, dtype=np.intp), np.array(ties, dtype=np.intp).reshape(-1, 2)


def first_oracle_error(drawn):
    for dist, boundary, meta in drawn:
        got = outcome(lambda: oracle_validate(dist, boundary, meta))
        if isinstance(got[0], type):  # an error, its type first
            return got
    return None


FIELDS = ("dist", "boundary_dist", "nearest_boundary", "nearest_ties")


@settings(max_examples=200, deadline=None)
@given(pack_stacks())
def test_the_stack_validates_as_validate_pack_one_pack_at_a_time(drawn):
    want = one_at_a_time(drawn)
    stack = np.stack([dist for dist, _, _ in drawn])
    got = outcome(lambda: _validated_stack(stack, [frozenset(b) for _, b, _ in drawn], [m for _, _, m in drawn]))
    oracle = first_oracle_error(drawn)
    if not isinstance(want, list):
        assert got == want
        assert want == oracle
        return
    assert oracle is None
    assert isinstance(got, list) and len(got) == len(want)
    for g, w, (dist, boundary, meta) in zip(got, want, drawn):
        k_sup, delta_res, bdist, near, ties = oracle_validate(dist, boundary, meta)
        assert (w.k_sup, w.delta_res) == (k_sup, delta_res)
        for a, b in zip((w.boundary_dist, w.nearest_boundary, w.nearest_ties), (bdist, near, ties)):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert g.boundary == w.boundary and g.meta == w.meta
        assert (g.k_sup, g.delta_res) == (w.k_sup, w.delta_res)
        assert type(g.k_sup) is type(g.delta_res) is float
        for name in FIELDS:
            a, b = getattr(g, name), getattr(w, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
            assert not a.flags.writeable, name


def test_a_pack_refused_on_its_sides_reads_no_metric():
    # one point, on the boundary, and a 1 x 0 matrix: the sides fail first, so the
    # metric check gets an empty stack, whose matrices need not be square
    with pytest.raises(EmptySide, match="interior X-hat is empty"):
        cc.validate_pack(1, [[]], [0])


def test_the_ties_case_draws_ties():
    for seed in range(5):
        dist, boundary, meta = drawn_pack(np.random.default_rng(seed), 6, "ties")
        ties = cc.validate_pack(6, dist, boundary, meta).nearest_ties
        p = min(set(range(6)) - set(boundary))
        assert (p in ties[:, 0]) == (len(boundary) > 1)


def test_the_transfer_check_validates_its_packs_in_stacks(monkeypatch):
    # 2,000 packs of 5 to 9 points: one call of the metric kernel per pack size
    # in each batch, where validating one pack at a time makes 2,000
    real, stacks = packs._check_metric, []

    def counted(dist, tol):
        stacks.append(len(dist) if dist.ndim == 3 else 1)
        real(dist, tol)

    monkeypatch.setattr(packs, "_check_metric", counted)
    results = cc.verify.check_transfer_lemmas(7, 500)
    assert all(r.ok for r in results)
    assert sum(stacks) == 2000
    assert len(stacks) <= 80  # 62: batches of about 145 packs, 4 or 5 sizes each
