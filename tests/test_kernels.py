"""Differential tests: the array kernels against the loops they replaced.

Each oracle below is the per-rung, per-point or per-k loop the library used before
its kernel, kept verbatim in spirit and independent of the kernel code.  The
kernels must agree with them exactly (``==``, no tolerance).
"""

import hashlib
import json
import math
import pickle
import re
import sys
import threading
from collections import Counter
from itertools import chain, combinations, product
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import c0cover as cc
from c0cover import canonical, covers
from c0cover.covers import _members_of, member_stats
from c0cover.canonical import _slice, ball_betas, beta_length_for, ext_family, subsequence_indices
from c0cover.cylinder import (
    LowerBoundResult,
    _column_structure,
    cylinder_over_boundary,
    fxf_image,
    image_density_gap,
)
from c0cover.errors import (
    AsymmetricDistance,
    BadLadder,
    BadParams,
    BetaDoesNotCoverBoundary,
    BoundaryInput,
    DegeneratePack,
    EmptyComplement,
    EmptyMember,
    LadderExhausted,
    MemberOutsideTarget,
    NonCylindricalPack,
    NotACover,
    NotARefinement,
    NotBoundarySubset,
    NotCovering,
    PackMismatch,
    TriangleViolation,
    UniformityRejected,
)
from c0cover.experiment import ExperimentConfig, report_to_json, run_experiment
from c0cover.packs import (
    _check_metric,
    _finish_pack,
    _thin_rungs,
    boundary_line,
    merged_levels,
    pack_from_json,
    pack_to_json,
    sample_levels,
)
from c0cover.relations import (
    CurveVerdict,
    _columns,
    _floor,
    _scale_curve_verdict,
    controlled_phi,
    relation_from_json,
    relation_to_json,
)
from c0cover.verify import delta_of_family, random_family, random_pack

# -- oracles -----------------------------------------------------------------------------


def oracle_set_dist(pack, p, targets):
    idx = list(targets)
    return float(pack.dist[p, idx].min()) if idx else float("inf")


def oracle_diam(pack, pts):
    idx = sorted(pts)
    return float(pack.dist[np.ix_(idx, idx)].max()) if len(idx) >= 2 else 0.0


def oracle_curve_verdict(ladder, cond, size, threshold, effective_floor=False):
    order = np.argsort(cond, kind="stable")
    cond_sorted = cond[order]
    prefix = np.maximum.accumulate(size[order]) if len(order) else np.array([])
    samples, floor_t, floor_value = [], None, 0.0
    for t in ladder.radii:
        cnt = int(np.searchsorted(cond_sorted, t, side="right"))
        v = float(prefix[cnt - 1]) if cnt > 0 else 0.0
        samples.append((float(t), v))
        if cnt > 0 or not effective_floor:
            floor_t, floor_value = float(t), v
    vs = [v for _, v in samples]
    monotone = all(a >= b - 1e-12 for a, b in zip(vs, vs[1:]))
    breakpoints = []  # the first rung of each run of equal values
    for t, v in samples:
        if not breakpoints or v != breakpoints[-1][1]:
            breakpoints.append((t, v))
    accept = monotone and floor_value <= threshold
    return tuple(samples), tuple(breakpoints), floor_t, floor_value, accept, monotone


def assert_curve_verdict(got, ladder, want):
    """The library verdict against ``oracle_curve_verdict``: the same value at
    every rung, breakpoints at the run starts, and a curve that never rises."""
    samples, breakpoints, floor_t, floor_value, accept, monotone = want
    assert monotone
    assert got.curve.value_at(ladder.array).tolist() == [v for _, v in samples]
    assert (got.curve.samples, got.floor_t, got.floor_value, got.accept) == (
        breakpoints,
        floor_t,
        floor_value,
        accept,
    )


def oracle_h_profile(pack, ladder):
    bidx = sorted(pack.boundary)
    bd = pack.boundary_dist
    order = np.argsort(-bd, kind="stable")
    depths = bd[order]
    dmin = np.full(len(bidx), np.inf)
    taken = 0
    samples = []
    for t in ladder.radii:
        if t >= pack.k_sup:
            samples.append((float(t), float(pack.k_sup)))
            continue
        while taken < len(order) and depths[taken] >= t:
            np.minimum(dmin, pack.dist[bidx, order[taken]], out=dmin)
            taken += 1
        if taken == 0:
            raise EmptyComplement(f"no point at boundary distance >= {t} < k_sup")
        samples.append((float(t), float(dmin.max())))
    return tuple(samples)


def oracle_phi(pack, ladder, lam):
    h = cc.ModulusCurve(oracle_h_profile(pack, ladder))
    samples = []
    for t in ladder.radii:
        lt = lam.at(t)
        samples.append((float(t), h.value_at(t) + lt + h.value_at(t + lt)))
    return tuple(samples)


def oracle_lebesgue(pack, beta, target):
    tgt = sorted(frozenset(target))
    tset = frozenset(tgt)
    members = [m & tset for m in _members_of(beta)]
    members = [m for m in members if m]
    cap = oracle_diam(pack, tgt)
    best = np.inf
    for p in tgt:
        here = -np.inf
        for m in members:
            if p in m:
                here = max(here, oracle_set_dist(pack, p, tset - m))
        if here == -np.inf:
            raise NotACover(f"point {p} lies in no member")
        best = min(best, here)
    if best == np.inf:
        best = cap
    return float(min(best, cap))


def oracle_member_stats(pack, members):
    bd = pack.boundary_dist
    lo = [min(bd[p] for p in m) for m in members]
    hi = [max(bd[p] for p in m) for m in members]
    return lo, hi, [oracle_diam(pack, m) for m in members]


def oracle_default_ladder(pack, top_factor=2.0):
    k = pack.k_sup
    values = np.unique(pack.boundary_dist[pack.boundary_dist > 0])
    floor = float(values.min())
    radii = [top_factor * k]
    n = 1
    while True:
        r = k / (2.0 * n)
        j = np.searchsorted(values, r)
        hit = None
        if j < len(values) and abs(values[j] - r) <= 1e-12 * k:
            hit = j
        elif j > 0 and abs(values[j - 1] - r) <= 1e-12 * k:
            hit = j - 1
        if hit is not None:
            v = float(values[hit])
            below = float(values[hit - 1]) if hit > 0 else 0.0
            below = max(below, k / (2.0 * (n + 1)))
            r = (v + below) / 2.0
        if r < radii[-1] * (1 - 1e-12):
            radii.append(float(r))
            if r < floor:
                break
        n += 1
    radii.append(radii[-1] / 2.0)
    radii.append(radii[-1] / 2.0)
    return tuple(radii)


def oracle_subsequence(pack, ladder, betas, gamma):
    ladder.validate_for(pack)
    bd = pack.boundary_dist
    all_pts = list(pack.points)
    radii = np.array(ladder.radii)
    m_top = len(ladder) - 1
    members = list(gamma.members)
    maxdepth = np.array([max(bd[p] for p in m) for m in members])
    diams = np.array([oracle_diam(pack, m) for m in members])
    order = np.argsort(maxdepth, kind="stable")
    md_sorted = maxdepth[order]
    diam_prefix = np.maximum.accumulate(diams[order])

    def l_value(n):
        cnt = int(np.searchsorted(md_sorted, radii[n], side="left"))
        return float(diam_prefix[cnt - 1]) if cnt else 0.0

    def first_rung_below(limit):
        idx = np.nonzero(radii < limit)[0]
        return int(idx[0]) if idx.size else None

    indices = [0]
    k = 1
    while True:
        if k >= len(betas):
            raise LadderExhausted(f"beta sequence exhausted at step {k}")
        union_k = frozenset().union(*betas[k])
        lim = min((bd[p] for p in all_pts if p not in union_k), default=np.inf)
        m = first_rung_below(lim)
        if m is None:
            raise LadderExhausted(f"no rung with closed neighborhood inside beta {k}")
        helper = list(betas[k]) + [frozenset(p for p in all_pts if bd[p] > radii[m])]
        big_l = oracle_lebesgue(pack, helper, all_pts)
        m_prime = next((n for n in range(m_top + 1) if l_value(n) < big_l), None)
        if m_prime is None:
            raise LadderExhausted("no rung shrinks gamma below the Lebesgue number")
        prev = indices[-1]
        tail = cc.star(gamma, frozenset(p for p in pack.interior if bd[p] >= radii[prev]))
        m_dprime = first_rung_below(min((bd[p] for p in tail), default=np.inf))
        if m_dprime is None:
            raise LadderExhausted("ladder cannot clear the star of the previous tail")
        n_k = max(prev + 1, m + 1, m_prime, m_dprime)
        paced = first_rung_below(radii[prev] / 1.5)
        if paced is not None:
            n_k = max(n_k, paced)
        if n_k > m_top:
            raise LadderExhausted(f"recursion wants rung {n_k} beyond the ladder")
        indices.append(n_k)
        if radii[prev] < pack.delta_res:
            break
        k += 1
    return tuple(indices)


def oracle_check_metric(dist, tol):
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise BadParams("distance matrix must be square")
    if np.any(np.abs(np.diag(dist)) > tol):
        raise DegeneratePack("nonzero self-distance")
    asym = np.abs(dist - dist.T)
    if asym.max(initial=0.0) > tol:
        i, j = np.unravel_index(int(asym.argmax()), asym.shape)
        raise AsymmetricDistance(f"d({i},{j}) != d({j},{i})")
    off = dist.copy()
    np.fill_diagonal(off, np.inf)
    if off.min() <= 0:
        raise DegeneratePack("distinct points at distance <= 0")
    worst = -np.inf
    worst_ijk = None
    for k in range(n):
        via = dist[:, k, None] + dist[None, k, :]
        defect = dist - via
        np.fill_diagonal(defect, -np.inf)
        defect[:, k] = -np.inf
        defect[k, :] = -np.inf
        m = defect.max(initial=-np.inf)
        if m > worst:
            worst = m
            i, j = np.unravel_index(int(defect.argmax()), defect.shape)
            worst_ijk = (int(i), k, int(j))
    if worst > tol:
        i, k, j = worst_ijk
        raise TriangleViolation(i, k, j, worst)


def oracle_boundary_dist(pack):
    bidx = sorted(pack.boundary)
    bdist = pack.dist[:, bidx].min(axis=1)
    bdist[bidx] = 0.0
    return bdist


def oracle_f_map(pack, p):
    bidx = sorted(pack.boundary)
    d = pack.dist[p, bidx]
    return bidx[int(np.argmin(d))], float(oracle_boundary_dist(pack)[p])


def oracle_ties(pack):
    """{p: T(p)} for the points p with more than one nearest boundary point."""
    bidx = sorted(pack.boundary)
    bdist = oracle_boundary_dist(pack)
    ties = {}
    for p in pack.points:
        t = [x for x in bidx if pack.dist[p, x] == bdist[p]] if p not in pack.boundary else [p]
        if len(t) > 1:
            ties[p] = t
    return ties


def oracle_ext(pack, u):
    """v(U) = {p : d(p, U) < d(p, X \\ U)}, reduced over both sides of the boundary."""
    u = frozenset(u)
    if not u <= pack.boundary:
        raise NotBoundarySubset("ext wants a subset of the boundary")
    if not u:
        return frozenset()
    comp = sorted(pack.boundary - u)
    du = pack.dist[:, sorted(u)].min(axis=1)
    dc = pack.dist[:, comp].min(axis=1) if comp else np.full(pack.n_points, np.inf)
    return frozenset(np.flatnonzero(du < dc).tolist())


def oracle_ext_family(pack, members):
    return tuple(oracle_ext(pack, u) for u in members)


def oracle_slice(pack, ladder, betas):
    """The nonempty sets U & annulus n for U in betas[n], deduplicated in order."""
    n_ann = len(ladder) - 2
    if len(betas) < n_ann:
        raise LadderExhausted(f"need {n_ann} beta families, have {len(betas)}")
    if frozenset().union(*betas[0]) != frozenset(pack.points):
        raise BadParams("betas[0] must be the whole-space family")
    members = []
    for n in range(n_ann):
        fam = betas[n]
        if not pack.boundary <= frozenset().union(*fam):
            raise BetaDoesNotCoverBoundary(n)
        ann = cc.annulus(pack, ladder, n)
        for u in fam:
            m = frozenset(u) & ann
            if m and m not in members:
                members.append(m)
    return members


def oracle_sample_levels(pack):
    return sorted({float(t) for t in pack.boundary_dist if t > 0})


def oracle_merged_levels(pack):
    """The attained depths grouped into runs whose consecutive gaps are at most
    1e-12 k_sup, each run named by its smallest depth; ascending."""
    runs = []
    for t in oracle_sample_levels(pack):
        if runs and t - runs[-1][-1] <= 1e-12 * pack.k_sup:
            runs[-1].append(t)
        else:
            runs.append([t])
    return [run[0] for run in runs]


def oracle_column_structure(pack):
    bidx = sorted(pack.boundary)
    levels = oracle_merged_levels(pack)[::-1]
    by_slot = {}
    for p in sorted(pack.interior):
        d = pack.dist[p, bidx]
        z = int(np.argmin(d))
        li = min(i for i, t in enumerate(levels) if t <= pack.boundary_dist[p])  # the run holding the depth
        by_slot[(z, li)] = p
    return bidx, levels, by_slot


def oracle_cylinder_grid(cyl):
    """(base index, level) -> point of an induced cylinder, read off the lists
    in its meta rather than its boundary reduction."""
    return {(b, t): p for p, (b, t) in enumerate(zip(cyl.meta["base_of"], cyl.meta["level_of"]))}


def oracle_fxf_pairs(pack, e):
    interior = sorted(pack.interior)
    fmap = {p: oracle_f_map(pack, p) for p in interior}
    levels = sorted({t for _, t in fmap.values()}, reverse=True)
    cyl = cc.cylinder.cylinder_over_boundary(pack, levels)
    b_index = {b: i for i, b in enumerate(cyl.meta["source_boundary"])}
    point_at = oracle_cylinder_grid(cyl)
    point_of = {p: point_at[b_index[z], t] for p, (z, t) in fmap.items()}
    return {(point_of[p], point_of[q]) for p, q in e.pairs if p in point_of and q in point_of}


def oracle_image_density_gap(pack):
    fmap = [oracle_f_map(pack, p) for p in sorted(pack.interior)]
    cyl = cc.cylinder.cylinder_over_boundary(pack, [t for _, t in fmap])
    h = cc.h_profile(pack, cc.default_ladder(pack))
    b_index = {b: i for i, b in enumerate(cyl.meta["source_boundary"])}
    point_at = oracle_cylinder_grid(cyl)
    img = np.array(sorted({point_at[b_index[z], t] for z, t in fmap}))
    worst = 0.0
    for slot in cyl.points:
        t = cyl.meta["level_of"][slot]
        if t == 0.0:
            continue
        gap = float(cyl.dist[slot, img].min())
        bound = 3.0 * h.value_at(t)
        worst = max(worst, gap / bound if bound > 0 else np.inf)
    return worst


class OracleRelation:
    """The set-of-pairs relation the library used before its bool mask."""

    def __init__(self, pack, pairs):
        self.pack = pack
        self.pairs = frozenset((int(p), int(q)) for p, q in pairs)
        n = pack.n_points
        for p, q in self.pairs:
            if not (0 <= p < n and 0 <= q < n):
                raise PackMismatch(f"pair ({p},{q}) outside the pack")
        balls = {}
        for y, x in self.pairs:
            balls.setdefault(x, set()).add(y)
        self.balls = {x: frozenset(s) for x, s in balls.items()}

    def ball(self, x):
        return self.balls.get(x, frozenset())

    def image(self, targets):
        out = set()
        for x in targets:
            out |= self.ball(x)
        return frozenset(out)

    def inverse(self):
        return OracleRelation(self.pack, ((q, p) for p, q in self.pairs))

    def is_symmetric(self):
        return all((q, p) in self.pairs for p, q in self.pairs)

    def contains_diagonal(self, points=None):
        pts = self.pack.interior if points is None else points
        return all((p, p) in self.pairs for p in pts)

    def union(self, other):
        return OracleRelation(self.pack, self.pairs | other.pairs)

    def to_json_list(self):
        return [[p, q] for p, q in sorted(self.pairs)]


def oracle_compose(e, f):
    by_first = {}
    for y, z in f.pairs:
        by_first.setdefault(y, []).append(z)
    out = set()
    for x, y in e.pairs:
        for z in by_first.get(y, ()):
            out.add((x, z))
    return OracleRelation(e.pack, out)


def oracle_full_relation(pack, points=None):
    pts = list(pack.points if points is None else points)
    return OracleRelation(pack, ((p, q) for p in pts for q in pts))


def oracle_map_relation(e, f, target):
    return OracleRelation(target, ((f[p], f[q]) for p, q in e.pairs))


def oracle_c0_modulus(pack, ladder, e, c0_tol=0.05):
    threshold = c0_tol * pack.k_sup
    pairs = np.fromiter(chain.from_iterable(e.pairs), dtype=np.intp, count=2 * len(e.pairs))
    ps, qs = pairs[0::2], pairs[1::2]
    bd = pack.boundary_dist
    want = oracle_curve_verdict(ladder, np.minimum(bd[ps], bd[qs]), pack.dist[ps, qs], threshold)
    _, breakpoints, floor_t, floor_value, accept, _ = want
    return CurveVerdict(cc.ModulusCurve(breakpoints), accept, floor_t, floor_value, threshold)


def oracle_diag_nbhd(pack, lam):
    interior = sorted(pack.interior)
    bd = pack.boundary_dist
    return {(p, q) for p in interior for q in interior if pack.dist[p, q] < lam.at(min(bd[p], bd[q]))}


def oracle_ball_cover(e):
    pack = e.pack
    members = []
    union = set()
    for x in sorted(pack.interior):
        b = e.ball(x)
        if not b:
            raise NotCovering(f"point {x} has an empty ball")
        members.append(b)
        union |= b
    if not pack.interior <= union:
        raise NotCovering("balls do not cover the interior")
    return cc.Cover.make(pack, members, target="interior")


class OracleCover:
    """The tuple-of-frozensets cover the library used before its index arrays."""

    def __init__(self, pack, members, target, target_tag):
        self.pack = pack
        self.members = members
        self.target = target
        self.target_tag = target_tag

    @classmethod
    def make(cls, pack, members, target="interior", drop_empty=False):
        if target == "interior":
            tset, tag = pack.interior, "interior"
        elif target == "boundary":
            tset, tag = pack.boundary, "boundary"
        else:
            tset, tag = frozenset(int(p) for p in target), "custom"
            outside = tset - frozenset(pack.points)
            if outside:
                raise PackMismatch(f"target point {min(outside)} outside the pack")
        seen = set()
        out = []
        for m in members:
            fm = frozenset(int(p) for p in m)
            if not fm:
                if drop_empty:
                    continue
                raise EmptyMember("cover members must be nonempty")
            if not fm <= tset:
                raise MemberOutsideTarget(f"member {sorted(fm)[:6]}... leaves the target")
            if fm not in seen:
                seen.add(fm)
                out.append(fm)
        return cls(pack, tuple(out), tset, tag)

    @property
    def covers_flag(self):
        return frozenset().union(*self.members) == self.target

    def to_json_dict(self):
        return {"members": [sorted(m) for m in self.members], "target": self.target_tag}


def oracle_members(alpha):
    if isinstance(alpha, (cc.Cover, OracleCover)):
        return alpha.members
    seen, out = set(), []
    for m in alpha:
        fm = frozenset(m)
        if fm and fm not in seen:
            seen.add(fm)
            out.append(fm)
    return tuple(out)


def oracle_point_counts(*families):
    return Counter(p for fam in families for m in oracle_members(fam) for p in m)


def oracle_multiplicity(alpha):
    return max(oracle_point_counts(alpha).values(), default=0)


def oracle_mult_witness(alpha):
    counts = oracle_point_counts(alpha)
    if not counts:
        return 0, None
    best = max(counts.values())
    return best, min(p for p, c in counts.items() if c == best)


def oracle_common_multiplicity(*families):
    return max(oracle_point_counts(*families).values(), default=0)


def oracle_refines(beta, alpha):
    """The assignment V -> first U holding it; NotARefinement on the first V with none."""
    a_members = oracle_members(alpha)
    assignment = {}
    for v in oracle_members(beta):
        for u in a_members:
            if v <= u:
                assignment[v] = u
                break
        else:
            raise NotARefinement(v)
    return assignment


def oracle_star(alpha, s):
    fs = frozenset(s)
    out = set()
    for m in oracle_members(alpha):
        if m & fs:
            out |= m
    return frozenset(out)


def oracle_columns_ball_cover(e):
    """K(E) as the columns of the mask, each a frozenset, through the frozenset cover."""
    pack = e.pack
    interior = np.array(sorted(pack.interior), dtype=np.intp)
    cols = e.mask[:, interior]
    empty = ~cols.any(axis=0)
    if empty.any():
        raise NotCovering(f"point {interior[empty.argmax()]} has an empty ball")
    if not cols[interior].any(axis=1).all():
        raise NotCovering("balls do not cover the interior")
    return OracleCover.make(pack, _columns(cols), target="interior")


def oracle_diag_nbhd_mask(pack, lam):
    """The n x n gauge lambda(min(d(p, X), d(q, X))) over the interior block."""
    idx = np.array(sorted(pack.interior))
    bd = pack.boundary_dist[idx]
    gauge = lam.at(np.minimum(bd[:, None], bd[None, :]))
    mask = np.zeros((pack.n_points, pack.n_points), dtype=bool)
    mask[np.ix_(idx, idx)] = pack.dist[np.ix_(idx, idx)] < gauge
    return mask


def same_cover(got, want):
    """A library cover (or error) against the oracle's: the same members in
    the same order, and index arrays that list each member's ids ascending."""
    if isinstance(got, tuple) or isinstance(want, tuple):
        return got == want
    return (
        got.to_json_dict() == want.to_json_dict()  # written from ids and offsets
        and got.members == want.members
        and not got.ids.flags.writeable
        and not got.offsets.flags.writeable
        and (got.target, got.target_tag, len(got), got.covers_flag)
        == (want.target, want.target_tag, len(want.members), want.covers_flag)
    )

def outcome(fn, *args, **kwargs):
    """The value, or the (type, message) of the library error raised."""
    try:
        return fn(*args, **kwargs)
    except cc.C0CoverError as exc:
        return type(exc), str(exc)


# -- inputs --------------------------------------------------------------------------------

GENERATED = {
    "finite_cylinder": dict(n_base=2, n_levels=5),
    "interval_cylinder": dict(n_base=5, n_levels=4),
    "circle_in_disk": dict(n_angles=6, n_levels=4),
    "cube_face": dict(n_side=3, n_levels=3),
    "countable_example": dict(n_y=5),
}
_generated_cache = {}


def generated(kind):
    if kind not in _generated_cache:
        _generated_cache[kind] = cc.generate_pack(kind, **GENERATED[kind])
    return _generated_cache[kind]


@st.composite
def packs(draw):
    """A random planar pack or a small generated one, with an rng for families."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(3, 12))
        return random_pack(rng, n, draw(st.integers(1, n - 1))), rng
    return generated(draw(st.sampled_from(sorted(GENERATED)))), rng


@st.composite
def tie_packs(draw):
    """Metrics with every distance in {2, 3, 4}: many ties between boundary
    points, and many interior points sharing a (base, level) slot."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 12))
    upper = np.triu(rng.integers(2, 5, (n, n)).astype(float), 1)
    boundary = rng.permutation(n)[: draw(st.integers(1, n - 1))].tolist()
    return cc.validate_pack(n, upper + upper.T, boundary), rng


@st.composite
def mirror_packs(draw):
    """Planar packs symmetric about the y axis, with points on the axis: each
    of those is tied between a boundary point and its mirror image."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_b, n_i, n_axis = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    half = rng.uniform((0.05, 0.0), (1.0, 1.0), (n_b + n_i, 2))
    axis = np.column_stack([np.zeros(n_axis), rng.uniform(0.0, 1.0, n_axis)])
    xy = np.concatenate([half, half * (-1.0, 1.0), axis])
    dist = np.sqrt(((xy[:, None] - xy[None]) ** 2).sum(axis=2))
    assume((dist + np.eye(len(xy))).min() > 1e-4)
    boundary = [*range(n_b), *range(n_b + n_i, 2 * n_b + n_i)]
    return cc.validate_pack(len(xy), dist, boundary), rng


def families(rng, pack, pts=None):
    """Random members plus one-point members, sometimes one holding every point."""
    universe = sorted(pack.points if pts is None else pts)
    fam = random_family(rng, pack, int(rng.integers(1, 6)), pts=universe)
    fam += [frozenset([int(p)]) for p in rng.choice(universe, size=int(rng.integers(0, 4)))]
    if rng.uniform() < 0.2:
        fam.append(frozenset(universe))
    return fam


@st.composite
def ladders(draw, extra=(), top=10.0):
    """A strictly decreasing positive ladder below ``top``, often with rungs at the given values."""
    pool = st.floats(1e-3, top, allow_nan=False)
    if len(extra):
        pool = st.one_of(pool, st.sampled_from([float(x) for x in extra if x > 0] or [1.0]))
    radii = sorted(set(draw(st.lists(pool, min_size=3, max_size=25))), reverse=True)
    assume(len(radii) >= 3)
    return cc.ScaleLadder(tuple(radii))


# -- curve verdicts -------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data(), st.booleans())
def test_scale_curve_verdict_matches_loop(data, effective_floor):
    ladder = data.draw(ladders())
    item = st.one_of(st.sampled_from(ladder.radii), st.floats(0.0, 12.0, allow_nan=False))
    cond = np.array(data.draw(st.lists(item, max_size=20)), dtype=float)
    size = np.array(data.draw(st.lists(st.floats(0.0, 5.0), min_size=len(cond), max_size=len(cond))))
    threshold = data.draw(st.floats(0.0, 5.0))
    got = _scale_curve_verdict(ladder, cond, size, threshold, effective_floor)
    assert_curve_verdict(got, ladder, oracle_curve_verdict(ladder, cond, size, threshold, effective_floor))


@pytest.mark.parametrize("effective_floor", [False, True])
def test_scale_curve_verdict_empty_cond(cyl_ladder, effective_floor):
    empty = np.array([])
    got = _scale_curve_verdict(cyl_ladder, empty, empty, 0.1, effective_floor)
    assert_curve_verdict(got, cyl_ladder, oracle_curve_verdict(cyl_ladder, empty, empty, 0.1, effective_floor))
    assert got.floor_t == (None if effective_floor else cyl_ladder.radii[-1])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_floor_matches_the_curve_verdict(data):
    """The floor read by one masked max is the effective floor of the curve
    verdict, and so is its accept: items above the top rung, items at a rung
    and single items included."""
    ladder = data.draw(ladders())
    top = ladder.radii[0]
    item = st.one_of(
        st.sampled_from(ladder.radii),  # at a rung
        st.floats(0.0, top, allow_nan=False),
        st.floats(top, 2 * top, allow_nan=False, exclude_min=True),  # above the top rung
    )
    cond = np.array(data.draw(st.lists(item, min_size=1, max_size=data.draw(st.sampled_from([1, 20])))))
    size = np.array(data.draw(st.lists(st.floats(0.0, 5.0), min_size=len(cond), max_size=len(cond))))
    threshold = data.draw(st.floats(0.0, 5.0))
    verdict = _scale_curve_verdict(ladder, cond, size, threshold, effective_floor=True)
    floor_t, floor_value = _floor(ladder.array, cond, size)
    assert (floor_t, floor_value) == (verdict.floor_t, verdict.floor_value)
    assert (floor_value <= threshold) == verdict.accept
    _, _, want_t, want_value, want_accept, _ = oracle_curve_verdict(ladder, cond, size, threshold, True)
    assert (floor_t, floor_value, floor_value <= threshold) == (want_t, want_value, want_accept)


@pytest.mark.parametrize(
    "cond, size, want",
    [
        ([3.0], [0.7], (None, 0.0)),  # one item above the top rung
        ([1.0], [0.7], (1.0, 0.7)),  # one item at a rung
        ([0.6, 0.9, 3.0], [0.1, 0.4, 9.0], (1.0, 0.4)),  # the floor is the rung 1.0 above min(cond)
        ([0.2, 0.2], [0.3, 0.5], (0.25, 0.5)),  # the floor is the bottom rung
        ([0.1, 1.5], [0.3, 0.9], (0.25, 0.3)),  # an item below the bottom rung: every rung reaches it
    ],
)
def test_floor_cases(cond, size, want):
    ladder = cc.ScaleLadder((2.0, 1.0, 0.5, 0.25))
    cond, size = np.array(cond), np.array(size)
    assert _floor(ladder.array, cond, size) == want
    verdict = _scale_curve_verdict(ladder, cond, size, 0.45, effective_floor=True)
    assert (verdict.floor_t, verdict.floor_value, verdict.accept) == (*want, want[1] <= 0.45)


@settings(max_examples=80, deadline=None)
@given(packs(), st.data())
def test_h_profile_matches_loop(drawn, data):
    pack, _ = drawn
    ladder = data.draw(st.one_of(st.just(cc.default_ladder(pack)), ladders(extra=pack.boundary_dist)))
    got = outcome(cc.h_profile, pack, ladder)
    want = outcome(oracle_h_profile, pack, ladder)
    assert (got.samples if isinstance(got, cc.ModulusCurve) else got) == want


def test_h_profile_empty_complement():
    pack = generated("interval_cylinder")
    # a k_sup above every sample depth leaves rungs in between with no far point
    lifted = _finish_pack(replace(pack, k_sup=2 * pack.k_sup))
    ladder = cc.ScaleLadder((4.0, 1.5, 0.5, 0.01))
    got = outcome(cc.h_profile, lifted, ladder)
    assert got == outcome(oracle_h_profile, lifted, ladder)
    assert got[0] is EmptyComplement and "1.5" in got[1]


@settings(max_examples=60, deadline=None)
@given(packs(), st.sampled_from(["identity", "constant", "random"]), st.data())
def test_controlled_phi_matches_loop(drawn, lam_kind, data):
    pack, rng = drawn
    ladder = cc.default_ladder(pack)
    if lam_kind == "identity":
        lam = cc.LambdaSpec.identity(ladder)
    elif lam_kind == "constant":
        lam = cc.LambdaSpec.constant(ladder, data.draw(st.floats(1e-3, 2.0)))
    else:  # nondecreasing in t, listed along decreasing t
        vals = np.sort(rng.uniform(1e-3, 1.0, len(ladder)))[::-1]
        lam = cc.LambdaSpec(cc.ModulusCurve(np.column_stack([ladder.radii, vals])))
    assert controlled_phi(pack, ladder, lam).samples == oracle_phi(pack, ladder, lam)


def test_c0_modulus_empty_relation(cyl_fixture, cyl_ladder):
    v = cc.c0_modulus(cyl_fixture, cyl_ladder, cc.Relation(cyl_fixture, []))
    assert v.curve.samples == ((cyl_ladder.radii[0], 0.0),)
    assert not v.curve.value_at(cyl_ladder.array).any()
    assert v.accept and v.floor_t == cyl_ladder.radii[-1]


# -- relations: the bool mask against the sets of pairs ------------------------------------------


@st.composite
def relation_masks(draw, pack, rng):
    """An n x n bool mask: random at any density (empty and full included), one
    that only touches the boundary, or a symmetric one holding the diagonal."""
    n = pack.n_points
    kind = draw(st.sampled_from(["random", "empty", "full", "boundary", "symmetric"]))
    if kind in ("empty", "full"):
        return np.full((n, n), kind == "full")
    mask = rng.uniform(size=(n, n)) < draw(st.sampled_from([0.05, 0.25, 0.6]))
    if kind == "boundary":
        on_boundary = np.isin(np.arange(n), sorted(pack.boundary))
        mask &= on_boundary[:, None] | on_boundary[None, :]
    elif kind == "symmetric":
        mask |= mask.T | np.eye(n, dtype=bool)
    return mask


def as_oracle(e):
    return OracleRelation(e.pack, zip(*(i.tolist() for i in np.nonzero(e.mask))))


@settings(max_examples=150, deadline=None)
@given(packs(), st.data())
def test_relation_matches_sets(drawn, data):
    pack, rng = drawn
    mask = data.draw(relation_masks(pack, rng))
    e = cc.Relation.from_mask(pack, mask)
    oracle = OracleRelation(pack, zip(*(i.tolist() for i in np.nonzero(mask))))
    assert e == cc.Relation(pack, oracle.pairs) and hash(e) == hash(cc.Relation(pack, oracle.pairs))
    assert e.pairs == oracle.pairs and len(e) == len(oracle.pairs)
    assert e.to_json_list() == oracle.to_json_list()
    assert relation_from_json(pack, relation_to_json(e)) == e
    n = pack.n_points
    probes = [(int(p), int(q)) for p, q in rng.integers(-1, n + 1, (10, 2))]
    assert [pq in e for pq in probes] == [pq in oracle.pairs for pq in probes]
    for x in range(-1, n + 1):
        assert e.ball(x) == oracle.ball(x)
    subset = frozenset(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist())
    assert e.image(subset) == oracle.image(subset)
    assert e.is_symmetric() == oracle.is_symmetric()
    points = [int(p) for p in rng.integers(-1, n + 1, 3)]
    for pts in (None, points, sorted(pack.boundary)):
        assert e.contains_diagonal(pts) == oracle.contains_diagonal(pts)
    assert e.inverse().pairs == oracle.inverse().pairs

    f = cc.Relation.from_mask(pack, data.draw(relation_masks(pack, rng)))
    assert cc.compose(e, f).pairs == oracle_compose(oracle, as_oracle(f)).pairs
    assert e.union(f).pairs == oracle.union(as_oracle(f)).pairs

    ladder = cc.default_ladder(pack)
    assert cc.c0_modulus(pack, ladder, e) == oracle_c0_modulus(pack, ladder, oracle)
    got = outcome(cc.ball_cover, e)
    want = outcome(oracle_ball_cover, oracle)
    assert got == want and (not isinstance(got, cc.Cover) or got.members == want.members)

    target = random_pack(rng, int(rng.integers(2, 9)), 1)
    fmap = rng.integers(0, target.n_points, n).tolist()
    assert cc.relations.map_relation(e, fmap, target).pairs == oracle_map_relation(oracle, fmap, target).pairs


@settings(max_examples=100, deadline=None)
@given(packs(), st.data())
def test_relation_contains_reads_one_mask_entry(drawn, data):
    """``(p, q) in e`` is ``pairs`` membership for integer ids, numpy's
    included, and False for anything that is no pair of points: no wrap of
    -1, no truncation of a fraction, no bool read as an id."""
    pack, rng = drawn
    e = cc.Relation.from_mask(pack, data.draw(relation_masks(pack, rng)))
    n = pack.n_points
    probes = [(p, q) for p in range(-1, n + 1) for q in range(-1, n + 1)]
    assert [pq in e for pq in probes] == [pq in e.pairs for pq in probes]
    assert all((np.int64(p), np.uint8(q)) in e for p, q in e.pairs)
    p, q = (int(v) for v in rng.integers(0, n, 2))
    for bad in [(p - n, q), (p + 0.5, q), (float(p), q), (True, q), (p, np.True_), (str(p), q), (p, 2**70), (p,), (p, q, q), p, None]:
        assert bad not in e


@settings(max_examples=80, deadline=None)
@given(packs(), st.data())
def test_relation_constructions_match_sets(drawn, data):
    pack, rng = drawn
    size = int(rng.integers(0, pack.n_points + 1))
    points = sorted(rng.choice(pack.n_points, size=size, replace=False).tolist())
    for pts in (None, points):
        assert cc.full_relation(pack, pts).pairs == oracle_full_relation(pack, pts).pairs
        want = {(p, p) for p in (pack.interior if pts is None else pts)}
        assert cc.diagonal(pack, pts).pairs == want
    ladder = cc.default_ladder(pack)
    full = cc.full_relation(pack)
    assert cc.c0_modulus(pack, ladder, full) == oracle_c0_modulus(pack, ladder, oracle_full_relation(pack))
    # nondecreasing in t, listed along decreasing t
    vals = np.sort(rng.uniform(1e-3, 1.0, len(ladder)))[::-1]
    lam = cc.LambdaSpec(cc.ModulusCurve(np.column_stack([ladder.radii, vals])))
    e = cc.diag_nbhd_from_lambda(pack, lam)
    want = oracle_diag_nbhd(pack, lam)
    assert e.pairs == want
    assert outcome(cc.ball_cover, e) == outcome(oracle_ball_cover, OracleRelation(pack, want))
    alpha = cc.Cover.make(pack, families(rng, pack), target=pack.points)
    assert covers.delta_of(alpha) == delta_of_family(pack, alpha.members)


@pytest.mark.parametrize("kind", sorted(GENERATED))
def test_relation_on_default_generators(kind):
    pack = cc.generate_pack(kind)
    ladder = cc.default_ladder(pack)
    e = cc.controlled_E(pack, ladder, cc.LambdaSpec.identity(ladder), lambda_tol=1.0)
    phi = cc.LambdaSpec(controlled_phi(pack, ladder, cc.LambdaSpec.identity(ladder)))
    oracle = OracleRelation(pack, oracle_diag_nbhd(pack, phi))
    assert e.pairs == oracle.pairs
    assert cc.ball_cover(e).members == oracle_ball_cover(oracle).members
    assert cc.c0_modulus(pack, ladder, e) == oracle_c0_modulus(pack, ladder, oracle)
    assert e.to_json_list() == oracle.to_json_list()


@pytest.mark.parametrize(
    "mask, error",
    [
        (np.zeros((3, 2), dtype=bool), PackMismatch),
        (np.zeros((4, 4), dtype=bool), PackMismatch),
        (np.zeros(9, dtype=bool), PackMismatch),
        (np.zeros((3, 3), dtype=np.int8), BadParams),
        ([[0.0] * 3] * 3, BadParams),
    ],
    ids=["non_square", "wrong_size", "flat", "int8", "float_list"],
)
def test_relation_mask_is_checked(line3, mask, error):
    with pytest.raises(error):
        cc.Relation.from_mask(line3, mask)


def test_relation_mask_is_read_only_and_copied(line3):
    mask = np.eye(3, dtype=bool)
    e = cc.Relation.from_mask(line3, mask)
    mask[0, 1] = True
    assert e.pairs == {(0, 0), (1, 1), (2, 2)}
    with pytest.raises(ValueError):
        e.mask[0, 2] = True
    with pytest.raises(ValueError):
        cc.compose(e, e).mask[0, 2] = True


# the controlled relation's bytes and size, recorded on the set-of-pairs implementation
PINNED_RELATIONS = [
    (
        ("interval_cylinder", {"n_base": 33, "n_levels": 10}),
        15124,
        "236cb232dd2915b1ed875f6f08b2b9d8940c72918a8f5b02f1f9b11c73530913",
    ),
    (
        ("circle_in_disk", {"n_angles": 32, "n_levels": 10}),
        6368,
        "5b60d8cb23613ce8e2bec31e3bc02b4b0fa8e26df479b220bcb49cb0fcbbe14f",
    ),
]


@pytest.mark.parametrize("spec, size, sha256", PINNED_RELATIONS, ids=["interval_33x10", "circle_32x10"])
def test_controlled_E_bytes_pinned(spec, size, sha256):
    pack = cc.generate_pack(spec[0], **spec[1])
    ladder = cc.default_ladder(pack)
    e = cc.controlled_E(pack, ladder, cc.LambdaSpec.identity(ladder))
    assert len(e) == size
    assert hashlib.sha256(relation_to_json(e).encode()).hexdigest() == sha256


# -- member statistics and Lebesgue numbers ---------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(packs())
def test_member_stats_matches_loop(drawn):
    pack, rng = drawn
    fam = families(rng, pack)
    lo, hi, diam = member_stats(pack, fam)
    want = oracle_member_stats(pack, fam)
    assert (lo.tolist(), hi.tolist(), diam.tolist()) == tuple(list(map(float, w)) for w in want)


def test_member_stats_chunked_gathers(monkeypatch, rng):
    pack = random_pack(rng, 12, 4)
    fam = [frozenset(rng.choice(12, size=s, replace=False).tolist()) for s in (3, 3, 3, 5, 5, 12, 1)]
    monkeypatch.setattr(covers, "_GATHER_LIMIT", 20)  # one or two members per gather
    _, _, diam = member_stats(pack, fam)
    assert diam.tolist() == [oracle_diam(pack, m) for m in fam]
    assert diam[-1] == 0.0


def test_member_stats_empty_family(cyl_fixture):
    assert all(a.size == 0 for a in member_stats(cyl_fixture, []))


DIAMETER_PATHS = ("_pair_diameters", "_gathered_diameters")
_gamma_cache = {}


def identity_gamma(kind, **params):
    """The ball cover of the identity-gauge relation E, as the pipeline builds it."""
    key = (kind, tuple(sorted(params.items())))
    if key not in _gamma_cache:
        pack = cc.generate_pack(kind, **params)
        ladder = cc.default_ladder(pack)
        _gamma_cache[key] = cc.ball_cover(cc.controlled_E(pack, ladder, cc.LambdaSpec.identity(ladder)))
    return _gamma_cache[key]


def assert_diameter_paths(monkeypatch, pack, members, path):
    """``index_stats`` takes ``path`` on the members, and both diameter paths
    and the whole stats equal the oracle's exactly."""
    ids, offsets = covers._flatten(members)
    taken = []
    with monkeypatch.context() as m:
        for name in DIAMETER_PATHS:
            fn = getattr(covers, name)
            m.setattr(covers, name, lambda *args, fn=fn, name=name: taken.append(name) or fn(*args))
        got = covers.index_stats(pack, ids, offsets)
    assert taken[0] == path  # the pair path may then gather the members its sweep leaves
    want = [np.array(w, dtype=float) for w in oracle_member_stats(pack, members)]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    for name in DIAMETER_PATHS:
        assert np.array_equal(getattr(covers, name)(pack.dist, ids, offsets), want[2]), name


@pytest.mark.parametrize(
    "kind, params, path",
    [
        ("interval_cylinder", dict(n_base=33, n_levels=10), "_pair_diameters"),
        ("interval_cylinder", dict(n_base=65, n_levels=12), "_pair_diameters"),
        ("circle_in_disk", dict(n_angles=32, n_levels=10), "_gathered_diameters"),
    ],
)
def test_gamma_diameter_paths_match_the_oracle(monkeypatch, kind, params, path):
    gamma = identity_gamma(kind, **params)
    assert_diameter_paths(monkeypatch, gamma.pack, gamma.members, path)


def test_alpha_takes_the_gathered_path(monkeypatch):
    gamma = identity_gamma("interval_cylinder", n_base=33, n_levels=10)
    alpha, _ = cc.minimal_canonical(gamma.pack, gamma)
    assert_diameter_paths(monkeypatch, gamma.pack, alpha.members, "_gathered_diameters")


@settings(max_examples=100, deadline=None)
@given(packs(), st.integers(16, 32))
def test_pair_diameters_on_heavily_overlapping_families(drawn, n_members):
    """Members that each hold most points: the squared sizes sum past 8 u^2."""
    pack, rng = drawn
    n = pack.n_points
    fam = [frozenset(rng.choice(n, size=int(rng.integers(max(2, n - 2), n + 1)), replace=False).tolist())]
    fam += [frozenset(rng.choice(n, size=int(rng.integers(n // 2 + 1, n + 1)), replace=False).tolist()) for _ in range(n_members)]
    fam += [frozenset([int(p)]) for p in rng.choice(n, size=int(rng.integers(0, 4)))]
    sizes = np.array(list(map(len, fam)))
    assume(sizes @ sizes > 8 * len(frozenset().union(*fam)) ** 2)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_diameter_paths(monkeypatch, pack, fam, "_pair_diameters")


@pytest.mark.parametrize("sweep", [1, 2, 3, 64, 65])
def test_pair_sweep_and_enumeration_chunks(monkeypatch, sweep):
    """Chunk boundaries inside the sweep, and one or two holder rows per block
    of points.  The sweep finds some members and leaves the rest to the gather."""
    gamma = identity_gamma("interval_cylinder", n_base=17, n_levels=8)
    want = np.array(oracle_member_stats(gamma.pack, gamma.members)[2])
    gathered = []
    gather = covers._gathered_diameters
    monkeypatch.setattr(covers, "_gathered_diameters", lambda d, i, o: gathered.append(len(o) - 1) or gather(d, i, o))
    monkeypatch.setattr(covers, "_SWEEP", sweep)
    monkeypatch.setattr(covers, "_GATHER_LIMIT", 8 * sweep)
    assert np.array_equal(covers._pair_diameters(gamma.pack.dist, gamma.ids, gamma.offsets), want)
    assert len(gathered) == 1 and 0 < gathered[0] < np.count_nonzero(np.diff(gamma.offsets) > 1)


def near_symmetric_pack():
    """A dense pack symmetric only within the checked tolerance: on six points of
    a line, d[q, p] exceeds d[p, q] by 4e-10 for p < q, and point 3 is 8e-10 from
    itself but at most 5e-10 from point 4.  Read above the diagonal alone, every member
    holding both ends, and the member {3, 4}, would get a smaller diameter."""
    x = np.array([0.0, 1.0, 2.5, 3.0, 3.0 + 1e-10, 4.5])
    d = np.abs(x[:, None] - x[None, :])
    d += np.tril(np.full_like(d, 4e-10), -1)
    d[3, 3] = 8e-10
    return cc.validate_pack(6, d, [0])


def test_diameter_paths_read_both_orientations(monkeypatch):
    pack = near_symmetric_pack()
    assert not np.array_equal(pack.dist, pack.dist.T)
    members = [frozenset(c) for k in (4, 5) for c in combinations(range(6), k)] + [frozenset({3, 4}), frozenset({2})]
    assert_diameter_paths(monkeypatch, pack, members, "_pair_diameters")
    _, _, diam = member_stats(pack, members)
    assert diam[-2] == 8e-10 and diam[0] == pack.dist[3, 0]  # {0, 1, 2, 3}: d[3, 0] > d[0, 3]
    for fam in (members, [frozenset({0, 1}), frozenset({1, 2, 3}), frozenset({3, 4, 5})], members[-2:]):
        for target in (pack.points, [1, 2, 3, 4]):
            assert outcome(cc.lebesgue_number, pack, fam, target) == outcome(oracle_lebesgue, pack, fam, target)


def test_cover_measures_its_members_once(monkeypatch):
    pack = cc.generate_pack("interval_cylinder", n_base=9, n_levels=6)
    ladder = cc.default_ladder(pack)
    gamma = cc.ball_cover(cc.controlled_E(pack, ladder, cc.LambdaSpec.identity(ladder)))
    measured = []
    index_stats = covers.index_stats
    monkeypatch.setattr(
        covers, "index_stats", lambda pack, ids, offsets: measured.append(ids) or index_stats(pack, ids, offsets)
    )
    for lad in (ladder, cc.ScaleLadder(ladder.radii[::2])):
        for tol in (0.05, 0.2):
            got = cc.uniformity_verdict(pack, lad, gamma, tol)
            assert got == cc.uniformity_verdict(pack, lad, list(gamma.members), tol)  # the raw path
    assert sum(ids is gamma.ids for ids in measured) == 1
    assert len(measured) == 1 + 4  # the cover once, each raw family every time
    assert not any(a.flags.writeable for a in gamma.stats)


# -- covers as index arrays, against the frozenset cover ---------------------------------------


def raw_members(rng, pack, universe):
    """Members as ``make`` receives them: frozensets, reversed lists and numpy
    arrays, with repeats, an occasional empty member, and an occasional id
    just outside the pack (-1 or n), which numpy indexing would wrap."""
    fam = families(rng, pack, universe)
    fam += [fam[i] for i in rng.integers(0, len(fam), int(rng.integers(0, 3)))]
    out = []
    for m in (fam[i] for i in rng.permutation(len(fam))):
        form = int(rng.integers(0, 3))
        out.append(m if form == 0 else sorted(m, reverse=True) if form == 1 else np.array(sorted(m)))
    if rng.uniform() < 0.2:
        out.insert(int(rng.integers(0, len(out) + 1)), [])
    if rng.uniform() < 0.2:
        bad = frozenset(out[0]) | {int(rng.choice([-1, pack.n_points]))}
        out.insert(int(rng.integers(0, len(out) + 1)), bad)
    return out


@settings(max_examples=200, deadline=None)
@given(packs(), st.sampled_from(["interior", "boundary", "all", "subset", "outside"]), st.booleans())
def test_cover_make_matches_frozenset_cover(drawn, target_kind, drop_empty):
    pack, rng = drawn
    target = {
        "interior": "interior",
        "boundary": "boundary",
        "all": list(pack.points),
        "subset": sorted(rng.choice(pack.n_points, int(rng.integers(1, pack.n_points + 1)), replace=False).tolist()),
        "outside": [0, int(rng.choice([-1, pack.n_points]))],
    }[target_kind]
    universe = {"interior": pack.interior, "boundary": pack.boundary, "outside": pack.points}.get(target_kind, target)
    # members mostly inside the target, sometimes anywhere in the pack
    members = raw_members(rng, pack, universe if rng.uniform() < 0.8 else pack.points)
    got = outcome(cc.Cover.make, pack, members, target=target, drop_empty=drop_empty)
    want = outcome(OracleCover.make, pack, members, target=target, drop_empty=drop_empty)
    assert same_cover(got, want)
    if isinstance(want, tuple):
        return
    # a cover whose frozenset view is built from its arrays reads the same
    rebuilt = covers.Cover(pack, got.ids.copy(), got.offsets.copy(), got.target, got.target_tag)
    assert rebuilt.members == want.members and rebuilt == got
    other = OracleCover.make(pack, families(rng, pack, want.target or pack.points), target=target)
    other_got = cc.Cover.make(pack, other.members, target=target)
    plain = families(rng, pack)
    for alpha in (got, rebuilt):
        assert cc.multiplicity(alpha) == oracle_multiplicity(want)
        assert covers.mult_witness(alpha) == oracle_mult_witness(want)
        assert cc.common_multiplicity(alpha, other_got) == oracle_common_multiplicity(want, other)
        assert cc.common_multiplicity(alpha, plain) == oracle_common_multiplicity(want, plain)
        s = frozenset(rng.choice(pack.n_points, size=int(rng.integers(0, pack.n_points + 1)), replace=False).tolist())
        assert cc.star(alpha, s) == oracle_star(want, s)
        assert covers.delta_of(alpha) == delta_of_family(pack, want.members)


def assert_refines_matches(beta, alpha):
    try:
        want = oracle_refines(beta, alpha)
    except NotARefinement as exc:
        with pytest.raises(NotARefinement) as got:
            cc.refines(beta, alpha)
        assert got.value.member == exc.member and str(got.value) == str(exc)
        return
    witness = cc.refines(beta, alpha)
    assert witness.assignment == want and list(witness.assignment) == list(want)
    coarse = oracle_members(alpha)
    assert [coarse[j] for j in witness.index.tolist()] == list(want.values())
    assert witness.verify()


@settings(max_examples=150, deadline=None)
@given(packs())
def test_refines_matches_frozenset_loop(drawn):
    pack, rng = drawn
    alpha = cc.Cover.make(pack, families(rng, pack), target=pack.points)
    # shrunk members of alpha refine it; a random family usually does not
    shrunk = [frozenset(q for q in m if rng.uniform() < 0.7) or frozenset([min(m)]) for m in alpha.members]
    beta = cc.Cover.make(pack, [shrunk[i] for i in rng.permutation(len(shrunk))], target=pack.points)
    for finer, coarser in [(beta, alpha), (alpha, beta), (list(beta.members), alpha), (families(rng, pack), alpha),
                           (alpha, alpha), ([], alpha), (beta, [])]:
        assert_refines_matches(finer, coarser)


def test_refines_gathers_in_chunks(monkeypatch, interval_pipeline):
    gamma, alpha = interval_pipeline["gamma"], interval_pipeline["alpha"]
    monkeypatch.setattr(covers, "_GATHER_LIMIT", 500)  # a few members per gather
    assert_refines_matches(gamma, alpha)
    assert_refines_matches(alpha, gamma)


def test_refinement_witness_verify_sees_a_wrong_pair(rng):
    pack = random_pack(rng, 8, 2)
    alpha = cc.Cover.make(pack, [{0, 1, 2}, {2, 3}, {4, 5, 6, 7}], target=pack.points)
    beta = cc.Cover.make(pack, [{2, 3}, {5, 6}], target=pack.points)
    witness = cc.refines(beta, alpha)
    assert witness.index.tolist() == [1, 2] and witness.verify()
    assert not covers.RefinementWitness(beta, alpha, np.array([0, 2])).verify()


@st.composite
def ball_masks(draw, pack, rng):
    """Relations whose interior balls repeat one another, with at times an
    empty ball, a ball that holds a boundary point, or an uncovered point."""
    n = pack.n_points
    interior = sorted(pack.interior)
    mask = np.zeros((n, n), dtype=bool)
    pool = rng.uniform(size=(n, int(rng.integers(1, 4)))) < 0.5  # a few distinct balls
    pool[interior[0], :] = True  # every ball holds one interior point
    mask[:, interior] = pool[:, rng.integers(0, pool.shape[1], len(interior))]
    mask[interior, interior] = True  # the diagonal: every ball holds its centre
    if not draw(st.booleans()):  # the balls stay inside the interior
        mask[sorted(pack.boundary)] = False
    flaw = draw(st.sampled_from(["none", "empty", "uncovered"]))
    if flaw == "empty":
        mask[:, interior[int(rng.integers(0, len(interior)))]] = False
    elif flaw == "uncovered" and len(interior) > 1:
        p = interior[-1]
        mask[p] = False
        mask[p, interior[0]] = False
    return mask


@settings(max_examples=150, deadline=None)
@given(packs(), st.data())
def test_ball_cover_matches_columns(drawn, data):
    pack, rng = drawn
    e = cc.Relation.from_mask(pack, data.draw(ball_masks(pack, rng)))
    got = outcome(cc.ball_cover, e)
    assert isinstance(got, tuple) or got._members is None  # no frozenset on the way
    assert same_cover(got, outcome(oracle_columns_ball_cover, e))
    if not isinstance(got, tuple):
        stats = zip(covers.index_stats(pack, got.ids, got.offsets), oracle_member_stats(pack, got.members))
        assert all(a.tolist() == list(map(float, b)) for a, b in stats)


@pytest.mark.parametrize("kind", sorted(GENERATED))
@pytest.mark.parametrize("lam_kind", ["identity", "constant", "custom"])
def test_diag_nbhd_matches_square_gauge(kind, lam_kind, monkeypatch):
    pack = generated(kind)
    rng = np.random.default_rng(len(kind))
    ladder = cc.default_ladder(pack)
    if lam_kind == "identity":
        lam = cc.LambdaSpec.identity(ladder)
    elif lam_kind == "constant":  # the experiment's "constant:<c>"
        lam = cc.LambdaSpec.constant(ladder, 0.3 * pack.k_sup)
    else:  # a ladder of its own, at sample depths and in between, nondecreasing in t
        depths = np.unique(pack.boundary_dist[pack.boundary_dist > 0])
        radii = np.unique(np.concatenate([depths, depths * 1.5, [2 * pack.k_sup]]))[::-1]
        vals = np.sort(rng.uniform(1e-3, pack.k_sup, len(radii)))[::-1]
        lam = cc.LambdaSpec(cc.ModulusCurve(np.column_stack([radii, vals])))
    want = oracle_diag_nbhd_mask(pack, lam)
    assert np.array_equal(cc.diag_nbhd_from_lambda(pack, lam).mask, want)
    monkeypatch.setattr(cc.packs, "_BLOCK", 50)  # blocks of one to four rows
    assert np.array_equal(cc.diag_nbhd_from_lambda(pack, lam).mask, want)
    e = cc.controlled_E(pack, ladder, lam, lambda_tol=1e9) if lam_kind != "custom" else None
    if e is not None:
        phi = cc.LambdaSpec(controlled_phi(pack, ladder, lam))
        assert np.array_equal(e.mask, oracle_diag_nbhd_mask(pack, phi))


@pytest.mark.parametrize("kind", sorted(GENERATED))
def test_generators_fill_the_matrix_in_row_blocks(kind, monkeypatch):
    whole = generated(kind)  # one block at these sizes
    monkeypatch.setattr(cc.packs, "_BLOCK", 50)  # blocks of one to four rows
    assert np.array_equal(cc.generate_pack(kind, **GENERATED[kind]).dist, whole.dist)


@pytest.mark.parametrize("n_angles, n_levels", [(3, 1), (7, 2), (32, 10), (48, 12), (97, 5)])
def test_circle_distances_match_the_stacked_formula(n_angles, n_levels):
    # the (n, n, 2) difference array summed over its last axis, as the circle was first built
    pack = cc.generate_pack("circle_in_disk", n_angles=n_angles, n_levels=n_levels)
    pts = np.array(pack.meta["coords"])
    stacked = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    assert pack.dist.tobytes() == stacked.tobytes()

def test_minimal_canonical_measures_gamma_once_and_builds_no_frozenset(monkeypatch):
    pack = cc.generate_pack("interval_cylinder", n_base=33, n_levels=10)
    ladder = cc.default_ladder(pack)
    gamma = cc.ball_cover(cc.controlled_E(pack, ladder, cc.LambdaSpec.identity(ladder)))
    measured = []
    index_stats = covers.index_stats
    monkeypatch.setattr(
        covers, "index_stats", lambda pack, ids, offsets: measured.append(ids) or index_stats(pack, ids, offsets)
    )
    # the boundary covers are made as alpha reads them, inside refine_subsequence; it makes no other cover
    refining, made = [False], []
    make, refine = covers.Cover.make.__func__, canonical.refine_subsequence
    record = classmethod(lambda cls, *a, **kw: made.append((refining[0], kw.get("target"))) or make(cls, *a, **kw))
    monkeypatch.setattr(covers.Cover, "make", record)

    def traced_refine(*args):
        refining[0] = True
        try:
            return refine(*args)
        finally:
            refining[0] = False

    monkeypatch.setattr(canonical, "refine_subsequence", traced_refine)
    alpha, _ = cc.minimal_canonical(pack, gamma)
    assert sum(ids is gamma.ids for ids in measured) == 1
    assert gamma._members is None and alpha._members is None
    inside = [target for refining, target in made if refining]
    assert inside and set(inside) == {"boundary"}


@settings(max_examples=150, deadline=None)
@given(packs(), st.booleans())
def test_lebesgue_number_matches_loop(drawn, subset):
    pack, rng = drawn
    target = sorted(pack.points)
    if subset:
        target = sorted(rng.choice(target, size=int(rng.integers(1, len(target) + 1)), replace=False).tolist())
    fam = families(rng, pack)
    assert outcome(cc.lebesgue_number, pack, fam, target) == outcome(oracle_lebesgue, pack, fam, target)


def test_lebesgue_names_the_first_uncovered_point(rng):
    pack = random_pack(rng, 8, 3)
    fam = [frozenset({0, 1}), frozenset({5}), frozenset({1, 2, 6})]
    with pytest.raises(NotACover, match="point 3 lies"):
        cc.lebesgue_number(pack, fam, pack.points)
    with pytest.raises(NotACover, match="point 3 lies"):
        oracle_lebesgue(pack, fam, pack.points)


def test_lebesgue_one_point_members(rng):
    pack = random_pack(rng, 7, 2)
    singles = [frozenset([p]) for p in pack.points]
    assert cc.lebesgue_number(pack, singles, pack.points) == oracle_lebesgue(pack, singles, pack.points)


# -- the refinement recursion -----------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, params",
    [("finite_cylinder", dict(n_base=2, n_levels=8)), ("interval_cylinder", dict(n_base=9, n_levels=6)),
     ("circle_in_disk", dict(n_angles=8, n_levels=6)), ("countable_example", dict(n_y=5))],
)
@pytest.mark.parametrize("on_samples", [False, True])
def test_subsequence_indices_matches_loop(kind, params, on_samples):
    pack = cc.generate_pack(kind, **params)
    ladder = cc.default_ladder(pack)
    if on_samples:  # rungs at sample depths, where members reach a rung exactly
        depths = {float(t) for t in pack.boundary_dist if t > 0}
        ladder = cc.ScaleLadder(tuple(sorted(set(ladder.radii) | depths, reverse=True)))
    balls = cc.ball_cover(cc.controlled_E(pack, ladder, cc.LambdaSpec.identity(ladder)))
    # a family that misses points too, so gamma alone is no cover
    sparse = cc.Cover.make(pack, balls.members[::3])
    radii = ladder.radii
    ladders = {
        "default": ladder,
        "thinned": cc.ScaleLadder(tuple(sorted(set(radii[::50]) | set(radii[-3:]), reverse=True))),
        # the first step jumps to the bottom rung, so the next one runs off the ladder
        "top_and_bottom": cc.ScaleLadder((radii[0], radii[1], radii[-1])),
    }
    # three families stop the recursion at step 3 with LadderExhausted
    beta_seqs = {"full": ball_betas(pack, beta_length_for(pack)), "short": ball_betas(pack, 3)}
    beta_sets = {name: [as_sets(fam) for fam in betas] for name, betas in beta_seqs.items()}
    raised = set()
    for (lname, lad), (bname, betas), gamma in product(ladders.items(), beta_seqs.items(), (balls, sparse)):
        gamma_with_singletons = cc.Cover.make(pack, [*gamma.members, *cc.singleton_cover(pack).members])
        want = outcome(oracle_subsequence, pack, lad, beta_sets[bname], gamma_with_singletons)
        if isinstance(want[0], type):
            raised.add(re.sub(r"\d+", "N", want[1]))
        # the singletons decide no rung, errors included: a diameter of 0 never
        # raises a prefix max, and a singleton in the previous tail's star has
        # depth >= r_prev, so its m'' is at most prev + 1, a bound n_k has anyway
        for with_singletons in (False, True):
            got = outcome(subsequence_indices, pack, lad, betas, gamma_with_singletons if with_singletons else gamma)
            assert got == want, (lname, bname, gamma is sparse, with_singletons)
    assert raised == {"beta sequence exhausted at step N", "recursion wants rung N beyond the ladder"}


# -- the ladder -------------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(packs())
def test_default_ladder_matches_loop(drawn):
    pack, _ = drawn
    floor = float(pack.boundary_dist[pack.boundary_dist > 0].min())
    assume(pack.k_sup / floor < 2e5)  # keeps the oracle loop short
    assert cc.default_ladder(pack).radii == oracle_default_ladder(pack)


@pytest.mark.parametrize("kind", sorted(GENERATED))
def test_default_ladder_on_default_generators(kind):
    pack = cc.generate_pack(kind)
    assert cc.default_ladder(pack).radii == oracle_default_ladder(pack)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=30), st.data())
def test_thin_rungs_matches_greedy_scan(values, data):
    # near-duplicates within the 1e-12 margin exercise the greedy path
    cand = sorted(values, reverse=True)
    dupes = data.draw(st.lists(st.sampled_from(range(len(cand))), max_size=5))
    for i in sorted(dupes, reverse=True):
        cand.insert(i + 1, cand[i] * (1 - data.draw(st.sampled_from([0.0, 1e-13, 5e-13, 2e-12]))))
    kept = [cand[0]]
    for x in cand[1:]:
        if x < kept[-1] * (1 - 1e-12):
            kept.append(x)
    assert _thin_rungs(np.array(cand)).tolist() == kept


def test_default_ladder_nudges_collisions():
    # depths on, just above and just below harmonic rungs k / (2n); 0.1 - 1e-13
    # is the floor, met from above by the rung 0.1
    depths = [1.0, 0.5 + 1e-13, 0.25, 1 / 6 - 1e-13, 0.125 + 4e-13, 0.1 - 1e-13]
    line = np.array([0.0] + depths)
    pack = cc.validate_pack(len(line), np.abs(line[:, None] - line[None, :]), [0])
    assert cc.default_ladder(pack).radii == oracle_default_ladder(pack)


def test_default_ladder_runaway_is_typed():
    pack = cc.generate_pack("finite_cylinder", n_base=1, n_levels=2, ratio=1e-8)
    with pytest.raises(BadLadder, match="runaway"):
        cc.default_ladder(pack)


# -- the modulus curve as an array ------------------------------------------------------------


def test_modulus_curve_pairs_and_array_agree():
    pairs = ((1.0, 2.0), (0.5, 1.0), (0.25, 0.0))
    a, b = cc.ModulusCurve(pairs), cc.ModulusCurve(np.array(pairs))
    assert a == b and hash(a) == hash(b) and a.samples == pairs
    assert pickle.loads(pickle.dumps(a)) == a
    assert cc.ModulusCurve(((1.0, -0.0),)) == cc.ModulusCurve(((1.0, 0.0),))
    assert hash(cc.ModulusCurve(((1.0, -0.0),))) == hash(cc.ModulusCurve(((1.0, 0.0),)))
    assert a != cc.ModulusCurve(((1.0, 2.0), (0.5, 1.0), (0.25, 0.5)))
    positive = ((1.0, 2.0), (0.5, 1.0))
    assert len({cc.LambdaSpec(cc.ModulusCurve(positive)), cc.LambdaSpec(cc.ModulusCurve(np.array(positive)))}) == 1
    with pytest.raises(ValueError):
        a.array[0, 0] = 3.0  # read-only
    with pytest.raises(AttributeError):
        a.array = None


@pytest.mark.parametrize(
    "bad",
    [(), [[1.0]], [[1.0, 2.0, 3.0]], [(1.0, 1.0), (1.0, 0.5)], [(0.0, 1.0)], [(1.0, -1.0)],
     [(float("nan"), 1.0)], [("x", 1.0)]],
)
def test_modulus_curve_rejects(bad):
    with pytest.raises(BadParams):
        cc.ModulusCurve(bad)


def test_curve_verdicts_stay_hashable(cyl_fixture, cyl_ladder):
    v = cc.uniformity_verdict(cyl_fixture, cyl_ladder, cc.singleton_cover(cyl_fixture))
    assert hash(v) == hash(cc.uniformity_verdict(cyl_fixture, cyl_ladder, cc.singleton_cover(cyl_fixture)))


# -- triangle check -----------------------------------------------------------------------------


def metric_outcome(check, dist, tol):
    """None if accepted, else the error type plus the violating triple or the message."""
    try:
        check(dist, tol)
    except TriangleViolation as exc:
        return TriangleViolation, (exc.p, exc.q, exc.r, exc.defect)
    except cc.C0CoverError as exc:
        return type(exc), str(exc)
    return None


def metric_matrix(rng, n, case, tol, integer=False):
    """A planar metric, a small-integer matrix (ties), asymmetry within tol or one inflated entry."""
    if case == "integer" or integer:
        upper = np.triu(rng.integers(1, 5, (n, n)).astype(float), 1)
        dist = upper + upper.T
    else:
        pts = rng.uniform(0.0, 1.0, (n, 2))
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    if case == "asymmetric":
        dist += rng.uniform(0.0, tol, (n, n)) * (rng.uniform(size=(n, n)) < 0.3) * (1 - np.eye(n))
    if case == "inflated" and n >= 2:
        a, b = rng.choice(n, 2, replace=False)
        factor = rng.uniform(1.0, 3.0)
        dist[a, b] *= factor
        dist[b, a] *= factor
    return dist


@st.composite
def metric_matrices(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 14))
    case = draw(st.sampled_from(["planar", "integer", "asymmetric", "inflated"]))
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-9, 0.5]))
    integer = case == "asymmetric" and draw(st.booleans())
    if case == "asymmetric":
        tol = max(tol, 1e-9)
    return metric_matrix(rng, n, case, tol, integer), tol


@settings(max_examples=400, deadline=None)
@given(metric_matrices())
def test_check_metric_matches_loop(drawn):
    dist, tol = drawn
    assert metric_outcome(_check_metric, dist, tol) == metric_outcome(oracle_check_metric, dist, tol)


def _recorded_parts(monkeypatch, cpus, part_triples=None):
    """Make the kernel read ``cpus`` CPUs (and ``part_triples``), and record the row
    range of every part it runs, in whichever thread."""
    monkeypatch.setattr(cc.packs, "_cpu_count", lambda: cpus)
    if part_triples is not None:
        monkeypatch.setattr(cc.packs, "_PART_TRIPLES", part_triples)
    real, ranges = cc.packs._defect_rows, []

    def recorded(off, off_t, via, buf, lo, hi):
        ranges.append((lo, hi))
        real(off, off_t, via, buf, lo, hi)

    monkeypatch.setattr(cc.packs, "_defect_rows", recorded)
    return ranges


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("case", ["planar", "integer", "asymmetric", "inflated"])
def test_split_check_metric_matches_loop(case, cpus, monkeypatch):
    # one triple a part makes every matrix split into one part per CPU
    ranges = _recorded_parts(monkeypatch, cpus, part_triples=1)
    for n, seed in [(64, 1), (101, 2), (160, 3)]:
        dist = metric_matrix(np.random.default_rng(seed), n, case, 1e-9)
        ranges.clear()
        assert metric_outcome(_check_metric, dist, 1e-9) == metric_outcome(oracle_check_metric, dist, 1e-9)
        passes = 2 if case == "asymmetric" else 1  # the transposed pass splits the same way
        assert len(ranges) == cpus * passes
        assert sorted(ranges)[::passes] == list(zip(cc.packs._row_cuts(n, cpus), cc.packs._row_cuts(n, cpus)[1:]))


def oracle_min_plus_defects(dist):
    """d(i,j) - min over k of (d(i,k) + d(k,j)) with d(p,p) read as +inf, row by row, for i < j."""
    n = len(dist)
    off = dist.copy()
    np.fill_diagonal(off, np.inf)
    out = np.full((n, n), -np.inf)
    for i in range(n):
        via = (off[i][:, None] + off).min(axis=0)
        out[i, i + 1 :] = dist[i, i + 1 :] - via[i + 1 :]
    return out


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("case", ["planar", "integer", "asymmetric"])
def test_split_defects_match_the_row_oracle(case, cpus, monkeypatch):
    _recorded_parts(monkeypatch, cpus, part_triples=1)
    for n in (64, 101):
        dist = metric_matrix(np.random.default_rng(n), n, case, 1e-9)
        off = dist.copy()
        np.fill_diagonal(off, np.inf)
        got = cc.packs._min_plus_defects(dist[None], off[None], np.ascontiguousarray(off.T)[None], np.empty(n * n))[0]
        assert got.tobytes() == oracle_min_plus_defects(dist).tobytes()


@st.composite
def defect_stacks(draw):
    """1-30 matrices of one size, 2-45 points: exactly symmetric or asymmetric within tol."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, s = draw(st.integers(2, 45)), draw(st.integers(1, 30))
    cases = draw(st.lists(st.sampled_from(["planar", "integer", "asymmetric"]), min_size=s, max_size=s))
    return np.stack([metric_matrix(rng, n, case, 1e-9) for case in cases])


@settings(max_examples=200, deadline=None)
@given(defect_stacks(), st.integers(1, 3))
def test_stacked_defects_match_the_row_oracle(dist, cpus):
    # one triple a part: every stack splits into one part per CPU
    with pytest.MonkeyPatch.context() as patch:
        _recorded_parts(patch, cpus, part_triples=1)
        off = dist.copy()
        off[:, np.arange(dist.shape[1]), np.arange(dist.shape[1])] = np.inf
        got = cc.packs._min_plus_defects(dist, off, np.ascontiguousarray(off.transpose(0, 2, 1)), np.empty(dist.size))
    assert [m.tobytes() for m in got] == [oracle_min_plus_defects(d).tobytes() for d in dist]


def test_a_stack_of_small_matrices_is_one_part(monkeypatch):
    ranges = _recorded_parts(monkeypatch, 2)
    rng = np.random.default_rng(8)
    dist = np.stack([metric_matrix(rng, 8, "planar", 1e-9) for _ in range(50)])
    _check_metric(dist, 1e-9)
    assert ranges == [(0, 8)]


def test_split_under_fast_thread_switching(monkeypatch):
    # more parts than CPUs, switching threads every few bytecodes: no part may touch another's rows
    _recorded_parts(monkeypatch, 6, part_triples=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(3):
            dist = metric_matrix(np.random.default_rng(seed), 90, "integer", 1e-9)
            off = dist.copy()
            np.fill_diagonal(off, np.inf)
            got = cc.packs._min_plus_defects(dist[None], off[None], off[None], np.empty(90 * 90))[0]
            assert got.tobytes() == oracle_min_plus_defects(dist).tobytes()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n, parts", [(240, 1), (260, 2), (300, 3)])
def test_split_starts_where_it_pays(n, parts, monkeypatch):
    ranges = _recorded_parts(monkeypatch, 3)
    dist = metric_matrix(np.random.default_rng(n), n, "inflated", 1e-9)
    assert metric_outcome(_check_metric, dist, 1e-9) == metric_outcome(oracle_check_metric, dist, 1e-9)
    assert len(ranges) == parts


@pytest.mark.parametrize("n, parts", [(0, 1), (0, 2), (1, 1), (1, 3), (2, 1), (3, 2), (10, 3), (64, 3), (160, 7)])
def test_row_cuts_balance_the_pairs(n, parts):
    cuts = cc.packs._row_cuts(n, parts)
    assert cuts[0] == 0 and cuts[-1] == n and cuts == sorted(cuts) and len(cuts) == parts + 1
    pairs = [sum(n - 1 - i for i in range(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]
    assert max(pairs) - min(pairs) <= max(n - 1, 0)  # one row's worth at most


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_a_failing_part_fails_the_check(failing, monkeypatch):
    monkeypatch.setattr(cc.packs, "_cpu_count", lambda: 3)
    monkeypatch.setattr(cc.packs, "_PART_TRIPLES", 1)
    real = cc.packs._defect_rows

    def flaky(off, off_t, via, buf, lo, hi):
        if (lo == 0) == (failing == "caller"):
            raise RuntimeError(f"part {lo}..{hi} failed")
        real(off, off_t, via, buf, lo, hi)

    monkeypatch.setattr(cc.packs, "_defect_rows", flaky)
    pack = cc.generate_pack("interval_cylinder", n_base=9, n_levels=4)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="failed"):
        cc.validate_pack(pack.n_points, pack.dist, sorted(pack.boundary))
    assert threading.active_count() == before


@pytest.mark.parametrize("error", [RuntimeError, MemoryError])
def test_a_thread_that_cannot_start(error, monkeypatch):
    # the second worker's thread fails to start: a RuntimeError ("can't start new
    # thread") moves its part to the caller; any other error re-raises, and in
    # both cases the thread that did start has joined
    ranges = _recorded_parts(monkeypatch, 3, part_triples=1)
    real_start, starts = threading.Thread.start, []

    def start(self):
        starts.append(self)
        if len(starts) == 2:
            raise error("can't start new thread")
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    dist = metric_matrix(np.random.default_rng(5), 101, "inflated", 1e-9)
    before = threading.active_count()
    if error is RuntimeError:
        assert metric_outcome(_check_metric, dist, 1e-9) == metric_outcome(oracle_check_metric, dist, 1e-9)
        assert sorted(ranges) == list(zip(cc.packs._row_cuts(101, 3), cc.packs._row_cuts(101, 3)[1:]))
    else:
        with pytest.raises(MemoryError):
            _check_metric(dist, 1e-9)
    assert threading.active_count() == before
    assert len(starts) == 2


def test_triangle_violation_below_the_diagonal():
    # d(0,2) = 2.05 is within tol of d(0,1) + d(1,2) = 2; d(2,0) = 2.12 is not
    dist = np.array([[0.0, 1.0, 2.05], [1.0, 0.0, 1.0], [2.12, 1.0, 0.0]])
    expected = metric_outcome(oracle_check_metric, dist, 0.1)
    assert expected[0] is TriangleViolation and expected[1][:3] == (2, 1, 0)
    assert metric_outcome(_check_metric, dist, 0.1) == expected


# -- the metric certificate: a closed form against the scan ---------------------------------------


def recorded_proofs(monkeypatch):
    """Record the verdict of every ``_proved_metric`` call."""
    real, verdicts = cc.packs._proved_metric, []

    def recorded(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    monkeypatch.setattr(cc.packs, "_proved_metric", recorded)
    return verdicts


def load_outcome(text):
    """The loaded pack's distances and boundary, or the error loading raises, with a violation's triple."""
    try:
        pack = pack_from_json(text)
    except TriangleViolation as exc:
        return TriangleViolation, (exc.p, exc.q, exc.r, exc.defect)
    except cc.C0CoverError as exc:
        return type(exc), str(exc)
    return pack.dist.tobytes(), sorted(pack.boundary)


def _generator_text(kind, **params):
    return pack_to_json(cc.generate_pack(kind, **params))


def _dense_text(kind, **params):
    return json.dumps(cc.generate_pack(kind, **params).to_json_dict(), sort_keys=True)


def _induced_text():
    pack = cc.generate_pack("interval_cylinder", n_base=9, n_levels=4)
    return pack_to_json(cylinder_over_boundary(pack, pack.meta["levels"]))  # no generator: the dense form


# every generator at its defaults and at the benchmark's sizes, two dense round trips and an induced
# cylinder; countable_example carries no base_of, and its distances are no planar ones: it is scanned
PROOF_LOADS = {
    "finite-default": (partial(_generator_text, "finite_cylinder"), True),
    "finite-3x10": (partial(_generator_text, "finite_cylinder", n_base=3, n_levels=10), True),
    "interval-default-65x12": (partial(_generator_text, "interval_cylinder"), True),
    "interval-33x10": (partial(_generator_text, "interval_cylinder", n_base=33, n_levels=10), True),
    "circle-default": (partial(_generator_text, "circle_in_disk"), True),
    "circle-32x10": (partial(_generator_text, "circle_in_disk", n_angles=32, n_levels=10), True),
    "cube_face-default-5x8": (partial(_generator_text, "cube_face"), True),
    "countable-default": (partial(_generator_text, "countable_example"), False),
    "interval-33x10-dense": (partial(_dense_text, "interval_cylinder", n_base=33, n_levels=10), True),
    "circle-32x10-dense": (partial(_dense_text, "circle_in_disk", n_angles=32, n_levels=10), True),
    "induced-interval-9x4": (_induced_text, True),
}


@pytest.mark.parametrize("case", sorted(PROOF_LOADS))
def test_a_proved_load_matches_the_scan(case, monkeypatch):
    text_of, proved = PROOF_LOADS[case]
    text = text_of()
    verdicts = recorded_proofs(monkeypatch)
    got = load_outcome(text)
    assert verdicts == [proved]
    assert isinstance(got[0], bytes)  # every one of them loads
    monkeypatch.setattr(cc.packs, "_PROOF_POINTS", sys.maxsize)  # offer no closed form: the scan alone
    assert load_outcome(text) == got
    assert verdicts == [proved]


@st.composite
def formed_files(draw):
    """A dense pack file with the product or planar form that ``_proved_metric``
    reads, plus its distances, and whether it was changed off that form: one
    symmetric pair nudged by about tol or by a few ulps, or (products only) a
    base built to break the triangle inequality by about tol."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    form = draw(st.sampled_from(["product", "planar"]))
    if form == "product":
        nb, n_levels = draw(st.integers(2, 6)), draw(st.integers(1, 5))
        if draw(st.booleans()):
            upper = np.triu(rng.integers(2, 5, (nb, nb)).astype(float), 1)  # ties, and a metric
            base = upper + upper.T
        else:
            xy = rng.uniform(0.0, 1.0, (nb, 2))
            base = np.sqrt(((xy[:, None] - xy[None]) ** 2).sum(axis=2))
            assume((base + np.eye(nb)).min() > 1e-4)
        broken = nb >= 3 and draw(st.booleans())
        if broken:  # base(a, c) = base(a, e) + base(e, c) + about tol
            a, e, c = rng.permutation(nb)[:3]
            base[a, c] = base[c, a] = base[a, e] + base[e, c] + draw(st.sampled_from([0.5, 1.0, 1.5, 3.0])) * 1e-9
        levels = -np.sort(-rng.uniform(0.01, 1.0, n_levels))
        bo = np.tile(np.arange(nb), n_levels + 1)
        lv = np.repeat(np.concatenate(([0.0], levels)), nb)
        order = rng.permutation(len(bo)) if draw(st.booleans()) else np.arange(len(bo))
        bo, lv = bo[order], lv[order]
        dist = base[np.ix_(bo, bo)] + np.abs(lv[:, None] - lv[None, :])
        boundary = np.flatnonzero(lv == 0.0).tolist()
        meta = {"base_of": bo.tolist(), "level_of": lv.tolist()}
    else:
        broken = False
        n = draw(st.integers(3, 30))
        xy = rng.uniform(0.0, 1.0, (n, 2))
        x, y = xy[:, 0], xy[:, 1]
        dist = np.sqrt((x[:, None] - x) ** 2 + (y[:, None] - y) ** 2)
        assume((dist + np.eye(n)).min() > 1e-4)
        boundary = rng.permutation(n)[: draw(st.integers(1, n - 1))].tolist()
        meta = {"coords": xy.tolist()}
    nudge = draw(st.sampled_from(["none", "tol", "ulps"]))
    if nudge != "none":
        i, j = rng.permutation(len(dist))[:2]
        if nudge == "tol":
            value = dist[i, j] + draw(st.sampled_from([-3.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 3.0])) * 1e-9
        else:
            value, toward = dist[i, j], draw(st.sampled_from([-np.inf, np.inf]))
            for _ in range(draw(st.integers(1, 3))):
                value = np.nextafter(value, toward)
        dist[i, j] = dist[j, i] = value
    text = json.dumps({"points": len(dist), "dist": dist.tolist(), "boundary": boundary, "meta": meta})
    return text, dist, broken, nudge != "none"


@settings(max_examples=300, deadline=None)
@given(formed_files())
def test_a_form_off_by_about_tol_falls_back_to_the_scan(drawn):
    text, dist, broken, nudged = drawn
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cc.packs, "_PROOF_POINTS", 1)  # offer every pack's form, small ones too
        verdicts = recorded_proofs(patch)
        got = metric_outcome(lambda d, tol: pack_from_json(text), dist, 1e-9)
    want = metric_outcome(oracle_check_metric, dist, 1e-9)
    assert got == want  # for a failing pack, the full matrix's triple: never the base's
    if nudged or want is not None:
        assert verdicts == [False]
    elif not broken:
        assert verdicts == [True]


def test_a_proved_load_scans_only_its_base(monkeypatch):
    real, shapes = cc.packs._min_plus_defects, []

    def counted(dist, *rest):
        shapes.append(dist.shape)
        return real(dist, *rest)

    monkeypatch.setattr(cc.packs, "_min_plus_defects", counted)
    pack_from_json(_generator_text("interval_cylinder", n_base=65, n_levels=12))
    assert shapes == [(1, 65, 65)]
    shapes.clear()
    xy = np.random.default_rng(3).uniform(0.0, 1.0, (40, 2))
    dist = np.sqrt(((xy[:, None] - xy[None]) ** 2).sum(axis=2))  # no closed form in the file: the full scan
    pack_from_json(json.dumps({"points": 40, "dist": dist.tolist(), "boundary": [0, 1, 2]}))
    assert shapes == [(1, 40, 40)]


def _malformed(obj, field, how):
    """``obj``'s meta with its ``field`` list cut short, or with a bool or a non-finite first entry."""
    value = obj["meta"][field]
    if how == "short":
        value = value[:-1]
    elif field == "coords":
        value = [[True if how == "bool" else math.inf, *value[0][1:]], *value[1:]]
    else:
        value = [True if how == "bool" else math.nan, *value[1:]]
    return {**obj, "meta": {**obj["meta"], field: value}}


META_ERRORS = {
    ("base_of", "short"): "pack meta base_of must be a list of 45 integer base ids",
    ("base_of", "bool"): "pack meta base_of must be a list of 45 integer base ids",
    ("level_of", "short"): "pack meta level_of must be a list of 45 finite levels",
    ("level_of", "bool"): "pack meta level_of must be a list of 45 finite levels",
    ("level_of", "nonfinite"): "pack meta level_of must be a list of 45 finite levels",
    ("coords", "short"): "pack meta coords must be 45 rows of one width >= 1",
    ("coords", "bool"): "pack meta coords must be finite numbers",
    ("coords", "nonfinite"): "pack meta coords must be finite numbers",
}


@pytest.mark.parametrize("violated", [False, True], ids=["metric", "violation"])
@pytest.mark.parametrize("field, how", sorted(META_ERRORS))
def test_a_malformed_form_is_never_read(field, how, violated, monkeypatch):
    # the metric is checked first, by the scan; then _check_meta refuses the list
    obj = _malformed(cc.generate_pack("interval_cylinder", n_base=9, n_levels=4).to_json_dict(), field, how)
    dist = np.array(obj["dist"])
    if violated:
        dist[3, 40] = dist[40, 3] = dist[3, 40] * 1.5
        obj["dist"] = dist.tolist()
    read = []
    monkeypatch.setattr(cc.packs, "_product_form", lambda *a: read.append(a))
    monkeypatch.setattr(cc.packs, "_planar_form", lambda *a: read.append(a))
    got = metric_outcome(lambda d, tol: pack_from_json(json.dumps(obj)), dist, 1e-9)
    assert got == (metric_outcome(oracle_check_metric, dist, 1e-9) if violated else (BadParams, META_ERRORS[field, how]))
    assert got[0] is (TriangleViolation if violated else BadParams)
    assert read == []


def test_a_lone_base_of_is_never_read(monkeypatch):
    # _check_meta reads base_of only beside level_of, so the product form may not read it either
    obj = cc.generate_pack("interval_cylinder", n_base=9, n_levels=4).to_json_dict()
    del obj["meta"]["level_of"]
    obj["meta"]["base_of"] = [True, "x"]
    monkeypatch.setattr(cc.packs, "_product_form", lambda *a: pytest.fail("base_of read"))
    verdicts = recorded_proofs(monkeypatch)
    assert pack_from_json(json.dumps(obj)).n_points == 45
    assert verdicts == [False]  # the coords are (x, level): no planar form either


def test_the_sweeps_offer_no_closed_form(monkeypatch):
    # the sweeps' stacks of 5 to 15 points are scanned as a whole: no pack of them pays for a proof
    verdicts = recorded_proofs(monkeypatch)
    summary = cc.verify.verify_suite(0, {"identities": 40, "ext_random": 10, "transfer": 40, "star": 10, "shrink": 10})
    assert all(r.ok for r in summary.results)
    assert verdicts == []


# -- the cylinder structure: f, the sample levels, the columns ------------------------------------


def column_structure_as_dict(pack):
    """``_column_structure`` with its slot array read back as the oracle's {(z, li): point} dict."""
    bidx, levels, slots = _column_structure(pack)
    assert slots.shape == (len(bidx), len(levels))
    return bidx, levels, {(z, li): int(p) for (z, li), p in np.ndenumerate(slots) if p >= 0}


def assert_f_structure(pack):
    assert pack.boundary_dist.tobytes() == oracle_boundary_dist(pack).tobytes()
    for p in pack.points:
        if p in pack.boundary:
            assert pack.nearest_boundary[p] == p
            with pytest.raises(BoundaryInput):
                cc.f_map(pack, p)
        else:
            assert cc.f_map(pack, p) == oracle_f_map(pack, p)
            assert pack.nearest_boundary[p] == oracle_f_map(pack, p)[0]
    ties = {}
    for p, x in pack.nearest_ties.tolist():
        ties.setdefault(p, []).append(x)
    assert ties == oracle_ties(pack)
    assert pack.nearest_ties.tolist() == sorted(pack.nearest_ties.tolist())
    assert sample_levels(pack).tolist() == oracle_sample_levels(pack)
    assert merged_levels(pack).tolist() == oracle_merged_levels(pack)
    assert column_structure_as_dict(pack) == oracle_column_structure(pack)


@settings(max_examples=150, deadline=None)
@given(st.one_of(packs(), tie_packs()))
def test_f_structure_matches_loops(drawn):
    pack, rng = drawn
    assert_f_structure(pack)
    e = cc.verify.random_relation(rng, pack)
    assert fxf_image(pack, e)[1].pairs == oracle_fxf_pairs(pack, e)
    assert outcome(image_density_gap, pack) == outcome(oracle_image_density_gap, pack)


@pytest.mark.parametrize("kind", sorted(GENERATED))
def test_f_structure_on_default_generators(kind):
    assert_f_structure(cc.generate_pack(kind))


@pytest.mark.parametrize("kind", sorted(GENERATED))
def test_pack_file_round_trip_keeps_the_reduction(kind, monkeypatch):
    pack = cc.generate_pack(kind)
    finished = []
    monkeypatch.setattr(cc.packs, "_finish_pack", lambda *a: finished.append(a) or _finish_pack(*a))
    back = pack_from_json(pack_to_json(pack))
    assert len(finished) == 1  # one boundary reduction per loaded pack
    assert type(back) is type(pack) is cc.DiscretePack
    for name in ("boundary_dist", "nearest_boundary", "nearest_ties"):
        assert getattr(back, name).tobytes() == getattr(pack, name).tobytes()
        assert getattr(back, name).shape == getattr(pack, name).shape
    for name in ("base_of", "level_of"):  # the product generators' lists, kept in meta
        assert back.meta.get(name) == pack.meta.get(name)
    if kind != "circle_in_disk":  # derived from its ring distances, the circle's levels move in the last bits
        assert (back.k_sup, back.delta_res) == (pack.k_sup, pack.delta_res)


def boundary_subsets(data, pack):
    """Random boundary subsets, always with the empty set and the whole boundary."""
    bidx = sorted(pack.boundary)
    drawn = data.draw(st.lists(st.frozensets(st.sampled_from(bidx)), min_size=1, max_size=6))
    return [frozenset(), frozenset(bidx), *drawn]


@settings(max_examples=150, deadline=None)
@given(st.one_of(packs(), tie_packs()), st.data())
def test_ext_matches_reduction(drawn, data):
    pack, _ = drawn
    for u in boundary_subsets(data, pack):
        assert cc.ext(pack, u) == oracle_ext(pack, u)
    outside = sorted(pack.interior)[:1]
    assert outcome(cc.ext, pack, outside) == outcome(oracle_ext, pack, outside)


@pytest.mark.parametrize("kind", sorted(GENERATED))
@settings(max_examples=5, deadline=None)
@given(st.data())
def test_ext_matches_reduction_on_default_generators(kind, data):
    pack = cc.generate_pack(kind)
    for u in boundary_subsets(data, pack):
        assert cc.ext(pack, u) == oracle_ext(pack, u)


def as_rows(pack, members):
    """The members x points bool matrix of a list of point sets."""
    rows = np.zeros((len(members), pack.n_points), dtype=bool)
    for i, m in enumerate(members):
        rows[i, sorted(m)] = True
    return rows


def as_sets(rows):
    return [frozenset(np.flatnonzero(row).tolist()) for row in rows]


@settings(max_examples=150, deadline=None)
@given(st.one_of(packs(), tie_packs(), mirror_packs()), st.data())
def test_ext_family_matches_oracle(drawn, data):
    pack, rng = drawn
    members = boundary_subsets(data, pack)
    in_u = as_rows(pack, members)
    # the interior columns are not read
    noisy = rng.uniform(size=in_u.shape) < 0.5
    noisy[:, sorted(pack.boundary)] = in_u[:, sorted(pack.boundary)]
    for rows in (in_u, noisy):
        assert as_sets(ext_family(pack, rows)) == list(oracle_ext_family(pack, members))


def beta_families(data, pack, length):
    """Ext images of random boundary families, each but at most one covering
    the boundary by singletons of the points it misses (so they split ties);
    family 0 is usually the whole space."""
    bidx = sorted(pack.boundary)
    spoilt = data.draw(st.integers(0, 2 * length))
    fams = []
    for n in range(length):
        members = data.draw(st.lists(st.frozensets(st.sampled_from(bidx), min_size=1), max_size=4))
        if n != spoilt:
            members += [frozenset([x]) for x in sorted(set(bidx).difference(*members))]
        fams.append(ext_family(pack, as_rows(pack, members)))
    if fams and data.draw(st.integers(0, 5)):
        fams[0] = np.ones((1, pack.n_points), dtype=bool)
    return fams


def assert_slice(pack, ladder, betas):
    """``_slice`` against its frozenset oracle; returns the distinct nonempty
    sliced rows in order, or None if both raised the same error."""
    want = outcome(oracle_slice, pack, ladder, [as_sets(fam) for fam in betas])
    got = outcome(_slice, pack, ladder, betas)
    if isinstance(want, tuple):
        assert got == want
        return None
    assert got.dtype == bool
    sets = as_sets(got)
    distinct = [i for i, m in enumerate(sets) if m and m not in sets[:i]]
    assert [sets[i] for i in distinct] == want
    return got[distinct]


@settings(max_examples=150, deadline=None)
@given(st.one_of(packs(), tie_packs(), mirror_packs()), st.data())
def test_slice_and_orphans_match_oracles(drawn, data):
    """The sliced rows, and so the interior points they leave out, match the oracle's."""
    pack, _ = drawn
    ladder = data.draw(ladders(extra=pack.boundary_dist, top=2 * pack.k_sup))
    short = data.draw(st.integers(0, 5)) == 0
    betas = beta_families(data, pack, len(ladder) - 2 - short)
    assert_slice(pack, ladder, betas)


@settings(max_examples=150, deadline=None)
@given(st.one_of(packs(), tie_packs(), mirror_packs()), st.data())
def test_sliced_rows_cover_the_interior(drawn, data):
    """On the recursion's rungs the sliced rows cover the interior, tied
    points included: no point is left to complete (the proof is in
    ``refine_subsequence``).  Singletons decide no rung, so the betas alone
    bound the rungs, the case the proof is about."""
    pack, _ = drawn
    ladder = cc.default_ladder(pack)
    betas = beta_families(data, pack, data.draw(st.integers(2, 30)))
    if data.draw(st.booleans()):  # the Ext image of the boundary singletons misses every tied point
        betas[1:] = [ext_family(pack, as_rows(pack, [{x} for x in pack.boundary]))] * 60
    indices = outcome(subsequence_indices, pack, ladder, betas, cc.singleton_cover(pack))
    if isinstance(indices[0], type):  # the ladder or the betas ran out
        return
    rows = outcome(_slice, pack, cc.ScaleLadder(tuple(ladder[i] for i in indices)), betas)
    if isinstance(rows, tuple):  # betas[0] is not the whole space, or a family misses the boundary
        return
    assert rows[:, sorted(pack.interior)].any(axis=0).all()


def test_slice_completes_tied_orphans():
    # boundary a, b; interior columns L_y and R_y above them, and M_y on the
    # bisector, tied between a and b at depth sqrt(1 + y^2)
    ys = (1.0, 2.0, 4.0)
    xy = np.array([(-1.0, 0.0), (1.0, 0.0)] + [(x, y) for y in ys for x in (-1.0, 1.0, 0.0)])
    pack = cc.validate_pack(len(xy), np.sqrt(((xy[:, None] - xy[None]) ** 2).sum(axis=2)), [0, 1])
    left, right, mid = ({2 + 3 * i + j for i in range(3)} for j in range(3))
    assert {int(p) for p in pack.nearest_ties[:, 0]} == mid
    split = ext_family(pack, as_rows(pack, [{0}, {1}]))  # a and b apart: every M_y is left out
    assert as_sets(split) == [{0} | left, {1} | right]
    betas = [np.ones((1, pack.n_points), dtype=bool), split, split, split]
    # on a hand-picked ladder M_4 lies in annulus 0, but M_2 (annuli 1 and 2)
    # and M_1 (annuli 2 and 3) lie only where split leaves them out
    ladder = cc.ScaleLadder((10.0, 6.0, 3.0, 1.5, 0.7, 0.3))
    l1, r1, m1, l2, r2, m2, l4, r4, m4 = range(2, 11)
    rows = assert_slice(pack, ladder, betas)
    assert as_sets(rows) == [{l4, r4, m4}, {l2, l4}, {r2, r4}, {l1, l2}, {r1, r2}, {l1}, {r1}]
    assert cc.build_alpha(pack, ladder, betas).covers_flag is False
    # the recursion's first rung lies below every point split misses, so the
    # whole-space family's annulus 0 holds every M_y
    ladder = cc.default_ladder(pack)
    indices = subsequence_indices(pack, ladder, betas, cc.singleton_cover(pack))
    assert ladder[indices[1]] < pack.boundary_dist[m1] == min(pack.boundary_dist[p] for p in mid)
    sub = cc.ScaleLadder(tuple(ladder[i] for i in indices))
    assert mid <= as_sets(assert_slice(pack, sub, betas))[0]
    assert cc.build_alpha(pack, sub, betas).covers_flag


def test_shared_slots_keep_the_highest_id():
    # points 2 and 3 both sit at distance 1 from the boundary point 0
    pack = cc.validate_pack(4, [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]], [0])
    assert column_structure_as_dict(pack) == oracle_column_structure(pack) == ([0], [1.0], {(0, 0): 3})


# -- the lower-bound sweep's candidates, against the frozenset generator ---------------------------


def oracle_base_runs(nb, circular, width, rng):
    width = max(2, min(width, nb))
    runs = []
    start = int(rng.integers(0, nb)) if circular else 0
    pos = start
    while True:
        w = max(2, min(width + int(rng.integers(-1, 2)), nb))
        if circular:
            runs.append(sorted({(pos + i) % nb for i in range(w)}))
            pos += w - 1
            if pos >= start + nb:
                break
        else:
            end = min(pos + w - 1, nb - 1)
            runs.append(list(range(pos, end + 1)))
            if end >= nb - 1:
                break
            pos = end
    return runs


def oracle_random_uniform_candidates(pack, rng, count):
    """The generator as it was: one frozenset per member, from the slot dict, through ``Cover.make``."""
    if not pack.cylindrical or pack.known_dim not in (0, 1):
        raise NonCylindricalPack("candidate generator needs a cylindrical pack of dim 0 or 1")
    bidx, levels, by_slot = oracle_column_structure(pack)
    nb, nl = len(bidx), len(levels)
    circular = pack.kind == "circle_in_disk"
    if pack.known_dim == 1:
        positions = boundary_line(pack)
        span = positions[-1] - positions[0] if not circular else 2 * np.pi
        gap = span / max(nb - 1, 1)
        if round(2 * levels[0] / gap) < 2:
            raise NonCylindricalPack("base sample too sparse to witness overlaps at the top scale")
    out = []
    for _ in range(count):
        slabs = []
        a = 0
        while True:
            b = min(nl - 1, a + int(rng.integers(1, 4)))
            slabs.append((a, b))
            if b >= nl - 1:
                break
            overlap = int(rng.integers(1, min(3, b - a + 1) + 1))
            a = max(b - overlap + 1, a + 1)
        members = []
        for a, b in slabs:
            width = 1 if pack.known_dim == 0 else max(1, round(2 * levels[a] / gap))
            runs = [[z] for z in range(nb)] if width == 1 else oracle_base_runs(nb, circular, width, rng)
            for run in runs:
                members.append(frozenset(by_slot[z, l] for z in run for l in range(a, b + 1) if (z, l) in by_slot))
        out.append(cc.Cover.make(pack, members, target="interior", drop_empty=True).require_cover())
    return out


CANDIDATE_PACKS = [
    ("finite_cylinder", dict(n_base=3, n_levels=10)),
    ("finite_cylinder", {}),
    ("interval_cylinder", dict(n_base=33, n_levels=10)),
    ("interval_cylinder", dict(n_base=65, n_levels=12)),
    ("circle_in_disk", dict(n_angles=32, n_levels=10)),
    ("circle_in_disk", dict(n_angles=48, n_levels=12)),
]


def pack_id(kind, params):
    return "_".join([kind, *map(str, params.values())]) if params else f"{kind}_defaults"


@pytest.mark.parametrize("kind, params", CANDIDATE_PACKS, ids=[pack_id(*c) for c in CANDIDATE_PACKS])
def test_candidates_match_frozenset_generator(kind, params):
    pack = cc.generate_pack(kind, **params)
    for seed in range(5):
        for count in (0, 1, 40):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = cc.random_uniform_candidates(pack, rng, count)
            want = oracle_random_uniform_candidates(pack, oracle_rng, count)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            assert len(got) == len(want) == count
            for g, w in zip(got, want):
                assert g._members is None  # no frozenset on the way
                assert np.array_equal(g.ids, w.ids) and np.array_equal(g.offsets, w.offsets)
                assert g.members == w.members and g.target == w.target and g.target_tag == w.target_tag


@pytest.mark.parametrize(
    "kind, params",
    [("countable_example", {}), ("cube_face", {}), ("circle_in_disk", dict(n_angles=8, n_levels=4))],
)
def test_candidates_refuse_like_frozenset_generator(kind, params):
    pack = cc.generate_pack(kind, **params)
    got = outcome(cc.random_uniform_candidates, pack, np.random.default_rng(0), 3)
    assert got == outcome(oracle_random_uniform_candidates, pack, np.random.default_rng(0), 3)
    assert got[0] is NonCylindricalPack


# the experiment-mix packs with 40 candidates, and the default interval experiment's 200
STATS_CASES = [(*c, 40) for c in CANDIDATE_PACKS[::2]] + [("interval_cylinder", dict(n_base=65, n_levels=12), 200)]
STATS_IDS = [pack_id(k, p) + ("" if c == 40 else f"_{c}_candidates") for k, p, c in STATS_CASES]


@pytest.mark.parametrize("kind, params, count", STATS_CASES, ids=STATS_IDS)
def test_candidates_carry_their_stats(kind, params, count, monkeypatch):
    pack = cc.generate_pack(kind, **params)
    paired = []
    pair_diameters = covers._pair_diameters
    monkeypatch.setattr(covers, "_pair_diameters", lambda *a: paired.append(a) or pair_diameters(*a))
    candidates = cc.random_uniform_candidates(pack, np.random.default_rng(3), count)
    assert not paired  # the distinct point sets of all candidates take one block gather
    for cand in candidates:
        want = covers.index_stats(pack, cand.ids, cand.offsets)
        assert all(np.array_equal(a, b) for a, b in zip(cand.stats, want))
        assert not any(a.flags.writeable for a in cand.stats)


def oracle_lower_bound_check(pack, alpha, ladder, unif_tol):
    """``lower_bound_check`` through the curve verdict: the uniformity gate
    reads ``uniformity_verdict(...).accept``."""
    if not alpha.covers_flag:
        raise NotACover("lower bound applies to covers of the interior")
    if not cc.uniformity_verdict(pack, ladder, alpha, unif_tol).accept:
        raise UniformityRejected("cover fails the uniformity verdict")
    bound = pack.known_dim + 2
    mult, witness = covers.mult_witness(alpha)
    members = [sorted(m) for m in alpha.members]
    refutation = None if mult >= bound else {"multiplicity": mult, "bound": bound, "members": members}
    return LowerBoundResult(mult >= bound, mult, bound, witness, mult, refutation)


@pytest.mark.parametrize("kind, params", CANDIDATE_PACKS, ids=[pack_id(*c) for c in CANDIDATE_PACKS])
def test_lower_bound_check_matches_the_curve_path(kind, params):
    pack = cc.generate_pack(kind, **params)
    ladder = cc.default_ladder(pack)
    candidates = cc.random_uniform_candidates(pack, np.random.default_rng(1), 20)
    seen = Counter()
    for unif_tol in (0.01, 0.02, 0.05, 0.1):
        for cand in candidates:
            got = outcome(cc.lower_bound_check, pack, cand, ladder, unif_tol)
            assert got == outcome(oracle_lower_bound_check, pack, cand, ladder, unif_tol)
            seen[got[0] if isinstance(got, tuple) else got.holds] += 1
    assert seen[True]  # some candidates pass the gate at every pack


def test_experiment_measures_its_candidates_in_one_call(monkeypatch):
    measured = []
    index_stats = covers.index_stats
    monkeypatch.setattr(
        covers, "index_stats", lambda pack, ids, offsets: measured.append(len(offsets) - 1) or index_stats(pack, ids, offsets)
    )
    config = {"kind": "interval_cylinder", "params": {"n_base": 33, "n_levels": 10}}
    calls = []
    for candidates in (0, 40):
        measured.clear()
        run_experiment(ExperimentConfig(**config, candidates=candidates))
        calls.append(list(measured))
    # one more call, and it measures each distinct point set of the 40 candidates once
    assert len(calls[1]) == len(calls[0]) + 1
    pack = cc.generate_pack(config["kind"], **config["params"])
    candidates = cc.random_uniform_candidates(pack, np.random.default_rng(0), 40)
    distinct = len({m for cand in candidates for m in cand.members})
    assert distinct < sum(map(len, candidates))
    assert distinct in calls[1] and distinct not in calls[0]


def test_shared_cover_builder_keeps_the_ball_cover_errors():
    pack = cc.generate_pack("interval_cylinder", n_base=3, n_levels=2)  # boundary 0..2, interior 3..8
    mask = np.eye(9, dtype=bool)
    mask[0, 4] = mask[1, 4] = True
    with pytest.raises(MemberOutsideTarget, match=re.escape("member [0, 1, 4]... leaves the target")):
        cc.ball_cover(cc.Relation.from_mask(pack, mask))
    mask = np.eye(9, dtype=bool)
    mask[5, 5] = False
    with pytest.raises(NotCovering, match="^point 5 has an empty ball$"):
        cc.ball_cover(cc.Relation.from_mask(pack, mask))
    mask[4, 5] = True  # the ball of 5 is {4}: no ball holds 5
    with pytest.raises(NotCovering, match="^balls do not cover the interior$"):
        cc.ball_cover(cc.Relation.from_mask(pack, mask))
    # duplicates after their first occurrence and the ids in ascending order, from the bool rows
    mask = np.eye(9, dtype=bool)
    mask[3:5, 3:5] = True
    got = cc.ball_cover(cc.Relation.from_mask(pack, mask))
    assert got.ids.tolist() == [3, 4, 5, 6, 7, 8] and got.offsets.tolist() == [0, 2, 3, 4, 5, 6]


# -- whole reports, pinned on the loop implementation -------------------------------------------

# Each config carries two pins: the schema 1 report, which wrote every curve at
# every ladder rung beside a ``monotone`` flag, and the schema 2 report, which
# writes each curve as its breakpoints.  Expanding the curves of the schema 2
# report onto the ladder must give back the schema 1 bytes.
PINNED_REPORTS = [
    (
        {"kind": "finite_cylinder", "params": {"n_base": 2, "n_levels": 12}, "candidates": 10},
        "b6465b66dcf80a22db1f013615b080c9b3a7dba5eb327981c83f514a43a1ee2b",
        "bec45566c8908185d1632b9f566a36621a42da775b946d086b0bae7553f00b9c",
    ),
    (
        {"kind": "interval_cylinder", "params": {"n_base": 33, "n_levels": 10}, "candidates": 10},
        "b8e13fe58bed721580ee283764c6d8fe3a0be0c56642f6aabe5d845ef0704171",
        "b6b5da8dd78dd3a347c45a6758cb297799c3ae978b33230b15e6086e25f6a3e8",
    ),
]


def expand_curves(node, radii, curves):
    """The report with every curve read at every rung, beside ``monotone: true``;
    each curve as written is appended to ``curves``."""
    if isinstance(node, dict):
        out = {k: expand_curves(v, radii, curves) for k, v in node.items()}
        if "curve" in node:
            curves.append(node["curve"])
            curve = cc.ModulusCurve(node["curve"])
            out["curve"] = [[r, curve.value_at(r)] for r in radii]
            out["monotone"] = True
        return out
    if isinstance(node, list):
        return [expand_curves(v, radii, curves) for v in node]
    return node


def sha256_of(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("config, v1_sha256, sha256", PINNED_REPORTS, ids=["small_finite", "interval_33x10"])
def test_report_bytes_pinned(config, v1_sha256, sha256):
    report, _ = run_experiment(ExperimentConfig(**config))
    assert sha256_of(report_to_json(report)) == sha256
    radii = cc.default_ladder(cc.generate_pack(config["kind"], **config["params"])).radii
    curves = []
    v1 = dict(expand_curves(report, radii, curves), schema_version=1)
    assert sha256_of(report_to_json(v1)) == v1_sha256
    assert curves
    for curve in curves:  # breakpoints: from the top rung down, t and value both strictly falling
        ts, vs = zip(*curve)
        assert ts[0] == radii[0]
        assert all(a > b for a, b in zip(ts, ts[1:])) and all(a > b for a, b in zip(vs, vs[1:]))
