"""Product-space constructions: the coarse equivalence between a pack's
interior and the cylinder over its boundary, cover pullbacks along
embeddings, the multiplicity lower bound on cylindrical packs, and the
randomized uniform candidates it is swept over."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .covers import _GATHER_LIMIT, Cover, _bit_rows, _distinct_rows, _interior_cover, _uniform_at_floor, mult_witness
from .errors import (
    BadParams,
    BoundaryInput,
    EmptyOuterSet,
    NonCylindricalPack,
    NotACover,
    PackMismatch,
    UniformityRejected,
)
from .packs import (
    DiscretePack,
    ScaleLadder,
    boundary_line,
    default_ladder,
    h_profile,
    merged_levels,
    sample_levels,
    _derived_packs,
    _point_ids,
    _product_pack,
)
from .relations import DEFAULT_LIMIT_TOL, CurveVerdict, Relation, c0_modulus


# -- the maps f and g ------------------------------------------------------------


def f_map(pack: DiscretePack, p: int) -> tuple[int, float]:
    """(nearest boundary point, boundary distance); lowest id breaks ties."""
    [p] = _point_ids([p], pack.n_points).tolist()
    if p in pack.boundary:
        raise BoundaryInput(f"{p} lies on the boundary")
    return int(pack.nearest_boundary[p]), float(pack.boundary_dist[p])


def g_map(pack: DiscretePack, z: int, t: float) -> int:
    """Point of {d(., X) >= t} nearest to the boundary point z; lowest id ties."""
    [z] = _point_ids([z], pack.n_points).tolist()
    if z not in pack.boundary:
        raise BadParams(f"{z} is not a boundary point")
    if t <= 0:
        raise BadParams("level must be positive")
    outer = np.flatnonzero(pack.boundary_dist >= t)
    if outer.size == 0:
        raise EmptyOuterSet(f"no point at boundary distance >= {t}")
    d = pack.dist[outer, z]
    return int(outer[int(np.argmin(d))])


def fg_displacement(pack: DiscretePack, z: int, t: float) -> float:
    """Cylinder distance between (z, t) and f(g(z, t))."""
    y = g_map(pack, z, t)
    z2, t2 = f_map(pack, y)
    return float(pack.dist[z, z2] + abs(t - t2))  # g_map has read z


def cylinder_over_boundary(pack: DiscretePack, levels: Sequence[float]) -> DiscretePack:
    """The exact sum-metric cylinder over the pack's boundary at the given levels."""
    levels = sorted({float(t) for t in levels if t > 0}, reverse=True)
    if not levels:
        raise BadParams("need at least one positive level")
    bidx = sorted(pack.boundary)
    meta = {"kind": "induced_cylinder", "source_boundary": bidx, "known_dim": pack.known_dim, "cylindrical": True}
    return _product_pack(None, pack.dist[np.ix_(bidx, bidx)], levels, meta)


def _base_index(pack: DiscretePack) -> np.ndarray:
    """For every point, the position of its nearest boundary point among the sorted boundary ids."""
    return np.searchsorted(np.array(sorted(pack.boundary)), pack.nearest_boundary)


def _f_image(pack: DiscretePack) -> tuple[DiscretePack, np.ndarray]:
    """The cylinder over the boundary at the sample levels, and f as a point
    map into it: entry p is the cylinder point f(p), or -1 on the boundary."""
    levels = sample_levels(pack)
    cyl = cylinder_over_boundary(pack, levels)
    bd = pack.boundary_dist
    # row 0 of the cylinder is level 0, then one row per level, descending
    row = np.where(bd > 0, len(levels) - np.searchsorted(levels, bd), 0)
    point = len(pack.boundary) * row + _base_index(pack)
    point[sorted(pack.boundary)] = -1
    return cyl, point


def fxf_image(pack: DiscretePack, e: Relation) -> tuple[DiscretePack, Relation]:
    """Transport a relation through f into the cylinder over the boundary.

    Returns the induced cylinder (levels are the attained boundary distances)
    and the relation {(f(p), f(q))}.
    """
    if e.pack is not pack:
        raise PackMismatch("relation belongs to a different pack")
    cyl, point_of = _f_image(pack)
    fp, fq = (point_of[i] for i in np.nonzero(e.mask))
    keep = (fp >= 0) & (fq >= 0)
    mask = np.zeros((cyl.n_points, cyl.n_points), dtype=bool)
    mask[fp[keep], fq[keep]] = True
    return cyl, Relation.from_mask(cyl, mask)


def fxf_modulus(pack: DiscretePack, e: Relation) -> CurveVerdict:
    """c0 verdict of the f x f image on the induced cylinder."""
    cyl, fe = fxf_image(pack, e)
    return c0_modulus(cyl, default_ladder(cyl), fe)


def image_density_gap(pack: DiscretePack) -> float:
    """Worst ratio of (distance from a cylinder slot to the f-image) to 3 h(level).

    Coarse density surrogate: at most 1 when every slot (z, t) of the induced
    cylinder lies within 3 h(t) of some f(p).
    """
    cyl, point_of = _f_image(pack)
    h = h_profile(pack, default_ladder(pack))
    img = np.unique(point_of[point_of >= 0])
    level = cyl.boundary_dist  # a cylinder point's level, exactly
    slots = np.flatnonzero(level != 0.0)
    gap = cyl.dist[np.ix_(slots, img)].min(axis=1)
    bound = 3.0 * h.value_at(level[slots])
    ratio = np.divide(gap, bound, out=np.full(len(slots), math.inf), where=bound > 0)
    return float(ratio.max(initial=0.0))


# -- embeddings and pullbacks -------------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    """Injective point map of a cylinder pack into a host pack, base fixed."""

    source: DiscretePack
    host: DiscretePack
    mapping: tuple[int, ...]

    def __post_init__(self):
        mp = _point_ids(self.mapping, self.host.n_points)
        if len(mp) != self.source.n_points:
            raise BadParams("mapping must cover every source point")
        if len(np.unique(mp)) != len(mp):
            raise BadParams("embedding must be injective")
        if not frozenset(mp[sorted(self.source.boundary)].tolist()) <= self.host.boundary:
            raise BadParams("boundary must land on the host boundary")

    @property
    def distortion(self) -> float:
        mp = np.array(self.mapping)
        return float(np.abs(self.source.dist - self.host.dist[np.ix_(mp, mp)]).max())

    def preimage(self, pts: Iterable[int]) -> frozenset[int]:
        s = frozenset(pts)
        return frozenset(a for a, b in enumerate(self.mapping) if b in s)


def identity_embedding(pack: DiscretePack) -> Embedding:
    return Embedding(pack, pack, tuple(pack.points))


def collar_embedding(host: DiscretePack) -> Embedding:
    """Exact cylinder over the host boundary embedded onto the host's collar rings.

    Works for ring-structured hosts (circle_in_disk): host point order is
    boundary first, then one ring per level.
    """
    levels = host.meta.get("levels")
    if not levels:
        raise NonCylindricalPack("host carries no collar rings")
    source = cylinder_over_boundary(host, levels)
    if source.n_points != host.n_points:
        raise NonCylindricalPack("host is not a full ring family")
    return Embedding(source, host, tuple(range(host.n_points)))


def induced_pack(embedding: Embedding) -> DiscretePack:
    """Source points with the host metric pulled back through the embedding."""
    mp = np.array(embedding.mapping)
    src = embedding.source
    meta = {"kind": "induced", "cylindrical": src.cylindrical, "known_dim": src.known_dim}
    return _derived_packs(embedding.host.dist[np.ix_(mp, mp)][None], [src.boundary], [meta])[0]


def pullback_cover(embedding: Embedding, alpha: Cover) -> Cover:
    """{j^{-1}(U)} with empties dropped; never increases multiplicity."""
    if alpha.pack is not embedding.host:
        raise PackMismatch("cover lives on a different host")
    members = [embedding.preimage(u) for u in alpha.members]
    return Cover.make(embedding.source, members, target="interior", drop_empty=True)


# -- multiplicity lower bound ---------------------------------------------------------


@dataclass(frozen=True)
class LowerBoundResult:
    holds: bool
    mult: int
    bound: int
    witness_point: int | None
    mult_at_witness: int
    refutation: dict | None

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def lower_bound_check(
    pack: DiscretePack,
    alpha: Cover,
    ladder: ScaleLadder | None = None,
    unif_tol: float = DEFAULT_LIMIT_TOL,
) -> LowerBoundResult:
    """Assert multiplicity >= known_dim + 2 on a cylindrical pack.

    Refuses non-cylindrical packs, covers over another pack (PackMismatch)
    and covers whose uniformity floor value (one masked max over their
    stats, no curve) exceeds the threshold (UniformityRejected).  A
    refutation object signals a violation; the tests fail on one for the
    random candidates and the constructed covers of finite_cylinder,
    interval_cylinder 65x12 and circle_in_disk 256x12 at unif_tol 0.1
    (multiplicity 3).  Yet the accepted constructed alpha of the coarser
    circles (48x12, the default, up to 160x12, and 256x12 at 0.05) and of
    interval_cylinder 17x12 at 0.05 has multiplicity 2 < 3: the base sample
    misses deep witnesses.  The experiment leaves the default circle's alpha
    out of its sweep.
    """
    if not pack.cylindrical or pack.known_dim is None:
        raise NonCylindricalPack(f"pack kind {pack.kind!r} carries no cylinder structure")
    if alpha.pack is not pack:
        raise PackMismatch("cover belongs to a different pack")
    if not alpha.covers_flag:
        raise NotACover("lower bound applies to covers of the interior")
    ladder = ladder or default_ladder(pack)
    if not _uniform_at_floor(pack, ladder, alpha, unif_tol):
        raise UniformityRejected("cover fails the uniformity verdict")
    bound = pack.known_dim + 2
    mult, witness = mult_witness(alpha)
    if mult >= bound:
        return LowerBoundResult(True, mult, bound, witness, mult, None)
    refutation = {
        "multiplicity": mult,
        "bound": bound,
        "members": [sorted(m) for m in alpha.members],
    }
    return LowerBoundResult(False, mult, bound, witness, mult, refutation)


# -- randomized uniform candidates -------------------------------------------------------


def _column_structure(pack: DiscretePack):
    """Assign every interior point a (base position index, level index).

    Returns the sorted boundary ids, the merged sample levels (descending)
    and the (n_base x n_levels) slot array: the point in each slot, or -1 for
    an empty slot.  A point's level is the merged level whose run holds its
    depth, so float copies of one ring depth share a column.  Of the points
    sharing a slot, the highest id wins.
    """
    bidx = sorted(pack.boundary)
    levels = merged_levels(pack)
    interior = np.array(sorted(pack.interior), dtype=np.intp)
    # a run starts at its merged level, so the last level <= depth holds it; counted from the top
    li = len(levels) - np.searchsorted(levels, pack.boundary_dist[interior], side="right")
    z = _base_index(pack)[interior]
    slots = np.full((len(bidx), len(levels)), -1, dtype=np.intp)
    np.maximum.at(slots, (z, li), interior)
    return bidx, levels[::-1].tolist(), slots


def random_uniform_candidates(
    pack: DiscretePack,
    rng: np.random.Generator,
    count: int,
) -> list[Cover]:
    """Random covers discretizing open uniform covers of the cylinder.

    Overlapping level slabs (at least one shared level) carry overlapping
    base runs (at least one shared sample) wherever the run width allows,
    with sizes proportional to the slab's top level, so every candidate
    witnesses its overlaps on sample points.  Deep slabs fall back to single
    columns (their base runs would be fatter than the verdict allows); the
    multiplicity witness lives in the shallow slabs.  Block partitions,
    which accept the verdict but discretize no open cover, are deliberately
    not produced.

    A candidate passes the uniformity verdict only when its members through
    the deepest level, two to four levels tall, are within unif_tol * k_sup:
    at seed 0 and unif_tol 0.05 none of 10 does on interval_cylinder 9x4,
    17x4 or 33x6, and all 10 do on 9x8, 33x10 and 65x12.

    A slab's base runs are about round(2 * level / gap) samples wide, its
    top level's.  The gap is span / (nb - 1), with span 2 pi on the circle,
    so there it is 2 pi / (nb - 1), though circle_in_disk's nb angles lie
    2 pi / nb apart (the metric's gap is the chord 2 sin(pi / nb)).  The rule
    stays because the candidate pins, and the reports that draw candidates,
    hold its draws: with the chord some slab's width changes at 740 of the
    2,985 circle sizes with 3-599 angles and 6-14 (even) levels, 48x12
    among them (the top slab's, 8 against 7), so changing it changes outputs.

    Each member is the block of the slot array of ``_column_structure`` under
    one base run and one slab; all candidates are drawn first, then built in
    one batch that gathers and measures each distinct member once.
    """
    if not pack.cylindrical or pack.known_dim not in (0, 1):
        raise NonCylindricalPack("candidate generator needs a cylindrical pack of dim 0 or 1")
    _, levels, slots = _column_structure(pack)
    nb, nl = slots.shape
    circular = pack.kind == "circle_in_disk"
    if pack.known_dim == 1:
        positions = boundary_line(pack)
        span = positions[-1] - positions[0] if not circular else 2 * math.pi
        gap = span / max(nb - 1, 1)
        if round(2 * levels[0] / gap) < 2:
            raise NonCylindricalPack("base sample too sparse to witness overlaps at the top scale")
    if not count:
        return []
    columns = np.arange(nb) * (nb + 1) + 1  # one run of width 1 per base index, keyed
    runs, slabs, per_cover = [], [], []  # every candidate's run and slab keys, one after another
    for _ in range(count):
        first = len(slabs)
        a = 0
        while True:
            b = min(nl - 1, a + int(rng.integers(1, 4)))
            slabs.append(a * (nl + 1) + b - a + 1)
            if b >= nl - 1:
                break
            overlap = int(rng.integers(1, min(3, b - a + 1) + 1))
            a = max(b - overlap + 1, a + 1)  # shares >= 1 level with the previous slab
        for slab in slabs[first:]:
            width = 1 if pack.known_dim == 0 else max(1, round(2 * levels[slab // (nl + 1)] / gap))
            # dimension 0, or too deep for overlapping runs: single columns
            runs.append(columns if width == 1 else np.array(_base_runs(nb, circular, width, rng)) @ (nb + 1, 1))
        per_cover.append(sum(map(len, runs[first:])))
    return _slot_block_covers(pack, slots, runs, slabs, per_cover)


def _slot_block_covers(pack: DiscretePack, slots: np.ndarray, runs: list, slabs: list, per_cover: list) -> list[Cover]:
    """The covers of the interior, ``per_cover[c]`` drawn members for cover c,
    built in one batch.  Slab (a, b), keyed a (nl + 1) + b - a + 1, carries
    run keys start (nb + 1) + width; a member holds the filled slots of base
    indices start.. (modulo nb) at levels a..b.  Each distinct member key is
    gathered once, in bounded blocks, and each distinct point set measured
    once; a cover keeps its nonempty members in first-occurrence order."""
    nb, nl = slots.shape
    key = np.concatenate(runs) * (nl * (nl + 1))  # ravel_multi_index((start, width, a, b - a + 1))
    key += np.repeat(slabs, list(map(len, runs)))
    keys = np.unique(key)
    start, width, top, height = np.unravel_index(keys, (nb, nb + 1, nl, nl + 1))
    size = width * height
    packed = np.empty((len(keys), -(-pack.n_points // 64)), dtype=np.uint64)
    step = max(1, _GATHER_LIMIT // (pack.n_points + 32 * int(size.max())))  # bool rows, and the slot indices
    for lo in range(0, len(keys), step):
        sz = size[lo : lo + step]
        member = np.repeat(np.arange(len(sz)), sz)
        k = np.arange(len(member)) - np.repeat(np.cumsum(sz) - sz, sz)  # the slot's place in its block
        m, h = member + lo, height[lo + member]
        pts = slots[(start[m] + k // h) % nb, top[m] + k % h]
        packed[lo : lo + step] = _bit_rows(member[pts >= 0], pts[pts >= 0], len(sz), pack.n_points)
    first, set_of = _distinct_rows(packed)
    rep = np.unpackbits(packed[first].view(np.uint8), axis=1, count=pack.n_points, bitorder="little").view(bool)
    sets = _interior_cover(pack, rep)  # the distinct sets, the empty one (all slots empty) dropped
    held = rep.any(axis=1)
    # each drawn member's set, tagged by its cover; the empty ones dropped, then the repeats in a cover
    sid = np.where(held, np.cumsum(held) - 1, -1)[set_of][np.searchsorted(keys, key)]
    del key  # one member-sized array at a time beside sid
    tagged = np.repeat(np.arange(len(per_cover)) * len(sets), per_cover)[sid >= 0] + sid[sid >= 0]
    del sid
    cover, sid = np.divmod(tagged[np.sort(np.unique(tagged, return_index=True)[1])], len(sets))
    sizes = np.diff(sets.offsets)[sid]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    ids = sets.ids[np.repeat(sets.offsets[sid] - offsets[:-1], sizes) + np.arange(offsets[-1])]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(cover, minlength=len(per_cover))))).tolist()
    return [  # every cover shares the one target of the sets, and reads its stats by a gather
        Cover(
            pack, ids[offsets[lo] : offsets[hi]], offsets[lo : hi + 1] - offsets[lo], sets.target, "interior",
            stats=tuple(a[sid[lo:hi]] for a in sets.stats),
        ).require_cover()
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _base_runs(nb: int, circular: bool, width: int, rng) -> list[tuple[int, int]]:
    """Overlapping index runs covering 0..nb-1, as (start, width); consecutive
    runs share >= 1 index.

    Circular mode wraps modulo nb and makes the final run overlap the first.
    """
    width = max(2, min(width, nb))
    runs = []
    start = int(rng.integers(0, nb)) if circular else 0
    pos = start
    while True:
        w = max(2, min(width + int(rng.integers(-1, 2)), nb))
        if circular:
            runs.append((pos % nb, w))
            pos += w - 1  # share exactly one index with the next run
            if pos >= start + nb:  # wrapped past the first run: overlap closed
                break
        else:
            end = min(pos + w - 1, nb - 1)
            runs.append((pos, end - pos + 1))
            if end >= nb - 1:
                break
            pos = end  # the shared index
    return runs
