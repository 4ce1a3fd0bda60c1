"""Randomized and exhaustive property sweeps.

Every sweep computes both sides of its identity or inequality by brute
force from the definitions, so the checks are independent of the library
paths they exercise.  The CLI ``verify`` subcommand and the test suite both
drive these functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .canonical import ext
from .covers import (
    _members_of,
    image_family,
    mult_along,
    multiplicity,
    preimage_family,
    star,
)
from .packs import _BLOCK, DiscretePack, _validated_stack, generate_pack, validate_pack
from .relations import Relation, compose, map_relation


@dataclass(frozen=True)
class CheckResult:
    name: str
    runs: int
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class SuiteSummary:
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            state = "pass" if r.ok else "FAIL"
            out.append(f"{state}  {r.name}: {r.runs} runs, {r.failures} failures")
        return out


# -- random instances ----------------------------------------------------------------


class _Draw(NamedTuple):
    """One random planar pack as drawn, before it is validated: its points in
    the plane and its boundary ids.  The family, relation, subset and map
    draws of an instance read only its size and its boundary, so a sweep
    draws a batch of instances first and then validates their packs
    together (``_Batch``)."""

    coords: np.ndarray
    boundary: frozenset[int]

    @property
    def n_points(self) -> int:
        return len(self.coords)

    @property
    def points(self) -> range:
        return range(len(self.coords))

    @property
    def interior(self) -> frozenset[int]:
        return frozenset(self.points) - self.boundary


def _planar_dist(pts: np.ndarray) -> np.ndarray:
    """Euclidean distances of points (..., n, 2), for one pack or a stack of them."""
    return np.sqrt(((pts[..., :, None, :] - pts[..., None, :, :]) ** 2).sum(axis=-1))


def _draw_pack(rng: np.random.Generator, n_points: int, n_boundary: int) -> _Draw:
    """The draws of one random planar pack; generic positions keep the metric nondegenerate."""
    while True:
        pts = rng.uniform(0.0, 1.0, (n_points, 2))
        if (_planar_dist(pts) + np.eye(n_points)).min() > 1e-4:
            break
    return _Draw(pts, frozenset(rng.permutation(n_points)[:n_boundary].tolist()))


def _random_packs(draws: list[_Draw]) -> list[DiscretePack]:
    """The validated packs of ``draws``, in draw order: one stack per size.
    Each pack holds its points as ``meta["coords"]``, a list of rows."""
    by_size: dict[int, list[int]] = {}
    for i, draw in enumerate(draws):
        by_size.setdefault(draw.n_points, []).append(i)
    packs = [None] * len(draws)
    for idx in by_size.values():
        stack = _validated_stack(
            _planar_dist(np.stack([draws[i].coords for i in idx])),
            [draws[i].boundary for i in idx],
            [{"coords": draws[i].coords.tolist()} for i in idx],
        )
        for i, pack in zip(idx, stack):
            packs[i] = pack
    return packs


class _Batch:
    """A sweep's instances drawn but not yet checked: (draws, data) pairs in
    draw order, with a tuple of ``_Draw`` per instance.

    ``add`` returns nothing while the batch fills.  Once its packs hold
    ``_BLOCK`` triples (i, k, j), or at the sweep's last instance, it
    validates the batch's packs in one stack per size, returns each instance
    as (packs, data) and empties the batch.  The cap bounds memory only: a
    batch's stacked checks hold a few n x n floats per pack, and a sweep
    checks those instances before it draws the next, which reads no draw, so
    the draws keep their order and memory stays flat however many instances
    the sweep has.
    """

    def __init__(self):
        self.items, self.triples = [], 0

    def add(self, draws: tuple[_Draw, ...], data, last: bool) -> list:
        self.items.append((draws, data))
        self.triples += sum(d.n_points**3 for d in draws)
        if self.triples < _BLOCK and not last:
            return []
        packs = iter(_random_packs([d for draws, _ in self.items for d in draws]))
        out = [(tuple(next(packs) for _ in draws), data) for draws, data in self.items]
        self.items, self.triples = [], 0
        return out


def random_pack(rng: np.random.Generator, n_points: int, n_boundary: int) -> DiscretePack:
    """Random planar pack: one draw, validated as a stack of one."""
    return _random_packs([_draw_pack(rng, n_points, n_boundary)])[0]


def _relation_mask(rng, n: int, density: float = 0.25) -> np.ndarray:
    """The draw of ``random_relation``: an n x n bool mask of about ``density`` pairs."""
    return rng.uniform(size=(n, n)) < density


def random_relation(rng, pack: DiscretePack, density: float = 0.25) -> Relation:
    return Relation.from_mask(pack, _relation_mask(rng, pack.n_points, density))


def random_family(rng, pack: DiscretePack, n_members: int, pts=None) -> list[frozenset]:
    universe = sorted(pack.points if pts is None else pts)
    fam = []
    for _ in range(n_members):
        take = rng.uniform(size=len(universe)) < rng.uniform(0.2, 0.7)
        m = frozenset(p for p, t in zip(universe, take) if t)
        if m:
            fam.append(m)
    return fam or [frozenset([universe[0]])]


def random_subset(rng, pts) -> frozenset:
    pts = sorted(pts)
    take = rng.uniform(size=len(pts)) < 0.4
    return frozenset(p for p, t in zip(pts, take) if t)


# -- the six identities ----------------------------------------------------------------


def check_identities(seed: int, n_random: int) -> list[CheckResult]:
    """Identities of the relation algebra, brute-forced from the definitions.

    Pointwise identities run on a fixed 8-point frame; the two identities
    quantifying over subsets run exhaustively over all A, B on a 5-point
    frame and on random subsets of the 8-point frame.
    """
    rng = np.random.default_rng(seed)
    frame8 = random_pack(rng, 8, 3)
    frame5 = random_pack(rng, 5, 2)
    frame8b = random_pack(rng, 8, 3)
    names = [
        "identity-1 diagonal-star",
        "identity-2 compose-ball",
        "identity-3 image-meet",
        "identity-4 image-containment",
        "identity-5 pushforward-ball",
        "identity-6 image-union",
    ]
    fails = [0] * 6
    runs = [0] * 6
    all5 = [frozenset(np.flatnonzero([(m >> i) & 1 for i in range(5)]).tolist()) for m in range(32)]
    for it in range(n_random):
        e = random_relation(rng, frame8)
        f = random_relation(rng, frame8)
        alpha = random_family(rng, frame8, int(rng.integers(1, 5)))
        a_set = random_subset(rng, frame8.points)
        b_set = random_subset(rng, frame8.points)

        # (1) Delta(alpha)(A) = alpha(A)
        runs[0] += 1
        lhs = Relation(frame8, {(p, q) for m in alpha for p in m for q in m}).image(a_set)
        if lhs != star(alpha, a_set):
            fails[0] += 1
        # (2) (E o F)_x = E(F_x) for every x
        runs[1] += 1
        ef = compose(e, f)
        if any(ef.ball(x) != e.image(f.ball(x)) for x in frame8.points):
            fails[1] += 1
        # (3) E(A) meets B iff A meets E^{-1}(B)  [random subsets]
        runs[2] += 1
        if bool(e.image(a_set) & b_set) != bool(a_set & e.inverse().image(b_set)):
            fails[2] += 1
        # (4) E(B) inside A iff E avoids (Z \ A) x B  [random subsets]
        runs[3] += 1
        z_minus_a = frozenset(frame8.points) - a_set
        avoided = not any((p in z_minus_a and q in b_set) for p, q in e.pairs)
        if (e.image(b_set) <= a_set) != avoided:
            fails[3] += 1
        # (5) (f x f (E))_{x'} = f(E(f^{-1}(x')))
        runs[4] += 1
        fmap = [int(v) for v in rng.integers(0, frame8b.n_points, frame8.n_points)]
        fe = map_relation(e, fmap, frame8b)
        bad = False
        for xp in frame8b.points:
            pre = [p for p in frame8.points if fmap[p] == xp]
            if fe.ball(xp) != frozenset(fmap[y] for y in e.image(pre)):
                bad = True
                break
        fails[4] += bad
        # (6) E(A) = union of balls over A
        runs[5] += 1
        union = frozenset().union(*(e.ball(a) for a in a_set)) if a_set else frozenset()
        if e.image(a_set) != union:
            fails[5] += 1

    # exhaustive subset checks for (3) and (4) on the 5-point frame
    for rep in range(20):
        e = random_relation(rng, frame5, 0.3)
        pairs = e.pairs
        inv_img = e.inverse()
        for a_set in all5:
            za = frozenset(frame5.points) - a_set
            for b_set in all5:
                runs[2] += 1
                if bool(e.image(a_set) & b_set) != bool(a_set & inv_img.image(b_set)):
                    fails[2] += 1
                runs[3] += 1
                avoided = not any((p in za and q in b_set) for p, q in pairs)
                if (e.image(b_set) <= a_set) != avoided:
                    fails[3] += 1
    return [CheckResult(n, r, f) for n, r, f in zip(names, runs, fails)]


# -- Ext properties -----------------------------------------------------------------------


def _ext_masks(pack: DiscretePack) -> tuple[list[int], int]:
    """v(U) for every boundary subset, encoded as bitmasks over the points."""
    bidx = sorted(pack.boundary)
    nb = len(bidx)
    out = []
    for m in range(1 << nb):
        u = frozenset(bidx[i] for i in range(nb) if (m >> i) & 1)
        v = ext(pack, u)
        out.append(sum(1 << p for p in v))
    return out, nb


def check_ext_properties(packs, seed: int, n_random: int) -> list[CheckResult]:
    """Exhaustive a)-f) on small packs plus random larger pairs."""
    rng = np.random.default_rng(seed)
    names = [
        "ext-a boundary-trace",
        "ext-b full-and-empty",
        "ext-c monotone-iff",
        "ext-d meet-equivalence",
        "ext-e empty-iff",
        "ext-f intersection-exact",
    ]
    runs = [0] * 6
    fails = [0] * 6
    for pack in packs:
        vv_list, nb = _ext_masks(pack)
        bidx = sorted(pack.boundary)
        all_mask = (1 << pack.n_points) - 1
        n_sub = 1 << nb

        runs[1] += 1
        if vv_list[n_sub - 1] != all_mask or vv_list[0] != 0:
            fails[1] += 1

        vv = np.array(vv_list, dtype=np.int64)  # point masks fit: packs stay small
        masks = np.arange(n_sub, dtype=np.int64)
        for m1 in range(n_sub):
            v1 = int(vv[m1])
            runs[0] += 1
            trace = 0
            for i, b in enumerate(bidx):
                if (v1 >> b) & 1:
                    trace |= 1 << i
            if trace != m1:
                fails[0] += 1
            runs[4] += 1
            if (m1 == 0) != (v1 == 0):
                fails[4] += 1
            inter_mask = masks & m1
            inter_v = vv & v1
            runs[2] += n_sub
            fails[2] += int(np.count_nonzero((inter_mask == m1) != (inter_v == v1)))
            runs[3] += n_sub
            fails[3] += int(np.count_nonzero((inter_mask != 0) != (inter_v != 0)))
            runs[5] += n_sub
            fails[5] += int(np.count_nonzero(vv[inter_mask] != inter_v))
        # d) on random triples
        for _ in range(200):
            ms = [int(rng.integers(0, n_sub)) for _ in range(3)]
            runs[3] += 1
            inter_u = ms[0] & ms[1] & ms[2]
            iv = vv_list[ms[0]] & vv_list[ms[1]] & vv_list[ms[2]]
            if (inter_u != 0) != (iv != 0):
                fails[3] += 1
    # random larger instances: property f on random pairs
    batch = _Batch()
    for i in range(n_random):
        draw = _draw_pack(rng, int(rng.integers(10, 16)), int(rng.integers(3, 6)))
        pair = random_subset(rng, draw.boundary), random_subset(rng, draw.boundary)
        for (pack,), (u1, u2) in batch.add((draw,), pair, i == n_random - 1):
            runs[5] += 1
            if ext(pack, u1 & u2) != ext(pack, u1) & ext(pack, u2):
                fails[5] += 1
    return [CheckResult(n, r, f) for n, r, f in zip(names, runs, fails)]


# -- multiplicity transfer lemmas ------------------------------------------------------------


def check_transfer_lemmas(seed: int, n_each: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    res = {}

    runs = fails = 0
    batch = _Batch()
    for i in range(n_each):
        draw = _draw_pack(rng, int(rng.integers(6, 10)), 2)
        data = (
            random_family(rng, draw, int(rng.integers(1, 5))),
            _relation_mask(rng, draw.n_points),
            _relation_mask(rng, draw.n_points),
        )
        for (pack,), (alpha, e_mask, f_mask) in batch.add((draw,), data, i == n_each - 1):
            e = Relation.from_mask(pack, e_mask)
            f = Relation.from_mask(pack, f_mask)
            ealpha = image_family(e, alpha)
            lhs = mult_along(ealpha, f)
            rhs = mult_along(alpha, compose(e.inverse(), f))
            runs += 1
            if lhs > rhs:
                fails += 1
            # second form: mult E(alpha) <= mult along E^{-1}
            runs += 1
            if multiplicity(ealpha) > mult_along(alpha, e.inverse()):
                fails += 1
    res["image-family multiplicity chain"] = (runs, fails)

    runs = fails = 0
    for i in range(n_each):
        draws = _draw_pack(rng, int(rng.integers(6, 10)), 2), _draw_pack(rng, int(rng.integers(5, 9)), 2)
        n_src, n_dst = draws[0].n_points, draws[1].n_points
        data = (
            [int(v) for v in rng.integers(0, n_dst, n_src)],
            random_family(rng, draws[1], int(rng.integers(1, 5))),
            _relation_mask(rng, n_src),
        )
        for (src, dst), (fmap, alpha, e_mask) in batch.add(draws, data, i == n_each - 1):
            e = Relation.from_mask(src, e_mask)
            lhs = mult_along(preimage_family(fmap, alpha, src.n_points), e)
            rhs = mult_along(alpha, map_relation(e, fmap, dst))
            runs += 1
            if lhs > rhs:
                fails += 1
    res["preimage multiplicity bound"] = (runs, fails)

    runs = fails = 0
    for i in range(n_each):
        draw = _draw_pack(rng, int(rng.integers(6, 10)), 2)
        family = _members_of(random_family(rng, draw, int(rng.integers(2, 6))))
        shrunk = []
        for m in family:  # one shrink per distinct member: a map on the family
            keep = [p for p in sorted(m) if rng.uniform() < 0.7]
            shrunk.append(frozenset(keep or [sorted(m)[0]]))
        # the packs are validated as every drawn pack is; the bound reads no metric
        for _, (alpha, beta) in batch.add((draw,), (family, shrunk), i == n_each - 1):
            runs += 1
            if multiplicity(beta) > multiplicity(alpha):
                fails += 1
    res["shrinking surjection bound"] = (runs, fails)

    return [CheckResult(k, r, f) for k, (r, f) in res.items()]


# -- star expansion chain ----------------------------------------------------------------------


def check_star_expansion(seed: int, n_each: int) -> list[CheckResult]:
    """mult_E of {E(star(beta, U))} against the composed-relation bound, plus
    the refinement half of the statement."""
    rng = np.random.default_rng(seed)
    runs = fails = 0
    wruns = wfails = 0
    batch = _Batch()
    for i in range(n_each):
        draw = _draw_pack(rng, 8, 2)
        data = (
            random_family(rng, draw, int(rng.integers(2, 5))),
            random_family(rng, draw, int(rng.integers(2, 5))),
            _relation_mask(rng, draw.n_points, 0.2),
        )
        for (pack,), (beta, gamma, base_mask) in batch.add((draw,), data, i == n_each - 1):
            pts = frozenset(pack.points)
            # force covers
            beta.append(pts - frozenset().union(*beta) or frozenset([0]))
            gamma.append(pts - frozenset().union(*gamma) or frozenset([0]))
            beta = [m for m in beta if m]
            gamma = [m for m in gamma if m]
            base = Relation.from_mask(pack, base_mask)
            e = Relation(pack, base.pairs | {(q, p) for p, q in base.pairs} | {(p, p) for p in pts})
            members = [e.image(star(beta, u)) for u in gamma]
            lhs = mult_along(members, e)
            chain = compose(delta_of_family(pack, beta), compose(e, e))
            rhs = mult_along(gamma, chain)
            runs += 1
            if lhs > rhs:
                fails += 1
            wruns += 1
            ok = all(any(w <= m for m in members) for w in beta)
            if not ok:
                wfails += 1
    return [
        CheckResult("star-expansion multiplicity chain", runs, fails),
        CheckResult("star-expansion refined by beta", wruns, wfails),
    ]


def delta_of_family(pack: DiscretePack, fam) -> Relation:
    return Relation(pack, {(p, q) for m in fam for p in m for q in m})


# -- shrink along a diagonal neighborhood -------------------------------------------------------


def check_shrink(seed: int, n_each: int) -> list[CheckResult]:
    from .covers import Cover
    from .relations import shrink_cover

    rng = np.random.default_rng(seed)
    runs = fails = 0
    batch = _Batch()
    for i in range(n_each):
        draw = _draw_pack(rng, 8, 2)
        interior = sorted(draw.interior)
        # partition blocks give a symmetric diagonal neighborhood whose balls
        # are the blocks themselves
        blocks = []
        perm = [interior[j] for j in rng.permutation(len(interior))]
        while perm:
            size = int(rng.integers(1, 3))
            blocks.append(frozenset(perm[:size]))
            perm = perm[size:]
        data = blocks, [b | random_subset(rng, interior) for b in blocks]
        for (pack,), (blocks, members) in batch.add((draw,), data, i == n_each - 1):
            e = Relation(pack, {(p, q) for b in blocks for p in b for q in b})
            alpha = Cover.make(pack, members, target="interior")
            gamma = shrink_cover(e, alpha)
            runs += 1
            if not gamma.covers_flag or mult_along(gamma, e) > multiplicity(alpha):
                fails += 1
    return [CheckResult("ball-shrink multiplicity bound", runs, fails)]


# -- suite ---------------------------------------------------------------------------------------


def verify_suite(seed: int = 0, sizes: dict | None = None) -> SuiteSummary:
    sizes = sizes or {}
    results: list[CheckResult] = []
    results += check_identities(seed, sizes.get("identities", 2000))
    packs = [
        validate_pack(3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], [0, 2]),
        generate_pack("finite_cylinder", n_base=2, n_levels=4),
        random_pack(np.random.default_rng(seed + 1), 12, 5),
    ]
    results += check_ext_properties(packs, seed, sizes.get("ext_random", 200))
    results += check_transfer_lemmas(seed, sizes.get("transfer", 500))
    results += check_star_expansion(seed, sizes.get("star", 200))
    results += check_shrink(seed, sizes.get("shrink", 200))
    return SuiteSummary(tuple(results))
