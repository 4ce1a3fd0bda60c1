"""Canonical covers of minimal multiplicity.

The pipeline extends a sequence of boundary covers into the ambient pack with
the Ext map v, slices the extensions along the annuli of a scale ladder, and
picks ladder rungs recursively so the result refines a prescribed uniform
family.  With boundary-cover sequences of pairwise common multiplicity at
most dim X + 2 the output cover achieves that multiplicity bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .covers import (
    Cover,
    RefinementWitness,
    _incidence,
    _index_arrays,
    _interior_cover,
    _uniform_at_floor,
    common_multiplicity,
    lebesgue_number,
    mesh,
    mult_witness,
    refines,
    star,
    uniformity_verdict,
)
from .errors import (
    BadParams,
    BetaDoesNotCoverBoundary,
    C0Rejected,
    LadderExhausted,
    MissingDiagonal,
    NotBoundarySubset,
    NotSymmetric,
    PackMismatch,
    ProviderMismatch,
    UniformityRejected,
)
from .packs import DiscretePack, ScaleLadder, _point_ids, boundary_line, default_ladder, merged_levels
from .relations import DEFAULT_LIMIT_TOL, Relation, c0_modulus


# -- the Ext map -----------------------------------------------------------------


def ext(pack: DiscretePack, u: frozenset | set) -> frozenset[int]:
    """v(U) = {p : d(p, U) < d(p, X \\ U)} with d(., empty) = +inf.

    The one-member case of ``ext_family``.  Extends boundary-open sets into
    the whole pack: v(U) meets X exactly in U, is monotone, and turns finite
    intersections into intersections.  A point with nearest boundary points
    both in U and outside it is in neither v(U) nor v(X \\ U).
    """
    ids = _point_ids(u, pack.n_points)
    if not (pack.nearest_boundary[ids] == ids).all():  # only a boundary point is its own nearest one
        raise NotBoundarySubset("ext wants a subset of the boundary")
    in_u = np.zeros((1, pack.n_points), dtype=bool)
    in_u[0, ids] = True
    return frozenset(np.flatnonzero(ext_family(pack, in_u)[0]).tolist())


def ext_family(pack: DiscretePack, in_u: np.ndarray) -> np.ndarray:
    """v(U) = {p : T(p) <= U}, T(p) the nearest boundary points of p, for each
    row U of a (members x points) bool matrix; only its boundary columns are read."""
    inside = np.take(in_u, pack.nearest_boundary, axis=1)
    p, x = pack.nearest_ties.T
    row, tie = np.nonzero(~in_u[:, x])  # a nearest boundary point outside U
    inside[row, p[tie]] = False
    return inside


# -- the scale-cover constructor ----------------------------------------------------


def _slice(pack: DiscretePack, ladder: ScaleLadder, betas: Sequence[np.ndarray]) -> np.ndarray:
    """The rows U & annulus n for U in betas[n], family after family; empty
    and repeated rows are left for ``_interior_cover`` to drop."""
    n_ann = len(ladder) - 2
    if len(betas) < n_ann:
        raise LadderExhausted(f"need {n_ann} beta families, have {len(betas)}")
    if not betas[0].any(axis=0).all():
        raise BadParams("betas[0] must be the whole-space family")
    bd, radii = pack.boundary_dist, ladder.array
    for n in range(n_ann):
        if not betas[n][:, bd == 0].any(axis=0).all():
            raise BetaDoesNotCoverBoundary(n)
    # the radii are positive, so annulus n (r_{n+2}, r_n) misses the boundary
    return np.concatenate([betas[n] & ((bd > radii[n + 2]) & (bd < radii[n])) for n in range(n_ann)])


def build_alpha(
    pack: DiscretePack,
    ladder: ScaleLadder,
    betas: Sequence[np.ndarray],
) -> Cover:
    """Slices the beta families, bool matrices, along the ladder annuli.

    Members are U intersected with annulus n, for U in betas[n]; empties are
    dropped.  betas[0] must cover everything and every beta family must cover
    the boundary.  The result is a family over the interior; it covers and is
    uniform when the betas' meshes near the boundary decay jointly.
    """
    return _interior_cover(pack, _slice(pack, ladder, betas))


# -- the refinement subsequence recursion ---------------------------------------------


def subsequence_indices(
    pack: DiscretePack,
    ladder: ScaleLadder,
    betas: Sequence[np.ndarray],
    gamma: Cover,
) -> tuple[int, ...]:
    """The rung subsequence n_0 = 0 < n_1 < ... from the refinement recursion.

    Step k: pick the first rung m whose closed neighborhood the k-th beta
    family covers; take the Lebesgue number L of that family plus the far
    complement; pick m' past which every gamma member inside W_n has diameter
    below L, and m'' past which the closed neighborhood clears the star of
    the previous tail.  n_k is the largest of these (and n_{k-1} + 1).  All
    three conditions are lower bounds, so each step additionally descends by
    a fixed geometric factor; that keeps the number of steps logarithmic in
    the depth whatever gamma looks like.  Stops one step after the rung
    above the sample floor.  It reads gamma's ``stats`` alone.
    """
    if gamma.pack is not pack:
        raise PackMismatch("covers over different packs")
    ladder.validate_for(pack)
    bd = pack.boundary_dist
    radii = ladder.array
    m_top = len(ladder) - 1

    # The interior singletons decide no rung, so gamma stands for gamma plus
    # them: a diameter of 0 never raises a prefix max, so m' is unchanged, and
    # a singleton deep enough to enter the previous tail's star has depth
    # >= r_prev, so its m'' is <= prev + 1, already a lower bound of n_k.
    mindepth, maxdepth, diam = gamma.stats
    order = np.argsort(maxdepth, kind="stable")
    # the members inside W_n (maxdepth < r_n) are a prefix of `order`: its length per rung
    inside = np.searchsorted(maxdepth[order], radii, side="left")
    # per rung, the largest diameter among the members inside W_n (0 when none is)
    rung_mesh = np.maximum.accumulate(np.concatenate(([0.0], diam[order])))[inside]

    def first_rung_below(limit: float) -> int | None:
        idx = np.nonzero(radii < limit)[0]
        return int(idx[0]) if idx.size else None

    indices = [0]
    k = 1
    while True:
        if k >= len(betas):
            raise LadderExhausted(f"beta sequence exhausted at step {k}")
        beta_k = betas[k]
        m = first_rung_below(bd[~beta_k.any(axis=0)].min(initial=np.inf))  # below every point beta_k misses
        if m is None:
            raise LadderExhausted(f"no rung with closed neighborhood inside beta {k}")
        rows = np.vstack([beta_k, bd > radii[m]])  # beta_k plus the far complement
        member, ids = np.divmod(np.flatnonzero(rows), pack.n_points)
        helper = Cover(pack, ids, np.searchsorted(member, np.arange(len(rows) + 1)), frozenset(pack.points), "custom")
        # the far complement holds every point beta_k misses, so the helper covers
        big_l = lebesgue_number(pack, helper, pack.points)
        # m': the first rung where every member inside W_n is narrower than L
        # (with L <= 0 not even an empty W_n, valued 0, qualifies)
        shrunk = np.flatnonzero(rung_mesh < big_l)
        if not shrunk.size:
            raise LadderExhausted("no rung shrinks gamma below the Lebesgue number")
        m_prime = int(shrunk[0])
        prev = indices[-1]
        # the star of the previous tail {p : d(p, X) >= r_prev} is the union
        # of the members reaching that deep; its depth is their least depth
        star_depth = mindepth[maxdepth >= radii[prev]].min(initial=np.inf)
        m_dprime = first_rung_below(star_depth)
        if m_dprime is None:
            raise LadderExhausted("ladder cannot clear the star of the previous tail")
        n_k = max(prev + 1, m + 1, m_prime, m_dprime)
        # pace the descent geometrically: fast enough to terminate in
        # logarithmically many steps, gentle enough that the bottom annuli
        # span only a couple of sample levels
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


def refine_subsequence(
    pack: DiscretePack,
    ladder: ScaleLadder,
    betas: Sequence[np.ndarray],
    gamma: Cover,
    unif_tol: float = DEFAULT_LIMIT_TOL,
) -> tuple[tuple[int, ...], Cover, RefinementWitness]:
    """The canonical cover alpha({beta_n}, {W_n}) that gamma refines.

    Checks gamma's uniformity, runs the recursion on gamma alone and slices
    the betas along the annuli of the chosen rungs n_0 = 0 < ... < n_{K-1}.
    Returns (subsequence, alpha, the witness that gamma refines alpha).

    The sliced rows cover the interior, so no point is left to complete.  Let
    p have depth d > 0 and j be the largest index with r_{n_j} > d; it exists
    because r_{n_0} exceeds k_sup.  The recursion stops once
    r_{n_{K-2}} < delta_res <= d, so j <= K - 3 and annulus j, the open
    interval (r_{n_{j+2}}, r_{n_j}), exists and holds d, since
    r_{n_{j+2}} < r_{n_{j+1}} <= d.  beta_0 is the whole space.  For j >= 1,
    step j picked a rung m below the depth of every point beta_j misses and
    n_j >= m + 1; had beta_j missed p, then r_{n_j} < r_m < d.  So
    beta_j & annulus j holds p.  ``require_cover`` turns a broken invariant
    into a typed NotACover.
    """
    if not _uniform_at_floor(pack, ladder, gamma, unif_tol):
        raise UniformityRejected("gamma fails the uniformity verdict")
    indices = subsequence_indices(pack, ladder, betas, gamma)
    sub = ScaleLadder(tuple(ladder[i] for i in indices))
    alpha = build_alpha(pack, sub, betas).require_cover()
    return indices, alpha, refines(gamma, alpha)


class ExtBetas:
    """Lazy beta sequence of Ext images, each family computed once as a read-only bool matrix.

    Family 0 is Ext({X}), the whole space; family n >= 1 is the Ext image of
    the boundary family ``boundary_family(n)``.
    """

    def __init__(self, pack: DiscretePack, length: int, boundary_family: Callable[[int], object]):
        self.pack = pack
        self.length = length
        self.boundary_family = boundary_family
        self._cache: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, n: int) -> np.ndarray:
        if n < 0 or n >= self.length:
            raise IndexError(n)
        if n not in self._cache:
            fam = self.boundary_family(n) if n else [self.pack.boundary]
            self._cache[n] = ext_family(self.pack, _incidence(*_index_arrays(fam), self.pack.n_points))
            self._cache[n].setflags(write=False)
        return self._cache[n]


# -- canonical cover refining a given family ------------------------------------------


def ball_betas(pack: DiscretePack, length: int) -> ExtBetas:
    """Ext images of boundary ball covers of radius k_sup * 4^-n."""
    return ExtBetas(pack, length, lambda n: boundary_ball_cover(pack, pack.k_sup * 4.0 ** (-n)))


def boundary_ball_cover(pack: DiscretePack, rho: float) -> Cover:
    """Cover of X by metric balls of radius rho around a greedy net."""
    bidx = sorted(pack.boundary)
    centers = []
    for x in bidx:
        if all(pack.dist[x, c] >= rho for c in centers):
            centers.append(x)
    members = [frozenset(y for y in bidx if pack.dist[y, c] < rho) for c in centers]
    return Cover.make(pack, members, target="boundary").require_cover()


def beta_length_for(pack: DiscretePack) -> int:
    n_levels = len(merged_levels(pack))  # rings, not the float copies of their depths
    paced = math.ceil(math.log(pack.k_sup / pack.delta_res) / math.log(1.4))
    return max(24, 8 + paced, n_levels + 8)


def canonical_refining(pack: DiscretePack, gamma: Cover) -> Cover:
    """A canonical cover refined by gamma, in any dimension: default ladder
    and Ext-ball betas, with no multiplicity bound."""
    betas = ball_betas(pack, beta_length_for(pack))
    return refine_subsequence(pack, default_ladder(pack), betas, gamma)[1]


# -- star expansion --------------------------------------------------------------------


def star_expand_members(e: Relation, beta, gamma) -> list[frozenset]:
    """The raw members {E(star(beta, U)) : U in gamma}."""
    g_members = gamma.members if isinstance(gamma, Cover) else gamma
    return [e.image(star(beta, u)) for u in g_members]


def star_expand(
    e: Relation,
    beta: Cover,
    gamma: Cover,
    ladder: ScaleLadder | None = None,
) -> Cover:
    """The cover {E(star(beta, U)) : U in gamma}; beta refines the output and
    its multiplicity along E obeys the composed-relation chain bound."""
    pack = e.pack
    ladder = ladder or default_ladder(pack)
    if not e.is_symmetric():
        raise NotSymmetric("star expansion wants a symmetric relation")
    if not e.contains_diagonal():
        raise MissingDiagonal("star expansion wants a diagonal neighborhood")
    if not c0_modulus(pack, ladder, e).accept:
        raise C0Rejected("relation fails the displacement verdict")
    for name, fam in (("beta", beta), ("gamma", gamma)):
        if not uniformity_verdict(pack, ladder, fam).accept:
            raise UniformityRejected(f"{name} fails the uniformity verdict")
    return Cover.make(pack, star_expand_members(e, beta, gamma), target="interior", drop_empty=True)


# -- providers of boundary cover sequences ----------------------------------------------


@dataclass(frozen=True)
class Provider:
    """Makes boundary covers for a boundary sample and a mesh schedule:
    ``build(pack, targets)`` returns a maker i -> cover i, with cover 0 = {X},
    cover i of mesh <= targets[i] and consecutive covers of common
    multiplicity <= ``common_mult_bound``."""

    tag: str
    known_dim: int
    common_mult_bound: int
    build: Callable[[DiscretePack, tuple[float, ...]], Callable[[int], Cover]] = field(compare=False)


def _greedy_blocks(pack: DiscretePack, eps: float) -> list[frozenset]:
    """First-fit partition of the boundary into blocks of diameter <= eps."""
    blocks: list[list[int]] = []
    for x in sorted(pack.boundary):
        for b in blocks:
            if all(pack.dist[x, y] <= eps for y in b):
                b.append(x)
                break
        else:
            blocks.append([x])
    return [frozenset(b) for b in blocks]


def _build_dim0(pack: DiscretePack, targets: tuple[float, ...]) -> Callable[[int], Cover]:
    def make(i: int) -> Cover:
        return Cover.make(pack, _greedy_blocks(pack, targets[i]) if i else [pack.boundary], target="boundary")

    return make


def _arc_cover(
    pts: list[int],
    positions: list[float],
    span: float,
    circular: bool,
    length: float,
    offset: float,
) -> list[frozenset]:
    """Closed arcs of the given length stepping by 7/8 of it (1/8 overlaps)."""
    pos = np.array(positions)
    order = np.argsort(pos, kind="stable")
    sorted_pos = pos[order]
    min_gap = float(np.diff(sorted_pos).min(initial=np.inf))
    if length < min_gap:  # arcs hold at most one point: the trace is the singletons
        return [frozenset([p]) for p in pts]
    step = 0.875 * length
    members = []
    if circular:
        m = max(3, math.ceil(span / step))
        step = span / m
        length = step / 0.875
        rel = sorted_pos  # angles in [0, span)
        for j in range(m):
            a = (offset + j * step) % span
            shifted = (rel - a) % span
            sel = frozenset(pts[order[i]] for i in np.flatnonzero(shifted <= length))
            if sel:
                members.append(sel)
        return members
    lo, hi = float(sorted_pos[0]), float(sorted_pos[-1])
    j0 = math.floor((lo - offset - length) / step)
    j1 = math.ceil((hi - offset) / step)
    for j in range(j0, j1 + 1):
        a = offset + j * step
        i0 = int(np.searchsorted(sorted_pos, a, side="left"))
        i1 = int(np.searchsorted(sorted_pos, a + length, side="right"))
        if i1 > i0:
            members.append(frozenset(pts[order[i]] for i in range(i0, i1)))
    return members


def _build_dim1(pack: DiscretePack, targets: tuple[float, ...]) -> Callable[[int], Cover]:
    positions = boundary_line(pack)
    pts = sorted(pack.boundary)
    circular = pack.kind == "circle_in_disk"
    span = 2 * math.pi if circular else max(positions) - min(positions)
    lengths = [min(eps, span) for eps in targets]
    # cover i >= 1 starts its arcs at offsets[i - 1], each a quarter arc past the one before,
    # accumulated over the whole schedule whichever covers are made
    offsets = list(
        itertools.accumulate(lengths[1:-1], lambda offset, length: (offset + length / 4.0) % span, initial=0.0)
    )

    def make(i: int) -> Cover:
        if not i:
            return Cover.make(pack, [pack.boundary], target="boundary")
        members = _arc_cover(pts, positions, span, circular, lengths[i], offsets[i - 1])
        return Cover.make(pack, members, target="boundary")

    return make


def finite_dim0_provider() -> Provider:
    return Provider("finite_dim0", 0, 2, _build_dim0)


def interval_dim1_provider() -> Provider:
    return Provider("interval_dim1", 1, 3, _build_dim1)


def provider_for(pack: DiscretePack) -> Provider:
    if pack.known_dim == 0:
        return finite_dim0_provider()
    if pack.known_dim == 1:
        return interval_dim1_provider()
    raise ProviderMismatch(f"no shipped provider for dimension {pack.known_dim!r}")


def default_mesh_targets(pack: DiscretePack) -> tuple[float, ...]:
    return (float("inf"),) + tuple(pack.k_sup * 2.0 ** (-i) for i in range(1, beta_length_for(pack)))


# -- the minimal-multiplicity pipeline ------------------------------------------------------


class _UsedCovers:
    """The boundary covers alpha reads: covers 0, skip, skip + 1, ... of the
    provider's schedule, each made on its first read, in order, and checked
    once.  Each covers the boundary, cover 0 is {X}, every other one meets
    its mesh target and has common multiplicity within the provider's bound
    with its predecessor in the used sequence."""

    def __init__(self, pack: DiscretePack, provider: Provider, targets: tuple[float, ...], skip: int):
        self.pack, self.targets, self.bound = pack, targets, provider.common_mult_bound
        self.make = provider.build(pack, targets)
        self.schedule = (0, *range(skip, len(targets)))
        self.covers: list[Cover] = []
        self.common_mults: list[int] = []  # [j]: of used covers j and j + 1

    def __len__(self) -> int:
        return len(self.schedule)

    def __getitem__(self, j: int) -> Cover:
        while len(self.covers) <= j:
            i = self.schedule[len(self.covers)]
            cover = self.make(i).require_cover()
            if not self.covers:
                if set(cover.members) != {self.pack.boundary}:
                    raise BadParams("cover 0 must be the one-member family {X}")
            elif mesh(self.pack, cover) > self.targets[i]:
                raise BadParams(f"cover {i} exceeds its mesh target")
            else:
                cm = common_multiplicity(self.covers[-1], cover)
                if cm > self.bound:
                    prev = self.schedule[len(self.covers) - 1]
                    raise BadParams(f"common multiplicity {cm} of covers {prev},{i} exceeds {self.bound}")
                self.common_mults.append(cm)
            self.covers.append(cover)
        return self.covers[j]

    def max_common_mult(self, upto: int) -> int:
        """The largest common multiplicity of consecutive used covers up to cover ``upto``."""
        end = min(upto, len(self) - 1)
        self[end]  # makes and checks the covers up to ``end``
        return max(self.common_mults[:end], default=0)


@dataclass(frozen=True)
class PipelineReport:
    pack_kind: str | None
    known_dim: int | None
    ladder_rungs: int
    subsequence: tuple[int, ...]
    multiplicity: int
    witness_point: int | None
    bound_dim_plus_2: int | None
    naive_bound_2dim_plus_2: int | None
    max_common_mult: int
    witness_ok: bool
    orphans_completed: int  # 0 by construction: the sliced rows cover the interior (see refine_subsequence)
    uniformity: dict

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["subsequence"] = list(self.subsequence)
        return d


def minimal_canonical(
    pack: DiscretePack,
    gamma: Cover,
    provider: Provider | None = None,
    ladder: ScaleLadder | None = None,
    unif_tol: float = DEFAULT_LIMIT_TOL,
) -> tuple[Cover, PipelineReport]:
    """Canonical cover refined by gamma with multiplicity at most known_dim + 2.

    The betas are the Ext images of the provider's boundary covers, fast
    forwarded past the uniformity threshold; refine_subsequence builds alpha.
    Only the covers alpha and ``max_common_mult`` read are made and checked.
    """
    provider = provider or provider_for(pack)
    if pack.known_dim is None or provider.known_dim != pack.known_dim:
        raise ProviderMismatch(
            f"provider {provider.tag!r} (dim {provider.known_dim}) does not match pack dim {pack.known_dim!r}"
        )
    ladder = ladder or default_ladder(pack)
    targets = default_mesh_targets(pack)
    # Fast-forward the beta meshes past the uniformity threshold: the deepest
    # annuli inherit the first used family's mesh, so it must already be fine.
    # Consecutive pairs of the used sequence (including {X} against the first
    # fine cover, whose common multiplicity is 1 + its multiplicity) keep the
    # common-multiplicity bound.
    skip = next((i for i in range(1, len(targets)) if targets[i] <= 0.8 * unif_tol * pack.k_sup), 1)
    used = _UsedCovers(pack, provider, targets, skip)
    betas = ExtBetas(pack, len(used), used.__getitem__)
    indices, alpha, witness = refine_subsequence(pack, ladder, betas, gamma, unif_tol)
    verdict = uniformity_verdict(pack, ladder, alpha, unif_tol)
    mult, witness_pt = mult_witness(alpha)
    report = PipelineReport(
        pack_kind=pack.kind,
        known_dim=pack.known_dim,
        ladder_rungs=len(ladder),
        subsequence=indices,
        multiplicity=mult,
        witness_point=witness_pt,
        bound_dim_plus_2=pack.known_dim + 2,
        naive_bound_2dim_plus_2=2 * pack.known_dim + 2,
        max_common_mult=used.max_common_mult(len(indices)),
        witness_ok=witness.verify(),
        orphans_completed=0,
        uniformity=verdict.to_dict(),
    )
    return alpha, report
