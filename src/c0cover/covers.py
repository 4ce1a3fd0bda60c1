"""Cover calculus: multiplicities, mesh, stars, refinement witnesses,
Lebesgue numbers, uniformity verdicts, and the scale-dimension oracle."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadParams,
    EmptyMember,
    MemberOutsideTarget,
    NotACover,
    NotARefinement,
    PackMismatch,
)
from .packs import DiscretePack, ScaleLadder, read_json
from .relations import DEFAULT_LIMIT_TOL, CurveVerdict, Relation, _check_tol, _scale_curve_verdict

Family = Sequence[frozenset]

_GATHER_LIMIT = 1 << 22  # distances gathered at once by member_stats


class Cover:
    """Finite family of nonempty point sets over one target set of a pack.

    Members are deduplicated, order preserved.  ``covers_flag`` records
    whether the union equals the target; families that deliberately miss the
    target are legal (refinement machinery needs them).  A cover is not
    changed after it is made, so it measures its members once (``stats``)
    for every verdict and recursion that reads them.
    """

    __slots__ = ("pack", "members", "target", "target_tag", "_stats")

    def __init__(self, pack, members, target, target_tag):
        self.pack = pack
        self.members = members
        self.target = target
        self.target_tag = target_tag
        self._stats = None

    @property
    def stats(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The members' ``member_stats``, read-only, computed on first use."""
        if self._stats is None:
            self._stats = member_stats(self.pack, self.members)
            for a in self._stats:
                a.setflags(write=False)
        return self._stats

    @classmethod
    def make(
        cls,
        pack: DiscretePack,
        members: Iterable[Iterable[int]],
        target: str | Iterable[int] = "interior",
        drop_empty: bool = False,
    ) -> "Cover":
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

    def __eq__(self, other):
        return (
            isinstance(other, Cover)
            and other.pack is self.pack
            and set(other.members) == set(self.members)
            and other.target == self.target
        )

    def __hash__(self):
        return hash((id(self.pack), frozenset(self.members), self.target))

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return f"Cover(<{len(self.members)} members over {self.target_tag}>)"

    @property
    def union(self) -> frozenset[int]:
        out: set[int] = set()
        for m in self.members:
            out |= m
        return frozenset(out)

    @property
    def covers_flag(self) -> bool:
        return self.union == self.target

    def require_cover(self) -> "Cover":
        if not self.covers_flag:
            raise NotACover(f"family of {len(self.members)} members misses the {self.target_tag} target")
        return self

    def to_json_dict(self) -> dict:
        return {"members": [sorted(m) for m in self.members], "target": self.target_tag}


def singleton_cover(pack: DiscretePack, target: str = "interior") -> Cover:
    tset = pack.interior if target == "interior" else pack.boundary
    return Cover.make(pack, [{p} for p in sorted(tset)], target=target)


def whole_space_cover(pack: DiscretePack, target: str = "interior") -> Cover:
    tset = pack.interior if target == "interior" else pack.boundary
    return Cover.make(pack, [tset], target=target)


# -- multiplicities ---------------------------------------------------------------


def _members_of(alpha) -> tuple[frozenset, ...]:
    if isinstance(alpha, Cover):
        return alpha.members
    seen, out = set(), []
    for m in alpha:
        fm = frozenset(m)
        if fm and fm not in seen:
            seen.add(fm)
            out.append(fm)
    return tuple(out)


def mult_at(alpha, p: int) -> int:
    """Number of members containing p."""
    return sum(1 for m in _members_of(alpha) if p in m)


def mult_on(alpha, s: Iterable[int]) -> int:
    """Number of members meeting the set s."""
    fs = frozenset(s)
    return sum(1 for m in _members_of(alpha) if m & fs)


def _point_counts(*families) -> Counter:
    """For every point, the number of members holding it, summed over the
    families (each family deduplicated); points are any hashables."""
    return Counter(p for fam in families for m in _members_of(fam) for p in m)


def multiplicity(alpha) -> int:
    """Largest number of members through one point."""
    return max(_point_counts(alpha).values(), default=0)


def mult_witness(alpha) -> tuple[int, int | None]:
    """(multiplicity, a point attaining it); lowest witnessing id."""
    counts = _point_counts(alpha)
    if not counts:
        return 0, None
    best = max(counts.values())
    return best, min(p for p, c in counts.items() if c == best)


def mult_along(alpha, e: Relation) -> int:
    """sup over x of the number of members meeting the ball E_x."""
    members = _members_of(alpha)
    best = 0
    for x in e.pack.points:
        b = e.ball(x)
        if b:
            best = max(best, sum(1 for m in members if m & b))
    return best


def common_multiplicity(*families) -> int:
    """max over points of the summed pointwise multiplicities of the families."""
    return max(_point_counts(*families).values(), default=0)


def _flatten(members) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Members as one index array, with each member's size and start in it."""
    sizes = np.fromiter(map(len, members), dtype=np.intp, count=len(members))
    flat = np.fromiter(chain.from_iterable(members), dtype=np.intp, count=int(sizes.sum()))
    return flat, sizes, np.cumsum(sizes) - sizes


def member_stats(pack: DiscretePack, members) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per member: min and max boundary distance, and diameter.

    Members are nonempty point sets.  Diameters come from one gathered block
    per member size (chunked to bound memory); singletons read 0 with no
    distance lookup.
    """
    if not len(members):
        return np.zeros(0), np.zeros(0), np.zeros(0)
    flat, sizes, starts = _flatten(members)
    depth = pack.boundary_dist[flat]
    diam = np.zeros(len(members))
    for s in np.unique(sizes[sizes > 1]).tolist():
        which = np.flatnonzero(sizes == s)
        idx = flat[starts[which, None] + np.arange(s)]  # (members of size s, s)
        step = max(1, _GATHER_LIMIT // (s * s))
        for c in range(0, len(which), step):
            block = idx[c : c + step]
            diam[which[c : c + step]] = pack.dist[block[:, :, None], block[:, None, :]].max(axis=(1, 2))
    return np.minimum.reduceat(depth, starts), np.maximum.reduceat(depth, starts), diam


# -- mesh, star, diagonal ----------------------------------------------------------


def mesh(pack: DiscretePack, alpha) -> float:
    return max((pack.diam(m) for m in _members_of(alpha)), default=0.0)


def star(alpha, s: Iterable[int]) -> frozenset[int]:
    """alpha(S): union of the members meeting S."""
    fs = frozenset(s)
    out: set[int] = set()
    for m in _members_of(alpha):
        if m & fs:
            out |= m
    return frozenset(out)


def delta_of(alpha: Cover) -> Relation:
    """Delta(alpha) = union of U x U over members.

    The member-incidence product: a float sum of 0/1 terms is positive
    exactly when some member holds both points.
    """
    incidence = np.zeros((len(alpha.members), alpha.pack.n_points), dtype=np.float32)
    if alpha.members:
        flat, sizes, _ = _flatten(alpha.members)
        incidence[np.repeat(np.arange(len(sizes)), sizes), flat] = 1.0
    return Relation.from_mask(alpha.pack, incidence.T @ incidence > 0)


def image_family(e: Relation, alpha) -> tuple[frozenset, ...]:
    """E(alpha) = {E(U) : U in alpha}, deduplicated, empties dropped."""
    out = []
    for m in _members_of(alpha):
        im = e.image(m)
        if im:
            out.append(im)
    return _members_of(out)


def preimage_family(f: dict[int, int] | Sequence[int], alpha, n_source: int) -> tuple[frozenset, ...]:
    """f^{-1}(alpha) over source points 0..n_source-1."""
    fm = f.__getitem__
    out = []
    for m in _members_of(alpha):
        pre = frozenset(p for p in range(n_source) if fm(p) in m)
        if pre:
            out.append(pre)
    return _members_of(out)


# -- refinement ---------------------------------------------------------------------


@dataclass(frozen=True)
class RefinementWitness:
    """For each member V of the finer family, a coarser member containing it."""

    assignment: dict

    def verify(self) -> bool:
        return all(v <= u for v, u in self.assignment.items())


def refines(beta, alpha) -> RefinementWitness:
    """Witness that beta refines alpha; raises NotARefinement on the first failure."""
    a_members = _members_of(alpha)
    assignment = {}
    for v in _members_of(beta):
        for u in a_members:
            if v <= u:
                assignment[v] = u
                break
        else:
            raise NotARefinement(v)
    return RefinementWitness(assignment)


# -- Lebesgue number ------------------------------------------------------------------


def lebesgue_number(
    pack: DiscretePack,
    beta,
    target: Iterable[int],
    skip_uncovered: bool = False,
) -> float:
    """L = min over p of max over members U containing p of d(p, target \\ U).

    d(., empty) caps at the target diameter.  Every subset of the target with
    diameter < L embeds in some member.  With skip_uncovered the minimum runs
    over covered points only (used where ties may puncture a cover).
    """
    tgt = np.array(sorted(frozenset(target)), dtype=np.intp)
    in_tgt = np.zeros(pack.n_points, dtype=bool)
    in_tgt[tgt] = True
    here = np.full(pack.n_points, -np.inf)  # max over members U holding p of d(p, target \ U)
    for m in _members_of(beta):
        pts = np.fromiter(m, dtype=np.intp, count=len(m))
        outside = in_tgt.copy()
        outside[pts] = False
        here[pts] = np.maximum(here[pts], pack.set_dist(pts, np.flatnonzero(outside)))
    here = here[tgt]
    covered = here > -np.inf
    if not skip_uncovered and not covered.all():
        raise NotACover(f"point {int(tgt[np.argmin(covered)])} lies in no member")
    best = float(here[covered].min(initial=np.inf))
    # a finite d(p, target \ U) is at most the target diameter, so the cap
    # only binds when every covered point sits in a member holding the target
    return best if best < np.inf else pack.diam(tgt)


# -- uniformity -----------------------------------------------------------------------


def uniformity_verdict(
    pack: DiscretePack,
    ladder: ScaleLadder,
    alpha,
    unif_tol: float = DEFAULT_LIMIT_TOL,
) -> CurveVerdict:
    """Mesh-near-boundary curve of a family over the interior.

    Value at scale t is the largest diameter among members meeting B(X, t);
    ACCEPT iff it decays to unif_tol * k_sup at the effective resolution
    floor (the smallest rung any member reaches).
    Properness is vacuous on finite packs.  A cover over ``pack`` reads its
    own ``stats``, so no ladder or tolerance measures its members again.
    """
    _check_tol("unif_tol", unif_tol)
    members = _members_of(alpha)
    if not members:
        raise NotACover("empty family has no verdict")
    own = isinstance(alpha, Cover) and alpha.pack is pack
    cond, _, size = alpha.stats if own else member_stats(pack, members)
    return _scale_curve_verdict(ladder, cond, size, unif_tol * pack.k_sup, effective_floor=True)


def is_canonical(
    pack: DiscretePack,
    ladder: ScaleLadder,
    alpha: Cover,
    unif_tol: float = DEFAULT_LIMIT_TOL,
) -> bool:
    """Canonical = covers the interior and accepts the uniformity verdict
    (open-ness and local finiteness carry no discrete content)."""
    return alpha.covers_flag and uniformity_verdict(pack, ladder, alpha, unif_tol).accept


# -- scale dimension -------------------------------------------------------------------


@dataclass(frozen=True)
class DimAtScale:
    value: int
    exact: bool
    method: str

    @property
    def flag(self) -> str:
        return "EXACT" if self.exact else "UPPER_BOUND"


def dim_at_scale(pack: DiscretePack, eps: float) -> DimAtScale:
    """Scale-eps dimension surrogate of the boundary sample.

    For the 1-dimensional generated families the exact answer comes from
    interval/arc covering: consecutive-run covers whose hulls cover the
    underlying continuum must share sample points wherever hulls meet, so the
    minimum multiplicity is 2 unless one run of mesh <= eps suffices.  For
    finite (dimension-0) families block partitions give multiplicity 1.
    Anything else gets a greedy half-eps ball cover as a flagged upper bound.
    """
    if eps <= 0:
        raise BadParams("eps must be positive")
    bidx = sorted(pack.boundary)
    kind = pack.kind
    bdiam = pack.diam(bidx)
    if kind in ("finite_cylinder", "countable_example"):
        return DimAtScale(0, True, "block partition")
    if kind in ("interval_cylinder", "circle_in_disk"):
        return DimAtScale(0 if eps >= bdiam else 1, True, "interval/arc cover")
    # greedy ball cover upper bound
    members: list[frozenset[int]] = []
    covered: set[int] = set()
    for p in bidx:
        if p not in covered:
            members.append(frozenset(q for q in bidx if pack.d(p, q) <= eps / 2))
            covered |= members[-1]
    return DimAtScale(max(multiplicity(members) - 1, 0), False, "greedy ball cover")


# -- file formats ------------------------------------------------------------------------


def cover_to_json(alpha: Cover) -> str:
    return json.dumps(alpha.to_json_dict(), sort_keys=True)


def cover_from_json(pack: DiscretePack, text: str) -> Cover:
    obj = read_json(text, "cover file")
    if not isinstance(obj, dict) or not isinstance(obj.get("members"), list):
        raise BadParams("cover file must be an object with a list of members")
    members, target = obj["members"], obj.get("target", "interior")
    id_lists = members if target in ("interior", "boundary") else [*members, target]
    if not all(isinstance(m, list) and all(type(p) is int for p in m) for m in id_lists):
        raise BadParams("cover members and a custom target must be lists of integer point ids")
    return Cover.make(pack, members, target=target)
