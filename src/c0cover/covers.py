"""Cover calculus: multiplicities, mesh, stars, refinement witnesses,
Lebesgue numbers, uniformity verdicts, and the scale-dimension oracle."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate, chain
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
from .packs import DiscretePack, ScaleLadder, _point_ids, read_json
from .relations import DEFAULT_LIMIT_TOL, CurveVerdict, Relation, _check_tol, _floor, _scale_curve_verdict

# distances gathered at once by the per-size diameter gather, and bytes of bit rows
# gathered at once by refines and by the co-member pair enumeration
_GATHER_LIMIT = 1 << 22
_SWEEP = 1 << 12  # co-member pairs per step of the diameter sweep


class Cover:
    """Finite family of nonempty point sets over one target set of a pack.

    Members are deduplicated, order preserved, and held as two read-only
    index arrays: ``ids`` lists every member's point ids in ascending order,
    one member after another, and member i is ``ids[offsets[i]:offsets[i + 1]]``
    (``offsets`` has one entry more than there are members).  ``members`` is
    the same family as a tuple of frozensets, built on first read.
    ``covers_flag`` records whether the union equals the target; families
    that deliberately miss the target are legal (refinement machinery needs them).  A cover is not changed after it is
    made, so it measures its members once (``stats``) for every verdict and
    recursion that reads them.
    """

    __slots__ = ("pack", "ids", "offsets", "target", "target_tag", "_members", "_stats")

    def __init__(self, pack, ids, offsets, target, target_tag, stats=None):
        for a in (ids, offsets, *(stats or ())):
            a.setflags(write=False)
        self.pack = pack
        self.ids = ids
        self.offsets = offsets
        self.target = target
        self.target_tag = target_tag
        self._members = None
        self._stats = stats

    @property
    def members(self) -> tuple[frozenset, ...]:
        """The members as frozensets of point ids, in order."""
        if self._members is None:
            self._members = tuple(map(frozenset, self._id_lists()))
        return self._members

    def _id_lists(self) -> list[list[int]]:
        ids, bounds = self.ids.tolist(), self.offsets.tolist()
        return [ids[s:e] for s, e in zip(bounds, bounds[1:])]

    @property
    def stats(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The members' ``index_stats``, read-only, computed on first use."""
        if self._stats is None:
            self._stats = index_stats(self.pack, self.ids, self.offsets)
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
        """The cover of the given members, deduplicated in order.

        Every id, of the members and of a custom target, is read by
        ``_point_ids`` first: BadParams for one that is no integer.  Then
        EmptyMember for an empty member (unless ``drop_empty``) and
        MemberOutsideTarget for one that leaves the target, whichever comes
        first; PackMismatch for a custom target that leaves the pack.
        """
        if isinstance(target, str) and target == "interior":  # an array target is compared by no ==
            tset, tag = pack.interior, "interior"
        elif isinstance(target, str) and target == "boundary":
            tset, tag = pack.boundary, "boundary"
        else:
            try:
                tset, tag = frozenset(_point_ids(target, pack.n_points).tolist()), "custom"
            except PackMismatch as exc:
                raise PackMismatch(f"target {exc}") from None
        try:
            members = [m if type(m) is frozenset else frozenset(m) for m in members]
        except TypeError:  # a member that is no collection, or holds an unhashable id
            raise BadParams("cover members must be collections of point ids") from None
        _point_ids(chain.from_iterable(members))  # every member, repeats included
        seen: set[frozenset] = set()
        out: list[frozenset] = []
        for fm in members:
            if not fm:
                if drop_empty:
                    continue
                raise EmptyMember("cover members must be nonempty")
            if fm not in seen:
                if not fm <= tset:
                    raise MemberOutsideTarget(f"member {np.sort(_point_ids(fm))[:6].tolist()}... leaves the target")
                seen.add(fm)
                out.append(fm)
        flat, offsets = _flatten(out)
        # one sort orders every member: the key puts member i's ids in [i * n, (i + 1) * n)
        shift = np.repeat(np.arange(len(out), dtype=np.intp) * pack.n_points, np.diff(offsets))
        ids = np.sort(flat + shift) - shift
        return cls(pack, ids, offsets, tset, tag)

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
        return len(self.offsets) - 1

    def __repr__(self):
        return f"Cover(<{len(self)} members over {self.target_tag}>)"

    @property
    def covers_flag(self) -> bool:
        # members lie inside the target: they cover it when they hold as many points
        return int(np.count_nonzero(np.bincount(self.ids))) == len(self.target)

    def require_cover(self) -> "Cover":
        if not self.covers_flag:
            raise NotACover(f"family of {len(self)} members misses the {self.target_tag} target")
        return self

    def to_json_dict(self) -> dict:
        return {"members": self._id_lists(), "target": self.target_tag}


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


def _interior_cover(pack: DiscretePack, rows: np.ndarray) -> Cover:
    """The cover of the interior whose members are the nonempty rows of a
    members x points bool matrix, deduplicated in order.

    MemberOutsideTarget for the first row holding a boundary point.  The
    rows are deduplicated by ``_distinct_rows``, keeping the first occurrence
    of each member, and the ids and offsets come from one ``flatnonzero``.
    """
    held = rows.any(axis=1)
    if not held.all():
        rows = rows[held]
    leaves = rows[:, sorted(pack.boundary)].any(axis=1)
    if leaves.any():
        raise MemberOutsideTarget(f"member {np.flatnonzero(rows[leaves.argmax()])[:6].tolist()}... leaves the target")
    first, _ = _distinct_rows(np.packbits(rows, axis=1))
    member, ids = np.divmod(np.flatnonzero(rows[np.sort(first)]), pack.n_points)
    offsets = np.zeros(len(first) + 1, dtype=np.intp)
    np.cumsum(np.bincount(member, minlength=len(first)), out=offsets[1:])
    return Cover(pack, ids, offsets, pack.interior, "interior")


def _distinct_rows(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a matrix of packed bits, by one ``unique`` that
    reads each row as one opaque value: the first occurrence of each
    distinct row, and the distinct row of every row."""
    rows = packed.view(np.dtype((np.void, packed.shape[1] * packed.itemsize))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return first, inverse


def _flatten(members, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Plain members as a cover's index arrays: every member's ids in its own order, one member
    after another, read by ``_point_ids`` over n points, and the offsets (plus the end)."""
    offsets = np.array([0, *accumulate(map(len, members))], dtype=np.intp)
    return _point_ids(chain.from_iterable(members), n), offsets


def _index_arrays(alpha) -> tuple[np.ndarray, np.ndarray]:
    """A family's ids and offsets: a cover's own, or a plain family's
    deduplicated and flattened; BadParams for a plain family holding an id
    that is no nonnegative integer (numpy would wrap -1)."""
    if isinstance(alpha, Cover):
        return alpha.ids, alpha.offsets
    ids, offsets = _flatten(_members_of(alpha))
    if ids.min(initial=0) < 0:
        raise BadParams("point ids of a plain family must be nonnegative integers")
    return ids, offsets


def _incidence(ids: np.ndarray, offsets: np.ndarray, n: int, dtype=bool) -> np.ndarray:
    """The members x points 0/1 matrix of index arrays over points 0..n-1."""
    inc = np.zeros((len(offsets) - 1, n), dtype=dtype)
    inc[np.repeat(np.arange(len(offsets) - 1), np.diff(offsets)), ids] = 1
    return inc


def _bit_rows(rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """The n_rows x n_cols 0/1 matrix with ones at (rows, cols), 64 columns
    to a uint64 word: column j is bit j % 64 of word j // 64."""
    bits = np.zeros((n_rows, -(-n_cols // 64) * 64), dtype=bool)
    bits[rows, cols] = True
    return np.packbits(bits, axis=1, bitorder="little").view(np.uint64)


def mult_at(alpha, p: int) -> int:
    """Number of members containing p."""
    return sum(1 for m in _members_of(alpha) if p in m)


def mult_on(alpha, s: Iterable[int]) -> int:
    """Number of members meeting the set s."""
    fs = frozenset(s)
    return sum(1 for m in _members_of(alpha) if m & fs)


def _deepest_point(*families, witness: bool = False) -> tuple[int, object]:
    """The largest number of members through one point, summed over the
    families (each deduplicated), and with ``witness`` the lowest point
    attaining it (else, or when no member holds a point, None): one
    bincount over the families' ``_index_arrays``."""
    counts = np.bincount(np.concatenate([np.zeros(0, dtype=np.intp), *(_index_arrays(f)[0] for f in families)]))
    if not len(counts):
        return 0, None
    p = int(counts.argmax())  # the first maximum: the lowest id
    return int(counts[p]), (p if witness else None)


def multiplicity(alpha) -> int:
    """Largest number of members through one point."""
    return _deepest_point(alpha)[0]


def mult_witness(alpha) -> tuple[int, int | None]:
    """(multiplicity, a point attaining it); lowest witnessing id."""
    return _deepest_point(alpha, witness=True)


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
    return _deepest_point(*families)[0]


def index_stats(
    pack: DiscretePack, ids: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per member of the index arrays (as a ``Cover`` holds them): min and
    max boundary distance, and diameter.

    Members are nonempty, and singletons read a diameter of 0.  The diameters
    take one of two exact paths, chosen by how much the members overlap: when
    the squared member sizes sum to more than 8 u^2, u the number of distinct
    points held (a ball cover such as gamma), ``_pair_diameters`` reads each
    co-member pair once; otherwise ``_gathered_diameters`` reads one block per
    member.
    """
    if len(offsets) < 2:
        return np.zeros(0), np.zeros(0), np.zeros(0)
    starts, sizes = offsets[:-1], np.diff(offsets)
    depth = pack.boundary_dist[ids]
    held = np.count_nonzero(np.bincount(ids))
    diameters = _pair_diameters if int(sizes @ sizes) > 8 * held * held else _gathered_diameters
    return np.minimum.reduceat(depth, starts), np.maximum.reduceat(depth, starts), diameters(pack.dist, ids, offsets)


def _gathered_diameters(dist: np.ndarray, ids: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Member diameters from one gathered s x s block per member of size s,
    a member size at a time (chunked to bound memory)."""
    starts, sizes = offsets[:-1], np.diff(offsets)
    diam = np.zeros(len(sizes))
    for s in np.unique(sizes[sizes > 1]).tolist():
        which = np.flatnonzero(sizes == s)
        idx = ids[starts[which, None] + np.arange(s)]  # (members of size s, s)
        step = max(1, _GATHER_LIMIT // (s * s))
        for c in range(0, len(which), step):
            block = idx[c : c + step]
            diam[which[c : c + step]] = dist[block[:, :, None], block[:, None, :]].max(axis=(1, 2))
    return diam


def _pair_diameters(dist: np.ndarray, ids: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Member diameters from the distinct co-member pairs, each read once.

    The pairs are swept by descending value against the points' 64-member
    holder words: a member's diameter is the first pair whose two rows both
    hold it.  The members found last are the narrow ones, and most of them
    are small: once their blocks hold no more entries than the pairs left to
    sweep hold words, they are gathered instead.
    """
    sizes = np.diff(offsets)
    diam, rest = _sweep_pairs(sizes, *_co_member_pairs(dist, ids, offsets))
    starts = np.concatenate(([0], np.cumsum(sizes[rest])))
    sub = ids[np.repeat(offsets[rest] - starts[:-1], sizes[rest]) + np.arange(starts[-1])]
    diam[rest] = _gathered_diameters(dist, sub, starts)
    # a checked matrix may hold self-distances within its tolerance of 0, and a block reads them
    self_dist = np.maximum.reduceat(np.diagonal(dist)[ids], offsets[:-1])
    return np.where(sizes > 1, np.maximum(diam, self_dist), 0.0)


def _co_member_pairs(
    dist: np.ndarray, ids: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The holder words of the points the members hold, and the pairs a < b of
    those points that some member holds (Delta of the family), with the value
    max(d[p, q], d[q, p]) of each.  Points are numbered 0..u-1 in id order.

    A boolean incidence product: a point's co-members are the OR of the point
    bits of the members holding it, a block of points at a time.
    """
    n_m = len(offsets) - 1
    member = np.repeat(np.arange(n_m, dtype=np.int32), np.diff(offsets))
    counts = np.bincount(ids)
    pts = np.flatnonzero(counts)  # point i is pts[i]
    u = len(pts)
    loc = (np.cumsum(counts > 0) - 1)[ids]  # the ids as points 0..u-1
    holders = _bit_rows(loc, member, u, n_m)  # holders[i]: the members holding point i
    inside = _bit_rows(member, loc, n_m, u)  # inside[j]: the points member j holds
    holding = member[np.argsort(ids, kind="stable")]  # the members holding point 0, then 1, ...
    bounds = np.concatenate(([0], np.cumsum(counts[pts])))
    per = max(1, _GATHER_LIMIT // (8 * inside.shape[1]))  # member rows ORed per block of points
    firsts, seconds, values = [], [], []
    lo = 0
    while lo < u:
        hi = max(lo + 1, int(np.searchsorted(bounds, bounds[lo] + per, side="right")) - 1)
        co = np.bitwise_or.reduceat(inside[holding[bounds[lo] : bounds[hi]]], bounds[lo:hi] - bounds[lo])
        pair = np.unpackbits(co.view(np.uint8), axis=1, count=u, bitorder="little").view(bool)
        pair &= np.arange(u) > np.arange(lo, hi)[:, None]
        p, q = np.nonzero(pair)
        p += lo
        firsts.append(p.astype(np.int32))
        seconds.append(q.astype(np.int32))
        values.append(np.maximum(dist[pts[p], pts[q]], dist[pts[q], pts[p]]))
        lo = hi
    value = np.concatenate(values)
    del values  # one copy of the pairs at a time
    return holders, np.concatenate(firsts), np.concatenate(seconds), value


def _sweep_pairs(
    sizes: np.ndarray, holders: np.ndarray, a: np.ndarray, b: np.ndarray, value: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The diameters the sweep finds, and the members of size > 1 it leaves.

    Within a step of pairs, a running OR of the two rows' common words holds
    every member found so far; a bit it gains at pair i is a member found there.
    """
    n_m = len(sizes)
    sought = np.zeros(holders.shape[1] * 64, dtype=bool)
    sought[:n_m] = sizes > 1
    found = ~np.packbits(sought, bitorder="little").view(np.uint64)  # members found, or not sought
    diam = np.zeros(len(sought))
    desc = np.argsort(value)[::-1]
    # what gathering the members not yet found would read, against what sweeping the rest reads
    left = int(sizes[sizes > 1] @ sizes[sizes > 1])
    for c in range(0, len(desc), _SWEEP):
        if left <= (len(desc) - c) * holders.shape[1]:
            break
        step = desc[c : c + _SWEEP]
        seen = holders[a[step]] & holders[b[step]]
        seen[0] |= found
        np.bitwise_or.accumulate(seen, axis=0, out=seen)
        new = seen.copy()
        new[1:] &= ~seen[:-1]
        new[0] &= ~found
        i, w = np.nonzero(new)
        r, bit = np.nonzero(np.unpackbits(new[i, w].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"))
        hit = 64 * w[r] + bit
        diam[hit] = value[step[i[r]]]
        left -= int(sizes[hit] @ sizes[hit])
        found = seen[-1]
    return diam[:n_m], np.flatnonzero(np.unpackbits(~found.view(np.uint8), count=n_m, bitorder="little"))


def member_stats(pack: DiscretePack, members) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``index_stats`` of a sequence of nonempty point sets, taken as given;
    BadParams for an id that is no integer, PackMismatch for a point outside the pack."""
    return index_stats(pack, *_flatten(members, pack.n_points))


def _stats_of(pack: DiscretePack, alpha) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A family's member stats over ``pack``: a cover over ``pack`` reads its own ``stats``."""
    if isinstance(alpha, Cover) and alpha.pack is pack:
        return alpha.stats
    return member_stats(pack, _members_of(alpha))


# -- mesh, star, diagonal ----------------------------------------------------------


def mesh(pack: DiscretePack, alpha) -> float:
    """Largest member diameter."""
    return float(_stats_of(pack, alpha)[2].max(initial=0.0))


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
    incidence = _incidence(alpha.ids, alpha.offsets, alpha.pack.n_points, np.float32)
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


@dataclass(frozen=True, eq=False)
class RefinementWitness:
    """For each member V of the finer family, in order, the index of the
    first coarser member U containing it; ``assignment`` is the same map
    between the members themselves."""

    finer: object
    coarser: object
    index: np.ndarray

    @property
    def assignment(self) -> dict:
        coarse = _members_of(self.coarser)
        return dict(zip(_members_of(self.finer), (coarse[j] for j in self.index.tolist())))

    def verify(self) -> bool:
        """Checks V <= U again, point by point, for every pair."""
        b_ids, b_off = _index_arrays(self.finer)
        a_ids, a_off = _index_arrays(self.coarser)
        n = 1 + max(int(b_ids.max(initial=-1)), int(a_ids.max(initial=-1)))
        in_coarse = _incidence(a_ids, a_off, n)
        return bool(in_coarse[np.repeat(self.index, np.diff(b_off)), b_ids].all())


def refines(beta, alpha) -> RefinementWitness:
    """Witness that beta refines alpha; raises NotARefinement on the first failure.

    Every point's coarser members form a row of bits, and V lies in U
    exactly when U's bit survives the AND of the rows of V's points
    (|V & U| = |V|); the witness takes the first such U.
    """
    # plain families are read once, so the witness's assignment can read them again
    beta, alpha = (f if isinstance(f, Cover) else _members_of(f) for f in (beta, alpha))
    b_ids, b_off = _index_arrays(beta)
    a_ids, a_off = _index_arrays(alpha)
    n = 1 + max(int(b_ids.max(initial=-1)), int(a_ids.max(initial=-1)))
    n_a = len(a_off) - 1
    rows = _bit_rows(a_ids, np.repeat(np.arange(n_a), np.diff(a_off)), n, n_a)  # rows[p]: alpha's members holding p
    sizes = np.diff(b_off)
    common = np.zeros((len(sizes), rows.shape[1]), dtype=np.uint64)
    # whole members at a time, gathering about _GATHER_LIMIT bytes of rows
    step = max(1, _GATHER_LIMIT // max(1, 8 * rows.shape[1] * int(sizes.max(initial=1))))
    for lo in range(0, len(sizes), step):
        hi = min(lo + step, len(sizes))
        block = np.take(rows, b_ids[b_off[lo] : b_off[hi]], axis=0)
        common[lo:hi] = np.bitwise_and.reduceat(block, b_off[lo:hi] - b_off[lo])
    # holds[i, j]: member i of beta lies in member j of alpha
    holds = np.unpackbits(common.view(np.uint8), axis=1, count=n_a, bitorder="little").view(bool)
    contained = holds.any(axis=1)
    if not contained.all():
        first = int(contained.argmin())
        raise NotARefinement(frozenset(b_ids[b_off[first] : b_off[first + 1]].tolist()))
    # with no coarser member there is no finer one either: it would have raised
    index = holds.argmax(axis=1) if n_a else np.zeros(0, dtype=np.intp)
    index.setflags(write=False)
    return RefinementWitness(beta, alpha, index)


# -- Lebesgue number ------------------------------------------------------------------


def lebesgue_number(
    pack: DiscretePack,
    beta,
    target: Iterable[int],
) -> float:
    """L = min over p of max over members U containing p of d(p, target \\ U).

    d(., empty) caps at the target diameter.  Every subset of the target with
    diameter < L embeds in some member.  NotACover for a target point in no
    member; ids are read by ``_point_ids`` over the pack.
    """
    tgt = np.unique(_point_ids(target, pack.n_points))
    in_tgt = np.zeros(pack.n_points, dtype=bool)
    in_tgt[tgt] = True
    if isinstance(beta, Cover) and beta.pack is pack:
        ids, offsets = beta.ids, beta.offsets
    else:
        ids, offsets = _flatten(_members_of(beta), pack.n_points)
    bounds = offsets.tolist()
    here = np.full(pack.n_points, -np.inf)  # max over members U holding p of d(p, target \ U)
    for s, e in zip(bounds, bounds[1:]):
        pts = ids[s:e]
        outside = in_tgt.copy()
        outside[pts] = False
        # whole rows first: a contiguous read, then a gather within each row
        gap = np.take(pack.dist[pts], np.flatnonzero(outside), axis=1).min(axis=1, initial=np.inf)
        here[pts] = np.maximum(here[pts], gap)
    here = here[tgt]
    covered = here > -np.inf
    if not covered.all():
        raise NotACover(f"point {int(tgt[np.argmin(covered)])} lies in no member")
    best = float(here.min(initial=np.inf))
    # a finite d(p, target \ U) is at most the target diameter, so the cap
    # only binds when every point sits in a member holding the target
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
    return _scale_curve_verdict(ladder, *_uniformity_items(pack, alpha, unif_tol), effective_floor=True)


def _uniformity_items(pack: DiscretePack, alpha, unif_tol: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Members' least boundary distances, diameters and unif_tol * k_sup; NotACover if none."""
    _check_tol("unif_tol", unif_tol)
    cond, _, size = _stats_of(pack, alpha)
    if not len(cond):
        raise NotACover("empty family has no verdict")
    return cond, size, unif_tol * pack.k_sup


def _uniform_at_floor(pack: DiscretePack, ladder: ScaleLadder, alpha, unif_tol: float) -> bool:
    """``uniformity_verdict(pack, ladder, alpha, unif_tol).accept`` from the floor value alone: no curve is built."""
    cond, size, threshold = _uniformity_items(pack, alpha, unif_tol)
    return _floor(ladder.array, cond, size)[1] <= threshold


def is_canonical(
    pack: DiscretePack,
    ladder: ScaleLadder,
    alpha,
    unif_tol: float = DEFAULT_LIMIT_TOL,
) -> bool:
    """Canonical = covers the interior and accepts the uniformity verdict
    (open-ness and local finiteness carry no discrete content).

    A plain family is read through ``Cover.make`` over the interior, so a
    member leaving it raises MemberOutsideTarget; a Cover over another pack
    raises PackMismatch.
    """
    _check_tol("unif_tol", unif_tol)
    if not isinstance(alpha, Cover):
        alpha = Cover.make(pack, alpha)
    elif alpha.pack is not pack:
        raise PackMismatch("cover belongs to a different pack")
    return alpha.covers_flag and _uniform_at_floor(pack, ladder, alpha, unif_tol)


# -- file formats ------------------------------------------------------------------------


def cover_to_json(alpha: Cover) -> str:
    return json.dumps(alpha.to_json_dict(), sort_keys=True)


def cover_from_json(pack: DiscretePack, text: str) -> Cover:
    obj = read_json(text, "cover file")
    if not isinstance(obj, dict) or not isinstance(obj.get("members"), list):
        raise BadParams("cover file must be an object with a list of members")
    members, target = obj["members"], obj.get("target", "interior")
    id_lists = members if target in ("interior", "boundary") else [*members, target]
    if not all(isinstance(m, list) for m in id_lists):
        raise BadParams("cover members and a custom target must be lists of point ids")
    return Cover.make(pack, members, target=target)
