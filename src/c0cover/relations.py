"""Relation algebra over a pack and the C0-controlled constructions.

Conventions: the ball of x is E_x = {y : (y, x) in E}, the image of a set K
is E(K) = {y : exists x in K with (y, x) in E}, and E o F pairs (x, z) when
some y gives (x, y) in E and (y, z) in F.  With these the usual identities
hold on the nose, e.g. (E o F)_x = E(F_x).

A relation is one read-only n x n bool mask over its pack, ``mask[p, q]``
iff (p, q) is in E, so the ball E_x is column x.  Sets of pairs appear only
at the edges: the pair constructor, the JSON files and the ``pairs`` view.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import (
    BadParams,
    KEBallsNotRefining,
    LambdaNotDecaying,
    MissingDiagonal,
    NotCovering,
    NotSymmetric,
    PackMismatch,
)
from .packs import DiscretePack, ModulusCurve, ScaleLadder, _by_row_blocks, _is_int, _point_ids, h_profile, read_json

DEFAULT_LIMIT_TOL = 0.05  # one knob for every decay-to-resolution surrogate


def _columns(mask: np.ndarray) -> list[frozenset[int]]:
    """The rows set in each column of a bool matrix, column by column."""
    cols, rows = np.nonzero(mask.T)  # grouped by column, rows ascending within each
    rows = rows.tolist()
    bounds = cols.searchsorted(range(mask.shape[1] + 1)).tolist()
    return [frozenset(rows[s:e]) for s, e in zip(bounds, bounds[1:])]


class Relation:
    """Set of ordered point pairs over one pack, held as its n x n bool mask."""

    __slots__ = ("pack", "mask", "_pairs", "_balls")

    def __init__(self, pack: DiscretePack, pairs: Iterable[tuple[int, int]]):
        """The relation of the given (p, q) pairs, their ids read by ``_point_ids``."""
        pairs = list(pairs)
        n = pack.n_points
        ids = _point_ids(chain.from_iterable(pairs), n)
        if set(map(len, pairs)) - {2}:
            raise BadParams("relation pairs must be (p, q) pairs of point ids")
        p, q = ids.reshape(-1, 2).T
        mask = np.zeros((n, n), dtype=bool)
        mask[p, q] = True
        self._set(pack, mask)

    def _set(self, pack: DiscretePack, mask: np.ndarray) -> None:
        mask.setflags(write=False)
        self.pack = pack
        self.mask = mask
        self._pairs = None
        self._balls = None

    @classmethod
    def _of(cls, pack: DiscretePack, mask: np.ndarray) -> "Relation":
        """Wrap a fresh n x n bool mask that nothing else writes to."""
        e = cls.__new__(cls)
        e._set(pack, mask)
        return e

    @classmethod
    def from_mask(cls, pack: DiscretePack, mask) -> "Relation":
        """The relation {(p, q) : mask[p, q]} for an n x n bool array (copied).

        BadParams for an array that is not bool, PackMismatch for one whose
        shape is not (n, n) for the pack's n points.
        """
        mask = np.asarray(mask)
        if mask.dtype != bool:
            raise BadParams(f"relation mask must be bool, not {mask.dtype}")
        n = pack.n_points
        if mask.shape != (n, n):
            raise PackMismatch(f"relation mask of shape {mask.shape} over a pack of {n} points")
        return cls._of(pack, mask.copy())

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        if self._pairs is None:
            ps, qs = np.nonzero(self.mask)
            self._pairs = frozenset(zip(ps.tolist(), qs.tolist()))
        return self._pairs

    def __repr__(self):
        return f"Relation(<{len(self)} pairs>)"

    def __eq__(self, other):
        return (
            isinstance(other, Relation)
            and other.pack is self.pack
            and np.array_equal(other.mask, self.mask)
        )

    def __hash__(self):
        return hash((id(self.pack), np.packbits(self.mask).tobytes()))

    def __len__(self):
        return int(np.count_nonzero(self.mask))

    def __contains__(self, pair):
        """One mask entry for a pair of integer ids in the pack; False for anything else."""
        p, q = pair if isinstance(pair, tuple) and len(pair) == 2 else (None, None)
        n = len(self.mask)
        return _is_int(p) and _is_int(q) and 0 <= p < n and 0 <= q < n and bool(self.mask[p, q])

    def _ball_index(self) -> dict[int, frozenset[int]]:
        if self._balls is None:
            self._balls = dict(enumerate(_columns(self.mask)))
        return self._balls

    def ball(self, x: int) -> frozenset[int]:
        return self._ball_index().get(x, frozenset())

    def image(self, targets: Iterable[int]) -> frozenset[int]:
        balls = self._ball_index()
        out: set[int] = set()
        for x in targets:
            out |= balls.get(x, frozenset())
        return frozenset(out)

    def inverse(self) -> "Relation":
        return Relation._of(self.pack, self.mask.T)

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.mask, self.mask.T))

    def contains_diagonal(self, points: Iterable[int] | None = None) -> bool:
        """(p, p) in E for every given point, the interior by default; False for an id that is no point."""
        return all((p, p) in self for p in (self.pack.interior if points is None else points))

    def union(self, other: "Relation") -> "Relation":
        _same_pack(self, other)
        return Relation._of(self.pack, self.mask | other.mask)

    def to_json_list(self) -> list[list[int]]:
        # argwhere walks the mask in row-major order: the pairs come sorted
        return np.argwhere(self.mask).tolist()


def _same_pack(e: Relation, f: Relation) -> None:
    if e.pack is not f.pack:
        raise PackMismatch("relations live over different packs")


def compose(e: Relation, f: Relation) -> Relation:
    """E o F = {(x, z) : exists y with (x, y) in E and (y, z) in F}.

    A 0/1 matrix product tested > 0: a float sum of 0/1 terms is positive
    exactly when one term is 1, so the float32 product is exact.
    """
    _same_pack(e, f)
    return Relation._of(e.pack, e.mask.astype(np.float32) @ f.mask.astype(np.float32) > 0)


def diagonal(pack: DiscretePack, points: Iterable[int] | None = None) -> Relation:
    idx = _point_ids(pack.interior if points is None else points, pack.n_points)
    mask = np.zeros((pack.n_points, pack.n_points), dtype=bool)
    mask[idx, idx] = True
    return Relation._of(pack, mask)


def full_relation(pack: DiscretePack, points: Iterable[int] | None = None) -> Relation:
    """All ordered pairs; over the whole pack by default (boundary included)."""
    idx = _point_ids(pack.points if points is None else points, pack.n_points)
    mask = np.zeros((pack.n_points, pack.n_points), dtype=bool)
    mask[np.ix_(idx, idx)] = True
    return Relation._of(pack, mask)


def map_relation(e: Relation, f: dict[int, int] | list[int], target: DiscretePack) -> Relation:
    """f x f (E) over the target pack, for a point map f (read on the points E touches)."""
    fm = f if callable(f) else f.__getitem__
    ps, qs = np.nonzero(e.mask)
    used = list(set(ps.tolist()).union(qs.tolist()))
    to = np.zeros(e.pack.n_points, dtype=np.intp)
    to[used] = _point_ids(map(fm, used), target.n_points)
    mask = np.zeros((target.n_points, target.n_points), dtype=bool)
    mask[to[ps], to[qs]] = True
    return Relation._of(target, mask)


# -- verdicts -------------------------------------------------------------------


def _check_tol(name: str, value) -> None:
    """BadParams unless a verdict tolerance is a positive, finite number."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (number and math.isfinite(value) and value > 0):
        raise BadParams(f"{name} must be positive and finite")


@dataclass(frozen=True)
class CurveVerdict:
    """A modulus curve, held as its breakpoints, with its decay-to-resolution verdict.

    ``floor_t`` is the rung whose value the verdict reads: the bottom rung
    for displacement curves, or the effective resolution floor (smallest
    rung whose conditioning set is nonempty) for mesh curves.  ACCEPT means
    the floor value stays within tol * k_sup.
    """

    curve: ModulusCurve
    accept: bool
    floor_t: float | None
    floor_value: float
    threshold: float

    def to_dict(self) -> dict:
        return {
            "accept": self.accept,
            "floor_t": self.floor_t,
            "floor_value": self.floor_value,
            "threshold": self.threshold,
            "curve": self.curve.array.tolist(),
        }


def _floor(radii: np.ndarray, cond: np.ndarray, size: np.ndarray) -> tuple[float | None, float]:
    """The effective floor over a ladder's decreasing radii: the smallest rung r* >= min(cond), and the
    largest size over the items with cond <= r* (one masked max); (None, 0.0) when no rung reaches min(cond)."""
    reach = np.count_nonzero(radii >= cond.min(initial=np.inf))  # the rungs r* and above
    t = radii[reach - 1]
    return (float(t), float(size.max(where=cond <= t, initial=-np.inf))) if reach else (None, 0.0)


def _scale_curve_verdict(
    ladder: ScaleLadder,
    cond: np.ndarray,
    size: np.ndarray,
    threshold: float,
    effective_floor: bool = False,
) -> CurveVerdict:
    """Curve value at rung t = max size over items with cond <= t.

    ``cond`` holds each item's activation scale, ``size`` its measured value.
    With ``effective_floor`` the verdict reads the curve at ``_floor``, the
    smallest rung whose item set is nonempty (rungs below witness nothing);
    otherwise at the bottom rung.
    """
    radii = ladder.array
    order = np.argsort(cond, kind="stable")
    prefix = np.concatenate(([0.0], np.maximum.accumulate(size[order])))
    values = prefix[np.searchsorted(cond[order], radii, side="right")]  # read at the items active at each rung
    floor_t, floor_value = _floor(radii, cond, size) if effective_floor else (float(radii[-1]), float(values[-1]))
    # values is a prefix max read at counts that never grow down the ladder: it never
    # rises as t falls, so the floor decides, and each run's first rung keeps value_at
    keep = np.concatenate(([True], values[1:] != values[:-1]))
    curve = ModulusCurve(np.column_stack([radii[keep], values[keep]]))
    return CurveVerdict(curve, floor_value <= threshold, floor_t, floor_value, threshold)


def c0_modulus(
    pack: DiscretePack,
    ladder: ScaleLadder,
    e: Relation,
    c0_tol: float = DEFAULT_LIMIT_TOL,
) -> CurveVerdict:
    """Displacement-near-boundary curve of a relation.

    Value at scale t is the largest d(p, q) over pairs whose nearer endpoint
    is within t of the boundary; ACCEPT iff its value at the bottom rung is
    at most c0_tol * k_sup.  The ladder bottoms out below the sample, so
    interior-only relations always clear the floor; the verdict has teeth
    for relations touching the boundary, and the curve itself records the
    decay for the rest.

    A pair is active at t exactly when one endpoint is within t of the
    boundary, so the items are points, not pairs: each point p a pair touches,
    with its boundary distance and the largest d over row p and column p of E.
    """
    _check_tol("c0_tol", c0_tol)
    if e.pack is not pack:
        raise PackMismatch("relation belongs to a different pack")
    size = np.maximum(*(pack.dist.max(axis=a, where=e.mask, initial=-np.inf) for a in (0, 1)))
    touched = size > -np.inf
    return _scale_curve_verdict(ladder, pack.boundary_dist[touched], size[touched], c0_tol * pack.k_sup)


# -- lambda gauges and controlled relations -------------------------------------


@dataclass(frozen=True)
class LambdaSpec:
    """Increasing positive gauge lambda(t) used for diagonal neighborhoods."""

    values: ModulusCurve

    def __post_init__(self):
        if not self.values.is_nondecreasing():
            raise BadParams("lambda must be nondecreasing in t")
        if float(self.values.values.min()) <= 0:
            raise BadParams("lambda must be positive")

    @classmethod
    def identity(cls, ladder: ScaleLadder) -> "LambdaSpec":
        return cls(ModulusCurve(np.column_stack([ladder.array, ladder.array])))

    @classmethod
    def constant(cls, ladder: ScaleLadder, c: float) -> "LambdaSpec":
        return cls(ModulusCurve(np.column_stack([ladder.array, np.full(len(ladder), float(c))])))

    def at(self, t: float | np.ndarray) -> float | np.ndarray:
        return self.values.value_at(t)


def diag_nbhd_from_lambda(pack: DiscretePack, lam: LambdaSpec) -> Relation:
    """{(p, q) interior : d(p, q) < lambda(min boundary distance)}; symmetric, contains the diagonal.

    lambda is nondecreasing and evaluated by a monotone step lookup, so
    lambda(min(a, b)) = min(lambda(a), lambda(b)) exactly: the gauge takes one
    evaluation per point (0 on the boundary, where no distance is below it),
    and the mask is compared in row blocks.
    """
    gauge = lam.at(pack.boundary_dist)
    gauge[sorted(pack.boundary)] = 0.0
    mask = _by_row_blocks(
        pack.n_points, lambda rows: pack.dist[rows] < np.minimum(gauge[rows, None], gauge[None, :]), dtype=bool
    )
    return Relation._of(pack, mask)


def controlled_phi(pack: DiscretePack, ladder: ScaleLadder, lam: LambdaSpec) -> ModulusCurve:
    """The modulus phi(t) = h(t) + lambda(t) + h(t + lambda(t)), h capped at k_sup."""
    h = h_profile(pack, ladder)
    t = ladder.array
    lt = lam.at(t)
    return ModulusCurve(np.column_stack([t, h.value_at(t) + lt + h.value_at(t + lt)]))


def controlled_E(
    pack: DiscretePack,
    ladder: ScaleLadder,
    lam: LambdaSpec,
    lambda_tol: float = DEFAULT_LIMIT_TOL,
) -> Relation:
    """The controlled diagonal neighborhood built from the phi modulus.

    Requires the gauge to decay to the resolution floor (its smallest sample
    at most lambda_tol * k_sup); the result always passes the c0 verdict on
    generated packs with deep enough ladders.
    """
    _check_tol("lambda_tol", lambda_tol)
    if float(lam.values.values[-1]) > lambda_tol * pack.k_sup:
        raise LambdaNotDecaying(
            f"lambda bottoms out at {lam.values.values[-1]:.3g} > {lambda_tol * pack.k_sup:.3g}"
        )
    phi = controlled_phi(pack, ladder, lam)
    return diag_nbhd_from_lambda(pack, LambdaSpec(phi))


# -- covers from relations --------------------------------------------------------


def ball_cover(e: Relation):
    """The cover K(E) = {E_x : x interior}; needs the diagonal for covering.

    Built from the interior columns of the mask by ``_interior_cover``:
    identical balls are dropped after their first occurrence.
    """
    from .covers import _interior_cover

    pack = e.pack
    interior = np.array(sorted(pack.interior), dtype=np.intp)
    balls = np.ascontiguousarray(e.mask[:, interior].T)  # row i: the ball of interior[i]
    empty = ~balls.any(axis=1)
    if empty.any():
        raise NotCovering(f"point {interior[empty.argmax()]} has an empty ball")
    if not balls.any(axis=0)[interior].all():
        raise NotCovering("balls do not cover the interior")
    return _interior_cover(pack, balls)


def shrink_cover(e: Relation, alpha):
    """Shrink a cover along a symmetric diagonal neighborhood.

    V_U = {x : E_x inside U}; the result covers, refines alpha, and its
    multiplicity along E is at most mult(alpha).
    """
    from .covers import Cover

    pack = e.pack
    if alpha.pack is not pack:
        raise PackMismatch("cover belongs to a different pack")
    if not e.is_symmetric():
        raise NotSymmetric("shrink needs a symmetric relation")
    if not e.contains_diagonal():
        raise MissingDiagonal("shrink needs the diagonal")
    balls = {x: e.ball(x) for x in sorted(pack.interior)}
    for x, b in balls.items():
        if not any(b <= u for u in alpha.members):
            raise KEBallsNotRefining(f"ball of {x} embeds in no member")
    members = []
    for u in alpha.members:
        v_u = frozenset(x for x, b in balls.items() if b <= u)
        if v_u:
            members.append(v_u)
    return Cover.make(pack, members, target="interior")


def relation_to_json(e: Relation) -> str:
    import json

    return json.dumps(e.to_json_list())


def relation_from_json(pack: DiscretePack, text: str) -> Relation:
    """Read a JSON list of [p, q] pairs of point ids; BadParams for any other shape."""
    pairs = read_json(text, "relation file")
    if not isinstance(pairs, list):
        raise BadParams("relation file must be a JSON list of pairs")
    for pq in pairs:
        if not (isinstance(pq, list) and len(pq) == 2):
            raise BadParams(f"relation pair {pq!r} is not two point ids")
    return Relation(pack, pairs)
