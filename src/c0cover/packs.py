"""Discretized compactification packs.

A pack is a finite metric sample of a compact space together with a
distinguished closed "boundary" subset X; the rest of the sample is the
interior X-hat.  All lengths are in the abstract units of the distance
matrix.  Scale ladders discretize the nested neighborhoods W_n = B(X, r_n)
and annuli W_n minus the closure of W_{n+2}; modulus curves sample
scale -> length functions (the boundary-approach profile h, the diagonal
gauge lambda, displacement moduli) on a ladder.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import threading
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    AsymmetricDistance,
    BadLadder,
    BadParams,
    C0CoverError,
    DegeneratePack,
    EmptyComplement,
    EmptySide,
    IndexOutOfLadder,
    PackMismatch,
    ProviderMismatch,
    TriangleViolation,
)

DEFAULT_TRIANGLE_TOL = 1e-9
_BLOCK = 1 << 16  # matrix entries computed at once by _by_row_blocks

#: generator tags with the true covering dimension of the generated boundary
KNOWN_DIMS = {
    "finite_cylinder": 0,
    "interval_cylinder": 1,
    "circle_in_disk": 1,
    "cube_face": 2,
    "countable_example": 0,
}


class ModulusCurve:
    """Sampled scale -> value function, t strictly decreasing, values >= 0.

    Built from a sequence of (t, value) pairs or an (m, 2) array and held as
    one read-only (m, 2) float array; equality and hashing go by value.
    Evaluation is by conservative step interpolation: the value at the
    smallest sample t' >= t, clamped to the end samples outside the range.
    """

    __slots__ = ("array", "_asc")

    def __init__(self, samples):
        try:
            # a fresh float copy; adding 0.0 turns -0.0 into 0.0 so equal curves hash equal
            data = np.array(samples, dtype=float) + 0.0
        except (TypeError, ValueError):
            raise BadParams("curve samples must be (t, value) pairs") from None
        if data.size == 0:
            raise BadParams("empty modulus curve")
        if data.ndim != 2 or data.shape[1] != 2:
            raise BadParams("curve samples must be (t, value) pairs")
        ts, vs = data[:, 0], data[:, 1]
        if not (np.all(ts > 0) and np.all(ts[1:] < ts[:-1])):
            raise BadParams("curve abscissae must be positive and strictly decreasing")
        if not np.all(vs >= 0):
            raise BadParams("curve values must be nonnegative")
        data.setflags(write=False)
        object.__setattr__(self, "array", data)
        object.__setattr__(self, "_asc", None)

    def __setattr__(self, name, value):
        raise AttributeError("ModulusCurve is immutable")

    def __eq__(self, other):
        return isinstance(other, ModulusCurve) and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash(self.array.tobytes())

    def __repr__(self):
        return f"ModulusCurve(<{len(self.array)} samples>)"

    def __reduce__(self):
        return (ModulusCurve, (np.array(self.array),))

    @property
    def samples(self) -> tuple[tuple[float, float], ...]:
        return tuple(map(tuple, self.array.tolist()))

    @property
    def ts(self) -> np.ndarray:
        return self.array[:, 0]

    @property
    def values(self) -> np.ndarray:
        return self.array[:, 1]

    def _ascending(self):
        if self._asc is None:
            object.__setattr__(self, "_asc", (self.ts[::-1].copy(), self.values[::-1].copy()))
        return self._asc

    def value_at(self, t: float | np.ndarray) -> float | np.ndarray:
        """Value at the smallest sampled scale >= t (clamped at both ends);
        a float for one scale, an array of the same shape for an array."""
        ts, vs = self._ascending()
        v = vs[np.minimum(np.searchsorted(ts, t, side="left"), len(ts) - 1)]
        return v if np.ndim(t) else float(v)

    def is_nondecreasing(self) -> bool:
        v = self.values  # listed along decreasing t
        return bool(np.all(v[:-1] >= v[1:]))

    def to_csv(self) -> str:
        lines = ["t,value"]
        lines += [f"{t!r},{v!r}" for t, v in self.array.tolist()]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class DiscretePack:
    """Finite metric sample of a compactification pack.

    Points are the integers 0..n-1.  ``dist`` is the full symmetric distance
    matrix, ``boundary`` the sorted ids of X.  Derived fields: ``k_sup`` is
    the largest boundary distance, ``delta_res`` the smallest positive one
    (the resolution floor).  One reduction of ``dist`` over the boundary
    columns gives ``boundary_dist``, ``nearest_boundary`` and ``nearest_ties``.
    """

    dist: np.ndarray
    boundary: frozenset[int]
    k_sup: float
    delta_res: float
    meta: dict = field(default_factory=dict)

    # the generate_pack call that made the pack, {"kind": ..., "params": {...}};
    # only generate_pack sets it, and pack_to_json writes a pack carrying it as that call
    _generator = None

    @property
    def n_points(self) -> int:
        return self.dist.shape[0]

    @property
    def points(self) -> range:
        return range(self.n_points)

    @property
    def interior(self) -> frozenset[int]:
        return frozenset(self.points) - self.boundary

    @property
    def boundary_dist(self) -> np.ndarray:
        """Read-only vector of d(p, X) for every point p."""
        return self._bdist

    @property
    def nearest_boundary(self) -> np.ndarray:
        """Read-only vector of the nearest boundary point of every point p,
        the lowest id on ties; a boundary point is its own nearest point.
        On the interior this is the first coordinate of the map f."""
        return self._near

    @property
    def nearest_ties(self) -> np.ndarray:
        """Read-only (m, 2) array of the pairs (p, x) with x in T(p), the set
        of nearest boundary points of p, for every p with more than one;
        sorted by p, then x."""
        return self._ties

    @property
    def kind(self) -> str | None:
        return self.meta.get("kind")

    @property
    def known_dim(self) -> int | None:
        return self.meta.get("known_dim")

    @property
    def cylindrical(self) -> bool:
        return bool(self.meta.get("cylindrical", False))

    @property
    def coords(self) -> np.ndarray | None:
        c = self.meta.get("coords")
        return None if c is None else np.asarray(c, dtype=float)

    def d(self, p: int, q: int) -> float:
        """d(p, q); both ids are read by ``_point_ids`` over the pack."""
        p, q = _point_ids([p, q], self.n_points)
        return float(self.dist[p, q])

    def set_dist(self, pts: Iterable[int], targets: Iterable[int]) -> np.ndarray:
        """For each point of ``pts``, its least distance to ``targets``, in one
        reduction; +inf for no targets.  Both are read by ``_point_ids`` over the pack."""
        pts, targets = _point_ids(pts, self.n_points), _point_ids(targets, self.n_points)
        # whole rows first: a contiguous read, then a gather within each row
        return np.take(self.dist[pts], targets, axis=1).min(axis=1, initial=np.inf)

    def diam(self, pts: Iterable[int]) -> float:
        idx = _point_ids(pts, self.n_points)
        if len(idx) < 2:
            return 0.0
        return float(self.dist[np.ix_(idx, idx)].max())

    def to_json_dict(self) -> dict:
        meta = dict(self.meta)
        if "coords" in meta and isinstance(meta["coords"], np.ndarray):
            meta["coords"] = meta["coords"].tolist()
        meta.setdefault("delta_res", self.delta_res)
        return {
            "points": list(self.points),
            "dist": self.dist.tolist(),
            "boundary": sorted(self.boundary),
            "meta": meta,
        }


def _nearest_boundary(dist: np.ndarray, boundaries: Sequence[frozenset[int]]) -> tuple[np.ndarray, np.ndarray, list]:
    """The one reduction over the boundary columns, for a stack ``dist`` of
    (s, n, n) matrices with one boundary each: d(p, X), the lowest nearest
    boundary id and the tie pairs of every pack, as ``DiscretePack`` stores them.

    One gather reads the columns of every boundary id of the stack; a column
    that is not in a pack's own boundary reads +inf for that pack.  Returns
    the (s, n) distances and ids and a list of s tie arrays.
    """
    s, n = dist.shape[0], dist.shape[1]
    own = np.zeros((s, n), dtype=bool)
    own.flat[[i * n + x for i, boundary in enumerate(boundaries) for x in boundary]] = True
    cols = np.flatnonzero(own.any(axis=0))
    block = dist[:, :, cols]
    if any(len(boundary) < len(cols) for boundary in boundaries):
        block = np.where(own[:, None, cols], block, np.inf)
    bdist = block.min(axis=2)
    # the minimum is one of the row's entries, so a tie is an exact ==
    nearest = block == bdist[:, :, None]
    near = cols[nearest.argmax(axis=2)]  # the first minimum: the lowest boundary id
    tied = nearest.sum(axis=2) > 1
    tied[own] = False  # a boundary point is its own nearest point
    k, p, x = np.nonzero(nearest & tied[:, :, None])  # sorted by pack, then p, then x
    ties = np.split(np.column_stack([p, cols[x]]), np.searchsorted(k, np.arange(1, s)))
    bdist[own] = 0.0
    near[own] = np.nonzero(own)[1]
    return bdist, near, ties


def _finish_pack(pack: DiscretePack, reduction=None) -> DiscretePack:
    """Store the boundary reduction, unless given one already, and freeze the pack's arrays."""
    if reduction is None:
        bdist, near, ties = _nearest_boundary(pack.dist[None], [pack.boundary])
        reduction = bdist[0], near[0], ties[0]
    bdist, near, ties = reduction
    for a in (bdist, near, ties, pack.dist):
        a.setflags(write=False)
    object.__setattr__(pack, "_bdist", bdist)
    object.__setattr__(pack, "_near", near)
    object.__setattr__(pack, "_ties", ties)
    return pack


def _depth_range(bdist: np.ndarray, near: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k_sup, delta_res) of every pack of a stack of (s, n) boundary reductions:
    the largest and smallest boundary distance of an interior point, which
    must be positive.  A boundary point is the point that is its own nearest
    boundary point, and its distance reads 0."""
    lo = np.where(near == np.arange(near.shape[1]), np.inf, bdist).min(axis=1)
    if (lo <= 0).any():
        raise DegeneratePack("interior point at distance 0 from the boundary")
    return bdist.max(axis=1), lo


def _derived_packs(
    dist: np.ndarray, boundaries: Sequence[frozenset[int]], metas: Sequence[dict]
) -> list[DiscretePack]:
    """The finished packs of a stack ``dist`` (s, n, n) with one boundary and one
    ``meta`` each, their ``k_sup`` and ``delta_res`` read off their boundary
    reduction; every pack's arrays are read-only views of the stack's."""
    bdist, near, ties = _nearest_boundary(dist, boundaries)
    k_sup, delta_res = _depth_range(bdist, near)
    return [
        _finish_pack(DiscretePack(d, boundary, hi, lo, meta), reduction)
        for d, boundary, hi, lo, meta, reduction in zip(
            dist, boundaries, k_sup.tolist(), delta_res.tolist(), metas, zip(bdist, near, ties)
        )
    ]


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_cuts(n: int, parts: int) -> list[int]:
    """Row cuts 0 = c_0 <= ... <= c_parts = n that give the row ranges
    [c_w, c_{w+1}) about the same number of pairs i < j (row i has n - 1 - i)."""
    pairs_to = np.cumsum(np.arange(n - 1, -1, -1))  # the pairs in rows 0..i
    inner = np.searchsorted(pairs_to, n * (n - 1) // 2 * np.arange(1, parts) / parts) + 1
    return [0, *np.minimum(inner, n).tolist(), n]


def _defect_rows(off: np.ndarray, off_t: np.ndarray, via: np.ndarray, buf: np.ndarray, lo: int, hi: int) -> None:
    """Rows lo..hi-1 of ``via``: min over k of d(i,k) + d(k,j) for each pair i < j;
    ``buf`` is scratch space for (hi - lo) * n floats."""
    n = off.shape[0]
    for j in range(lo + 1, n):
        top = j if j < hi else hi
        s = buf[: (top - lo) * n].reshape(top - lo, n)
        np.add(off[lo:top], off_t[j], out=s)  # s[i, k] = d(i,k) + d(k,j)
        s.min(axis=1, out=via[lo:top, j])


#: the fewest triples (i, k, j) that pay for a thread of their own in
#: _min_plus_defects.  Measured on a 2-vCPU x86_64 VM (numpy 2.4.6, median of
#: 40 interleaved checks of planar matrices), two parts against one took
#: 1.50x the time at n = 160, 1.02x at 200, 0.98x at 230, 0.89x at 250,
#: 0.65x at 363 and 0.51x at 845.  Small blocks do not overlap: two threads
#: each taking the row minima of its own 100 x 200 block took twice as long as
#: one, over 150 x 363 blocks 1.3-1.4 times.  So a split starts at 2 * 4e6
#: triples (n = 252).  Only two parts against one were measured: whether a
#: part of 4e6 triples still pays with three or more is open.
_PART_TRIPLES = 4_000_000


def _min_plus_defects(dist: np.ndarray, off: np.ndarray, off_t: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """d(i,j) - min over k != i, j of (d(i,k) + d(k,j)) for the pairs i < j; -inf elsewhere.

    ``off`` is ``dist`` with +inf on its diagonal, which drops k = i and k = j,
    and ``off_t`` its transpose as a C-contiguous array; ``buf`` is scratch
    space for at least n * n floats.

    A matrix with the triples for two parts of ``_PART_TRIPLES`` is cut by
    rows into parts, one per CPU of the process's affinity set while the work
    pays for them; ``_split_rows`` runs them in threads, each part on its own
    slice of ``buf``, and re-raises an error of any part once all have
    joined.  A smaller matrix is one part in the caller's thread.  Every
    split gives the same bits.
    """
    n = dist.shape[0]
    via = np.full((n, n), np.inf)
    most = n**3 // 2 // _PART_TRIPLES  # the parts this much work pays for
    if most > 1:
        _split_rows(off, off_t, via, buf, min(_cpu_count(), most))
    else:
        _defect_rows(off, off_t, via, buf, 0, n)
    return np.subtract(dist, via, out=via)


def _split_rows(off: np.ndarray, off_t: np.ndarray, via: np.ndarray, buf: np.ndarray, parts: int) -> None:
    """All rows of ``via``, as ``_defect_rows`` fills them, in ``parts`` parts of
    about the same number of pairs.

    Part w takes rows [c_w, c_{w+1}) of ``_row_cuts`` and the slice of ``buf``
    at those rows, n * n floats in all; it reads ``off`` and ``off_t`` and
    writes only its own rows of ``via``, with the arithmetic of one part, so
    the result is the same bits for every split.  The caller's thread runs
    part 0 and the other parts run in threads; a part whose thread cannot
    start runs in the caller's thread.  An exception in any part, the
    caller's included, re-raises here once every started thread has joined,
    since a part that stopped early leaves +inf minima, which read as no
    defect.
    """
    n = off.shape[0]
    cuts = _row_cuts(n, parts)
    failed, threads = [], []

    def part(lo, hi):
        try:
            _defect_rows(off, off_t, via, buf[lo * n : hi * n], lo, hi)
        except BaseException as exc:  # re-raised once every part has joined
            failed.append(exc)

    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            if lo < hi:
                t = threading.Thread(target=part, args=(lo, hi))
                try:
                    t.start()
                except RuntimeError:  # no thread to spare
                    part(lo, hi)
                else:
                    threads.append(t)
        part(0, cuts[1])
    finally:
        for t in threads:
            t.join()
    if failed:
        raise failed[0]


def _first(fails: np.ndarray) -> int | None:
    """The index of the first True of ``fails``, None for none."""
    return int(fails.argmax()) if fails.any() else None


def _check_metric(dist: np.ndarray, tol: float) -> None:
    """Raise for the first matrix of ``dist``, one (n, n) matrix or a stack of
    them (s, n, n), that is no metric within ``tol``, what it alone raises.

    The checks run in this order: square shape, finite entries, zero
    self-distance, symmetry, positive distances between distinct points,
    then the full triangle check (``_check_triangles``).  Each check reads
    the whole stack; a matrix that fails one raises once the matrices before
    it have passed every check.
    """
    stack = dist[None] if dist.ndim == 2 else dist
    s, n = stack.shape[0], stack.shape[1]
    if s == 0:  # no matrix; an empty slice of a stack need not be square
        return
    if stack.shape[2] != n:
        raise BadParams("distance matrix must be square")
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        _check_metric(stack[: finite.argmin()], tol)
        raise BadParams("distance matrix has non-finite entries")
    i = _first(np.abs(np.diagonal(stack, axis1=1, axis2=2)).max(axis=1, initial=0.0) > tol)
    if i is not None:
        _check_metric(stack[:i], tol)
        raise DegeneratePack("nonzero self-distance")
    asym = np.abs(stack - stack.transpose(0, 2, 1))
    asym_max = asym.max(axis=(1, 2), initial=0.0)
    i = _first(asym_max > tol)
    if i is not None:
        _check_metric(stack[:i], tol)
        p, q = np.unravel_index(int(asym[i].argmax()), (n, n))
        raise AsymmetricDistance(f"d({p},{q}) != d({q},{p})")
    off = stack.copy()
    diagonal = np.arange(n)
    off[:, diagonal, diagonal] = np.inf
    i = _first(off.min(axis=(1, 2), initial=np.inf) <= 0)
    if i is not None:
        _check_metric(stack[:i], tol)
        raise DegeneratePack("distinct points at distance <= 0")
    _check_triangles(stack, off, asym, asym_max, tol)


def _check_triangles(dist: np.ndarray, off: np.ndarray, asym: np.ndarray, asym_max: np.ndarray, tol: float) -> None:
    """Raise TriangleViolation for the first matrix of the stack ``dist`` whose
    worst defect d(i,j) - min over k != i, j of (d(i,k) + d(k,j)) exceeds ``tol``.

    ``off`` is the stack with +inf on its diagonals, ``asym`` holds |d - d^T|
    with its largest entries ``asym_max``.  Rounding is monotone, so the worst
    defect equals the largest fl(d(i,j) - fl(d(i,k)+d(k,j))) bit for bit.
    While a chunk of matrices holds at most ``_BLOCK`` triples (i, k, j), one
    broadcast sums them all and takes the minimum over k, for every pair.  A
    larger matrix goes through ``_min_plus_defects`` by itself, by rows, in
    threads once the work pays for them: the pairs above the diagonal, and
    those below it only if the matrix is not exactly symmetric, since they
    are the pairs above it in the transpose.  Every path gives the same bits.
    """
    s, n = dist.shape[0], dist.shape[1]
    if n**3 <= _BLOCK:
        step = _BLOCK // max(n**3, 1)
        for lo in range(0, s, step):
            o = off[lo : lo + step]
            defect = dist[lo : lo + step] - (o[:, :, :, None] + o[:, None, :, :]).min(axis=2, initial=np.inf)
            defect[:, np.arange(n), np.arange(n)] = -np.inf
            worst = defect.max(axis=(1, 2), initial=-np.inf)
            i = _first(worst > tol)
            if i is not None:
                _raise_violation(dist[lo + i], off[lo + i], defect[i], worst[i])
        return
    for d, o, a, a_max in zip(dist, off, asym, asym_max):
        o_t = o if a_max == 0 else np.ascontiguousarray(o.T)
        buf = a.ravel()  # asym is no longer needed: reuse it
        defect = _min_plus_defects(d, o, o_t, buf)
        if o_t is not o:
            np.maximum(defect, _min_plus_defects(d.T, o_t, o, buf).T, out=defect)
        worst = defect.max(initial=-np.inf)
        if worst > tol:
            _raise_violation(d, o, defect, worst)


def _raise_violation(dist: np.ndarray, off: np.ndarray, defect: np.ndarray, worst) -> None:
    """Raise what a scan over k reports for one matrix: the first k reaching
    the worst defect, then the first such pair (i, j) in row-major order."""
    i, j = np.nonzero(defect == worst)
    gap = dist[i, j]
    for k in range(dist.shape[0]):
        hit = np.flatnonzero(gap - (off[i, k] + off[k, j]) == worst)
        if hit.size:
            raise TriangleViolation(int(i[hit[0]]), k, int(j[hit[0]]), worst)


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, (bool, np.bool_))


def _point_ids(xs, n: int | None = None) -> np.ndarray:
    """Point ids as an index array, for every entry point that indexes by ids a caller gave.

    As ``_finite_numbers`` does, it checks the distinct types once per call:
    BadParams unless each id is an integer, numpy's included, and no bool.
    Given the pack size n, PackMismatch for the lowest id outside 0..n-1, an
    int past int64 included; with no n, BadParams for an int past int64.
    """
    try:
        xs = list(_listed(xs))
    except TypeError:  # a scalar, not a collection of ids
        raise BadParams("point ids must be a collection of integers") from None
    if not all(t is int or issubclass(t, np.integer) for t in set(map(type, xs))):
        raise BadParams("point ids must be integers")
    if n is not None and xs and (min(xs) < 0 or max(xs) >= n):
        raise PackMismatch(f"point {min(p for p in xs if not 0 <= p < n)} outside the pack")
    try:
        return np.array(xs, dtype=np.intp)
    except OverflowError:  # with no n: an int past int64
        raise BadParams("point ids must fit in int64") from None


def _finite_numbers(xs: list) -> bool:
    """Every item of ``xs`` is a finite int or float, numpy's included, and none a bool."""
    number = (int, float, np.integer, np.floating)
    if not all(issubclass(t, number) and not issubclass(t, (bool, np.bool_)) for t in set(map(type, xs))):
        return False
    try:
        return all(map(math.isfinite, xs))
    except OverflowError:  # an int beyond the float range
        return False


def _is_finite_number(x) -> bool:
    return _finite_numbers([x])


def _listed(x):
    """``x`` as a list when it is an array, so a 0-d array is a scalar; anything else as it is."""
    return x.tolist() if isinstance(x, np.ndarray) else x


def _is_list_of(x, ok: Callable, n: int | None = None) -> bool:
    """``x`` is a list, tuple or array of items that pass ``ok``, n of them unless n is None."""
    x = _listed(x)
    return isinstance(x, (list, tuple)) and (n is None or len(x) == n) and all(map(ok, x))


def _check_coords(coords, n: int) -> None:
    """``meta["coords"]`` must be n rows of one width >= 1, each entry a finite number."""
    rows = _listed(coords)
    rows = list(map(_listed, rows)) if isinstance(rows, (list, tuple)) else []
    shaped = set(map(type, rows)) <= {list, tuple} and len(set(map(len, rows))) == 1
    if not (len(rows) == n and shaped and rows[0]):
        raise BadParams(f"pack meta coords must be {n} rows of one width >= 1")
    if not _finite_numbers(list(chain.from_iterable(rows))):
        raise BadParams("pack meta coords must be finite numbers")


def _check_sides(boundary: frozenset[int], n: int) -> None:
    """The boundary ids lie in the pack, and neither side is empty."""
    if boundary and not (min(boundary) >= 0 and max(boundary) < n):
        raise BadParams(f"boundary ids must lie in 0..{n - 1}")
    if not boundary:
        raise EmptySide("boundary X is empty")
    if len(boundary) == n:
        raise EmptySide("interior X-hat is empty")


def _check_meta(meta: dict, n: int) -> None:
    """``meta["levels"]`` and ``meta["coords"]`` if present; a ``meta`` holding
    both cylinder lists ``base_of`` and ``level_of`` must give one integer base
    id and one finite level per point, and the lists stay in ``meta`` as given."""
    if not _is_list_of(meta.get("levels", []), lambda t: _is_finite_number(t) and t > 0):
        raise BadParams("pack meta levels must be a list of finite positive levels")
    if meta.get("coords") is not None:  # null coords read as none, as DiscretePack.coords reads them
        _check_coords(meta["coords"], n)
    if "base_of" in meta and "level_of" in meta:
        if not _is_list_of(meta["base_of"], _is_int, n):
            raise BadParams(f"pack meta base_of must be a list of {n} integer base ids")
        if not _is_list_of(meta["level_of"], _is_finite_number, n):
            raise BadParams(f"pack meta level_of must be a list of {n} finite levels")


def _check_fields(dist: np.ndarray, boundaries: Sequence[frozenset[int]], metas: Sequence[dict]) -> None:
    """The invariants of the fields of a stack of packs, for ``_validated_stack``
    and for generator-form pack files alike.

    ``dist`` is a 3-D float array (s, n, n), one matrix per pack, with a set
    of integer ids and a ``meta`` dict per pack.  Each pack is checked in
    this order: its boundary ids and sides (``_check_sides``), its metric
    (``_check_metric``, the full triangle check included) and its ``meta``
    (``_check_meta``).  What is raised is what the first failing pack of the
    stack raises alone.  With ``_depth_range`` on the boundary reduction this
    is every check ``validate_pack`` makes.
    """
    n = dist.shape[1]
    stop, error = len(dist), None  # the metrics of the packs before stop are read
    for i, (boundary, meta) in enumerate(zip(boundaries, metas)):
        try:
            _check_sides(boundary, n)
        except C0CoverError as exc:
            stop, error = i, exc
            break
        try:
            _check_meta(meta, n)
        except C0CoverError as exc:  # the pack's metric is checked first
            stop, error = i + 1, exc
            break
    _check_metric(dist[:stop], DEFAULT_TRIANGLE_TOL)
    if error is not None:
        raise error


def _validated_stack(
    dist: np.ndarray, boundaries: Sequence[frozenset[int]], metas: Sequence[dict]
) -> list[DiscretePack]:
    """``_derived_packs`` of a stack ``dist`` (s, n, n) of same-size distance
    matrices, with one boundary and one ``meta`` each, after every check that
    ``validate_pack`` makes.

    A failing stack raises, for its first failing pack in stack order, what
    ``validate_pack`` raises for that pack alone.
    """
    _check_fields(dist, boundaries, metas)
    return _derived_packs(dist, boundaries, metas)


def validate_pack(
    raw_points: Sequence[int] | int,
    raw_dist,
    boundary_mask: Iterable[int] | Sequence[bool],
    meta: dict | None = None,
) -> DiscretePack:
    """Check all pack invariants and return the finished pack.

    ``raw_points`` is the point count or a sequence of that many ids;
    ``boundary_mask`` is either a boolean sequence over the points or a
    sequence of integer boundary ids.  The pack is a ``DiscretePack`` whatever
    ``meta`` holds: a cylinder file's ``base_of`` and ``level_of`` lists are
    checked and kept in ``meta`` as given, and a point's base and level are
    read off the boundary reduction.  Raises on the first
    violated invariant: BadParams for a distance matrix that is not a square
    array of finite numbers, a point count that disagrees with it, boundary
    ids that are not integers in 0..n-1, a ``meta`` that is not a dict,
    ``meta["levels"]`` not a list of finite positive numbers,
    ``meta["coords"]`` not n rows of one width >= 1 of finite numbers, or
    ``base_of`` and ``level_of`` not one integer base id and one finite
    level per point;
    EmptySide for an empty boundary or interior; DegeneratePack for a
    nonzero self-distance, distinct points at distance <= 0 or an interior
    point at distance 0 from the boundary; AsymmetricDistance and
    TriangleViolation beyond ``DEFAULT_TRIANGLE_TOL``.  Once the inputs are
    read, the checks and the pack are those of ``_validated_stack`` on a
    stack of one.
    """
    try:
        dist = np.array(raw_dist, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise BadParams("distance matrix must be a square array of numbers") from None
    if dist.ndim != 2:
        raise BadParams("distance matrix must be square")
    n = dist.shape[0]
    try:
        n_pts = raw_points if isinstance(raw_points, int) else len(list(raw_points))
    except TypeError:
        raise BadParams("points must be a count or a sequence of ids") from None
    if n_pts != n:
        raise BadParams("points and distance matrix disagree in size")
    mask = _listed(boundary_mask)
    if isinstance(mask, (list, tuple)) and len(mask) == n and set(map(type, mask)) <= {bool, np.bool_}:
        boundary = frozenset(np.flatnonzero(mask).tolist())
    else:
        try:
            boundary = frozenset(_point_ids(mask).tolist())  # _check_fields refuses an id outside the pack
        except BadParams:
            raise BadParams("boundary ids must be integers, or the boundary a boolean mask over the points") from None
    if meta is not None and not isinstance(meta, dict):
        raise BadParams("pack meta must be an object")
    return _validated_stack(dist[None], [boundary], [dict(meta or {})])[0]


# relative to k_sup, the distance within which two depths count as one level:
# default_ladder nudges a rung this close to a depth, merged_levels merges them
_COLLISION_TOL = 1e-12


def sample_levels(pack: DiscretePack) -> np.ndarray:
    """The attained positive boundary distances, ascending."""
    bd = pack.boundary_dist
    return np.unique(bd[bd > 0])


def merged_levels(pack: DiscretePack) -> np.ndarray:
    """The sample levels with float noise merged, ascending.

    A level is a maximal run of attained depths whose consecutive gaps are at
    most ``_COLLISION_TOL`` k_sup, represented by its smallest depth.  On
    circle_in_disk 32x10 the 50 attained depths are 10 rings.
    """
    values = sample_levels(pack)
    return values[np.concatenate(([True], np.diff(values) > _COLLISION_TOL * pack.k_sup))]


# -- scale ladders -------------------------------------------------------------


@dataclass(frozen=True)
class ScaleLadder:
    """Strictly decreasing radii r_0 > r_1 > ... > r_m realizing W_n = B(X, r_n).

    ``array`` holds the same radii as a read-only float array.
    """

    radii: tuple[float, ...]

    def __post_init__(self):
        radii = _listed(self.radii)
        if not (isinstance(radii, (list, tuple)) and _finite_numbers(list(radii))):
            raise BadLadder("radii must be finite numbers")
        r = np.array(radii, dtype=float)
        if len(r) < 3:
            raise BadLadder("ladder needs at least three rungs")
        if not (np.all(r > 0) and np.all(r[1:] < r[:-1])):
            raise BadLadder("radii must be positive and strictly decreasing")
        r.setflags(write=False)
        object.__setattr__(self, "array", r)

    def __len__(self) -> int:
        return len(self.radii)

    def __getitem__(self, n: int) -> float:
        return self.radii[n]

    def validate_for(self, pack: DiscretePack) -> None:
        if self.radii[0] <= pack.k_sup:
            raise BadLadder(f"top rung {self.radii[0]} must exceed k_sup={pack.k_sup}")
        if self.radii[-1] >= pack.delta_res:
            raise BadLadder(
                f"bottom rung {self.radii[-1]} must bottom out below the sample floor {pack.delta_res}"
            )

    def to_json(self) -> list[float]:
        return [float(r) for r in self.radii]


def _thin_rungs(cand: np.ndarray) -> np.ndarray:
    """Keep each candidate rung only if it lies below the last kept one by a 1e-12 margin."""
    if np.all(cand[1:] < cand[:-1] * (1 - 1e-12)):  # the harmonic pattern: all are kept
        return cand
    # past n ~ 5e5 harmonic rungs sit closer than the 1e-12 * k_sup collision
    # tolerance, so two can be nudged onto one value; each drop moves the
    # reference rung, so decide one candidate at a time
    kept = [cand[0]]
    for x in cand[1:].tolist():
        if x < kept[-1] * (1 - 1e-12):
            kept.append(x)
    return np.array(kept)


def default_ladder(pack: DiscretePack) -> ScaleLadder:
    """Ladder with the harmonic pattern r_n = k_sup / (2n), nudged off sample values.

    Rungs that collide with an attained boundary distance move to the midpoint
    of the gap below, so W_n and its closure never coincide on sample values.
    The top rung is 2 k_sup; the ladder is truncated one rung below the floor.
    """
    k = pack.k_sup
    values = sample_levels(pack)
    floor = float(values.min())
    # k / (2n) is below the floor from n = k / (2 floor) + 1 on, and nudges only lower a rung
    n_max = int(k / (2.0 * floor)) + 2
    if n_max > 10_000_000:
        raise BadLadder("runaway ladder construction")
    n = np.arange(1, n_max + 1, dtype=float)
    r = k / (2.0 * n)
    j = np.searchsorted(values, r)
    up, down = np.minimum(j, len(values) - 1), np.maximum(j - 1, 0)
    hit_up = (j < len(values)) & (np.abs(values[up] - r) <= _COLLISION_TOL * k)
    hit_down = ~hit_up & (j > 0) & (np.abs(values[down] - r) <= _COLLISION_TOL * k)
    hit = np.where(hit_up, up, down)
    # nudge just below the colliding value: midpoint with the closer of the
    # next sample value down and the next harmonic rung
    below = np.where(hit > 0, values[np.maximum(hit - 1, 0)], 0.0)
    below = np.maximum(below, k / (2.0 * (n + 1)))
    r = np.where(hit_up | hit_down, (values[hit] + below) / 2.0, r)
    kept = _thin_rungs(np.concatenate(([2.0 * k], r)))
    below_floor = np.flatnonzero(kept < floor)
    if not below_floor.size:
        raise BadLadder("runaway ladder construction")
    radii = kept[: below_floor[0] + 1].tolist()
    # margin below the sample floor so refinement recursions can take a final step
    radii.append(radii[-1] / 2.0)
    radii.append(radii[-1] / 2.0)
    ladder = ScaleLadder(tuple(radii))
    ladder.validate_for(pack)
    return ladder


def w_set(pack: DiscretePack, r: float, closed: bool = False) -> frozenset[int]:
    """The neighborhood W = B(X, r) over all pack points (closure with closed=True)."""
    bd = pack.boundary_dist
    sel = bd <= r if closed else bd < r
    return frozenset(np.flatnonzero(sel).tolist())


def annulus(pack: DiscretePack, ladder: ScaleLadder, n: int) -> frozenset[int]:
    """Interior points p with r_{n+2} < d(p, X) < r_n."""
    if n < 0 or n + 2 >= len(ladder):
        raise IndexOutOfLadder(f"annulus {n} needs rungs {n} and {n + 2}")
    bd = pack.boundary_dist
    sel = (bd > ladder[n + 2]) & (bd < ladder[n])
    return frozenset(np.flatnonzero(sel).tolist()) & pack.interior


def boundary_line(pack: DiscretePack) -> list[float]:
    """Positions of the boundary points, in id order, along a 1-dimensional
    base: the x coordinate on interval_cylinder, the angle in [0, 2pi) on
    circle_in_disk."""
    coords = pack.coords
    width = 2 if pack.kind == "circle_in_disk" else 1  # the angle needs x and y
    if coords is None or pack.kind not in ("interval_cylinder", "circle_in_disk") or coords.shape[1] < width:
        raise ProviderMismatch(f"no 1-dimensional coordinates for kind {pack.kind!r}")
    if pack.kind == "circle_in_disk":
        return [math.atan2(coords[b][1], coords[b][0]) % (2 * math.pi) for b in sorted(pack.boundary)]
    return [float(coords[b][0]) for b in sorted(pack.boundary)]


def h_profile(pack: DiscretePack, ladder: ScaleLadder) -> ModulusCurve:
    """Boundary-approach profile sampled on the ladder.

    h(t) = max over x in X of d(x, {p : d(p,X) >= t}) for t <= k_sup, and
    k_sup beyond; nondecreasing in t with limit 0 at fine scales.
    """
    bidx = sorted(pack.boundary)
    bd = pack.boundary_dist
    order = np.argsort(-bd, kind="stable")  # deepest-from-boundary first
    # far[j]: h over the j + 1 deepest points, a running minimum over X then a max
    far = np.minimum.accumulate(pack.dist[np.ix_(bidx, order)], axis=1).max(axis=0)
    radii = ladder.array
    taken = np.searchsorted(-bd[order], -radii, side="right")  # points with d(p, X) >= t
    inside = radii < pack.k_sup
    empty = inside & (taken == 0)
    if empty.any():
        t = float(radii[np.argmax(empty)])
        raise EmptyComplement(f"no point at boundary distance >= {t} < k_sup")
    values = np.where(inside, far[np.maximum(taken - 1, 0)], float(pack.k_sup))
    return ModulusCurve(np.column_stack([radii, values]))


# -- generators ----------------------------------------------------------------


@dataclass(frozen=True)
class PackKind:
    """A generator family tag plus its parameters."""

    tag: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.tag, str) or self.tag not in KNOWN_DIMS:
            raise BadParams(f"unknown pack kind {self.tag!r}")

    @property
    def known_dim(self) -> int:
        return KNOWN_DIMS[self.tag]


def _by_row_blocks(n: int, rows_of: Callable[[slice], np.ndarray], dtype=float) -> np.ndarray:
    """The n x n matrix whose rows ``rows`` are ``rows_of(rows)``, filled a
    block of about ``_BLOCK`` entries at a time, so no temporary is n x n."""
    out = np.empty((n, n), dtype=dtype)
    step = max(1, _BLOCK // n)
    for r in range(0, n, step):
        rows = slice(r, r + step)
        out[rows] = rows_of(rows)
    return out


def _geometric_levels(n_levels: int, ratio: float, top: float = 1.0) -> list[float]:
    if n_levels < 1 or not (0 < ratio < 1) or top <= 0:
        raise BadParams("need n_levels >= 1 and 0 < ratio < 1")
    return [top * ratio**i for i in range(n_levels)]


def _product_pack(
    base_coords: np.ndarray | None,
    base_dist: np.ndarray,
    levels: Sequence[float],
    meta: dict,
) -> DiscretePack:
    """Assemble X x levels with the sum metric d_X(x, y) + |t - s|; boundary is X at level 0.

    Point ``nb * (i + 1) + b`` is base point b at ``levels[i]``, and points
    0..nb-1 are the boundary.  ``meta`` lists every point's base id and level
    as ``base_of`` and ``level_of``.  ``boundary_dist`` is the level exactly,
    and ``nearest_boundary`` the base id unless a base distance vanishes in
    float beside a level.  Coordinates go into meta when the base has them.
    """
    nb = base_dist.shape[0]
    bo = np.tile(np.arange(nb), len(levels) + 1)
    lv = np.repeat(np.array([0.0, *levels], dtype=float), nb)
    dist = _by_row_blocks(len(lv), lambda rows: base_dist[np.ix_(bo[rows], bo)] + np.abs(lv[rows, None] - lv[None, :]))
    meta = dict(meta, levels=[float(l) for l in levels], base_of=bo.tolist(), level_of=lv.tolist())
    if base_coords is not None:
        meta["coords"] = np.column_stack([base_coords[bo], lv]).tolist()
    return _finish_pack(DiscretePack(dist, frozenset(range(nb)), float(max(levels)), float(min(levels)), meta))


def _gen_finite_cylinder(n_base: int = 3, n_levels: int = 6, spacing: float = 2.0, ratio: float = 0.4):
    if n_base < 1 or spacing <= 0:
        raise BadParams("finite_cylinder needs n_base >= 1 and spacing > 0")
    base = spacing * np.arange(n_base, dtype=float)
    bdist = np.abs(base[:, None] - base[None, :])
    levels = _geometric_levels(n_levels, ratio)
    return _product_pack(base, bdist, levels, {"kind": "finite_cylinder", "known_dim": 0, "cylindrical": True})


def _gen_interval_cylinder(n_base: int = 65, n_levels: int = 12, ratio: float = 0.4):
    if n_base < 2:
        raise BadParams("interval_cylinder needs n_base >= 2")
    base = np.linspace(0.0, 1.0, n_base)
    bdist = np.abs(base[:, None] - base[None, :])
    levels = _geometric_levels(n_levels, ratio)
    return _product_pack(base, bdist, levels, {"kind": "interval_cylinder", "known_dim": 1, "cylindrical": True})


def _gen_cube_face(n_side: int = 5, n_levels: int = 8, ratio: float = 0.4):
    if n_side < 2:
        raise BadParams("cube_face needs n_side >= 2")
    g = np.linspace(0.0, 1.0, n_side)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    base = np.column_stack([xx.ravel(), yy.ravel()])
    bdist = np.abs(base[:, None, :] - base[None, :, :]).sum(axis=2)
    levels = _geometric_levels(n_levels, ratio)
    return _product_pack(base, bdist, levels, {"kind": "cube_face", "known_dim": 2, "cylindrical": True})


def _gen_circle_in_disk(n_angles: int = 48, n_levels: int = 12, ratio: float = 0.4):
    """Unit circle as boundary, interior sampled on collar rings at radius 1 - t."""
    if n_angles < 3:
        raise BadParams("circle_in_disk needs n_angles >= 3")
    angles = 2 * np.pi * np.arange(n_angles) / n_angles
    levels = _geometric_levels(n_levels, ratio, top=0.5)
    coords = [np.column_stack([np.cos(angles), np.sin(angles)])]
    for t in levels:
        coords.append((1.0 - t) * coords[0])
    pts = np.vstack(coords)
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    # dx^2 + dy^2 in one add: the bits of a sum over the two coordinates, with no (rows, n, 2) temporary
    dist = _by_row_blocks(len(pts), lambda rows: np.sqrt((x[rows, None] - x) ** 2 + (y[rows, None] - y) ** 2))
    meta = {
        "kind": "circle_in_disk",
        "known_dim": 1,
        "cylindrical": True,
        "levels": [float(t) for t in levels],
        "coords": pts.tolist(),
        "circumference": 2 * np.pi,
    }
    k_sup, delta_res = float(max(levels)), float(min(levels))
    return _finish_pack(DiscretePack(dist, frozenset(range(n_angles)), k_sup, delta_res, meta))


def _van_der_corput(n: int) -> float:
    """Base-2 van der Corput point; a deterministic dense enumeration of [0,1]."""
    if n == 1:
        return 0.0
    if n == 2:
        return 1.0
    x, denom = 0.0, 1.0
    m = n - 2
    while m:
        denom *= 2.0
        x += (m & 1) / denom
        m >>= 1
    return x


def _gen_countable_example(n_y: int = 5):
    """Triangular pack over a dense sequence y_1..y_N of [0,1].

    The interior is the union over n of {y_1..y_n} x {1/n}; the boundary is
    the whole sequence at level 0.  Metric inherited from Y x [0,1] with the
    sum metric.
    """
    if n_y < 2:
        raise BadParams("countable_example needs n_y >= 2")
    ys = [_van_der_corput(i + 1) for i in range(n_y)]
    base_of, level_of = list(range(n_y)), [0.0] * n_y
    for n in range(1, n_y + 1):
        for j in range(n):
            base_of.append(j)
            level_of.append(1.0 / n)
    bo = np.array(base_of)
    lv = np.array(level_of)
    yv = np.array(ys)[bo]
    dist = _by_row_blocks(
        len(yv), lambda rows: np.abs(yv[rows, None] - yv[None, :]) + np.abs(lv[rows, None] - lv[None, :])
    )
    coords = np.column_stack([yv, lv])
    meta = {
        "kind": "countable_example",
        "known_dim": 0,
        "cylindrical": False,
        "levels": sorted({1.0 / n for n in range(1, n_y + 1)}, reverse=True),
        "coords": coords.tolist(),
    }
    return _finish_pack(DiscretePack(dist, frozenset(range(n_y)), k_sup=1.0, delta_res=1.0 / n_y, meta=meta))


_GENERATORS: dict[str, Callable] = {
    "finite_cylinder": _gen_finite_cylinder,
    "interval_cylinder": _gen_interval_cylinder,
    "circle_in_disk": _gen_circle_in_disk,
    "cube_face": _gen_cube_face,
    "countable_example": _gen_countable_example,
}


#: parameter name -> default, read off each generator's signature
_PARAM_DEFAULTS = {
    tag: {name: p.default for name, p in inspect.signature(gen).parameters.items()}
    for tag, gen in _GENERATORS.items()
}
#: parameter name -> int or float
_PARAM_TYPES = {tag: {name: type(d) for name, d in ds.items()} for tag, ds in _PARAM_DEFAULTS.items()}

#: the most points ``generate_pack`` builds: the float64 distance matrix alone
#: takes n^2 * 8 bytes, 2 GiB at this size
MAX_GENERATED_POINTS = 16_384


def _generated_points(tag: str, params: dict) -> int:
    """The point count of a generator call, in closed form, before anything is built.

    Negative counts read as 0, so no sign cancels a large factor; the
    generator rejects them itself.
    """
    p = {name: max(params.get(name, d), 0) for name, d in _PARAM_DEFAULTS[tag].items()}
    if tag == "countable_example":
        return p["n_y"] + p["n_y"] * (p["n_y"] + 1) // 2
    if tag == "cube_face":
        base = p["n_side"] ** 2
    elif tag == "circle_in_disk":
        base = p["n_angles"]
    else:
        base = p["n_base"]
    return base * (p["n_levels"] + 1)


def _generator_params(tag: str, params) -> dict:
    """``params`` checked against the generator's parameters: known names, an
    integer for an int parameter and a finite number for a float one.
    Returns them as plain ints and floats."""
    if not isinstance(params, dict):
        raise BadParams(f"{tag} parameters must be an object")
    types = _PARAM_TYPES[tag]
    out = {}
    for name, value in params.items():
        want = types.get(name)
        if want is None:
            raise BadParams(f"unknown parameter {name!r} for {tag}; known: {sorted(types)}")
        if not (_is_int(value) if want is int else _is_finite_number(value)):
            raise BadParams(f"{tag} parameter {name} must be {'an integer' if want is int else 'a finite number'}")
        out[name] = want(value)
    return out


def generate_pack(kind: PackKind | str, **params) -> DiscretePack:
    """Build a pack of the requested family; its known dimension is recorded in meta.

    Raises BadParams for an unknown parameter name, a parameter of the wrong
    type, a value the family rejects or a pack of more than
    ``MAX_GENERATED_POINTS`` points.  The pack records the call, so that
    ``pack_to_json`` can write it as that call.
    """
    if isinstance(kind, str):
        kind = PackKind(kind, params)
    elif params:
        raise BadParams("pass parameters inside PackKind or as keywords, not both")
    params = _generator_params(kind.tag, kind.params)
    points = _generated_points(kind.tag, params)
    if points > MAX_GENERATED_POINTS:
        raise BadParams(f"{kind.tag} would have {points} points, over the limit {MAX_GENERATED_POINTS}")
    pack = _GENERATORS[kind.tag](**params)
    object.__setattr__(pack, "_generator", {"kind": kind.tag, "params": params})
    return pack


# -- file formats ---------------------------------------------------------------


def read_json(text: str, source: str):
    """Parse JSON text, raising BadParams that names ``source`` if it is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadParams(f"{source} is not valid JSON: {exc}") from None


def pack_to_json(pack: DiscretePack) -> str:
    """The generator form ``{"generator": {"kind", "params"}}`` for a pack that
    ``generate_pack`` made, the dense form ``{points, dist, boundary, meta}``
    for any other."""
    if pack._generator is not None:
        return json.dumps({"generator": pack._generator}, sort_keys=True)
    return json.dumps(pack.to_json_dict(), sort_keys=True)


def pack_from_json(text: str) -> DiscretePack:
    """Load a pack file of either form; each load makes every check of
    ``validate_pack``, the full triangle check included.

    A generator-form file is rebuilt with ``generate_pack`` and then checked;
    a dense file goes through ``validate_pack`` once its points are a count
    or a list of integer ids and its dist is rows of finite numbers.
    """
    obj = read_json(text, "pack file")
    if isinstance(obj, dict) and "generator" in obj:
        return _generated_pack(obj)
    if not isinstance(obj, dict) or not {"points", "dist", "boundary"} <= obj.keys():
        raise BadParams("pack file must be an object with points, dist and boundary, or with a generator")
    # validate_pack reads a string of n characters as n points, and numpy parses strings and booleans as distances
    points, dist = obj["points"], obj["dist"]
    if not (_is_int(points) or isinstance(points, list) and all(map(_is_int, points))):
        raise BadParams("pack file points must be a count or a list of integer ids")
    rows = isinstance(dist, list) and all(isinstance(row, list) for row in dist)
    if not (rows and _finite_numbers(list(chain.from_iterable(dist)))):
        raise BadParams("pack file dist must be rows of finite numbers")
    return validate_pack(points, dist, obj["boundary"], meta=obj.get("meta"))


def _generated_pack(obj: dict) -> DiscretePack:
    """The pack a generator-form file names, after ``validate_pack``'s checks."""
    if obj.keys() != {"generator"}:
        raise BadParams(f"a generator pack file holds the generator alone, not {sorted(obj)}")
    spec = obj["generator"]
    if not isinstance(spec, dict) or spec.keys() != {"kind", "params"}:
        raise BadParams("the generator must be an object with a kind and params")
    pack = generate_pack(PackKind(spec["kind"], spec["params"]))
    _check_fields(pack.dist[None], [pack.boundary], [pack.meta])
    _depth_range(pack.boundary_dist[None], pack.nearest_boundary[None])
    return pack


def ladder_to_json(ladder: ScaleLadder) -> str:
    return json.dumps(ladder.to_json())


def ladder_from_json(text: str) -> ScaleLadder:
    radii = read_json(text, "ladder file")
    if not isinstance(radii, list):
        raise BadLadder("ladder file must be a JSON array of radii")
    # checked as written, so no string or boolean turns into a radius, then held as floats
    return ScaleLadder(tuple(ScaleLadder(tuple(radii)).to_json()))
