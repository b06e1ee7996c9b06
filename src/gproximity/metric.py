"""Metric spaces with two distinguished subsets, and the basic set distances.

Two space kinds are supported: tabulated (an explicit distance matrix,
points are integer indices) and coordinate (points are tuples of floats
with the Euclidean metric).  Coordinate subsets carry a finite sample grid
plus an optional region membership test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from ._constants import DEFAULT_TOL
from .errors import DomainError, StructuralError


def within_epsilon(residual, epsilon: float, tol: float):
    """The residual test of the iteration schemes and set enumerators, elementwise."""
    return residual <= epsilon + tol

#: Pairs per block of every blocked pass (edge scans, cross-distance chunks,
#: triangle checks, set-distance folds): bounds their temporaries.
_BLOCK_ELEMS = 1 << 16


@dataclass(frozen=True)
class Violation:
    axiom: str
    where: tuple
    detail: str

    def __str__(self):
        return f"{self.axiom} at {self.where}: {self.detail}"


#: Violations of each metric axiom that ``validate_metric`` keeps, the first
#: in scan order; it counts the rest.
_KEPT_VIOLATIONS = 1000


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple = ()
    omitted: int = 0  # violations found beyond the kept ones

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self):
        return self.ok


@dataclass(frozen=True, eq=False)
class TabulatedSpace:
    """Finite metric space given by an explicit n x n distance matrix,
    compared and hashed by identity.  Its distance kernel gathers from the
    flattened matrix at row offsets (index * n) plus column indices, into a
    scratch of those flat indices."""

    dist: np.ndarray
    scratch_dtype = np.intp

    def __post_init__(self):
        m = np.asarray(self.dist, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StructuralError(f"distance matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise StructuralError("distance matrix has non-finite entries")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "dist", m)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @cached_property
    def symmetric(self) -> bool:
        """Whether d(x, y) == d(y, x) bitwise for every pair, decided once."""
        return np.array_equal(self.dist, self.dist.T)

    def distance(self, x: int, y: int) -> float:
        return float(self.dist[x, y])

    def row_form(self, arr):
        """Row-side kernel form of a point array: each index's row offset."""
        return self.col_form(arr) * self.n

    def col_form(self, arr):
        """Column-side kernel form of a point array: its checked indices."""
        arr = np.asarray(arr, dtype=np.intp)
        if arr.size and (arr.min() < 0 or arr.max() >= self.n):
            raise DomainError(f"point index outside 0..{self.n - 1}")
        return arr

    def kernel(self, p, q, cross=False, out=None, scratch=None):
        """d between kernel forms: ``euclidean``'s arguments and buffer rules."""
        shape = (p.size, q.size) if cross else p.shape
        idx = None if scratch is None else scratch[:math.prod(shape)].reshape(shape)
        idx = (np.add.outer if cross else np.add)(p, q, out=idx)
        return np.take(self.dist, idx, out=out, mode="clip")


@dataclass(frozen=True)
class CoordinateSpace:
    """R^d with the Euclidean metric; points are tuples of floats.  Its
    distance kernel is ``euclidean`` on coordinate-major copies of the points."""

    dimension: int
    scratch_dtype = float
    symmetric = True  # d(y, x) squares d(x, y)'s negated differences in its order

    def distance(self, x, y) -> float:
        """``euclidean``'s operations in its order, so the same bits."""
        total = 0.0
        for a, b in zip(x, y, strict=True):
            total += (a - b) * (a - b)
        return math.sqrt(total)

    def row_form(self, arr):
        """Kernel form of a point array, either side: one row per coordinate."""
        return np.ascontiguousarray(arr.T)

    col_form = row_form

    def kernel(self, p, q, cross=False, out=None, scratch=None):
        return euclidean(p, q, cross, out, scratch)


def point_array(space, pts):
    """Points as an array: indices of a table, else one row per point."""
    if isinstance(space, TabulatedSpace):
        return np.asarray(pts, dtype=np.intp)
    arr = np.asarray([tuple(p) for p in pts], dtype=float)
    return arr.reshape(len(pts), -1)


def euclidean(p, q, cross: bool = False, out=None, scratch=None) -> np.ndarray:
    """Euclidean distances between the points of two coordinate-major arrays.

    ``p`` and ``q`` have one row per coordinate (shape (dim, n)), each row
    contiguous.  Aligned points by default; ``cross=True`` gives the
    |p| x |q| matrix, filled in row chunks of about ``_BLOCK_ELEMS`` pairs.
    The first coordinate's differences are written into ``out`` and squared
    in place; each later coordinate's go into ``scratch``, are squared there
    and added into ``out``, which is then square-rooted in place.  These are
    the operations of sqrt(sum((p - q) ** 2)) in its order, so the values
    are bitwise the same, and no |p| x |q| x dim array is formed.

    Buffers: ``out`` (the result's shape) and ``scratch`` (a flat float array
    of at least one chunk, read only when dim > 1) belong to the caller,
    which may reuse them from call to call; both are overwritten.  Without
    them the result and one chunk of scratch are allocated.
    """
    if not cross:
        if out is None:
            out = np.empty(p.shape[1])
        return _root_sum_sq(np.subtract, p, q, out, scratch)
    n, m = p.shape[1], q.shape[1]
    if out is None:
        out = np.empty((n, m))
    rows = max(1, _BLOCK_ELEMS // max(m, 1))
    if scratch is None and len(p) > 1:
        scratch = np.empty(min(rows, n) * m)
    for s in range(0, n, rows):
        _root_sum_sq(np.subtract.outer, p[:, s:s + rows], q, out[s:s + rows], scratch)
    return out


def _root_sum_sq(diff, p, q, out, scratch):
    diff(p[0], q[0], out=out)
    np.multiply(out, out, out=out)
    if len(p) > 1:
        t = (np.empty(out.shape) if scratch is None
             else scratch[:out.size].reshape(out.shape))
        for k in range(1, len(p)):
            diff(p[k], q[k], out=t)
            np.multiply(t, t, out=t)
            np.add(out, t, out=out)
    return np.sqrt(out, out=out)


@dataclass(frozen=True)
class SubsetPair:
    """The two distinguished subsets A and B.

    ``a`` and ``b`` hold the stored sample points (indices or coordinate
    tuples).  For coordinate instances ``a_contains``/``b_contains`` give
    the exact region membership tests used by cyclicity checks; tabulated
    instances fall back to sample membership.
    """

    a: tuple
    b: tuple
    a_contains: Optional[Callable] = None
    b_contains: Optional[Callable] = None

    def __post_init__(self):
        if not self.a or not self.b:
            raise DomainError("subsets A and B must be nonempty")
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))

    @cached_property
    def _a_set(self):
        return frozenset(self.a)

    @cached_property
    def _b_set(self):
        return frozenset(self.b)

    def in_a(self, x) -> bool:
        if self.a_contains is not None:
            return bool(self.a_contains(x))
        return x in self._a_set

    def in_b(self, x) -> bool:
        if self.b_contains is not None:
            return bool(self.b_contains(x))
        return x in self._b_set

    @cached_property
    def points(self) -> tuple:
        """A followed by B, each point once, in stored order."""
        return tuple(self.position)

    @cached_property
    def position(self) -> dict:
        """Point -> its index in ``points``: the one such map of an instance."""
        return point_positions(self.a + self.b)


def point_positions(points) -> dict:
    """Each distinct point -> its index among them, in first-seen order."""
    return {p: k for k, p in enumerate(dict.fromkeys(points))}


def validate_metric(space, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the metric axioms; coordinate spaces hold by construction.  The
    first ``_KEPT_VIOLATIONS`` violations of each axiom, in scan order, are
    kept, and the rest are counted in ``omitted``."""
    if not tol >= 0:
        raise DomainError("tolerance must be nonnegative")
    if isinstance(space, CoordinateSpace):
        return ValidationReport()
    d = space.dist
    n = space.n
    out, omitted = [], 0

    def head(hits, room=_KEPT_VIOLATIONS):
        nonlocal omitted
        omitted += max(0, len(hits) - room)
        return hits[:room]

    for i in head(np.flatnonzero(np.abs(np.diag(d)) > tol)):
        out.append(Violation("identity", (int(i),), f"d({i},{i}) = {float(d[i, i])!r} != 0"))
    for i, j in head(np.argwhere(np.triu(np.abs(d - d.T), k=1) > tol)):
        out.append(Violation("symmetry", (int(i), int(j)),
                             f"d({i},{j}) = {float(d[i, j])!r} but d({j},{i}) = {float(d[j, i])!r}"))
    for i, j in head(np.argwhere(d < -tol)):
        out.append(Violation("nonnegativity", (int(i), int(j)), f"d({i},{j}) = {float(d[i, j])!r} < 0"))
    # d[i,j] <= d[i,k] + d[k,j] + tol for every triple, in blocks of i so
    # that no n x n x n array is formed
    step = max(1, _BLOCK_ELEMS // max(n * n, 1))
    room = _KEPT_VIOLATIONS
    for i0 in range(0, n, step):
        excess = d[i0:i0 + step, :, None] + d[None, :, :]  # [i, k, j]
        np.subtract(d[i0:i0 + step, None, :], excess, out=excess)
        if not excess.max() > tol:
            continue
        hits = head(np.argwhere(excess > tol), room)
        room -= len(hits)
        for i, k, j in hits:
            i += i0
            out.append(Violation("triangle", (int(i), int(k), int(j)),
                                 f"d({i},{j}) = {float(d[i, j])!r} > d({i},{k}) + d({k},{j}) = {float(d[i, k] + d[k, j])!r}"))
    return ValidationReport(tuple(out), omitted)


def validate_sets(space, sets: SubsetPair) -> ValidationReport:
    """Structural checks on A and B against the space."""
    out = []
    if isinstance(space, TabulatedSpace):
        n = space.n
        for label, pts in (("A", sets.a), ("B", sets.b)):
            for p in pts:
                if not isinstance(p, (int, np.integer)) or not (0 <= p < n):
                    out.append(Violation("subset", (label, p), f"index {p!r} outside 0..{n - 1}"))
        covered = set(sets.a) | set(sets.b)
        missing = sorted(set(range(n)) - covered)
        if missing:
            out.append(Violation("coverage", tuple(missing),
                                 "A union B must cover every tabulated point"))
    else:
        dim = space.dimension
        for label, pts in (("A", sets.a), ("B", sets.b)):
            for p in pts:
                if len(p) != dim:
                    out.append(Violation("subset", (label, p), f"dimension {len(p)} != {dim}"))
    return ValidationReport(tuple(out))


def pair_distance(space, sets: SubsetPair) -> float:
    """min over a in A, b in B of d(a, b), evaluated on the stored samples;
    0.0 with no fold when coordinate sets share a point, whose distance to
    itself is +0.0 and nothing lies below it.  Tables always fold."""
    if isinstance(space, CoordinateSpace) and not sets._a_set.isdisjoint(sets.b):
        return 0.0
    return _fold_cross(space, point_array(space, sets.a), point_array(space, sets.b), np.min)


def set_diameter(space, points) -> float:
    """max over x, y in S of d(x, y); a singleton has diameter 0."""
    pts = tuple(points)
    if not pts:
        raise DomainError("diameter of the empty set is undefined")
    return array_diameter(space, point_array(space, pts))


def array_diameter(space, arr) -> float:
    """``set_diameter`` of the rows of a non-empty point array."""
    return 0.0 if len(arr) == 1 else _fold_cross(space, arr, arr, np.max)


def _fold_cross(space, xs, ys, reduce) -> float:
    """reduce (np.min or np.max) of d(x, y) over the rows of point arrays xs
    x ys, folded over row blocks of at most _BLOCK_ELEMS pairs, each computed
    into one buffer, so the full matrix never exists."""
    p, q = space.row_form(xs), space.col_form(ys)
    n, m = len(xs), len(ys)
    rows = max(1, _BLOCK_ELEMS // m)
    buf = np.empty(min(rows, n) * m)
    scratch = np.empty(buf.size, dtype=space.scratch_dtype)
    folds = []
    for s in range(0, n, rows):
        block = buf[:min(rows, n - s) * m].reshape(-1, m)
        folds.append(reduce(space.kernel(p[..., s:s + rows], q, True, block, scratch)))
    return float(reduce(folds))
