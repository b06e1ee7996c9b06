"""Internal vectorized edge scans.

Per-edge checks (contraction factors, CRR inequalities, nonexpansiveness)
reduce to folds over arrays D = d(x, y), DF = d(Fx, Gy) and
U = d(x, Fx) + d(y, Gy), streamed in blocks so complete graphs over large
sample grids never materialize the full pair matrix at once.
"""
from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .graph import contains_pairs, edge_index, first_unpreserved
from .metric import DEFAULT_TOL, TabulatedSpace, euclidean

_BLOCK_ELEMS = 2_000_000


def point_array(space, pts):
    if isinstance(space, TabulatedSpace):
        return np.asarray(pts, dtype=np.intp)
    arr = np.asarray([tuple(p) for p in pts], dtype=float)
    return arr.reshape(len(pts), -1)


def elem_dists(space, p, q):
    """Distances between aligned point arrays."""
    if isinstance(space, TabulatedSpace):
        return np.asarray(space.dist[p, q], dtype=float)
    return euclidean(p, q)


def cross_dists(space, p, q):
    """Full |p| x |q| distance matrix."""
    if isinstance(space, TabulatedSpace):
        return np.asarray(space.dist[np.ix_(p, q)], dtype=float)
    return euclidean(p, q, cross=True)


class Certificate(NamedTuple):
    """One pass over a map's edges; each edge is the first (x, y) in scan order."""

    zero_edge: Optional[tuple]    # d(x, y) <= 0 while d(fx, fy) > DEFAULT_TOL
    ratio: float                  # max d(fx, fy) / d(x, y) over d(x, y) > 0, else 0
    ratio_edge: Optional[tuple]
    margin: Optional[float]       # max d(fx, fy) - d(x, y), None without edges
    margin_edge: Optional[tuple]


class EdgeScanner:
    """The edge engine of one map, or a map pair, on an instance's points.

    Holds the images, point arrays, self-distances and edge index, and streams
    (start, stop, D, DF, U) blocks over the edges at scan positions
    start..stop-1.  DF takes ``images_left`` on the I side and ``images_right``
    (default: the same) on the J side; ``rows``/``cols`` limit the edges to a
    rectangle such as A x B.
    """

    def __init__(self, space, points, graph, images_left, images_right=None,
                 rows=None, cols=None):
        self.space = space
        self.points = tuple(points)
        self.graph = graph
        n = len(self.points)
        self.images_left = tuple(images_left)
        self.images_right = self.images_left if images_right is None else tuple(images_right)
        self.P = point_array(space, self.points)
        self.FL = point_array(space, self.images_left)
        self.FR = self.FL if images_right is None else point_array(space, self.images_right)
        self.self_left = elem_dists(space, self.P, self.FL)
        self.self_right = self.self_left if images_right is None else elem_dists(space, self.P, self.FR)
        self.rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
        self.cols = np.arange(n) if cols is None else np.asarray(cols, dtype=np.intp)
        self.index = edge_index(graph, self.points)
        self.edges = self.index if rows is None and cols is None else \
            edge_index(graph, self.points, self.rows, self.cols)

    def edge_at(self, k: int):
        """(i, j) of the edge at position k of the scan order."""
        if self.edges is not None:
            return int(self.edges[0][k]), int(self.edges[1][k])
        r, c = divmod(k, int(self.cols.size))
        return int(self.rows[r]), int(self.cols[c])

    def edge_points(self, i: int, j: int):
        return self.points[i], self.points[j]

    @cached_property
    def on_edge(self):
        """Per point p: whether (p, Fp) is an edge, F the map of the I side."""
        k = np.arange(len(self.points))
        return contains_pairs(self.graph, self.points, self.index, self.points,
                              self.images_left, k, k)

    @cached_property
    def preserved(self):
        """(ok, first violating edge): each scanned edge (x, y) keeps (Fx, Fy)
        and, for a pair, (Gx, Gy) an edge of the graph."""
        images = [self.images_left]
        if self.images_right is not self.images_left:
            images.append(self.images_right)
        k = first_unpreserved(self.graph, self.points, self.index, self.edges, *images)
        return (True, None) if k is None else (False, self._edge(k))

    def blocks(self):
        """Yield (start, stop, D, DF, U) in deterministic lexicographic order."""
        if self.edges is not None:
            i, j = self.edges
            for s in range(0, i.size, _BLOCK_ELEMS):
                bi = i[s:s + _BLOCK_ELEMS]
                bj = j[s:s + _BLOCK_ELEMS]
                d = elem_dists(self.space, self.P[bi], self.P[bj])
                df = elem_dists(self.space, self.FL[bi], self.FR[bj])
                u = self.self_left[bi] + self.self_right[bj]
                yield s, s + bi.size, d, df, u
            return
        nc = self.cols.size
        if nc == 0 or self.rows.size == 0:
            return
        rb = max(1, _BLOCK_ELEMS // nc)
        pc = self.P[self.cols]
        fc = self.FR[self.cols]
        uc = self.self_right[self.cols]
        for s in range(0, self.rows.size, rb):
            r = self.rows[s:s + rb]
            d = cross_dists(self.space, self.P[r], pc).ravel()
            df = cross_dists(self.space, self.FL[r], fc).ravel()
            u = (self.self_left[r][:, None] + uc[None, :]).ravel()
            yield s * nc, (s + r.size) * nc, d, df, u

    @cached_property
    def certificate(self) -> Certificate:
        """Zero-edge check, largest ratio and nonexpansive margin, in one pass."""
        zero = None
        ratio, ratio_at = 0.0, None
        margin, margin_at = None, None
        for start, _stop, d, df, _u in self.blocks():
            if d.size == 0:
                continue
            if zero is None:
                bad = np.flatnonzero((d <= 0.0) & (df > DEFAULT_TOL))
                if bad.size:
                    zero = start + int(bad[0])
            mask = d > 0.0
            if mask.any():
                ratios = np.where(mask, df / np.where(mask, d, 1.0), -np.inf)
                p = int(np.argmax(ratios))
                if ratio_at is None or ratios[p] > ratio:
                    ratio, ratio_at = float(ratios[p]), start + p
            gaps = df - d
            p = int(np.argmax(gaps))
            if margin is None or gaps[p] > margin:
                margin, margin_at = float(gaps[p]), start + p
        return Certificate(self._edge(zero), ratio, self._edge(ratio_at),
                           margin, self._edge(margin_at))

    def _edge(self, k):
        return None if k is None else self.edge_points(*self.edge_at(k))


def fold_max(scanner: EdgeScanner, value_fn):
    """Max of value_fn(D, DF, U) over all edges, with the first arg-max edge.

    Returns (max_value, (i, j), (d, df, u)) with the winning edge's values,
    or (None, None, None) when there are no edges.
    """
    best = best_at = best_vals = None
    for start, _stop, d, df, u in scanner.blocks():
        if d.size == 0:
            continue
        vals = value_fn(d, df, u)
        pos = int(np.argmax(vals))
        v = float(vals[pos])
        if best is None or v > best:
            best = v
            best_at = start + pos
            best_vals = (float(d[pos]), float(df[pos]), float(u[pos]))
    if best is None:
        return None, None, None
    return best, scanner.edge_at(best_at), best_vals
