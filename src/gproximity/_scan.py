"""Internal vectorized edge scans.

Per-edge checks (contraction factors, CRR inequalities, nonexpansiveness)
reduce to folds over arrays D = d(x, y), DF = d(Fx, Gy) and
U = d(x, Fx) + d(y, Gy), streamed in blocks so complete graphs over large
sample grids never materialize the full pair matrix at once.

Half-triangle rule: a complete graph without an A x B rectangle, under one
map on a metric that is exactly symmetric, makes D, DF and U bitwise
symmetric (coordinate distances square the coordinate differences and add
them in one order; a tabulated metric must equal its transpose).  Every
fold value of an elementwise function of (D, DF, U) is then symmetric too,
so the first arg-max in row-major order has i <= j.  The row block starting
at row s then scans only columns s..n-1: a row-major subsequence holding
every i <= j, hence the same maximum, the same first arg-max edge and the
same first zero-length edge as the full square.

Block size: ``_BLOCK_ELEMS`` pairs, 512 KiB per float64 array, so D, DF, U
and the certificate's scratch buffer together stay near a 2 MiB L2 cache.
Streaming contract: a block's arrays are valid until the next block is
requested; a consumer that keeps values copies them.
"""
from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .graph import contains_pairs, edge_index, first_unpreserved
from .metric import DEFAULT_TOL, TabulatedSpace, euclidean

_BLOCK_ELEMS = 1 << 16


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


def exactly_symmetric(space) -> bool:
    """Whether d(x, y) and d(y, x) are bitwise equal for every pair."""
    if isinstance(space, TabulatedSpace):
        return bool(np.array_equal(space.dist, space.dist.T))
    return True


class Certificate(NamedTuple):
    """One pass over a map's edges; each edge is the first (x, y) in scan order."""

    zero_edge: Optional[tuple]    # d(x, y) <= 0 while d(fx, fy) > DEFAULT_TOL
    ratio: float                  # max d(fx, fy) / d(x, y) over d(x, y) > 0, else 0
    ratio_edge: Optional[tuple]
    margin: Optional[float]       # max d(fx, fy) - d(x, y), None without edges
    margin_edge: Optional[tuple]
    reach: Optional[float]        # max d(fx, fy), None without edges
    reach_witness: Optional[tuple]  # (d, df, u) at the first edge reaching it


class EdgeScanner:
    """The edge engine of one map, or a map pair, on an instance's points.

    Holds the images, point arrays, self-distances and edge index, and streams
    (start, stop, D, DF, U) blocks over the edges at scan positions
    start..stop-1.  DF takes ``images_left`` on the I side and ``images_right``
    (default: the same) on the J side; ``rows``/``cols`` limit the edges to a
    rectangle such as A x B.

    Listed edges (every graph but the complete one) are scanned in edge-index
    order, ``_BLOCK_ELEMS`` at a time.  A complete graph is scanned in row
    blocks of about ``_BLOCK_ELEMS`` pairs; when ``symmetric`` (one map, the
    full point set, an exactly symmetric metric) the block starting at row s
    covers columns s..n-1 only, which changes no fold result (see the module
    docstring), else every column.  Scan positions count the visited edges.
    A block's arrays are valid until the next block.
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
        self.symmetric = (self.edges is None and rows is None and cols is None
                          and images_right is None and exactly_symmetric(space))

    @cached_property
    def _layout(self):
        """The row blocks of a complete-graph scan, one array row per block:
        first row rank, end row rank, first column rank, first scan position."""
        nr, nc = self.rows.size, self.cols.size
        out, s, pos = [], 0, 0
        while s < nr and nc:
            lo = s if self.symmetric else 0
            e = min(nr, s + max(1, _BLOCK_ELEMS // (nc - lo)))
            out.append((s, e, lo, pos))
            pos += (e - s) * (nc - lo)
            s = e
        return np.array(out, dtype=np.intp).reshape(-1, 4)

    def edge_pairs(self, pos):
        """Point indices (I, J) of the edges at scan positions ``pos``."""
        pos = np.asarray(pos, dtype=np.intp)
        if self.edges is not None:
            return self.edges[0][pos], self.edges[1][pos]
        layout = self._layout
        b = np.searchsorted(layout[:, 3], pos, side="right") - 1
        s, lo = layout[b, 0], layout[b, 2]
        r, c = np.divmod(pos - layout[b, 3], self.cols.size - lo)
        return self.rows[s + r], self.cols[lo + c]

    def edge_at(self, k: int):
        """(i, j) of the edge at position k of the scan order."""
        i, j = self.edge_pairs([k])
        return int(i[0]), int(j[0])

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
        """Yield (start, stop, D, DF, U) in row-major scan order; the arrays
        are valid until the next block."""
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
        pc = self.P[self.cols]
        fc = self.FR[self.cols]
        uc = self.self_right[self.cols]
        for s, e, lo, start in self._layout.tolist():
            r = self.rows[s:e]
            d = cross_dists(self.space, self.P[r], pc[lo:]).ravel()
            df = cross_dists(self.space, self.FL[r], fc[lo:]).ravel()
            u = (self.self_left[r][:, None] + uc[None, lo:]).ravel()
            yield start, start + d.size, d, df, u

    @cached_property
    def certificate(self) -> Certificate:
        """Zero-edge check, largest ratio, nonexpansive margin and largest
        image distance, in one pass."""
        zero = None
        ratio, ratio_at = 0.0, None
        margin = margin_at = None
        reach = reach_witness = None
        scratch = np.empty(0)
        for start, _stop, d, df, u in self.blocks():
            if d.size == 0:
                continue
            if scratch.size < d.size:
                scratch = np.empty(d.size)
            buf = scratch[:d.size]
            if zero is None:
                bad = np.flatnonzero((d <= 0.0) & (df > DEFAULT_TOL))
                if bad.size:
                    zero = start + int(bad[0])
            mask = d > 0.0
            if mask.any():
                buf.fill(-np.inf)
                np.divide(df, d, out=buf, where=mask)
                p = int(np.argmax(buf))
                if ratio_at is None or buf[p] > ratio:
                    ratio, ratio_at = float(buf[p]), start + p
            np.subtract(df, d, out=buf)
            p = int(np.argmax(buf))
            if margin is None or buf[p] > margin:
                margin, margin_at = float(buf[p]), start + p
            p = int(np.argmax(df))
            if reach is None or df[p] > reach:
                reach, reach_witness = float(df[p]), (float(d[p]), float(df[p]), float(u[p]))
        return Certificate(self._edge(zero), ratio, self._edge(ratio_at),
                           margin, self._edge(margin_at), reach, reach_witness)

    def _edge(self, k):
        return None if k is None else self.edge_points(*self.edge_at(k))


def fold_max(scanner: EdgeScanner, value_fn):
    """Max of value_fn(D, DF, U) over all edges, with the first arg-max edge.

    value_fn must be elementwise, so that the half-triangle scan of a
    symmetric engine leaves the result unchanged.

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
