"""Internal vectorized edge scans.

Per-edge checks reduce to folds over arrays D = d(x, y), DF = d(Fx, Gy) and
U = d(x, Fx) + d(y, Gy), streamed in blocks so complete graphs over large
sample grids never materialize the full pair matrix at once.  Every check is
DF <= a D + b U + c: (alpha, 0, 0) for a g-contraction, (1, 0, 0) for
nonexpansiveness, (alpha, beta, gamma d(A, B)) for CRR constants.
``fold_max`` folds its excess; the certificate pass folds the zero-length
edges, ratio, margin and largest DF, which decide the first two classes.
Each pass computes only what its consumer reads: U only for a fold with a
nonzero b, and a caller that needs only to know whether the map contracts
gets a certificate pass that stops at the first block refuting it.

Half-triangle rule: a complete graph without an A x B rectangle, under one
map on a metric that is exactly symmetric, makes D, DF and U bitwise
symmetric (coordinate distances square the coordinate differences and add
them in one order; a tabulated metric must equal its transpose).  Every
fold value of an elementwise function of (D, DF, U) is then symmetric too,
so the first arg-max in row-major order has i <= j.  The row block starting
at row s then scans only columns s..n-1: a row-major subsequence holding
every i <= j, hence the same maximum, the same first arg-max edge and the
same first zero-length edge as the full square.

Buffers: an engine holds the kernel forms of its points and images (the
space's ``row_form`` and ``col_form``), built once.  Each pass of
``blocks()`` allocates DF, the D and U its consumer reads, and one kernel
scratch array once, at the size of its largest block: at most
``_BLOCK_ELEMS`` pairs unless one row is longer, 512 KiB per float64
array, so that with a fold's own buffers, also allocated once per pass,
they stay near a 2 MiB L2 cache.  The space's ``kernel`` writes every
block into them in place.

Streaming contract: a block is (pairs, D, DF, U); ``pairs(p)`` gives the
point indices (I, J) of the block's edges at offsets p, an int or an array.
Its arrays are views of the pass's buffers, valid until the next block is
requested, which overwrites them.  A consumer that keeps values past that
point copies them.
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .graph import contains_pairs, first_unpreserved, image_positions
from .metric import _BLOCK_ELEMS, point_array


def elem_dists(space, p, q):
    """Distances between aligned point arrays, in a new array."""
    return space.kernel(space.row_form(p), space.col_form(q))


def cross_dists(space, p, q):
    """Full |p| x |q| distance matrix of two point arrays, in a new array."""
    return space.kernel(space.row_form(p), space.col_form(q), cross=True)


def _gather(form, idx, buf):
    """form[..., idx] of a kernel form, into the head of a flat buffer."""
    shape = form.shape[:-1] + idx.shape
    return np.take(form, idx, axis=-1, out=buf[:math.prod(shape)].reshape(shape), mode="clip")


class Certificate(NamedTuple):
    """One pass over a map's edges, the diagonal among them; each edge is the
    first (x, y) in scan order."""

    zero_edge: Optional[tuple]    # d(x, y) <= 0 while d(fx, fy) > the engine's tol
    ratio: float                  # max d(fx, fy) / d(x, y) over d(x, y) > 0, else 0
    ratio_edge: Optional[tuple]
    margin: float                 # max d(fx, fy) - d(x, y)
    margin_edge: tuple
    reach: float                  # max d(fx, fy)
    reach_witness: tuple          # (d, df, u) at the first edge reaching it


class EdgeScanner:
    """The edge engine of one map, or a map pair, on the points of a
    ``SubsetPair``.

    Holds the instance's ``tol``, images, point arrays, self-distances and
    the graph's ``adjacency`` over the points (``adj``, the instance's), and
    streams (pairs, D, DF, U) blocks over the edges (module docstring).  DF
    takes ``images_left`` on the I side and ``images_right`` (default: the
    same) on the J side; a map pair, given ``images_right``, scans the edges
    of A x B only (rows ``rows``, columns ``cols``).

    Listed edges (every graph but the complete one) are the set entries of
    the adjacency's ``rows`` x ``cols`` cut in row-major order, scanned
    ``_BLOCK_ELEMS`` at a time; a point that A or B repeats is scanned at
    each of its places, as in a complete graph.  A complete graph is scanned
    in row blocks of about ``_BLOCK_ELEMS`` pairs; when ``symmetric`` (one
    map, an exactly symmetric metric) the block starting at row s covers
    columns s..n-1 only, which changes no fold result (see the module
    docstring), else every column.
    """

    def __init__(self, space, sets, graph, adj, tol, images_left, images_right=None):
        self.space = space
        self.tol = tol
        self.points = sets.points
        self.graph = graph
        n = len(self.points)
        self.images_left = tuple(images_left)
        self.images_right = self.images_left if images_right is None else tuple(images_right)
        self.P = point_array(space, self.points)
        self.FL = point_array(space, self.images_left)
        self.FR = self.FL if images_right is None else point_array(space, self.images_right)
        self.self_left = elem_dists(space, self.P, self.FL)
        self.self_right = self.self_left if images_right is None else elem_dists(space, self.P, self.FR)
        pair, pos = images_right is not None, sets.position
        self.rows = np.array([pos[p] for p in sets.a], dtype=np.intp) if pair else np.arange(n)
        self.cols = np.array([pos[p] for p in sets.b], dtype=np.intp) if pair else np.arange(n)
        self.adj = adj
        self.edges = None
        if self.adj is not None:
            r, c = np.nonzero(self.adj[np.ix_(self.rows, self.cols)])
            self.edges = self.rows[r], self.cols[c]
        images = (self.images_left, self.images_right) if pair else (self.images_left,)
        self.maps = [(m, image_positions(pos, m)) for m in images]  # I side, then a pair's J side
        # one map on a complete graph, with d(x, y) == d(y, x) bitwise
        self.symmetric = self.edges is None and not pair and space.symmetric

    @cached_property
    def _forms(self):
        """Kernel forms of P and FL on the row side and of P and FR on the
        column side, with the self-distances U adds: of the row and column
        points for a complete graph, of every point for listed edges."""
        sp = self.space
        r = c = slice(None)
        if self.edges is None:
            r, c = self.rows, self.cols
        return (sp.row_form(self.P[r]), sp.row_form(self.FL[r]), self.self_left[r],
                sp.col_form(self.P[c]), sp.col_form(self.FR[c]), self.self_right[c])

    @cached_property
    def _largest_block(self) -> int:
        if self.edges is not None:
            return min(_BLOCK_ELEMS, self.edges[0].size)
        nc = self.cols.size
        return max((e - s) * (nc - lo) for s, e, lo in self._layout)

    @cached_property
    def _layout(self) -> list:
        """The row blocks of a complete-graph scan, one (first row rank, end
        row rank, first column rank) per block."""
        nr, nc = self.rows.size, self.cols.size
        out, s = [], 0
        while s < nr:
            lo = s if self.symmetric else 0
            e = min(nr, s + max(1, _BLOCK_ELEMS // (nc - lo)))
            out.append((s, e, lo))
            s = e
        return out

    @cached_property
    def on_edge(self):
        """Per point p: whether (p, Fp) is an edge, F the map of the I side."""
        k = np.arange(len(self.points))
        return contains_pairs(self.graph, self.adj, (self.points, k), self.maps[0], k, k)

    @cached_property
    def preserved(self):
        """(ok, first violating edge): each scanned edge (x, y) keeps (Fx, Fy)
        and, for a pair, (Gx, Gy) an edge of the graph."""
        k = first_unpreserved(self.graph, self.adj, self.edges, *self.maps)
        return (True, None) if k is None else (False, self._edge([e[k] for e in self.edges]))

    def blocks(self, *, d=True, u=True):
        """Yield (pairs, D, DF, U) in row-major scan order, in buffers
        allocated once per pass (module docstring).  D and U are computed
        only when asked for (``d``, ``u``); one that is not holds a read-only
        NaN view of the block's length."""
        kern = self.space.kernel
        pr, fr, ur, pc, fc, uc = self._forms
        size = self._largest_block
        unread = np.broadcast_to(np.nan, size)
        d_buf = np.empty(size) if d else unread
        df_buf = np.empty(size)
        u_buf = np.empty(size) if u else unread
        scratch = np.empty(size, dtype=self.space.scratch_dtype)
        if self.edges is not None:
            i, j = self.edges
            gi = np.empty(math.prod(pr.shape[:-1]) * size, dtype=pr.dtype)
            gj = np.empty_like(gi)
            for s in range(0, i.size, _BLOCK_ELEMS):
                bi, bj = i[s:s + _BLOCK_ELEMS], j[s:s + _BLOCK_ELEMS]
                m = bi.size
                dv, dfv, uv = d_buf[:m], df_buf[:m], u_buf[:m]
                if u:
                    np.add(_gather(ur, bi, u_buf), _gather(uc, bj, df_buf), out=uv)
                if d:
                    kern(_gather(pr, bi, gi), _gather(pc, bj, gj), False, dv, scratch)
                kern(_gather(fr, bi, gi), _gather(fc, bj, gj), False, dfv, scratch)
                yield (lambda p, bi=bi, bj=bj: (bi[p], bj[p])), dv, dfv, uv
            return
        for s, e, lo in self._layout:
            rows, cols = self.rows[s:e], self.cols[lo:]
            shape = (rows.size, cols.size)
            m = shape[0] * shape[1]
            dv, dfv, uv = d_buf[:m], df_buf[:m], u_buf[:m]
            if d:
                kern(pr[..., s:e], pc[..., lo:], True, dv.reshape(shape), scratch)
            kern(fr[..., s:e], fc[..., lo:], True, dfv.reshape(shape), scratch)
            if u:
                np.add.outer(ur[s:e], uc[lo:], out=uv.reshape(shape))
            yield (lambda p, r=rows, c=cols: (r[p // c.size], c[p % c.size])), dv, dfv, uv

    @cached_property
    def certificate(self) -> Certificate:
        """Zero-edge check, largest ratio, nonexpansive margin and largest
        image distance, in one pass."""
        return self._certify(verdict_only=False)

    def contraction_certificate(self) -> Optional[Certificate]:
        """The certificate of a map that contracts every edge, None for one
        that does not (``contracts``), from a pass that stops at the end of
        the first block deciding no: one with a zero-length edge whose image
        is longer than tol, or with d(fx, fy) / d(x, y) >= 1.  A pass that
        runs to the end is cached as ``certificate``, and a cached one is
        read, so a map is scanned to the end once."""
        if "certificate" in self.__dict__:
            return self.certificate if contracts(self.certificate) else None
        cert = self._certify(verdict_only=True)
        if cert is not None:
            self.__dict__["certificate"] = cert
        return cert

    def _certify(self, verdict_only):
        zero, ratio, margin, reach = _FirstMax(), _FirstMax(), _FirstMax(), _FirstMax()
        size = self._largest_block
        values = np.empty(size)
        low, high = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
        for pairs, d, df, _u in self.blocks(u=False):
            buf, lo, hi = values[:d.size], low[:d.size], high[:d.size]
            np.less_equal(d, 0.0, out=lo)
            np.greater(df, self.tol, out=hi)
            zero.add(np.logical_and(lo, hi, out=lo), pairs)  # first max: first True
            np.greater(d, 0.0, out=hi)
            if hi.any():
                buf.fill(-np.inf)
                ratio.add(np.divide(df, d, out=buf, where=hi), pairs)
            if verdict_only and (zero.value or ratio.value is not None and ratio.value >= 1.0):
                return None
            margin.add(np.subtract(df, d, out=buf), pairs)
            reach.add(df, pairs, d, df)
        return Certificate(self._edge(zero.at) if zero.value else None,
                           0.0 if ratio.value is None else ratio.value, self._edge(ratio.at),
                           margin.value, self._edge(margin.at), reach.value,
                           reach.witness + (self._u_at(reach.at),))

    @cached_property
    def cuts(self) -> list:
        """(d, df, u) of the edges that refuted candidates of a CRR constants
        search on this engine, kept for every later search; seeded with the
        certificate's reach witness, the cut of the candidate (0, 0, 0)."""
        return [self.certificate.reach_witness]

    def _edge(self, ij):
        return None if ij is None else tuple(self.points[i] for i in ij)

    def _u_at(self, ij) -> float:
        """U at edge (i, j): the addition ``blocks`` makes there."""
        i, j = ij
        return float(self.self_left[i] + self.self_right[j])


class _FirstMax:
    """Running max of a fold over a scan's blocks, the (i, j) of the first
    edge reaching it (a tie keeps the earlier edge, as the half-triangle rule
    needs) and the given columns' values there; ``value`` is None until a block."""
    value = at = witness = None

    def add(self, vals, pairs, *cols):
        p = int(np.argmax(vals))
        if self.at is None or vals[p] > self.value:
            self.value, self.at = vals[p].item(), tuple(map(int, pairs(p)))
            self.witness = tuple(float(col[p]) for col in cols)


def contracts(cert: Certificate) -> bool:
    """Whether a certificate shows a contraction: no zero-length edge with
    an image longer than tol, and every ratio below 1."""
    return cert.zero_edge is None and cert.ratio < 1.0


def fold_max(scanner: EdgeScanner, a: float, b: float = 0.0, c: float = 0.0):
    """Max over the edges of df - a*d - b*u - c, the excess of the edge
    inequality d(fx, fy) <= a d(x, y) + b [d(x, fx) + d(y, fy)] + c, with
    its first arg-max edge.

    Subtracts the terms in that order (b*u only if b is nonzero, c only if b
    or c is) into two buffers allocated once per pass; the pass computes U
    only for a nonzero b; u of the witness is the addition U makes at its
    edge (``_u_at``).  Returns (max, (i, j), (d, df, u)) at the first arg-max
    edge, or (None, None, None) without edges.
    """
    size = scanner._largest_block
    values, terms = np.empty(size), np.empty(size)
    best = _FirstMax()
    for pairs, d, df, u in scanner.blocks(u=bool(b)):
        v, t = values[:d.size], terms[:d.size]
        np.subtract(df, np.multiply(a, d, out=t), out=v)
        if b:
            np.subtract(v, np.multiply(b, u, out=t), out=v)
        if b or c:
            np.subtract(v, c, out=v)
        best.add(v, pairs, d, df)
    if best.at is None:
        return None, None, None
    return best.value, best.at, best.witness + (scanner._u_at(best.at),)
