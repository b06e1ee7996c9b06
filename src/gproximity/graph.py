"""Directed graphs over the point set, with the diagonal convention.

A graph is either a named rule (complete, diagonal) or an explicit list of
ordered point pairs, the three graphs an instance file can state.  Every
rule contains the diagonal: each query, and the adjacency every scan reads,
treats (x, x) as an edge whether listed or not; `validate_graph` still
flags explicit edge sets that omit diagonal pairs, since such a file is
incomplete.
"""
from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

from ._constants import COMPLETE, DIAGONAL, EXPLICIT
from .errors import DomainError
from .metric import ValidationReport, Violation


class DirectedGraph:
    """A named rule (complete, diagonal) or an explicit graph of listed
    (x, y) pairs.

    An explicit graph holds its pairs as a set, ``edges``, or, read from an
    instance file, as ``pairs``: the index arrays (I, J) of its ``edge:``
    lines, duplicates kept, which ``adjacency`` and ``validate_graph`` read.
    ``edges`` is then the frozenset of (i, j) tuples, built on first access.
    Graphs are equal when rule and edge set are, whichever form the pairs
    came in.
    """

    def __init__(self, rule: str, edges=None, *, pairs=None):
        if rule not in (COMPLETE, DIAGONAL, EXPLICIT):
            raise DomainError(f"unknown graph rule {rule!r}")
        if rule == EXPLICIT and edges is None and pairs is None:
            raise DomainError("explicit graph needs an edge set")
        fields = {"rule": rule, "pairs": None}
        if rule == EXPLICIT and edges is not None:
            fields["edges"] = frozenset(edges)
        elif rule == EXPLICIT:
            fields["pairs"] = tuple(np.array(v, dtype=np.intp) for v in pairs)
            for v in fields["pairs"]:
                v.flags.writeable = False
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a DirectedGraph is immutable")

    @cached_property
    def edges(self) -> Optional[frozenset]:
        """The listed (x, y) pairs of an explicit graph, None for a rule."""
        if self.pairs is None:
            return None
        i, j = self.pairs
        return frozenset(zip(i.tolist(), j.tolist()))

    def _key(self):
        return self.rule, self.edges

    def __eq__(self, other):
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"DirectedGraph(rule={self.rule!r}, edges={self.edges!r})"


def complete_graph() -> DirectedGraph:
    return DirectedGraph(COMPLETE)


def diagonal_graph() -> DirectedGraph:
    return DirectedGraph(DIAGONAL)


def explicit_graph(edges) -> DirectedGraph:
    return DirectedGraph(EXPLICIT, edges=frozenset(edges))


def contains_edge(g: DirectedGraph, x, y, points=None) -> bool:
    """True iff (x, y) is an edge; (x, x) is always an edge."""
    if points is not None:
        pts = set(points)
        if x not in pts or y not in pts:
            raise DomainError(f"point outside the instance: {x!r} or {y!r}")
    if x == y:
        return True
    if g.rule == COMPLETE:
        return True
    if g.rule == DIAGONAL:
        return False
    return (x, y) in g.edges


def validate_graph(g: DirectedGraph, points) -> ValidationReport:
    """Flag missing diagonal edges and edge endpoints outside the point set."""
    pts = tuple(points)
    out = []
    if g.rule == EXPLICIT:
        loops, foreign = _listed(g, pts)
        for p in pts:
            if p not in loops:
                out.append(Violation("diagonal", (p,), f"diagonal incomplete at {p!r}"))
        for edge in sorted(foreign, key=_edge_key):
            out.append(Violation("endpoint", edge, "foreign endpoint"))
    return ValidationReport(tuple(out))


def _listed(g: DirectedGraph, pts: tuple):
    """The set of points with a listed self-loop, and the set of listed
    edges with an end outside ``pts``, of an explicit graph."""
    if g.pairs is None:
        pset = set(pts)
        return ({x for x, y in g.edges if x == y},
                {e for e in g.edges if e[0] not in pset or e[1] not in pset})
    i, j = g.pairs
    out = ~(np.isin(i, pts) & np.isin(j, pts))
    return set(i[i == j].tolist()), set(zip(i[out].tolist(), j[out].tolist()))


def _edge_key(edge):
    """Sort key of an edge whose endpoints mix indices and tuples."""
    return tuple((1, p) if isinstance(p, tuple) else (0, (p,)) for p in edge)


def adjacency(g: DirectedGraph, position):
    """E(G) among the n points of ``position`` (a ``SubsetPair.position``) as
    an n x n boolean matrix over their positions, the diagonal set for every
    rule: explicit graphs their listed edges among the points, diagonal
    graphs the diagonal alone; None for complete graphs (every pair).

    The matrix holds n^2 bytes.  For a tabulated instance that is 1/8 of its
    float64 distance matrix; only an explicit graph on a large coordinate
    point set costs more here than its edge list.
    """
    n = len(position)
    if g.rule == COMPLETE:
        return None
    adj = np.eye(n, dtype=bool)
    if g.rule == EXPLICIT and g.pairs is None:
        keys = [position[x] * n + position[y] for x, y in g.edges
                if x in position and y in position]
        adj.ravel()[keys] = True
    elif g.rule == EXPLICIT:
        i, j = g.pairs
        # the slot past the largest end stays -1; ends below 0 are clipped to
        # it, so they count as foreign instead of wrapping onto the last points
        index = np.full(max(i.max(initial=0), j.max(initial=0), *position) + 2, -1, np.intp)
        index[list(position)] = np.arange(n)
        pi, pj = index[np.maximum(i, -1)], index[np.maximum(j, -1)]
        keep = (pi >= 0) & (pj >= 0)
        adj[pi[keep], pj[keep]] = True
    return adj


def image_positions(position, images):
    """The index of each image in ``position``, -1 for one outside the points."""
    return np.array([position.get(q, -1) for q in images], dtype=np.intp)


def contains_pairs(g: DirectedGraph, adj, left, right, i, j):
    """contains_edge(g, left[0][i[k]], right[0][j[k]]) for every k; ``left`` and
    ``right`` are (points, ``image_positions``) among the points of the
    ``adjacency`` ``adj``, and contains_edge is asked only for pairs leaving them."""
    if adj is None:
        return np.ones(len(i), dtype=bool)
    li, rj = left[1][i], right[1][j]
    ok = adj[li, rj]
    for k in np.flatnonzero((li < 0) | (rj < 0)):
        ok[k] = contains_edge(g, left[0][i[k]], right[0][j[k]])
    return ok


def first_unpreserved(g: DirectedGraph, adj, edges, *maps):
    """Position in ``edges`` (I, J) of the first edge that a map, given as
    (images, positions) of the points of the ``adjacency`` ``adj``, sends
    off the graph; None when every edge is kept."""
    if adj is None:
        return None
    ei, ej = edges
    bad = np.zeros(ei.size, dtype=bool)
    for m in maps:
        bad |= ~contains_pairs(g, adj, m, m, ei, ej)
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else None

