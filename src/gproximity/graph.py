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
from itertools import repeat
from typing import Optional

import numpy as np

from ._constants import COMPLETE, DIAGONAL, EXPLICIT
from .errors import DomainError
from .metric import ValidationReport, Violation, point_positions


class DirectedGraph:
    """A named rule (complete, diagonal) or an explicit graph of listed
    (x, y) pairs.

    An explicit graph holds ``pairs``, the two sequences (I, J) of its
    listed ends as point values, duplicates kept, the way an instance file
    lists them; an end that is not a point of the instance makes no edge.
    ``edges``, the frozenset of (x, y) tuples, is built on first access.
    Graphs are equal when rule and edge set are.
    """

    def __init__(self, rule: str, *, pairs=None):
        if rule not in (COMPLETE, DIAGONAL, EXPLICIT):
            raise DomainError(f"unknown graph rule {rule!r}")
        if rule == EXPLICIT:
            if pairs is None:
                raise DomainError("explicit graph needs an edge set")
            try:
                i, j = map(tuple, pairs)
            except (TypeError, ValueError):
                raise DomainError("explicit graph needs two end sequences (I, J)") from None
            if len(i) != len(j):
                raise DomainError(f"end sequences of {len(i)} and {len(j)} ends differ in length")
            pairs = i, j
        else:
            pairs = None
        self.__dict__.update(rule=rule, pairs=pairs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a DirectedGraph is immutable")

    @cached_property
    def edges(self) -> Optional[frozenset]:
        """The listed (x, y) pairs of an explicit graph, None for a rule."""
        return None if self.pairs is None else frozenset(zip(*self.pairs))

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
    edges = tuple(edges)
    return DirectedGraph(EXPLICIT, pairs=([x for x, _ in edges], [y for _, y in edges]))


def contains_edge(g: DirectedGraph, x, y) -> bool:
    """True iff (x, y) is an edge; (x, x) is always an edge."""
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
        position = point_positions(pts)
        i, j = (image_positions(position, v) for v in g.pairs)
        looped = np.zeros(len(position), dtype=bool)
        looped[i[(i == j) & (i >= 0)]] = True
        for p in pts:
            if not looped[position[p]]:
                out.append(Violation("diagonal", (p,), f"diagonal incomplete at {p!r}"))
        x, y = g.pairs
        foreign = {(x[k], y[k]) for k in np.flatnonzero((i < 0) | (j < 0)).tolist()}
        for edge in sorted(foreign, key=_edge_key):
            out.append(Violation("endpoint", edge, "foreign endpoint"))
    return ValidationReport(tuple(out))


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
    if g.rule == EXPLICIT:
        i, j = (image_positions(position, v) for v in g.pairs)
        keep = (i >= 0) & (j >= 0)
        adj[i[keep], j[keep]] = True
    return adj


def image_positions(position, images):
    """The index in ``position`` of each of ``images`` (a map's images, a
    graph's ends), -1 for one that is not a point."""
    return np.fromiter(map(position.get, images, repeat(-1)), np.intp, len(images))


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

