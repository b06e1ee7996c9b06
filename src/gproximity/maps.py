"""Cyclic maps, map pairs, operator constants, and the instance aggregate."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import index
from typing import Callable, Optional

from ._constants import EXPLICIT
from ._scan import EdgeScanner
from .errors import DomainError, OrbitError
from .graph import DirectedGraph, adjacency, contains_edge
from .metric import DEFAULT_TOL, SubsetPair, pair_distance


@dataclass(frozen=True)
class CyclicMap:
    """A total map on A union B.

    Tabulated instances use an index table; coordinate instances use a
    closed-form rule on coordinate tuples, named for serialization.
    """

    name: str
    table: Optional[tuple] = None
    fn: Optional[Callable] = None

    def __post_init__(self):
        if (self.table is None) == (self.fn is None):
            raise DomainError("a map needs exactly one of table / fn")
        if self.table is not None:
            object.__setattr__(self, "table", tuple(map(self._entry, self.table)))

    def _entry(self, i) -> int:
        """A table entry as an int: ``operator.index``, which truncates no float."""
        try:
            return index(i)
        except TypeError:
            raise DomainError(f"map {self.name!r} has a table entry {i!r} "
                              "that is not an integer") from None

    def __call__(self, x):
        if self.table is not None:
            try:
                if x >= 0:
                    return self.table[x]
            except (IndexError, TypeError):
                pass
            raise DomainError(f"map {self.name!r} is not defined at {x!r}")
        return self.fn(x)


@dataclass(frozen=True)
class MapPair:
    """Two maps with T(A) in B and S(B) in A."""

    t: CyclicMap
    s: CyclicMap


@dataclass(frozen=True)
class CrrParams:
    """Constants of the Ciric-Reich-Rus style condition.

    Requires alpha, beta, gamma >= 0 and alpha + 2*beta + gamma < 1
    (strict), which forces the derived rate k into [0, 1).
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not min(self.alpha, self.beta, self.gamma) >= 0:
            raise DomainError("CRR constants must be nonnegative")
        if not self.alpha + 2 * self.beta + self.gamma < 1:
            raise DomainError("CRR constants must satisfy alpha + 2*beta + gamma < 1")

    @property
    def k(self) -> float:
        return (self.alpha + self.beta) / (1.0 - self.beta)


@dataclass(frozen=True, eq=False)
class Instance:
    """A metric space, subsets A/B, a graph, and one cyclic map or one map
    pair under study; compared and hashed by identity."""

    name: str
    space: object
    sets: SubsetPair
    graph: DirectedGraph
    cyclic_map: Optional[CyclicMap] = None
    map_pair: Optional[MapPair] = None
    params: tuple = field(default=(), init=False)  # a coordinate builder's call, set by it alone
    tol: float = DEFAULT_TOL  # the absolute slack of every distance inequality tested on it

    def __post_init__(self):
        if not 0 <= self.tol < math.inf:
            raise DomainError(f"tolerance must be finite and nonnegative, got {self.tol!r}")
        if self.cyclic_map is not None and self.map_pair is not None:
            raise DomainError(f"instance {self.name!r} has both a cyclic map and a map pair")

    @property
    def points(self) -> tuple:
        return self.sets.points

    @property
    def kind(self) -> str:
        return ("two-map" if self.map_pair is not None
                else "single-map" if self.cyclic_map is not None else "none")

    def require_map(self) -> CyclicMap:
        if self.cyclic_map is None:
            raise DomainError(f"instance {self.name!r} has no single cyclic map")
        return self.cyclic_map

    def require_pair(self) -> MapPair:
        if self.map_pair is None:
            raise DomainError(f"instance {self.name!r} has no map pair")
        return self.map_pair

    @cached_property
    def d_ab(self) -> float:
        return pair_distance(self.space, self.sets)

    @cached_property
    def adjacency(self):
        """E(G) over the positions of the points (``graph.adjacency``), read
        by both engines and the solver's edge tests; None for a complete
        graph."""
        return adjacency(self.graph, self.sets.position)

    def has_edge(self, x, y) -> bool:
        """``contains_edge(graph, x, y)``; for a listed graph and two of the
        points it reads ``adjacency``, so the edges are not collected into a
        set of tuples, but an end that is not a point asks ``contains_edge``,
        which builds ``graph.edges``."""
        pos = self.sets.position
        if self.graph.rule != EXPLICIT or x not in pos or y not in pos:
            return contains_edge(self.graph, x, y)
        return bool(self.adjacency[pos[x], pos[y]])

    @cached_property
    def engine(self):
        """The edge engine of the single map, built on first use; another
        map or tolerance is analysed as its own instance,
        ``dataclasses.replace(inst, cyclic_map=g)`` or ``tol=t``."""
        f, pts = self.require_map(), self.points
        return EdgeScanner(self.space, self.sets, self.graph, self.adjacency, self.tol,
                           [f(p) for p in pts])

    @cached_property
    def pair_engine(self):
        """The A x B edge engine of the map pair, T on the A side and S on
        the B side, built on first use."""
        pair, pts = self.require_pair(), self.points
        return EdgeScanner(self.space, self.sets, self.graph, self.adjacency, self.tol,
                           [pair.t(p) for p in pts], [pair.s(p) for p in pts])


def apply_map(f: CyclicMap, x, last_valid: int = -1):
    """Apply a map, converting domain failures into orbit errors."""
    try:
        return f(x)
    except (DomainError, ValueError, ArithmeticError) as exc:
        raise OrbitError(f"map {f.name!r} failed at {x!r}: {exc}", last_valid) from exc
