"""Brute-force enumeration of approximate proximity sets and diameter bounds;
a set stores point indices, decodes ``members`` on first read, and compares by identity."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._constants import STRICT, VACUOUS
from ._scan import elem_dists
from .errors import DomainError
from .maps import Instance
from .metric import array_diameter, within_epsilon
from .operators import is_edge_nonexpansive


@dataclass(frozen=True, eq=False)
class ProximitySet:
    epsilon: float
    mode: str
    positions: np.ndarray  # (m,) point indices, in scan order
    points: tuple = field(repr=False)
    members = cached_property(lambda self: self.decode(self.positions))  # decoded on first read

    def decode(self, positions) -> tuple:
        return tuple(map(self.points.__getitem__, positions.tolist()))


@dataclass(frozen=True, eq=False)
class PairProximitySet:
    epsilon: float
    positions: np.ndarray  # (2, m) point indices, rows I and J of the (x, y) pairs
    points: tuple = field(repr=False)
    members = cached_property(lambda self: self.decode(self.positions))  # decoded on first read

    def decode(self, positions) -> tuple:
        return tuple(zip(*(map(self.points.__getitem__, row) for row in positions.tolist())))


@dataclass(frozen=True)
class MinimizerReport:
    minimizer: object
    residual: float
    nonexpansive: bool
    minimizer_in_set: bool


def enumerate_proximity_set(inst: Instance, epsilon: float, mode: str = STRICT) -> ProximitySet:
    """Exact scan of the stored points against the membership definition.

    Strict mode takes the conjunction (edge holds and the displacement is
    within epsilon of d(A,B)); vacuous mode keeps the literal implication
    and additionally admits points whose edge condition fails.  epsilon = 0
    is allowed here (the exact best proximity set).
    """
    if mode not in (STRICT, VACUOUS):
        raise DomainError(f"unknown mode {mode!r}")
    if not epsilon >= 0:
        raise DomainError("epsilon must be nonnegative")
    eng = inst.engine
    keep = eng.on_edge & within_epsilon(eng.self_left - inst.d_ab, epsilon, inst.tol)
    if mode == VACUOUS:
        keep |= ~eng.on_edge
    k = np.flatnonzero(keep)
    k.setflags(write=False)
    return ProximitySet(epsilon, mode, k, inst.points)


def enumerate_pair_set(inst: Instance, epsilon: float) -> PairProximitySet:
    """Scan E(G) restricted to A x B for pairs with d(Tx, Sy) - d(A,B) <= epsilon,
    in scan order (A order, then B order)."""
    if not epsilon >= 0:
        raise DomainError("epsilon must be nonnegative")
    eng = inst.pair_engine
    ij = np.concatenate([np.empty((2, 0), np.intp)] + [
        pairs(np.flatnonzero(within_epsilon(df - inst.d_ab, epsilon, inst.tol)))
        for pairs, _d, df, _u in eng.blocks(d=False, u=False)], axis=1)
    ij.setflags(write=False)
    return PairProximitySet(epsilon, ij, inst.points)


def _positions(s, what: str):
    """Point indices of a non-empty set."""
    if not s.positions.size:
        raise DomainError(f"diameter of an empty {what} is undefined")
    return s.positions


def proximity_diameter(inst: Instance, ps: ProximitySet) -> float:
    """Max pairwise distance among set members, gathered by point index."""
    return array_diameter(inst.space, inst.engine.P[_positions(ps, "proximity set")])


def pair_diameter(inst: Instance, pps: PairProximitySet) -> float:
    """Max within-pair distance d(x, y) over the member pairs, by point index."""
    i, j = _positions(pps, "pair set")
    eng = inst.pair_engine
    return float(elem_dists(inst.space, eng.P[i], eng.P[j]).max())


def contraction_diam_bound(alpha: float, epsilon: float, d_ab: float) -> float:
    """2 eps / (1 - alpha) + 2 d(A,B) / (1 - alpha)."""
    if not (0.0 <= alpha < 1.0):
        raise DomainError("alpha must lie in [0, 1)")
    return (2.0 * epsilon + 2.0 * d_ab) / (1.0 - alpha)


def two_map_diam_bound(k: float, epsilon: float, d_ab: float) -> float:
    """eps / (1 - k) + d(A,B) / (1 - k)."""
    if not (0.0 <= k < 1.0):
        raise DomainError("k must lie in [0, 1)")
    return (epsilon + d_ab) / (1.0 - k)


def minimizer_report(inst: Instance) -> MinimizerReport:
    """Exact minimizer of d(z, f z) over points with (z, f z) an edge.

    Ties break toward the lowest point index.  ``minimizer_in_set`` says
    the strict set at epsilon = max(residual, 0) + ``inst.tol`` holds the
    minimizer, true by construction as tol >= 0: the minimizer lies on an
    edge and its residual is within that epsilon, nonexpansive map or not.
    """
    eng = inst.engine
    eligible = np.flatnonzero(eng.on_edge)
    if not eligible.size:
        raise DomainError("no point satisfies the edge eligibility condition")
    best_pos = eligible[np.argmin(eng.self_left[eligible])]
    residual = float(eng.self_left[best_pos]) - inst.d_ab
    nonexp = bool(is_edge_nonexpansive(inst))
    in_set = within_epsilon(residual, max(residual, 0.0) + inst.tol, inst.tol)
    return MinimizerReport(inst.points[best_pos], residual, nonexp, in_set)
