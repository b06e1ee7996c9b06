"""Brute-force enumeration of approximate proximity sets and diameter bounds."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._scan import elem_dists
from .errors import DomainError
from .maps import Instance
from .metric import DEFAULT_TOL, set_diameter
from .operators import is_edge_nonexpansive

STRICT = "strict"
VACUOUS = "vacuous"


@dataclass(frozen=True)
class ProximitySet:
    epsilon: float
    members: tuple
    mode: str


@dataclass(frozen=True)
class PairProximitySet:
    epsilon: float
    members: tuple  # ordered (x, y) pairs from A x B


@dataclass(frozen=True)
class MinimizerReport:
    minimizer: object
    residual: float
    nonexpansive: bool
    minimizer_in_set: bool


def enumerate_proximity_set(inst: Instance, epsilon: float, mode: str = STRICT,
                            tol: float = DEFAULT_TOL) -> ProximitySet:
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
    close = eng.self_left <= inst.d_ab + epsilon + tol
    keep = eng.on_edge & close
    if mode == VACUOUS:
        keep |= ~eng.on_edge
    return ProximitySet(epsilon, tuple(inst.points[k] for k in np.flatnonzero(keep)), mode)


def enumerate_pair_set(inst: Instance, epsilon: float,
                       tol: float = DEFAULT_TOL) -> PairProximitySet:
    """Scan E(G) restricted to A x B for pairs with d(Tx, Sy) <= d(A,B) + epsilon,
    in scan order (A order, then B order)."""
    if not epsilon >= 0:
        raise DomainError("epsilon must be nonnegative")
    eng = inst.pair_engine
    limit = inst.d_ab + epsilon + tol
    pts = eng.points
    members = []
    for start, _stop, _d, df, _u in eng.blocks():
        i, j = eng.edge_pairs(start + np.flatnonzero(df <= limit))
        members.extend(zip([pts[k] for k in i.tolist()], [pts[k] for k in j.tolist()]))
    return PairProximitySet(epsilon, tuple(members))


def proximity_diameter(inst: Instance, ps: ProximitySet) -> float:
    """Max pairwise distance among set members."""
    if not ps.members:
        raise DomainError("diameter of an empty proximity set is undefined")
    return set_diameter(inst.space, ps.members)


def pair_diameter(inst: Instance, pps: PairProximitySet) -> float:
    """Max within-pair distance d(x, y) over the member pairs (x, y)."""
    if not pps.members:
        raise DomainError("diameter of an empty pair set is undefined")
    eng = inst.pair_engine
    order = {p: k for k, p in enumerate(eng.points)}
    try:
        i = np.array([order[x] for x, _y in pps.members], dtype=np.intp)
        j = np.array([order[y] for _x, y in pps.members], dtype=np.intp)
    except KeyError as exc:
        raise DomainError(f"pair member {exc.args[0]!r} is not a point of the instance") from None
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


def minimizer_report(inst: Instance, tol: float = DEFAULT_TOL) -> MinimizerReport:
    """Exact minimizer of d(z, f z) over points with (z, f z) an edge.

    Ties break toward the lowest scan position.  When the map is
    nonexpansive on edges, the strict set at epsilon = residual + tol must
    contain the minimizer; the report carries that re-check.
    """
    eng = inst.engine
    eligible = np.flatnonzero(eng.on_edge)
    if not eligible.size:
        raise DomainError("no point satisfies the edge eligibility condition")
    best_pos = eligible[np.argmin(eng.self_left[eligible])]
    best = inst.points[best_pos]
    residual = float(eng.self_left[best_pos]) - inst.d_ab
    nonexp = bool(is_edge_nonexpansive(inst, tol=tol))
    members = enumerate_proximity_set(inst, max(residual, 0.0) + tol, tol=tol).members
    return MinimizerReport(best, residual, nonexp, best in members)
