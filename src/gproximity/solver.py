"""Iteration schemes: Picard orbits, stopping rules, a-priori bounds.

Residuals are d(x_n, x_{n+1}) - d(A, B) for single maps and
d(T x_n, S y_n) - d(A, B) for pairs; stopping compares them against
epsilon with the shared absolute slack.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, HypothesisError
from .graph import contains_edge
from .maps import Instance, apply_map
from .metric import DEFAULT_TOL

FOUND = "found"
EXHAUSTED = "exhausted"
INELIGIBLE = "ineligible"


@dataclass(frozen=True)
class SolveConfig:
    epsilon: float
    max_iter: int = 1000
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not self.epsilon > 0:
            raise DomainError("epsilon must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be at least 1")


@dataclass(frozen=True)
class IterationTrace:
    points: tuple
    residuals: tuple


@dataclass(frozen=True)
class SolveResult:
    status: str
    witness: object
    iterations: int
    trace: IterationTrace
    bounds: Optional[tuple] = None

    @property
    def found(self) -> bool:
        return self.status == FOUND


def picard_orbit(inst: Instance, x0, n: int) -> IterationTrace:
    """x0, f(x0), ..., f^n(x0) with the n residuals between neighbours."""
    f = inst.require_map()
    if n < 0:
        raise DomainError("orbit length must be nonnegative")
    dab = inst.d_ab
    pts = [x0]
    res = []
    x = x0
    for i in range(n):
        fx = apply_map(f, x, last_valid=i)
        res.append(inst.space.distance(x, fx) - dab)
        pts.append(fx)
        x = fx
    return IterationTrace(tuple(pts), tuple(res))


def find_proximity_point(inst: Instance, x0, cfg: SolveConfig) -> SolveResult:
    """Iterate T from x0 until d(x, Tx) <= d(A,B) + epsilon.

    Requires (x0, T x0) to be an edge; the same condition is re-verified at
    the witness.  Status is exhausted after max_iter applications.
    """
    f = inst.require_map()
    dab = inst.d_ab
    fx0 = apply_map(f, x0, last_valid=0)
    if not contains_edge(inst.graph, x0, fx0):
        return SolveResult(INELIGIBLE, None, 0, IterationTrace((x0,), ()))
    pts = [x0]
    res = []
    x = x0
    fx = fx0
    for n in range(cfg.max_iter + 1):
        r = inst.space.distance(x, fx) - dab
        res.append(r)
        if r <= cfg.epsilon + cfg.tol:
            if not contains_edge(inst.graph, x, fx):
                return SolveResult(INELIGIBLE, None, n,
                                   IterationTrace(tuple(pts), tuple(res)))
            return SolveResult(FOUND, x, n, IterationTrace(tuple(pts), tuple(res)))
        if n == cfg.max_iter:
            break
        pts.append(fx)
        x = fx
        fx = apply_map(f, x, last_valid=n + 1)
    return SolveResult(EXHAUSTED, None, cfg.max_iter,
                       IterationTrace(tuple(pts), tuple(res)))


def crr_iteration_bound(d0: float, k: float, d_ab: float, epsilon: float,
                        tol: float = DEFAULT_TOL) -> int:
    """Smallest n with k^n (d0 - d(A,B)) <= epsilon.

    d0 is the starting displacement d(x, Tx); the geometric decay rate k
    comes from the operator constants.
    """
    if not (0.0 <= k < 1.0):
        raise DomainError("decay rate k must lie in [0, 1)")
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if d0 < d_ab - tol:
        raise DomainError("starting displacement below d(A,B)")
    gap = max(d0 - d_ab, 0.0)
    if gap <= epsilon:
        return 0
    if k == 0.0:
        return 1
    n = math.ceil(math.log(epsilon / gap) / math.log(k))
    n = max(int(n), 1)
    while k ** n * gap > epsilon:  # guard against round-off in the logs
        n += 1
    return n


def is_gt_minimizing(inst: Instance, trace: IterationTrace, window: int, delta: float):
    """Finite surrogate for a minimizing sequence: every trace point must sit
    on an edge with its image, and the last `window` residuals stay <= delta.

    Returns (ok, failing_index); failing_index names the first off-edge
    point when the precondition fails, else None.
    """
    f = inst.require_map()
    if window < 1:
        raise DomainError("window must be at least 1")
    if len(trace.residuals) < window:
        raise DomainError("trace shorter than the residual window")
    for idx, z in enumerate(trace.points):
        if not contains_edge(inst.graph, z, apply_map(f, z, last_valid=idx)):
            return False, idx
    tail = trace.residuals[-window:]
    return all(r <= delta for r in tail), None


def epsilon_fixed_point(inst: Instance, x0, power: int, cfg: SolveConfig) -> SolveResult:
    """Search the orbit of f^power for a point z with d(z, f^power z) < epsilon."""
    f = inst.require_map()
    if power < 1:
        raise DomainError("power must be at least 1")

    def step(z, at):
        for _ in range(power):
            z = apply_map(f, z, last_valid=at)
        return z

    pts = [x0]
    res = []
    z = x0
    w = step(z, 0)
    for n in range(cfg.max_iter + 1):
        d = inst.space.distance(z, w)
        res.append(d)
        if d < cfg.epsilon:
            return SolveResult(FOUND, z, n, IterationTrace(tuple(pts), tuple(res)))
        if n == cfg.max_iter:
            break
        pts.append(w)
        z = w
        w = step(z, n + 1)
    return SolveResult(EXHAUSTED, None, cfg.max_iter,
                       IterationTrace(tuple(pts), tuple(res)))


def two_map_parallel(inst: Instance, x0, y0, cfg: SolveConfig) -> SolveResult:
    """Iterate x_n = T^n x0, y_n = S^n y0 until d(T x_n, S y_n) <= d(A,B) + epsilon."""
    pair = inst.require_pair()
    sets = inst.sets
    if not sets.in_a(x0) or not sets.in_b(y0):
        raise DomainError("parallel scheme needs a start pair in A x B")
    if not contains_edge(inst.graph, x0, y0):
        return SolveResult(INELIGIBLE, None, 0, IterationTrace(((x0, y0),), ()))
    dab = inst.d_ab
    pts = []
    res = []
    x, y = x0, y0
    for n in range(cfg.max_iter + 1):
        tx = apply_map(pair.t, x, last_valid=n)
        sy = apply_map(pair.s, y, last_valid=n)
        pts.append((x, y))
        r = inst.space.distance(tx, sy) - dab
        res.append(r)
        if r <= cfg.epsilon + cfg.tol:
            return SolveResult(FOUND, (x, y), n, IterationTrace(tuple(pts), tuple(res)))
        x, y = tx, sy
    return SolveResult(EXHAUSTED, None, cfg.max_iter,
                       IterationTrace(tuple(pts), tuple(res)))


def two_map_alternating(inst: Instance, x1, y1, alpha: float, gamma: float,
                        cfg: SolveConfig) -> SolveResult:
    """Alternating recursion x_{n+1} = S y_n, y_{n+1} = T x_n.

    Requires alpha + gamma = 1 with alpha in [0, 1).  Each step checks the
    per-step hypothesis d(T x_n, S y_n) <= alpha d(x_n, y_n) + gamma d(A,B)
    (raising HypothesisError on failure) and records the geometric-series
    bound alpha^n d(x1, y1) + (1 - alpha^n) d(A,B) alongside the gap.
    """
    pair = inst.require_pair()
    if abs(alpha + gamma - 1.0) > cfg.tol:
        raise DomainError("alternating scheme needs alpha + gamma = 1")
    if not (0.0 <= alpha < 1.0):
        raise DomainError("alpha must lie in [0, 1)")
    if not contains_edge(inst.graph, x1, y1):
        return SolveResult(INELIGIBLE, None, 0, IterationTrace(((x1, y1),), ()))
    dab = inst.d_ab
    d0 = inst.space.distance(x1, y1)
    pts = [(x1, y1)]
    res = []
    bounds = []
    x, y = x1, y1
    for n in range(cfg.max_iter + 1):
        gap = inst.space.distance(x, y)
        decay = alpha ** n
        bound = decay * d0 + (1.0 - decay) * dab
        bounds.append(bound)
        res.append(gap - dab)
        if res[-1] <= cfg.epsilon + cfg.tol:
            return SolveResult(FOUND, (x, y), n, IterationTrace(tuple(pts), tuple(res)),
                               bounds=tuple(bounds))
        if n == cfg.max_iter:
            break
        tx = apply_map(pair.t, x, last_valid=n)
        sy = apply_map(pair.s, y, last_valid=n)
        if inst.space.distance(tx, sy) > alpha * gap + gamma * dab + cfg.tol:
            raise HypothesisError(
                f"per-step inequality fails at step {n}: "
                f"d(Tx,Sy) = {inst.space.distance(tx, sy)!r} > "
                f"alpha*d(x,y) + gamma*d(A,B) = {alpha * gap + gamma * dab!r}", n)
        x, y = sy, tx
        pts.append((x, y))
    return SolveResult(EXHAUSTED, None, cfg.max_iter,
                       IterationTrace(tuple(pts), tuple(res)), bounds=tuple(bounds))
