"""Iteration schemes: Picard orbits, stopping rules, a-priori bounds.

One driver records each scheme's lazy orbit of (point, residual) steps up to
the first residual the scheme's stop rule accepts, or max_iter + 1 of them.
Edge tests read the instance's adjacency (``Instance.has_edge``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice
from typing import Optional

from .errors import DomainError, HypothesisError
from .maps import Instance, apply_map
from .metric import DEFAULT_TOL, within_epsilon

FOUND = "found"
EXHAUSTED = "exhausted"
INELIGIBLE = "ineligible"


@dataclass(frozen=True)
class SolveConfig:
    epsilon: float
    max_iter: int = 1000

    def __post_init__(self):
        if not self.epsilon > 0:
            raise DomainError("epsilon must be positive")
        _require_count(self.max_iter, "max_iter", 1)


def _require_count(value, what: str, least: int):
    if not hasattr(value, "__index__"):  # int, bool, numpy ints: what operator.index takes
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{what} must be at least {least}")


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


def _picard_steps(inst: Instance, f, x, fx):
    """Steps (x_n, d(x_n, f x_n) - d(A,B), f x_n) of f's orbit from x, given fx = f x."""
    dist, dab = inst.space.distance, inst.d_ab
    for n in count(1):
        yield x, dist(x, fx) - dab, fx
        x, fx = fx, apply_map(f, fx, last_valid=n)


def picard_orbit(inst: Instance, x0, n: int) -> IterationTrace:
    """x0, f(x0), ..., f^n(x0) with the n residuals between neighbours."""
    f = inst.require_map()
    _require_count(n, "orbit length", 0)
    if n == 0:
        return IterationTrace((x0,), ())
    steps = _picard_steps(inst, f, x0, apply_map(f, x0, last_valid=0))
    pts, res, images = zip(*islice(steps, n))
    return IterationTrace(pts + images[-1:], res)


def _run(inst: Instance, steps, cfg: SolveConfig, bounds=None, stop=None) -> SolveResult:
    """Record the point and residual of each step of a lazy orbit up to the
    first step that ``stop`` (by default: residual within epsilon + inst.tol)
    names a status for, or up to max_iter + 1 steps; the orbit fills ``bounds``."""
    stop = stop or (lambda step: FOUND if within_epsilon(step[1], cfg.epsilon, inst.tol) else None)
    pts, res = [], []
    for step in islice(steps, cfg.max_iter + 1):
        pts.append(step[0])
        res.append(step[1])
        if status := stop(step):
            break
    status = status or EXHAUSTED
    return SolveResult(status, pts[-1] if status == FOUND else None, len(res) - 1,
                       IterationTrace(tuple(pts), tuple(res)),
                       None if bounds is None else tuple(bounds))


def find_proximity_point(inst: Instance, x0, cfg: SolveConfig) -> SolveResult:
    """Iterate T from x0 until d(x, Tx) <= d(A,B) + epsilon.

    Requires (x0, T x0) to be an edge; the same condition is re-verified at
    the witness.  Status is exhausted after max_iter applications.
    """
    f = inst.require_map()
    fx0 = apply_map(f, x0, last_valid=0)
    if not inst.has_edge(x0, fx0):
        return SolveResult(INELIGIBLE, None, 0, IterationTrace((x0,), ()))

    def stop(step):  # found only where the step's (x, T x) is still an edge
        if within_epsilon(step[1], cfg.epsilon, inst.tol):
            return FOUND if inst.has_edge(step[0], step[2]) else INELIGIBLE

    return _run(inst, _picard_steps(inst, f, x0, fx0), cfg, stop=stop)


def crr_iteration_bound(d0: float, k: float, d_ab: float, epsilon: float,
                        tol: float = DEFAULT_TOL) -> int:
    """Smallest n with k^n (d0 - d(A,B)) <= epsilon.

    d0 is the starting displacement d(x, Tx); the geometric decay rate k
    comes from the operator constants.
    """
    if not (0.0 <= k < 1.0):
        raise DomainError("decay rate k must lie in [0, 1)")
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    if not (math.isfinite(d0) and math.isfinite(d_ab) and 0 <= tol < math.inf):
        raise DomainError("d0 and d(A,B) must be finite, tol finite and nonnegative")
    if d0 < d_ab - tol:
        raise DomainError("starting displacement below d(A,B)")
    gap = max(d0 - d_ab, 0.0)
    if gap <= epsilon:
        return 0
    if k == 0.0:
        return 1
    n = max(math.ceil(math.log(epsilon / gap) / math.log(k)), 1)
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
    _require_count(window, "window", 1)
    if len(trace.residuals) < window:
        raise DomainError("trace shorter than the residual window")
    for idx, z in enumerate(trace.points):
        if not inst.has_edge(z, apply_map(f, z, last_valid=idx)):
            return False, idx
    tail = trace.residuals[-window:]
    return all(r <= delta for r in tail), None


def epsilon_fixed_point(inst: Instance, x0, power: int, cfg: SolveConfig) -> SolveResult:
    """Search the orbit of f^power for a point z with d(z, f^power z) < epsilon."""
    f = inst.require_map()
    _require_count(power, "power", 1)

    def steps():
        z = w = x0
        for n in count():
            for _ in range(power):
                w = apply_map(f, w, last_valid=n)
            yield z, inst.space.distance(z, w)
            z = w

    return _run(inst, steps(), cfg, stop=lambda step: FOUND if step[1] < cfg.epsilon else None)


def two_map_parallel(inst: Instance, x0, y0, cfg: SolveConfig) -> SolveResult:
    """Iterate x_n = T^n x0, y_n = S^n y0 until d(T x_n, S y_n) <= d(A,B) + epsilon."""
    pair = inst.require_pair()
    if not inst.sets.in_a(x0) or not inst.sets.in_b(y0):
        raise DomainError("parallel scheme needs a start pair in A x B")
    if not inst.has_edge(x0, y0):
        return SolveResult(INELIGIBLE, None, 0, IterationTrace(((x0, y0),), ()))
    dab = inst.d_ab

    def steps():
        x, y = x0, y0
        for n in count():
            tx = apply_map(pair.t, x, last_valid=n)
            sy = apply_map(pair.s, y, last_valid=n)
            yield (x, y), inst.space.distance(tx, sy) - dab
            x, y = tx, sy

    return _run(inst, steps(), cfg)


def two_map_alternating(inst: Instance, x1, y1, alpha: float, gamma: float,
                        cfg: SolveConfig) -> SolveResult:
    """Alternating recursion x_{n+1} = S y_n, y_{n+1} = T x_n.

    Requires alpha + gamma = 1 with alpha in [0, 1).  Each step checks the
    per-step hypothesis d(T x_n, S y_n) <= alpha d(x_n, y_n) + gamma d(A,B)
    (raising HypothesisError on failure) and records the geometric-series
    bound alpha^n d(x1, y1) + (1 - alpha^n) d(A,B) alongside the gap.
    """
    pair = inst.require_pair()
    if abs(alpha + gamma - 1.0) > inst.tol:
        raise DomainError("alternating scheme needs alpha + gamma = 1")
    if not (0.0 <= alpha < 1.0):
        raise DomainError("alpha must lie in [0, 1)")
    if not inst.has_edge(x1, y1):
        return SolveResult(INELIGIBLE, None, 0, IterationTrace(((x1, y1),), ()))
    dab, d0 = inst.d_ab, inst.space.distance(x1, y1)
    bounds = []

    def steps():
        x, y = x1, y1
        for n in count():
            gap = inst.space.distance(x, y)
            decay = alpha ** n
            bounds.append(decay * d0 + (1.0 - decay) * dab)
            yield (x, y), gap - dab
            tx = apply_map(pair.t, x, last_valid=n)
            sy = apply_map(pair.s, y, last_valid=n)
            d, limit = inst.space.distance(tx, sy), alpha * gap + gamma * dab
            if d > limit + inst.tol:
                raise HypothesisError(f"per-step inequality fails at step {n}: d(Tx,Sy) = "
                                      f"{d!r} > alpha*d(x,y) + gamma*d(A,B) = {limit!r}", n)
            x, y = sy, tx

    return _run(inst, steps(), cfg, bounds)
