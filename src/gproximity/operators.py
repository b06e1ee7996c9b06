"""Classification of cyclic maps against the operator classes.

Every check scans the edges of the instance's graph with the instance's
absolute slack ``Instance.tol`` on the distance inequalities; the parameter
simplex constraint alpha + 2*beta + gamma < 1 stays strict.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._constants import MAX_CRR_CANDIDATES, crr_grid_fits
from ._scan import EdgeScanner, contracts, fold_max
from .errors import ClassificationError, DomainError
from .maps import CrrParams, Instance
from .metric import ValidationReport, Violation


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    worst_edge: Optional[tuple] = None
    margin: Optional[float] = None
    reason: str = ""

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class ContractionEstimate:
    contractive: bool
    alpha_min: float
    worst_edge: Optional[tuple] = None


def validate_cyclic(inst: Instance) -> ValidationReport:
    """Flag every a in A with f(a) outside B and every b in B with f(b) outside A."""
    f = inst.require_map()
    return _cyclic_report(inst.sets, f, f, ("", ""))


def validate_pair(inst: Instance) -> ValidationReport:
    """Two-map variant: T(A) in B and S(B) in A."""
    pair = inst.require_pair()
    return _cyclic_report(inst.sets, pair.t, pair.s, ("T-", "S-"))


def _cyclic_report(sets, t, s, labels) -> ValidationReport:
    out = []
    for pts, fn, inside, label, src, dst in ((sets.a, t, sets.in_b, labels[0], "A", "B"),
                                             (sets.b, s, sets.in_a, labels[1], "B", "A")):
        for p in pts:
            try:
                fp = fn(p)
            except DomainError as exc:
                out.append(Violation("cyclic", (p,), f"{label}image of {src}-point: {exc}"))
                continue
            if not inside(fp):
                out.append(Violation("cyclic", (p,), f"{label}image {fp!r} of {src}-point is not in {dst}"))
    return ValidationReport(tuple(out))


def _require_preserving(eng: EdgeScanner):
    ok, edge = eng.preserved
    if not ok:
        raise ClassificationError(f"map does not preserve edges; violating edge {edge!r}")


def _fold_check(eng: EdgeScanner, a: float, b: float = 0.0, c: float = 0.0) -> CheckResult:
    """Edge preservation, then d(fx, fy) - a d(x, y) - b [d(x, fx) + d(y, fy)]
    - c <= the engine's tol on every edge."""
    ok, edge = eng.preserved
    if not ok:
        return CheckResult(False, worst_edge=edge, reason="edge preservation fails")
    worst, pos, _ = fold_max(eng, a, b, c)
    if worst is None:
        return CheckResult(True, margin=0.0)
    return CheckResult(worst <= eng.tol, worst_edge=tuple(eng.points[i] for i in pos), margin=worst)


def min_contraction_factor(inst: Instance,
                           verdict_only: bool = False) -> Optional[ContractionEstimate]:
    """Smallest uniform factor shrinking every edge, by exhaustive scan.

    Vacuous suprema (no edge with positive distance) give 0.  The result is
    flagged non-contractive when the factor reaches 1 or some zero-length
    edge has a positive-length image.  With ``verdict_only``, for a caller
    that reads the factor of a contraction only, the pass stops at the first
    block that refutes one and a non-contractive map gives None.
    """
    eng = inst.engine
    _require_preserving(eng)
    if verdict_only:
        cert = eng.contraction_certificate()
        return None if cert is None else ContractionEstimate(True, cert.ratio, cert.ratio_edge)
    cert = eng.certificate
    if cert.zero_edge is not None:
        return ContractionEstimate(False, math.inf, cert.zero_edge)
    return ContractionEstimate(contracts(cert), cert.ratio, cert.ratio_edge)


def is_g_contraction(inst: Instance, alpha: float) -> CheckResult:
    """Edge preservation plus d(fx, fy) <= alpha * d(x, y) on every edge."""
    if not (0.0 < alpha < 1.0):
        raise DomainError("contraction factor must lie in (0, 1)")
    return _fold_check(inst.engine, alpha)


def is_edge_nonexpansive(inst: Instance) -> CheckResult:
    """d(fx, fy) <= d(x, y) on every edge."""
    cert = inst.engine.certificate
    return CheckResult(cert.margin <= inst.tol, worst_edge=cert.margin_edge, margin=cert.margin)


def is_crr_moh(inst: Instance, params: CrrParams) -> CheckResult:
    """d(fx,fy) <= a d(x,y) + b [d(x,fx) + d(y,fy)] + c d(A,B) on every edge."""
    return _fold_check(inst.engine, params.alpha, params.beta, params.gamma * inst.d_ab)


@functools.lru_cache(maxsize=4)
def _crr_grid(grid_step: float):
    """Read-only arrays (A, B, C) of the candidates (a, b, c) of the simplex
    alpha + 2*beta + gamma < 1 at ``grid_step``, in lexicographic order:
    each coordinate runs over i * grid_step, i = 0..ceil(1 / grid_step).
    Strictness is decided on the indices, in exact arithmetic: a pair (i, j)
    is kept only when (i + 2j) * grid_step < 1, a triple only when
    (i + 2j + k) * grid_step < 1, so no candidate lies on the boundary that
    float rounding of the sum would hide.  A candidate whose float sum
    a + 2*b + c, rounded in that order, reaches 1 is left out too: that is
    the test ``CrrParams`` makes."""
    num, den = float(grid_step).as_integer_ratio()  # grid_step == num / den exactly
    limit = -(-den // num)  # s * grid_step < 1 exactly iff the index sum s < limit
    index = np.arange(math.ceil(1.0 / grid_step) + 1)
    values = index * grid_step
    i, j = (x.ravel() for x in np.meshgrid(index, index, indexing="ij"))
    a, b = values[i], values[j]
    pair = (i + 2 * j < limit) & (a + 2 * b < 1)
    i, j, a, b = i[pair], j[pair], a[pair], b[pair]
    p, k = np.nonzero((index < (limit - i - 2 * j)[:, None]) & ((a + 2 * b)[:, None] + values < 1))
    grid = a[p], b[p], values[k]
    for x in grid:
        x.flags.writeable = False
    return grid


def crr_params_feasible(inst: Instance, grid_step: float) -> Optional[CrrParams]:
    """Deterministic grid search for feasible CRR constants.

    Scans the simplex alpha + 2*beta + gamma < 1 at the given resolution in
    lexicographic order and returns the first feasible triple, or None.
    Every candidate of the grid (``_crr_grid``) starts alive in one mask, and
    each cut, an edge's (d, df, u), kills those whose excess there,
    df - a*d - b*u - c*d(A, B), exceeds the instance's tol: the fold's own
    expression and order, so a cut refutes exactly the candidates a full
    pass would.  The first survivor gets one full ``fold_max`` pass; when it
    fails, its worst edge becomes a new cut, applied to the candidates after
    it, and the next survivor is tried.  The first candidate, (0, 0, 0), has
    excess d(fx, fy) on every edge, so the certificate pass's largest image
    distance, the first cut, refutes it unless every image distance is
    within the instance's tol.  The cuts stay on the engine for every later
    search (another grid), and no result depends on which search found them.
    A grid step outside (0, inf), or one whose grid would lay out more than
    MAX_CRR_CANDIDATES candidates (``crr_grid_fits``), raises DomainError.
    """
    if not crr_grid_fits(grid_step):
        raise DomainError(f"grid step {grid_step!r} must be positive, with at most "
                          f"{MAX_CRR_CANDIDATES} grid candidates")
    eng = inst.engine
    _require_preserving(eng)
    dab, tol = inst.d_ab, inst.tol
    a, b, c = _crr_grid(float(grid_step))
    alive = np.ones(a.size, dtype=bool)

    def cut(witness, k=0):
        d, df, u = witness
        alive[k:] &= ~(df - a[k:] * d - b[k:] * u - c[k:] * dab > tol)

    for witness in eng.cuts:
        cut(witness)
    k = int(np.argmax(alive))
    while alive[k]:
        x, y, z = float(a[k]), float(b[k]), float(c[k])
        worst, _, witness = fold_max(eng, x, y, z * dab)
        if worst <= tol:
            return CrrParams(x, y, z)
        eng.cuts.append(witness)
        alive[k] = False
        cut(witness, k + 1)
        k = int(np.argmax(alive))
    return None


def pair_preserves_edges(inst: Instance):
    """Condition (i) of the two-map class over E(G) restricted to A x B."""
    return inst.pair_engine.preserved


def is_crr_2map(inst: Instance, params: CrrParams) -> CheckResult:
    """Two-map class: both maps preserve A x B edges and
    d(Tx, Sy) <= a d(x,y) + b [d(x,Tx) + d(y,Sy)] + c d(A,B) on them."""
    return _fold_check(inst.pair_engine, params.alpha, params.beta, params.gamma * inst.d_ab)
