"""Classification of cyclic maps against the operator classes.

Every check scans the edges of the instance's graph with the instance's
absolute slack ``Instance.tol`` on the distance inequalities; the parameter
simplex constraint alpha + 2*beta + gamma < 1 stays strict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ._scan import EdgeScanner, fold_max
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


def min_contraction_factor(inst: Instance) -> ContractionEstimate:
    """Smallest uniform factor shrinking every edge, by exhaustive scan.

    Vacuous suprema (no edge with positive distance) give 0.  The result is
    flagged non-contractive when the factor reaches 1 or some zero-length
    edge has a positive-length image.
    """
    eng = inst.engine
    _require_preserving(eng)
    cert = eng.certificate
    if cert.zero_edge is not None:
        return ContractionEstimate(False, math.inf, cert.zero_edge)
    return ContractionEstimate(cert.ratio < 1.0, cert.ratio, cert.ratio_edge)


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


def crr_params_feasible(inst: Instance, grid_step: float) -> Optional[CrrParams]:
    """Deterministic grid search for feasible CRR constants.

    Scans the simplex alpha + 2*beta + gamma < 1 at the given resolution in
    lexicographic order and returns the first feasible triple, or None.
    Each refuted candidate leaves its worst edge's (d, df, u) behind as a
    cut, so most candidates die on a handful of cuts instead of a full scan.
    The first candidate, (0, 0, 0), has excess d(fx, fy) on every edge, so
    the certificate pass's largest image distance, the first cut, refutes
    it unless every image distance is within the instance's tol.  The cuts
    stay on the engine for every later search (another grid); a cut tests
    the fold's own expression, so it refutes exactly the candidates a full
    pass would, and no result depends on which search found it.
    """
    if not grid_step > 0:
        raise DomainError("grid step must be positive")
    eng = inst.engine
    _require_preserving(eng)
    dab, tol = inst.d_ab, inst.tol
    values = [i * grid_step for i in range(math.ceil(1.0 / grid_step) + 1)]
    for a in values:
        for b in values:
            if a + 2 * b >= 1:
                break
            for c in values:
                if a + 2 * b + c >= 1:
                    break
                if any(df - a * d - b * u - c * dab > tol for d, df, u in eng.cuts):
                    continue
                worst, _, witness = fold_max(eng, a, b, c * dab)
                if worst <= tol:
                    return CrrParams(a, b, c)
                eng.cuts.append(witness)
    return None


def pair_preserves_edges(inst: Instance):
    """Condition (i) of the two-map class over E(G) restricted to A x B."""
    return inst.pair_engine.preserved


def is_crr_2map(inst: Instance, params: CrrParams) -> CheckResult:
    """Two-map class: both maps preserve A x B edges and
    d(Tx, Sy) <= a d(x,y) + b [d(x,Tx) + d(y,Sy)] + c d(A,B) on them."""
    return _fold_check(inst.pair_engine, params.alpha, params.beta, params.gamma * inst.d_ab)
