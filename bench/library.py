"""In-process library pipeline and its property checks.

``run_single`` / ``run_pair`` take one built instance through the public
API: certificates, every solver from every start, and enumeration at three
epsilons with diameters and bounds.  They return plain records; the checks
below test those records against numpy over the instance's own distance
matrix and map tables, and against the paper's inequalities in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from oracles import TOL, TabModel

EPSILONS = (0.01, 0.1, 1.0)
ORBIT_LEN = 12
MAX_ITER = 200
PAIR_K = 0.5  # hypothesis constant of the two-map diameter bound


@dataclass
class LibItem:
    """One instance of a workload's library family."""

    build: object            # callable(gp) -> Instance
    kind: str = "single"     # "single" or "pair"
    crr_grid: float = 0.02
    family: bool = False     # counts towards crr_k_mean; must certify
    solve_eps: float = 0.1
    alternating: tuple = ()  # (alpha, x1, y1) for the alternating scheme
    affine: tuple = ()       # (factor, shift) closed form of affine pairs


@dataclass
class Record:
    item: LibItem
    inst: object
    out: dict = field(default_factory=dict)


def run_single(gp, item: LibItem, inst) -> Record:
    rec = Record(item, inst)
    o = rec.out
    try:
        o["est"] = gp.min_contraction_factor(inst)
    except gp.ClassificationError:
        o["est"] = None
    o["nonexp"] = gp.is_edge_nonexpansive(inst)
    o["params"] = None
    if o["est"] is not None:
        o["params"] = gp.crr_params_feasible(inst, item.crr_grid)
        if o["params"] is not None:
            o["moh"] = gp.is_crr_moh(inst, o["params"])
        o["gcon"] = gp.is_g_contraction(inst, 0.9)
    cfg = gp.SolveConfig(item.solve_eps, MAX_ITER)
    pts = inst.points
    o["solves"] = [gp.find_proximity_point(inst, x, cfg) for x in pts]
    o["fixed"] = [gp.epsilon_fixed_point(inst, x, 2, cfg) for x in pts]
    o["orbits"] = [gp.picard_orbit(inst, x, ORBIT_LEN) for x in pts]
    params = o["params"]
    o["bounds"] = []
    if params is not None:
        dab = inst.d_ab
        for x, res in zip(pts, o["solves"]):
            if res.found:
                d0 = res.trace.residuals[0] + dab
                o["bounds"].append((x, res.iterations,
                                    gp.crr_iteration_bound(d0, params.k, dab, item.solve_eps),
                                    d0))
    o["sets"] = []
    for eps in EPSILONS:
        ps = gp.enumerate_proximity_set(inst, eps)
        diam = gp.proximity_diameter(inst, ps) if ps.members else None
        o["sets"].append((eps, ps.members, diam))
    try:
        o["minimizer"] = gp.minimizer_report(inst)
    except gp.DomainError:
        o["minimizer"] = None
    return rec


def run_pair(gp, item: LibItem, inst) -> Record:
    rec = Record(item, inst)
    o = rec.out
    o["preserves"] = gp.pair_preserves_edges(inst)
    o["crr2"] = gp.is_crr_2map(inst, gp.CrrParams(0.3, 0.1, 0.2))
    cfg = gp.SolveConfig(item.solve_eps, MAX_ITER)
    a, b = inst.sets.a, inst.sets.b
    o["parallel"] = [gp.two_map_parallel(inst, a[i], b[-1 - i], cfg)
                     for i in range(min(len(a), len(b), 8))]
    if item.alternating:
        alpha, x1, y1 = item.alternating
        acfg = gp.SolveConfig(1e-3, 400)
        o["alternating"] = gp.two_map_alternating(inst, x1, y1, alpha, 1.0 - alpha, acfg)
    o["sets"] = []
    for eps in EPSILONS:
        pps = gp.enumerate_pair_set(inst, eps)
        diam = gp.pair_diameter(inst, pps) if pps.members else None
        o["sets"].append((eps, pps.members, diam))
    return rec


def run(gp, item: LibItem) -> Record:
    inst = item.build(gp)
    return (run_pair if item.kind == "pair" else run_single)(gp, item, inst)


# ------------------------------------------------------------ checks

def _edge_matrix(inst):
    """The listed edges as an n x n boolean matrix; None for complete graphs."""
    g = inst.graph
    if g.rule == "complete":
        return None
    if g.rule != "explicit":
        raise ValueError(f"graph rule {g.rule!r} has no oracle")
    n = inst.space.dist.shape[0]
    edges = np.zeros((n, n), dtype=bool)
    if g.edges:
        xs, ys = zip(*g.edges)
        edges[list(xs), list(ys)] = True
    return edges


def tab_model(inst) -> TabModel:
    """Numpy model over the instance's matrix, index sets and tables."""
    table = inst.cyclic_map.table if inst.cyclic_map is not None else inst.map_pair.t.table
    return TabModel(inst.space.dist, table, inst.sets.a, inst.sets.b, _edge_matrix(inst))


def _geometric_bound(d0, k, dab, eps):
    """Smallest n with k^n (d0 - d(A,B)) <= eps."""
    gap = max(d0 - dab, 0.0)
    if gap <= eps:
        return 0
    if k == 0.0:
        return 1
    n = max(int(math.ceil(math.log(eps / gap) / math.log(k))), 1)
    while k ** n * gap > eps:
        n += 1
    return n


def check_single(rec: Record) -> tuple:
    """Returns (problems, certified k or None)."""
    item, inst, o = rec.item, rec.inst, rec.out
    m = tab_model(inst)
    bad = []
    label = inst.name

    def expect(cond, msg):
        if not cond:
            bad.append(f"{label}: {msg}")

    preserving = m.preserving_violation() is None
    expect((o["est"] is not None) == preserving, "edge preservation verdict")
    if o["est"] is not None:
        contractive, ratio, _edge = m.contraction()
        expect(o["est"].contractive == contractive
               and abs(o["est"].alpha_min - ratio) <= 1e-12, "contraction factor")
        expect(o["gcon"].ok == (m.max_margin(0.9) <= TOL), "g-contraction verdict")
    expect(o["nonexp"].ok == (m.max_margin(1.0) <= TOL), "nonexpansive verdict")

    params = o["params"]
    k = None
    if params is not None:
        a, b, c = params.alpha, params.beta, params.gamma
        expect(min(a, b, c) >= 0 and a + 2 * b + c < 1, "CRR triple leaves the simplex")
        expect(m.max_margin(a, b, c) <= TOL, "CRR inequality fails on an edge")
        expect(o["moh"].ok, "is_crr_moh rejects its own certificate")
        k = (a + b) / (1.0 - b)
        expect(abs(params.k - k) <= 1e-12, "decay rate formula")
        # the decay r_n <= k^n r_0 is proved along orbits that stay on edges
        for orbit in o["orbits"]:
            if not m.on_edges(orbit.points):
                continue
            r0 = orbit.residuals[0]
            for n, r in enumerate(orbit.residuals):
                if r > k ** n * r0 + TOL:
                    expect(False, f"residual {n} above k^n r0")
                    break
        for x, iters, bound, d0 in o["bounds"]:
            expect(bound == _geometric_bound(d0, k, m.dab, item.solve_eps),
                   "crr_iteration_bound differs from its closed form")
            path = m.orbit(x, item.solve_eps, MAX_ITER)[3]
            if m.on_edges(path + [int(m.table[path[-1]])]):
                expect(iters <= bound, f"stop after {iters} > a-priori bound {bound}")

    pts = m.order.tolist()
    for x, res in zip(pts, o["solves"]):
        status, witness, iters, _pts, _res = m.orbit(x, item.solve_eps, MAX_ITER)
        if res.status != status or res.witness != witness or res.iterations != iters:
            expect(False, f"solve from {x}: {res.status}/{res.iterations}, want {status}/{iters}")
            break
    for x, res in zip(pts, o["fixed"]):
        z, w, found = x, int(m.table[m.table[x]]), None
        for n in range(MAX_ITER + 1):
            if m.dist[z, w] < item.solve_eps:
                found = (z, n)
                break
            z, w = w, int(m.table[m.table[w]])
        got = (res.witness, res.iterations) if res.found else None
        if got != found:
            expect(False, f"epsilon fixed point from {x}: {got}, want {found}")
            break
    for x, orbit in zip(pts, o["orbits"]):
        seq = [x]
        for _ in range(ORBIT_LEN):
            seq.append(int(m.table[seq[-1]]))
        want = [float(m.dist[p, q]) - m.dab for p, q in zip(seq, seq[1:])]
        if list(orbit.points) != seq or not np.allclose(orbit.residuals, want, rtol=0, atol=1e-12):
            expect(False, f"Picard orbit from {x}")
            break

    contractive, alpha, _edge = m.contraction() if preserving else (False, None, None)
    prev = set()
    for eps, members, diam in o["sets"]:
        want = m.proximity_set(eps)
        expect(list(members) == want, f"proximity set at {eps}")
        expect(prev <= set(members), f"proximity sets not monotone at {eps}")
        prev = set(members)
        if members:
            expect(abs(diam - m.diameter(want)) <= 1e-12, f"diameter at {eps}")
            if contractive:
                bound = (2.0 * eps + 2.0 * m.dab) / (1.0 - alpha)
                expect(diam <= bound + TOL, f"diameter above 2(eps+d)/(1-alpha) at {eps}")
    rep = o["minimizer"]
    eligible = [(float(m.dist[x, m.table[x]]), pos, x) for pos, x in enumerate(pts)
                if m.is_edge(x, int(m.table[x]))]
    if rep is None:
        expect(not eligible, "minimizer missing")
    else:
        expect(rep.minimizer == min(eligible)[2], "minimizer point")
        if rep.nonexpansive:
            expect(rep.minimizer_in_set, "minimizer outside its level set")
    return bad, k


def _pair_model(inst, item):
    """A two-map instance over A x B: scalar maps and metric for the scheme
    simulations, and the arrays D = d(x,y), DF = d(Tx,Sy), U = d(x,Tx) +
    d(y,Sy) and E (the A x B edges, diagonal included).  Closed forms for
    the affine segment pairs, tables and the matrix for tabulated ones."""
    pa, pb = list(inst.sets.a), list(inst.sets.b)
    if item.affine:
        f, shift = item.affine
        a, b = np.asarray(pa, dtype=float), np.asarray(pb, dtype=float)
        ta = np.stack([f * a[:, 0] + shift, np.ones(len(a))], axis=1)
        sb = np.stack([f * b[:, 0] + shift, np.zeros(len(b))], axis=1)

        def norm(p, q):
            return np.sqrt(((p - q) ** 2).sum(-1))

        d, df = norm(a[:, None], b[None]), norm(ta[:, None], sb[None])
        u = norm(a, ta)[:, None] + norm(b, sb)[None]
        return (lambda p: (f * p[0] + shift, 1.0), lambda p: (f * p[0] + shift, 0.0),
                math.dist, lambda x, y: True, d, df, u, np.ones(d.shape, dtype=bool))
    dist = inst.space.dist
    t = np.asarray(inst.map_pair.t.table, dtype=np.intp)
    s = np.asarray(inst.map_pair.s.table, dtype=np.intp)
    a, b = np.asarray(pa, dtype=np.intp), np.asarray(pb, dtype=np.intp)
    listed = _edge_matrix(inst)

    def is_edge(x, y):
        return x == y or listed is None or bool(listed[x, y])

    d = dist[np.ix_(a, b)]
    df = dist[np.ix_(t[a], s[b])]
    u = dist[a, t[a]][:, None] + dist[b, s[b]][None]
    mask = np.ones(d.shape, dtype=bool) if listed is None else (
        listed[np.ix_(a, b)] | (a[:, None] == b[None]))
    return (lambda i: int(t[i]), lambda i: int(s[i]), lambda p, q: float(dist[p, q]),
            is_edge, d, df, u, mask)


def _parallel(t, s, dist, is_edge, dab, x, y, eps, max_iter):
    if not is_edge(x, y):
        return False, None, 0
    for n in range(max_iter + 1):
        if dist(t(x), s(y)) - dab <= eps + TOL:
            return True, (x, y), n
        x, y = t(x), s(y)
    return False, None, max_iter


def check_pair(rec: Record) -> tuple:
    item, inst, o = rec.item, rec.inst, rec.out
    bad = []
    label = inst.name

    def expect(cond, msg):
        if not cond:
            bad.append(f"{label}: {msg}")

    t, s, dist, is_edge, d, df, u, mask = _pair_model(inst, item)
    pa, pb = list(inst.sets.a), list(inst.sets.b)
    dab = float(d.min())
    bad_img = [(x, y) for x, y in zip(*(v.tolist() for v in np.nonzero(mask)))
               if not (is_edge(t(pa[x]), t(pb[y])) and is_edge(s(pa[x]), s(pb[y])))]
    violation = (pa[bad_img[0][0]], pb[bad_img[0][1]]) if bad_img else None
    expect(tuple(o["preserves"]) == (violation is None, violation), "pair edge preservation")
    margin = float((df - 0.3 * d - 0.1 * u - 0.2 * dab)[mask].max())
    expect(o["crr2"].ok == (violation is None and margin <= TOL), "two-map CRR verdict")
    for i, res in enumerate(o["parallel"]):
        want = _parallel(t, s, dist, is_edge, dab, pa[i], pb[-1 - i],
                         item.solve_eps, MAX_ITER)
        if (res.found, res.witness, res.iterations) != want:
            expect(False, f"parallel scheme from ({pa[i]}, {pb[-1 - i]})")
            break
    if item.alternating:
        alpha, x1, y1 = item.alternating
        res = o["alternating"]
        d0 = dist(x1, y1)
        expect(res.found, "alternating scheme did not converge")
        for n, r in enumerate(res.trace.residuals):
            bound = alpha ** n * d0 + (1.0 - alpha ** n) * dab
            if r + dab > bound + TOL:
                expect(False, f"alternating gap above its geometric bound at step {n}")
                break
    # hypothesis of the two-map diameter bound: d(x,Tx) + d(Sy,y) <= k d(x,y)
    hyp = bool(np.all(u <= PAIR_K * d))
    prev = set()
    for eps, members, diam in o["sets"]:
        keep = mask & (df <= dab + eps + TOL)
        ii, jj = np.nonzero(keep)
        want = [(pa[i], pb[j]) for i, j in zip(ii.tolist(), jj.tolist())]
        expect(list(members) == want, f"pair set at {eps}")
        expect(prev <= set(members), f"pair sets not monotone at {eps}")
        prev = set(members)
        if members:
            expect(abs(diam - float(d[keep].max())) <= 1e-12, f"pair diameter at {eps}")
            if hyp:
                bound = (eps + dab) / (1.0 - PAIR_K)
                expect(diam <= bound + TOL, f"pair diameter above (eps+d)/(1-k) at {eps}")
    return bad, None


def check(rec: Record) -> tuple:
    return (check_pair if rec.item.kind == "pair" else check_single)(rec)
