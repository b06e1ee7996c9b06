"""The edge engine against plain loops over all pairs with contains_edge,
and its half-triangle scans against folds over the full square of pairs."""
import contextlib
import dataclasses
import io
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gproximity as gp
import gproximity._scan
import gproximity.cli
import gproximity.operators
from gproximity.cli import main
from gproximity.errors import ClassificationError
from gproximity.metric import within_epsilon

TOL = 1e-9
PARAMS = gp.CrrParams(0.3, 0.1, 0.2)
RULES = ("complete", "diagonal", "explicit", "pairs")
BLOCKS = (1, 5, gproximity._scan._BLOCK_ELEMS)  # small blocks split the folds


def closed_edges(rng, n, tables, p):
    """Random edges, most of the diagonal, optionally closed under the maps."""
    edges = {(i, i) for i in range(n) if rng.random() < 0.8}
    edges.update((i, j) for i in range(n) for j in range(n) if rng.random() < p)
    if rng.random() < 0.5:
        while True:
            grown = edges | {(t[i], t[j]) for t in tables for i, j in edges}
            if grown == edges:
                break
            edges = grown
    return edges


def make_graph(rule, edges):
    """The graph of a rule; "pairs" lists the edges as an instance file
    may, in its own order with repeated pairs, and "explicit" takes them
    from a set."""
    if rule == "complete":
        return gp.complete_graph()
    if rule == "diagonal":
        return gp.diagonal_graph()
    if rule == "explicit":
        return gp.explicit_graph(edges)
    listed = sorted(edges)[::-1]
    listed += listed[::2]
    return gp.DirectedGraph(gp.EXPLICIT, pairs=([i for i, _ in listed], [j for _, j in listed]))


def cloud(rng, n):
    """Planar points; some coincide, so zero-length edges occur."""
    coords = rng.uniform(0.0, 1.0, size=(n, 2))
    for k in range(1, n):
        if rng.random() < 0.15:
            coords[k] = coords[rng.integers(k)]
    return gp.TabulatedSpace(np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1)))


def single_instance(seed, rule):
    rng = np.random.default_rng(seed)
    n_a, n_b = (int(v) for v in rng.integers(2, 6, size=2))
    n = n_a + n_b
    table = [int(rng.integers(n_a, n)) for _ in range(n_a)] + \
            [int(rng.integers(0, n_a)) for _ in range(n_b)]
    edges = closed_edges(rng, n, [table], float(rng.uniform(0.2, 0.8)))
    return gp.Instance(f"single-{seed}", cloud(rng, n),
                       gp.SubsetPair(tuple(range(n_a)), tuple(range(n_a, n))),
                       make_graph(rule, edges), cyclic_map=gp.CyclicMap("t", table=table))


def pair_instance(seed, rule):
    """A and B overlap and B is listed out of index order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    n_a = int(rng.integers(2, n - 1))
    a = tuple(range(n_a))
    shared = [int(i) for i in rng.choice(n_a, size=int(rng.integers(0, 2)), replace=False)]
    b = [int(i) for i in rng.permutation(list(range(n_a, n)) + shared)]
    t = [int(rng.choice(b)) for _ in range(n)]
    s = [int(rng.integers(0, n_a)) for _ in range(n)]
    edges = closed_edges(rng, n, [t, s], float(rng.uniform(0.2, 0.8)))
    pair = gp.MapPair(gp.CyclicMap("t", table=t), gp.CyclicMap("s", table=s))
    return gp.Instance(f"pair-{seed}", cloud(rng, n), gp.SubsetPair(a, tuple(b)),
                       make_graph(rule, edges), map_pair=pair)


def scan_edges(g, xs, ys):
    """Edges of xs x ys in loop order: every pair that contains_edge accepts,
    so self-loops count whether listed or not."""
    return [(x, y) for x in xs for y in ys if gp.contains_edge(g, x, y)]


def decoded(eng):
    """(I, J) of every edge of a pass, as each block's ``pairs`` decodes it."""
    return np.concatenate([np.empty((2, 0), np.intp)] + [
        pairs(np.arange(df.size)) for pairs, _d, df, _u in eng.blocks()], axis=1)


def listed_edges(eng):
    """The edges of an engine as point pairs, in its scan order."""
    i, j = decoded(eng).tolist()
    return [(eng.points[a], eng.points[b]) for a, b in zip(i, j)]


def scan_order(eng):
    """(i, j) of an engine's edges in scan order, from row-major loops over
    contains_edge: over all rows and columns for listed edges, else over
    each row block of the layout, from its first column rank on."""
    pts, rows, cols = eng.points, eng.rows.tolist(), eng.cols.tolist()
    spans = [(0, len(rows), 0)] if eng.edges is not None else eng._layout
    return [(i, j) for s, e, lo in spans for i in rows[s:e] for j in cols[lo:]
            if gp.contains_edge(eng.graph, pts[i], pts[j])]


def pass_df(eng, **kwargs):
    """DF of every edge of a pass, in scan order, copied out of the blocks."""
    return np.concatenate([np.empty(0)] + [df.copy() for _p, _d, df, _u in eng.blocks(**kwargs)])


def first_broken(g, edges, *maps):
    for x, y in edges:
        if any(not gp.contains_edge(g, m(x), m(y)) for m in maps):
            return (x, y)
    return None


def worst(rows):
    """(max value, first edge reaching it) of (value, edge) rows."""
    best = None
    for v, e in rows:
        if best is None or v > best[0]:
            best = (v, e)
    return best


def check(result, expected):
    """CheckResult against the brute-force (margin, edge) of a fold; without
    edges the check holds with margin 0."""
    margin, edge = expected or (0.0, None)
    assert result.ok == (margin <= TOL)
    assert result.margin == margin
    assert result.worst_edge == edge


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(RULES), st.sampled_from(BLOCKS))
def test_single_map_engine_matches_brute_force(seed, rule, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gproximity._scan, "_BLOCK_ELEMS", block)
        check_single_map(single_instance(seed, rule), rule)


def check_single_map(inst, rule):
    g, f, d, pts = inst.graph, inst.cyclic_map, inst.space.distance, inst.points
    edges = scan_edges(g, pts, pts)
    dab = min(d(x, y) for x in inst.sets.a for y in inst.sets.b)
    assert inst.d_ab == dab

    broken = first_broken(g, edges, f)
    eng = inst.engine
    assert eng.preserved == (broken is None, broken)
    if rule != "complete":
        assert listed_edges(eng) == edges
    if broken is not None:
        with pytest.raises(ClassificationError):
            gp.min_contraction_factor(inst)
        res = gp.is_crr_moh(inst, PARAMS)
        assert not res.ok and res.worst_edge == broken
    else:
        zero = next(((x, y) for x, y in edges if d(x, y) <= 0.0 and d(f(x), f(y)) > TOL), None)
        est = gp.min_contraction_factor(inst)
        if zero is not None:
            assert (est.contractive, est.alpha_min, est.worst_edge) == (False, math.inf, zero)
        else:
            ratio = worst((d(f(x), f(y)) / d(x, y), (x, y)) for x, y in edges if d(x, y) > 0.0)
            ratio = ratio or (0.0, None)
            assert (est.contractive, est.alpha_min, est.worst_edge) == (ratio[0] < 1.0, *ratio)
        a, b, c = PARAMS.alpha, PARAMS.beta, PARAMS.gamma
        check(gp.is_crr_moh(inst, PARAMS),
              worst((d(f(x), f(y)) - a * d(x, y) - b * (d(x, f(x)) + d(y, f(y))) - c * dab,
                     (x, y)) for x, y in edges))
    check(gp.is_edge_nonexpansive(inst),
          worst((d(f(x), f(y)) - d(x, y), (x, y)) for x, y in edges))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(RULES), st.sampled_from(BLOCKS))
def test_two_map_engine_matches_brute_force(seed, rule, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gproximity._scan, "_BLOCK_ELEMS", block)
        check_two_map(pair_instance(seed, rule), rule)


def check_two_map(inst, rule):
    g, d = inst.graph, inst.space.distance
    t, s = inst.map_pair.t, inst.map_pair.s
    a_pts, b_pts = inst.sets.a, inst.sets.b
    edges = scan_edges(g, a_pts, b_pts)
    dab = min(d(x, y) for x in a_pts for y in b_pts)

    broken = first_broken(g, edges, t, s) if rule != "complete" else None
    assert gp.pair_preserves_edges(inst) == (broken is None, broken)
    res = gp.is_crr_2map(inst, PARAMS)
    if broken is not None:
        assert not res.ok and res.worst_edge == broken
    else:
        a, b, c = PARAMS.alpha, PARAMS.beta, PARAMS.gamma
        check(res, worst((d(t(x), s(y)) - a * d(x, y) - b * (d(x, t(x)) + d(y, s(y))) - c * dab,
                          (x, y)) for x, y in edges))
    for eps in (0.0, 0.1, 0.5):
        members = tuple((x, y) for x in a_pts for y in b_pts
                        if d(t(x), s(y)) <= dab + eps + TOL and gp.contains_edge(g, x, y))
        assert gp.enumerate_pair_set(inst, eps).members == members


def test_other_map_gets_its_own_engine():
    inst = single_instance(3, "complete")
    n = len(inst.points)
    own = gp.min_contraction_factor(inst)
    other = gp.CyclicMap("other", table=[n - 1 - i for i in range(n)])
    twin = dataclasses.replace(inst, cyclic_map=other)
    check_single_map(twin, "complete")
    assert twin.engine is not inst.engine
    assert twin.engine.images_left == tuple(other(p) for p in twin.points)
    assert gp.min_contraction_factor(inst) == own
    assert inst.engine is inst.engine


def test_unlisted_self_loop_is_an_edge_of_every_scan():
    """Points 0, 1, 2 at 0, 1, 2; A = {0, 1}, B = {1, 2}.  The verdict must
    not depend on whether the self-loop (1, 1) is written down."""
    space = gp.TabulatedSpace(np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0))))
    pair = gp.MapPair(gp.CyclicMap("t", table=(1, 2, 1)), gp.CyclicMap("s", table=(1, 0, 1)))
    for listed in ({(0, 0), (2, 2), (0, 2)}, {(0, 0), (1, 1), (2, 2), (0, 2)}):
        inst = gp.Instance("loops", space, gp.SubsetPair((0, 1), (1, 2)),
                           gp.explicit_graph(listed), map_pair=pair)
        res = gp.is_crr_2map(inst, PARAMS)
        assert (res.ok, res.worst_edge, res.margin) == (False, (1, 1), pytest.approx(1.8))
        assert gp.enumerate_pair_set(inst, 2.0).members == ((0, 2), (1, 1))
        assert listed_edges(inst.pair_engine) == [(0, 2), (1, 1)]
        eng = dataclasses.replace(inst, map_pair=None, cyclic_map=pair.t).engine
        assert eng.preserved == (True, None)
        assert listed_edges(eng) == [(0, 0), (0, 2), (1, 1), (2, 2)]


def line_space(n):
    return gp.TabulatedSpace(np.abs(np.subtract.outer(np.arange(float(n)), np.arange(float(n)))))


def test_pair_engine_scans_rows_then_cols_order():
    g = gp.explicit_graph({(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)})
    pair = gp.MapPair(gp.CyclicMap("t", table=(2, 3, 0, 1)), gp.CyclicMap("s", table=(0, 1, 2, 3)))
    inst = gp.Instance("order", line_space(4), gp.SubsetPair((1, 0), (3, 2)), g, map_pair=pair)
    eng = inst.pair_engine
    assert listed_edges(eng) == [(1, 3), (1, 2), (0, 3), (0, 2)]


def test_repeated_entry_scans_as_in_the_complete_graph():
    """A library-built A that repeats point 0: a graph listing every pair
    scans it like the complete graph, each entry at its own place."""
    pair = gp.MapPair(gp.CyclicMap("t", table=(2, 3, 2, 3)), gp.CyclicMap("s", table=(0, 1, 0, 1)))
    every = gp.explicit_graph({(x, y) for x in range(4) for y in range(4)})
    insts = [gp.Instance("repeat", line_space(4), gp.SubsetPair((0, 0, 1), (2, 3)), g,
                         map_pair=pair) for g in (gp.complete_graph(), every)]
    members = [gp.enumerate_pair_set(inst, 10.0).members for inst in insts]
    assert members[0] == members[1] and len(members[1]) == 6
    assert gp.is_crr_2map(insts[0], PARAMS) == gp.is_crr_2map(insts[1], PARAMS)


# Half-triangle scans: the engine's folds against row-major folds over the
# full n x n square of pairs.

CRR_GRID = 0.1


def grid_instance(seed):
    """Integer-grid planar points under a map into the grid: many equal
    distances, so ties for every arg-max."""
    rng = np.random.default_rng(seed)
    grid = [(float(x), float(y)) for x in range(4) for y in range(4)]
    pts = [grid[k] for k in rng.permutation(len(grid))[:int(rng.integers(2, 15))]]
    n_a = int(rng.integers(1, len(pts)))
    images = {p: grid[int(rng.integers(len(grid)))] for p in pts}
    return gp.Instance(f"grid-{seed}", gp.CoordinateSpace(2),
                       gp.SubsetPair(tuple(pts[:n_a]), tuple(pts[n_a:])),
                       gp.complete_graph(), cyclic_map=gp.CyclicMap("grid", fn=images.__getitem__))


def line_instance(seed, skew=False):
    """Integer positions on a line, some coincident, under a random table;
    with ``skew`` one positive distance is raised by one ulp, so the matrix
    is no longer exactly symmetric."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 14))
    pos = rng.integers(0, 5, size=n).astype(float)
    dist = np.abs(np.subtract.outer(pos, pos))
    if skew:
        dist[0, 1] = dist[1, 0] = 1.0
        dist[0, 1] = np.nextafter(1.0, 2.0)
    n_a = int(rng.integers(1, n))
    table = [int(t) for t in rng.integers(0, n, size=n)]
    return gp.Instance(f"line-{seed}", gp.TabulatedSpace(dist),
                       gp.SubsetPair(tuple(range(n_a)), tuple(range(n_a, n))),
                       gp.complete_graph(), cyclic_map=gp.CyclicMap("t", table=table))


def shared_ratio_instance():
    """Points 0..6 on a line and k -> min(2k, 6): the largest ratio, 2, is
    reached by every edge among 0..3 in both directions."""
    dist = np.abs(np.subtract.outer(np.arange(7.0), np.arange(7.0)))
    return gp.Instance("shared", gp.TabulatedSpace(dist),
                       gp.SubsetPair((0, 1, 2, 3), (4, 5, 6)), gp.complete_graph(),
                       cyclic_map=gp.CyclicMap("t", table=(0, 2, 4, 6, 6, 6, 6)))


def square(inst):
    """Row-major D, DF and U over all n x n pairs of points."""
    space = inst.space
    pts = inst.points
    p = gproximity._scan.point_array(space, pts)
    f = gproximity._scan.point_array(space, [inst.cyclic_map(x) for x in pts])
    own = gproximity._scan.elem_dists(space, p, f)
    return (gproximity._scan.cross_dists(space, p, p).ravel(),
            gproximity._scan.cross_dists(space, f, f).ravel(),
            np.add.outer(own, own).ravel())


def first_max(values):
    """(max, first row-major position) of a flat array."""
    k = int(np.argmax(values))
    return float(values[k]), k


def crr_grid_reference(d, df, u, dab):
    """The lexicographic grid search with a full fold for every candidate."""
    values = [i * CRR_GRID for i in range(int(math.ceil(1.0 / CRR_GRID)) + 1)]
    for a in values:
        for b in values:
            if a + 2 * b >= 1:
                break
            for c in values:
                if a + 2 * b + c >= 1:
                    break
                if (df - a * d - b * u - c * dab).max() <= TOL:
                    return gp.CrrParams(a, b, c)
    return None


def check_against_square(inst, symmetric, seed=0):
    eng = inst.engine
    assert eng.symmetric == symmetric
    pts, n = inst.points, len(inst.points)
    d, df, u = square(inst)

    def edge(k):
        return pts[k // n], pts[k % n]

    zero = np.flatnonzero((d <= 0.0) & (df > TOL))
    mask = d > 0.0
    ratio, ratio_at = first_max(np.where(mask, df / np.where(mask, d, 1.0), -np.inf)) \
        if mask.any() else (0.0, None)
    margin, margin_at = first_max(df - d)
    reach, reach_at = first_max(df)
    assert eng.certificate == (
        edge(zero[0]) if zero.size else None, ratio,
        None if ratio_at is None else edge(ratio_at), margin, edge(margin_at),
        reach, (float(d[reach_at]), reach, float(u[reach_at])))

    dab = inst.d_ab
    rng = np.random.default_rng(seed)
    drawn = rng.uniform(0.0, 1.0, size=(4, 3)) * (rng.random((4, 3)) < 0.7)  # zeros included
    for consts, values in (((0.0, 0.0, 0.0 * dab), df - 0.0 * d - 0.0 * u - 0.0 * dab),
                           ((0.7,), df - 0.7 * d),
                           ((0.3, 0.1, 0.2 * dab), df - 0.3 * d - 0.1 * u - 0.2 * dab),
                           *(((a, b, c), df - a * d - b * u - c) for a, b, c in drawn.tolist())):
        value, k = first_max(values)
        assert gproximity._scan.fold_max(eng, *consts) == \
            (value, divmod(k, n), (float(d[k]), float(df[k]), float(u[k])))
    assert gp.crr_params_feasible(inst, CRR_GRID) == crr_grid_reference(d, df, u, dab)

    if gproximity._scan._BLOCK_ELEMS == 1:  # one row per block
        visited = sum(blk[2].size for blk in eng.blocks())
        assert visited == (n * (n + 1) // 2 if symmetric else n * n)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(("grid", "line", "skewed")),
       st.sampled_from(BLOCKS))
def test_half_scan_matches_full_square(seed, kind, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gproximity._scan, "_BLOCK_ELEMS", block)
        if kind == "grid":
            check_against_square(grid_instance(seed), True, seed)
        else:
            check_against_square(line_instance(seed, skew=kind == "skewed"), kind == "line", seed)


@pytest.mark.parametrize("block", BLOCKS)
def test_shared_largest_ratio_keeps_first_edge(block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gproximity._scan, "_BLOCK_ELEMS", block)
        inst = shared_ratio_instance()
        check_against_square(inst, True)
        d, df, _u = square(inst)
        assert np.count_nonzero((d > 0.0) & (df == 2.0 * d)) == 12
        assert gp.min_contraction_factor(inst).worst_edge == (0, 1)


def test_reach_is_the_fold_of_the_zero_candidate():
    for inst in (gp.contraction_instance(2), gp.reflection_instance(5),
                 gp.random_instance(9, 6, 7, graph_rule="random:0.6"), gp.ellipse_example(0.2)):
        eng = inst.engine
        value, _edge, witness = gproximity._scan.fold_max(eng, 0.0, 0.0, 0.0 * inst.d_ab)
        assert (eng.certificate.reach, eng.certificate.reach_witness) == (value, witness)


def count_passes(monkeypatch):
    """Patch EdgeScanner.blocks to record the edges of every pass."""
    passes = []
    blocks = gproximity._scan.EdgeScanner.blocks

    def counted(self, **kwargs):
        passes.append(0)
        for blk in blocks(self, **kwargs):
            passes[-1] += blk[2].size
            yield blk

    monkeypatch.setattr(gproximity._scan.EdgeScanner, "blocks", counted)
    return passes


def test_classify_isometry_makes_one_pass(tmp_path, monkeypatch):
    """The certificate pass gives the first CRR cut; on the mirror map of the
    ellipse example no later candidate survives the cuts."""
    path = tmp_path / "ellipse.gpx"
    inst = gp.ellipse_example(0.1)
    gp.save_instance(inst, path)
    passes = count_passes(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["classify", str(path)]) == 0
    assert "crr-params: none" in out.getvalue()
    n = len(inst.points)
    assert len(passes) == 1 and passes[0] < 0.7 * n * n


def test_certificate_pass_memory_is_a_few_blocks():
    import tracemalloc

    xs = tuple((float(x),) for x in range(3000))
    inst = gp.Instance("line", gp.CoordinateSpace(1), gp.SubsetPair(xs[:1500], xs[1500:]),
                       gp.complete_graph(),
                       cyclic_map=gp.CyclicMap("flip", fn=lambda p: (2999.0 - p[0],)))
    eng = inst.engine
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cert = eng.certificate
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (cert.ratio, cert.reach) == (1.0, 2999.0)
    assert peak < 10 * 8 * gproximity._scan._BLOCK_ELEMS < 3000 * 3000 * 8 / 10


def test_demo_crr_searches_share_cuts(monkeypatch):
    """classify searches the constants at grid 0.05 and the solve report at
    0.1; the first search's cut refutes the second's candidates, so the demo
    makes two passes: the certificate and one fold."""
    passes = count_passes(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["demo", "interval"]) == 0
    assert len(passes) == 2


CRR_KINDS = ("complete", "explicit", "grid", "line")


def crr_instance(seed, kind, tol):
    """A single-map instance of one of CRR_KINDS at the given tol."""
    make = {"grid": lambda: grid_instance(seed), "line": lambda: line_instance(seed)}.get(
        kind, lambda: single_instance(seed, kind))
    return dataclasses.replace(make(), tol=tol)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(CRR_KINDS),
       st.sampled_from(((0.05, 0.1), (0.1, 0.05), (0.1, 0.25))), st.sampled_from((TOL, 0.0)))
def test_crr_search_after_another_equals_a_fresh_search(seed, kind, grids, tol):
    inst = crr_instance(seed, kind, tol)
    if not inst.engine.preserved[0]:
        return
    gp.crr_params_feasible(inst, grids[0])
    assert gp.crr_params_feasible(inst, grids[1]) == \
        gp.crr_params_feasible(crr_instance(seed, kind, tol), grids[1])


def crr_loop_reference(inst, grid_step):
    """The constants search as a Python loop over the grid and, per
    candidate, over the engine's cuts: the reference of the survivor mask."""
    eng = inst.engine
    gproximity.operators._require_preserving(eng)
    dab, tol = inst.d_ab, inst.tol
    for a, b, c in grid_loop(grid_step):
        if any(df - a * d - b * u - c * dab > tol for d, df, u in eng.cuts):
            continue
        worst, _, witness = gproximity._scan.fold_max(eng, a, b, c * dab)
        if worst <= tol:
            return gp.CrrParams(a, b, c)
        eng.cuts.append(witness)
    return None


CRR_GRIDS = (0.1, 0.05, 0.02, 0.01)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(CRR_KINDS), st.sampled_from(CRR_GRIDS),
       st.sampled_from(CRR_GRIDS), st.sampled_from((TOL, 0.0)))
@example(91, "grid", 0.1, 0.05, TOL)  # a full pass refutes grid 0.1's last candidate
def test_crr_search_matches_the_loop(seed, kind, first, second, tol):
    """Same constants, bit for bit and as Python floats, and the same cuts
    left on the engine, on a fresh engine and after a search at another grid."""
    mask, loop = crr_instance(seed, kind, tol), crr_instance(seed, kind, tol)
    if not loop.engine.preserved[0]:
        with pytest.raises(ClassificationError):
            gp.crr_params_feasible(mask, first)
        return
    for grid in (first, second):
        got, want = gp.crr_params_feasible(mask, grid), crr_loop_reference(loop, grid)
        assert got == want
        assert got is None or {type(v) for v in dataclasses.astuple(got)} == {float}
        assert mask.engine.cuts == loop.engine.cuts


def test_crr_search_refutes_the_last_candidate_by_a_full_pass(monkeypatch):
    """The search at grid 0.1 ends with the full pass of the grid's last
    candidate, which fails and leaves no survivor."""
    inst = crr_instance(91, "grid", TOL)
    folded = []

    def fold_max(eng, a, b, c):
        folded.append((a, b, c))
        return gproximity._scan.fold_max(eng, a, b, c)

    monkeypatch.setattr(gproximity.operators, "fold_max", fold_max)
    assert gp.crr_params_feasible(inst, 0.1) is None
    a, b, c = (x[-1] for x in gproximity.operators._crr_grid(0.1))
    assert folded[-1] == (a, b, c * inst.d_ab)
    assert crr_loop_reference(crr_instance(91, "grid", TOL), 0.1) is None


def grid_loop(step):
    """The (a, b, c) of the constants grid at ``step``, by the search's
    triple loop: an index sum i + 2j (+ k) must stay below 1 / step in exact
    arithmetic, and the float sum a + 2*b (+ c) below 1."""
    values = [i * step for i in range(math.ceil(1.0 / step) + 1)]
    inside = [s * Fraction(step) < 1 for s in range(4 * len(values))]  # by index sum
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            if not inside[i + 2 * j] or a + 2 * b >= 1:
                break
            for k, c in enumerate(values):
                if not inside[i + 2 * j + k] or a + 2 * b + c >= 1:
                    break
                yield a, b, c


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 2.0))
@example(1 / 3)
@example(0.07)
@example(0.0123)
def test_crr_grid_is_the_loop_sequence(step):
    grid = gproximity.operators._crr_grid(step)
    want = np.array(list(grid_loop(step)), dtype=float).reshape(-1, 3)
    assert np.stack(grid, axis=1).tobytes() == want.tobytes()
    assert not any(x.flags.writeable for x in grid)



@pytest.mark.parametrize("step", (0.02, 0.01, 0.005))
def test_crr_grid_leaves_out_the_strict_boundary(step):
    """(0.06, 0.42, 0.1) has index sum 3 + 2*21 + 5 = 1 / step: on the
    boundary alpha + 2*beta + gamma = 1, although its float sum is below 1.
    The edge (d, df, u) = (2, 2, 4) of the interval example, with
    d(A, B) = 2, refutes every triple inside it, so no step finds one."""
    inst = gp.interval_example(0.05)
    assert 0.06 + 2 * 0.42 + 0.1 < 1
    assert gp.crr_params_feasible(inst, step) is None

def listed_grid_instance(seed):
    """grid_instance with a random explicit edge set instead of the complete graph."""
    inst = grid_instance(seed)
    rng = np.random.default_rng(seed)
    edges = {(x, y) for x in inst.points for y in inst.points if rng.random() < 0.5}
    return dataclasses.replace(inst, graph=gp.explicit_graph(edges))


@pytest.mark.parametrize("build", [
    lambda: grid_instance(3).engine, lambda: listed_grid_instance(3).engine,
    lambda: line_instance(3).engine, lambda: single_instance(3, "explicit").engine,
    lambda: pair_instance(3, "complete").pair_engine])
def test_blocks_are_views_of_one_buffer_per_pass(build):
    """Consecutive blocks of a pass share storage, sized to the largest block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gproximity._scan, "_BLOCK_ELEMS", 5)
        blks = list(build().blocks())
    assert len(blks) > 1
    for prev, cur in zip(blks, blks[1:]):
        for k in (1, 2, 3):
            assert np.shares_memory(prev[k], cur[k])
    largest = max(blk[2].size for blk in blks)
    assert all(blk[k].base.size == largest for blk in blks for k in (1, 2, 3))


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("build, symmetric", [
    (lambda seed: single_instance(seed, "explicit").engine, False),
    (lambda seed: grid_instance(seed).engine, True),
    (lambda seed: line_instance(seed, skew=True).engine, False),
    (lambda seed: pair_instance(seed, "complete").pair_engine, False),
    (lambda seed: pair_instance(seed, "explicit").pair_engine, False)],
    ids=("listed", "symmetric", "full", "pair", "listed-pair"))
def test_block_pairs_decode_the_scan_order(build, symmetric, block):
    """Each block's ``pairs`` maps its offsets to the point indices of the
    edges that a row-major loop over contains_edge visits, in that order."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gproximity._scan, "_BLOCK_ELEMS", block)
        for seed in range(6):
            eng = build(seed)
            assert eng.symmetric == symmetric
            got = decoded(eng)
            assert got.dtype == np.intp
            assert list(zip(*got.tolist())) == scan_order(eng)


def test_one_block_pass_reserves_only_its_edges():
    inst = grid_instance(5)
    n = len(inst.points)
    (blk,) = inst.engine.blocks()
    assert blk[2].size == blk[2].base.size == n * n < gproximity._scan._BLOCK_ELEMS


# Result sets store their members' point indices and decode them on first
# read; the diameters are gathers by index.

def on_grid(inst, seed):
    """A tabulated instance of this module moved onto distinct points of a
    4 x 4 grid, as a coordinate instance with the same sets, graph and maps;
    the uneven spacing makes distances that round."""
    rng = np.random.default_rng(seed)
    grid = [(0.3 * x, 0.7 * y) for x in range(4) for y in range(4)]
    n = inst.space.n
    coords = [grid[k] for k in rng.permutation(len(grid))[:n]]
    index = {p: k for k, p in enumerate(coords)}

    def moved(m):
        return gp.CyclicMap(m.name, fn=lambda p: coords[m(index[p])])

    g = inst.graph
    if g.rule == "explicit":
        g = gp.explicit_graph({(coords[i], coords[j]) for i, j in g.edges})
    sets = gp.SubsetPair(tuple(coords[k] for k in inst.sets.a),
                         tuple(coords[k] for k in inst.sets.b))
    if inst.map_pair is not None:
        pair = gp.MapPair(moved(inst.map_pair.t), moved(inst.map_pair.s))
        return gp.Instance(inst.name, gp.CoordinateSpace(2), sets, g, map_pair=pair)
    return gp.Instance(inst.name, gp.CoordinateSpace(2), sets, g,
                       cyclic_map=moved(inst.cyclic_map))


def build_case(seed, rule, kind, coords):
    inst = (pair_instance if kind == "pair" else single_instance)(seed, rule)
    return on_grid(inst, seed) if coords else inst


def members_reference(inst, epsilon, mode=None):
    """The members as ``enumerate_proximity_set`` (given a mode) and
    ``enumerate_pair_set`` built them before sets decoded on first read: the
    reference of the decoded members."""
    if mode is not None:
        eng = inst.engine
        keep = eng.on_edge & within_epsilon(eng.self_left - inst.d_ab, epsilon, inst.tol)
        if mode == gp.VACUOUS:
            keep |= ~eng.on_edge
        k = np.flatnonzero(keep)
        return tuple(inst.points[p] for p in k.tolist())
    eng, pts = inst.pair_engine, inst.points
    keep = within_epsilon(pass_df(eng, d=False, u=False) - inst.d_ab, epsilon, inst.tol)
    return tuple((pts[i], pts[j]) for (i, j), k in zip(scan_order(eng), keep.tolist()) if k)


def exact(value):
    """A value's type and bits, through nested tuples."""
    if isinstance(value, tuple):
        return tuple, tuple(map(exact, value))
    return type(value), value.hex() if isinstance(value, float) else value


def refuse_decoding(self, positions):
    raise AssertionError("members were decoded")


def check_set(inst, s, diameter, want, brute):
    """The set stores read-only point indices, one per reference member (a
    pair set's as rows I and J); its diameter equals the brute-force value
    over the reference bitwise and decodes no member; ``members`` decodes
    to the reference exactly; sets compare by identity."""
    shape = (2, len(want)) if isinstance(s, gp.PairProximitySet) else (len(want),)
    assert s.positions.shape == shape and s.positions.dtype == np.intp
    assert not s.positions.flags.writeable
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(s), "decode", refuse_decoding)
        if want:
            assert diameter(inst, s) == brute
        else:
            with pytest.raises(gp.DomainError, match="empty"):
                diameter(inst, s)
    assert "members" not in vars(s)  # never decoded
    assert exact(s.members) == exact(want) and s.members is s.members
    assert s == s and s != dataclasses.replace(s)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(RULES), st.sampled_from(("single", "pair")),
       st.booleans(), st.sampled_from(BLOCKS))
def test_sets_carry_positions_and_gather_diameters(seed, rule, kind, coords, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gproximity._scan, "_BLOCK_ELEMS", block)
        inst = build_case(seed, rule, kind, coords)
        d = inst.space.distance
        for eps in (0.0, 0.1, 0.5, 2.0):
            if kind == "pair":
                want = members_reference(inst, eps)
                check_set(inst, gp.enumerate_pair_set(inst, eps), gp.pair_diameter, want,
                          max((d(x, y) for x, y in want), default=None))
                continue
            for mode in (gp.STRICT, gp.VACUOUS):
                want = members_reference(inst, eps, mode)
                check_set(inst, gp.enumerate_proximity_set(inst, eps, mode=mode),
                          gp.proximity_diameter, want,
                          max((d(x, y) for x in want for y in want), default=None))


def test_identity_pair_sets_carry_positions():
    """A = B and T = S = identity: every pair of the shared cloud."""
    inst = gp.identity_pair_instance(2, n=7)
    want = members_reference(inst, 10.0)
    assert len(want) == 49
    d = inst.space.distance
    check_set(inst, gp.enumerate_pair_set(inst, 10.0), gp.pair_diameter, want,
              max(d(x, y) for x, y in want))


def test_sets_built_by_hand_from_indices():
    """A set made from point indices has a diameter; an empty one has none."""
    single = single_instance(4, "complete")
    pair = pair_instance(4, "complete")
    x, y, z = single.points[:3]
    d = single.space.distance
    ps = gp.ProximitySet(0.0, gp.STRICT, np.array([0, 2, 1]), single.points)
    assert ps.members == (x, z, y)
    assert gp.proximity_diameter(single, ps) == max(d(x, y), d(x, z), d(y, z))
    pps = gp.PairProximitySet(0.0, np.array([[0], [3]]), pair.points)
    assert pps.members == ((pair.points[0], pair.points[3]),)
    assert gp.pair_diameter(pair, pps) == pair.space.distance(pair.points[0], pair.points[3])
    with pytest.raises(gp.DomainError, match="empty"):
        gp.pair_diameter(pair, gp.PairProximitySet(0.0, np.empty((2, 0), np.intp), pair.points))


def count_decoded(mp):
    """Patch both set kinds' ``decode`` to count the members it decodes."""
    decoded = []
    for kind in (gp.ProximitySet, gp.PairProximitySet):
        def counting(self, positions, decode=kind.decode):
            out = decode(self, positions)
            decoded.append(len(out))
            return out
        mp.setattr(kind, "decode", counting)
    return decoded


def run_main(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def enumerate_lines(members, fmt):
    """The set-size, member and members-truncated lines of a full member list."""
    lines = [f"set-size: {len(members)}"] + [f"member: {fmt(m)}" for m in members[:20]]
    return lines + [f"members-truncated: {len(members) - 20}"] * (len(members) > 20)


def report_lines(out):
    return [ln for ln in out.splitlines()
            if ln.startswith(("set-size:", "member:", "members-truncated:"))]


def test_enumerate_decodes_only_the_printed_members(tmp_path, monkeypatch):
    inst = gp.identity_pair_instance(5, n=8)
    path = tmp_path / "pair.gpx"
    gp.save_instance(inst, path)
    decoded = count_decoded(monkeypatch)
    code, out = run_main(["enumerate", str(path), "--epsilon", "10"])
    assert code == 0 and sum(decoded) <= gproximity.cli._MEMBER_PREVIEW
    want = members_reference(gp.load_instance(path), 10.0)
    assert len(want) == 64
    assert report_lines(out) == enumerate_lines(want, gproximity.cli._fmt_pair)


def test_fine_segments_demo_decodes_only_the_printed_members(monkeypatch):
    decoded = count_decoded(monkeypatch)
    code, out = run_main(["demo", "segments", "--grid-step", "0.002"])
    assert code == 0 and sum(decoded) <= gproximity.cli._MEMBER_PREVIEW
    want = members_reference(gp.segments_example(0.002), 0.01)
    assert len(want) == 501 ** 2
    assert report_lines(out) == enumerate_lines(want, gproximity.cli._fmt_pair)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(RULES), st.booleans(),
       st.sampled_from((TOL, 0.0)))
def test_solver_witness_is_a_set_member(seed, rule, coords, tol):
    """A witness find_proximity_point returns at epsilon belongs to the
    strict set at the same epsilon and tol, also at an epsilon equal to a
    point's own residual, where the two comparisons meet."""
    inst = dataclasses.replace(build_case(seed, rule, "single", coords), tol=tol)
    f = inst.cyclic_map
    residuals = [inst.space.distance(x, f(x)) - inst.d_ab for x in inst.points]
    for eps in sorted({0.05, 0.3, *(r for r in residuals if r > 0)}):
        cfg = gp.SolveConfig(eps, 20)
        members = set(gp.enumerate_proximity_set(inst, eps).members)
        for x0 in inst.points:
            res = gp.find_proximity_point(inst, x0, cfg)
            if res.found:
                assert res.witness in members, (eps, x0, res.witness)


LIBRARY_PASS = """
import sys
import gproximity as gp
single = gp.random_instance(3, 6, 6, graph_rule="random:0.5")
pair = gp.identity_pair_instance(4, n=8)
before = set(sys.modules)
gp.is_edge_nonexpansive(single)
ps = gp.enumerate_proximity_set(single, 1.0)
gp.proximity_diameter(single, ps)
gp.minimizer_report(single)
gp.pair_preserves_edges(pair)
gp.pair_diameter(pair, gp.enumerate_pair_set(pair, 1.0))
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_library_pass_imports_nothing():
    """Scans of listed graphs, set enumeration and diameters import no module
    on first use (``np.unique`` would import numpy.ma): in a long-running
    process such an import is a few hundred long-lived allocations made in
    the middle of whatever the heap holds at that moment."""
    out = subprocess.run([sys.executable, "-c", LIBRARY_PASS], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == []


# Each pass computes only what its consumer reads: D and U on demand, and a
# certificate pass that stops once it refutes a contraction, against the
# passes as they were before.

def certificate_reference(eng):
    """The certificate pass with U on every block and the reach witness read
    off U's block, as the engine computed it before U became optional; edges
    are decoded from ``scan_order``."""
    _FirstMax = gproximity._scan._FirstMax
    zero, ratio, margin, reach = _FirstMax(), _FirstMax(), _FirstMax(), _FirstMax()
    size = eng._largest_block
    values = np.empty(size)
    low, high = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    order, start = scan_order(eng), 0
    for _pairs, d, df, u in eng.blocks():
        pairs = lambda p, s=start: order[s + p]
        start += d.size
        buf, lo, hi = values[:d.size], low[:d.size], high[:d.size]
        np.less_equal(d, 0.0, out=lo)
        np.greater(df, eng.tol, out=hi)
        zero.add(np.logical_and(lo, hi, out=lo), pairs)  # first max: first True
        np.greater(d, 0.0, out=hi)
        if hi.any():
            buf.fill(-np.inf)
            ratio.add(np.divide(df, d, out=buf, where=hi), pairs)
        margin.add(np.subtract(df, d, out=buf), pairs)
        reach.add(df, pairs, d, df, u)
    return gproximity._scan.Certificate(
        eng._edge(zero.at) if zero.value else None,
        0.0 if ratio.value is None else ratio.value, eng._edge(ratio.at),
        margin.value, eng._edge(margin.at), reach.value, reach.witness)


def fold_max_reference(scanner, a, b=0.0, c=0.0):
    """``fold_max`` with U on every block and the witness read off the blocks;
    edges are decoded from ``scan_order``."""
    size = scanner._largest_block
    values, terms = np.empty(size), np.empty(size)
    best = gproximity._scan._FirstMax()
    order, start = scan_order(scanner), 0
    for _pairs, d, df, u in scanner.blocks():
        pairs = lambda p, s=start: order[s + p]
        start += d.size
        v, t = values[:d.size], terms[:d.size]
        np.subtract(df, np.multiply(a, d, out=t), out=v)
        if b or c:
            np.subtract(v, np.multiply(b, u, out=t), out=v)
            np.subtract(v, c, out=v)
        best.add(v, pairs, d, df, u)
    if best.at is None:
        return None, None, None
    return best.value, best.at, best.witness


def crr_search_reference(inst, grid_step, cuts):
    """The constants search over ``_crr_grid`` with ``fold_max_reference``,
    its cuts kept in ``cuts``."""
    eng, dab, tol = inst.engine, inst.d_ab, inst.tol
    for a, b, c in zip(*(x.tolist() for x in gproximity.operators._crr_grid(grid_step))):
        if any(df - a * d - b * u - c * dab > tol for d, df, u in cuts):
            continue
        worst, _, witness = fold_max_reference(eng, a, b, c * dab)
        if worst <= tol:
            return gp.CrrParams(a, b, c)
        cuts.append(witness)
    return None


def bits(*values):
    """The bytes of float values, so that -0.0 and 0.0 (or two NaNs) differ."""
    return np.array(values, dtype=float).tobytes()


def check_folds(eng, dab):
    for a, b, c in ((0.0, 0.0, 0.0), (0.7, 0.0, 0.0), (0.4, 0.0, 0.3 * dab),
                    (0.3, 0.1, 0.2 * dab), (0.0, 0.45, 0.0)):
        got, want = gproximity._scan.fold_max(eng, a, b, c), fold_max_reference(eng, a, b, c)
        assert got[1] == want[1]
        assert got[0] is None or bits(got[0], *got[2]) == bits(want[0], *want[2])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(("complete", "explicit")),
       st.sampled_from(("single", "pair")), st.booleans(), st.sampled_from((TOL, 0.0)),
       st.sampled_from(BLOCKS))
def test_passes_on_demand_match_the_full_passes(seed, rule, kind, coords, tol, block):
    """Certificate, reach witness, folds, cuts, constants and the pair set
    are bitwise those of the passes that computed D and U on every block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gproximity._scan, "_BLOCK_ELEMS", block)
        inst, ref = (dataclasses.replace(build_case(seed, rule, kind, coords), tol=tol)
                     for _ in range(2))
        if kind == "pair":
            eng = inst.pair_engine
            check_folds(eng, inst.d_ab)
            order = np.array(scan_order(eng), dtype=np.intp).reshape(-1, 2).T
            for eps in (0.0, 0.3):
                want = order[:, pass_df(eng) - inst.d_ab <= eps + tol]
                assert np.array_equal(gp.enumerate_pair_set(inst, eps).positions, want)
            return
        cert, want = inst.engine.certificate, certificate_reference(ref.engine)
        assert cert == want
        assert bits(cert.ratio, cert.margin, cert.reach, *cert.reach_witness) == \
            bits(want.ratio, want.margin, want.reach, *want.reach_witness)
        check_folds(inst.engine, inst.d_ab)
        if not inst.engine.preserved[0]:
            return
        cuts = [want.reach_witness]
        for grid in (0.1, 0.05):
            assert gp.crr_params_feasible(inst, grid) == crr_search_reference(ref, grid, cuts)
            assert bits(*(v for cut in inst.engine.cuts for v in cut)) == \
                bits(*(v for cut in cuts for v in cut))


def record_blocks(monkeypatch):
    """Patch EdgeScanner.blocks to record the block sizes of every pass."""
    passes = []
    blocks = gproximity._scan.EdgeScanner.blocks

    def recorded(self, **kwargs):
        passes.append([])
        for blk in blocks(self, **kwargs):
            passes[-1].append(blk[2].size)
            yield blk

    monkeypatch.setattr(gproximity._scan.EdgeScanner, "blocks", recorded)
    return passes


def cli_run(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def full_certificate_only(monkeypatch):
    """min_contraction_factor with its verdict-only stop switched off."""
    real = gproximity.operators.min_contraction_factor

    def full(inst, verdict_only=False):
        est = real(inst)
        return est if est.contractive or not verdict_only else None

    monkeypatch.setattr(gproximity.operators, "min_contraction_factor", full)


def test_enumerate_refutes_a_contraction_in_one_block(tmp_path, monkeypatch):
    """The mirror map of the ellipse example is no contraction: enumerate
    reads one block of its certificate pass, of several, and prints the
    report of the full pass."""
    path = tmp_path / "ellipse.gpx"
    gp.save_instance(gp.ellipse_example(0.1), path)
    monkeypatch.setattr(gproximity._scan, "_BLOCK_ELEMS", 1000)
    assert sum(1 for _ in gp.load_instance(path).engine.blocks()) > 10
    passes = record_blocks(monkeypatch)
    fast = cli_run("enumerate", str(path), "--epsilon", "0.1")
    assert [len(p) for p in passes] == [1]
    assert "contraction-diam-bound" not in fast[1]
    full_certificate_only(monkeypatch)
    assert fast == cli_run("enumerate", str(path), "--epsilon", "0.1")


def test_a_contraction_is_scanned_to_the_end_once(tmp_path, monkeypatch):
    """On a contraction enumerate makes one full certificate pass; on one
    engine, a later classification reads the cached certificate."""
    monkeypatch.setattr(gproximity._scan, "_BLOCK_ELEMS", 50)
    inst = gp.contraction_instance(3)
    path = tmp_path / "contraction.gpx"
    gp.save_instance(inst, path)
    full = [blk[2].size for blk in gp.load_instance(path).engine.blocks()]
    passes = record_blocks(monkeypatch)
    fast = cli_run("enumerate", str(path), "--epsilon", "0.1")
    assert passes == [full] and len(full) > 1
    assert "contraction-diam-bound" in fast[1]
    full_certificate_only(monkeypatch)
    assert fast == cli_run("enumerate", str(path), "--epsilon", "0.1")
    monkeypatch.undo()
    passes = record_blocks(monkeypatch)
    est = gp.min_contraction_factor(inst, verdict_only=True)
    assert len(passes) == 1
    assert est == gp.min_contraction_factor(inst) == \
        gp.min_contraction_factor(gp.contraction_instance(3)) and est.contractive
    gp.is_edge_nonexpansive(inst)
    assert len(passes) == 2  # the fresh instance's
    assert gp.min_contraction_factor(gp.ellipse_example(0.2), verdict_only=True) is None
