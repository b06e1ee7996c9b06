"""The edge engine against plain loops over all pairs with contains_edge."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gproximity as gp
import gproximity._scan
from gproximity.errors import ClassificationError

TOL = 1e-9
PARAMS = gp.CrrParams(0.3, 0.1, 0.2)
RULES = ("complete", "diagonal", "explicit", "custom")
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
    if rule == "complete":
        return gp.complete_graph()
    if rule == "diagonal":
        return gp.diagonal_graph()
    if rule == "explicit":
        return gp.explicit_graph(edges)
    return gp.custom_graph("listed", lambda x, y: (x, y) in edges)


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
    if rule != "complete":
        assert gp.preserves_edges(g, f, pts) == (broken is None, broken)
        assert list(gp.iter_edges(g, pts)) == edges
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
        assert list(gp.iter_edges(inst.graph, inst.points)) == \
            [(0, 0), (0, 2), (1, 1), (2, 2)]
