"""Iteration schemes on closed-form instances with known orbits."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gproximity as gp
from gproximity import (CoordinateSpace, CyclicMap, Instance, MapPair,
                        SolveConfig, SubsetPair, complete_graph,
                        explicit_graph)
from gproximity.errors import DomainError, HypothesisError, OrbitError


def interval_like():
    """T x = -x/2 on the half-lines around 0; fixed point 0, d(A,B) = 0."""
    sets = SubsetPair(a=((-4.0,), (-2.0,), (0.0,)),
                      b=((0.0,), (2.0,), (4.0,)),
                      a_contains=lambda p: p[0] <= 0,
                      b_contains=lambda p: p[0] >= 0)
    return Instance("half-lines", CoordinateSpace(1), sets, complete_graph(),
                    cyclic_map=CyclicMap("halve", fn=lambda p: (-p[0] / 2,)))


class TestPicardOrbit:
    def test_lengths(self):
        trace = gp.picard_orbit(interval_like(), (-4.0,), 5)
        assert len(trace.points) == 6
        assert len(trace.residuals) == 5

    def test_residuals_halve(self):
        trace = gp.picard_orbit(interval_like(), (-4.0,), 4)
        for r, r_next in zip(trace.residuals, trace.residuals[1:]):
            assert r_next == pytest.approx(r / 2)

    def test_zero_length(self):
        trace = gp.picard_orbit(interval_like(), (-4.0,), 0)
        assert trace.points == ((-4.0,),)
        assert trace.residuals == ()

    def test_negative_length_raises(self):
        with pytest.raises(DomainError):
            gp.picard_orbit(interval_like(), (-4.0,), -1)


class TestFindProximityPoint:
    def test_converges(self):
        res = gp.find_proximity_point(interval_like(), (-4.0,),
                                      SolveConfig(epsilon=0.1))
        assert res.found
        # residuals 6, 3, 1.5, ..., first <= 0.1 at step 6
        assert res.iterations == 6
        assert abs(res.witness[0]) <= 0.1

    def test_exhausts(self):
        res = gp.find_proximity_point(interval_like(), (-4.0,),
                                      SolveConfig(epsilon=1e-9, max_iter=3))
        assert res.status == gp.EXHAUSTED
        assert res.witness is None

    def test_ineligible_start(self):
        g = explicit_graph(set())  # only self-loops
        inst = interval_like()
        inst = Instance(inst.name, inst.space, inst.sets, g,
                        cyclic_map=inst.cyclic_map)
        res = gp.find_proximity_point(inst, (-4.0,), SolveConfig(epsilon=0.1))
        assert res.status == gp.INELIGIBLE

    def test_trace_matches_orbit(self):
        inst = interval_like()
        res = gp.find_proximity_point(inst, (-4.0,), SolveConfig(epsilon=0.5))
        orbit = gp.picard_orbit(inst, (-4.0,), res.iterations)
        assert res.trace.points == orbit.points


class TestSolveConfig:
    def test_epsilon_must_be_positive(self):
        with pytest.raises(DomainError):
            SolveConfig(epsilon=0.0)

    def test_max_iter_floor(self):
        with pytest.raises(DomainError):
            SolveConfig(epsilon=0.1, max_iter=0)


class TestCrrIterationBound:
    def test_already_inside(self):
        assert gp.crr_iteration_bound(1.0, 0.5, 0.9, 0.2) == 0

    def test_rate_zero(self):
        assert gp.crr_iteration_bound(5.0, 0.0, 0.0, 0.1) == 1

    def test_geometric_count(self):
        # gap 8, rate 1/2, epsilon 1: need 8 * 2^-n <= 1, so n = 3
        assert gp.crr_iteration_bound(8.0, 0.5, 0.0, 1.0) == 3

    def test_bound_is_tight_enough(self):
        n = gp.crr_iteration_bound(8.0, 0.5, 0.0, 1.0)
        assert 0.5 ** n * 8.0 <= 1.0
        assert 0.5 ** (n - 1) * 8.0 > 1.0

    def test_bad_rate(self):
        with pytest.raises(DomainError):
            gp.crr_iteration_bound(1.0, 1.0, 0.0, 0.1)

    def test_dominates_observed_stop(self):
        inst = interval_like()
        res = gp.find_proximity_point(inst, (-4.0,), SolveConfig(epsilon=0.1))
        bound = gp.crr_iteration_bound(6.0, 0.5, 0.0, 0.1)
        assert res.iterations <= bound


class TestGtMinimizing:
    def test_converging_orbit_qualifies(self):
        inst = interval_like()
        trace = gp.picard_orbit(inst, (-4.0,), 10)
        ok, bad = gp.is_gt_minimizing(inst, trace, window=3, delta=0.05)
        assert ok and bad is None

    def test_large_tail_fails(self):
        inst = interval_like()
        trace = gp.picard_orbit(inst, (-4.0,), 3)
        ok, _ = gp.is_gt_minimizing(inst, trace, window=2, delta=0.01)
        assert not ok

    def test_off_graph_point_named(self):
        # only (-4, T(-4)) = (-4, 2) is an edge, so the second trace point fails
        inst = dataclasses.replace(interval_like(),
                                   graph=explicit_graph({((-4.0,), (2.0,))}))
        trace = gp.picard_orbit(inst, (-4.0,), 4)
        assert gp.is_gt_minimizing(inst, trace, window=2, delta=10.0) == (False, 1)

    def test_short_trace_raises(self):
        inst = interval_like()
        trace = gp.picard_orbit(inst, (-4.0,), 1)
        with pytest.raises(DomainError):
            gp.is_gt_minimizing(inst, trace, window=5, delta=0.1)


class TestEpsilonFixedPoint:
    def test_square_of_involution(self):
        # T x = -x is 2-periodic; T^2 = id, so every point is a 0-fixed point
        sets = SubsetPair(a=((-1.0,), (-2.0,)), b=((1.0,), (2.0,)),
                          a_contains=lambda p: p[0] <= 0,
                          b_contains=lambda p: p[0] >= 0)
        inst = Instance("swap", CoordinateSpace(1), sets, complete_graph(),
                        cyclic_map=CyclicMap("neg", fn=lambda p: (-p[0],)))
        res = gp.epsilon_fixed_point(inst, (-2.0,), 2,
                                     SolveConfig(epsilon=1e-6))
        assert res.found
        assert res.witness == (-2.0,)

    def test_power_one_on_contraction(self):
        res = gp.epsilon_fixed_point(interval_like(), (-4.0,), 1,
                                     gp.SolveConfig(epsilon=0.5))
        assert res.found

    def test_exhausts(self):
        # d(z, Tz) runs 6, 3, 1.5, 0.75: never below epsilon in 3 steps
        res = gp.epsilon_fixed_point(interval_like(), (-4.0,), 1,
                                     SolveConfig(epsilon=0.1, max_iter=3))
        assert res.status == gp.EXHAUSTED and res.witness is None
        assert res.iterations == 3
        assert len(res.trace.points) == len(res.trace.residuals) == 4


def segments_pair(graph=None):
    a = tuple((x / 4, 0.0) for x in range(5))
    b = tuple((x / 4, 1.0) for x in range(5))
    t = CyclicMap("t", fn=lambda p: (0.5, 1.0))
    s = CyclicMap("s", fn=lambda p: (0.5, 0.0))
    return Instance("segments", CoordinateSpace(2), SubsetPair(a=a, b=b),
                    graph or complete_graph(), map_pair=MapPair(t=t, s=s))


#: An explicit graph on segments_pair() without the edge (0, 0) -> (1, 1).
SPARSE = explicit_graph({((0.0, 0.0), (0.5, 1.0)), ((0.5, 1.0), (0.5, 0.0))})


class TestTwoMapParallel:
    def test_immediate_hit(self):
        inst = segments_pair()
        res = gp.two_map_parallel(inst, (0.0, 0.0), (1.0, 1.0),
                                  SolveConfig(epsilon=0.01))
        assert res.found
        assert res.iterations <= 1

    def test_start_outside_sets_raises(self):
        inst = segments_pair()
        with pytest.raises(DomainError):
            gp.two_map_parallel(inst, (9.0, 9.0), (1.0, 1.0),
                                SolveConfig(epsilon=0.01))

    def test_ineligible_start(self):
        res = gp.two_map_parallel(segments_pair(SPARSE), (0.0, 0.0), (1.0, 1.0),
                                  SolveConfig(epsilon=0.01))
        assert res.status == gp.INELIGIBLE and res.witness is None
        assert res.iterations == 0
        assert res.trace.points == (((0.0, 0.0), (1.0, 1.0)),)
        assert res.trace.residuals == ()


class TestTwoMapAlternating:
    def test_constant_maps_alpha_zero(self):
        inst = segments_pair()
        res = gp.two_map_alternating(inst, (0.0, 0.0), (1.0, 1.0), 0.0, 1.0,
                                     SolveConfig(epsilon=0.01))
        assert res.found
        assert res.witness == ((0.5, 0.0), (0.5, 1.0))
        assert res.bounds is not None

    def test_bound_sequence_dominates_gap(self):
        inst = segments_pair()
        res = gp.two_map_alternating(inst, (0.0, 0.0), (1.0, 1.0), 0.0, 1.0,
                                     SolveConfig(epsilon=0.01))
        dab = inst.d_ab
        for r, b in zip(res.trace.residuals, res.bounds):
            assert r + dab <= b + 1e-9

    def test_exhausts(self):
        inst = affine_lines(0.5, 0.0, 1.0)
        res = gp.two_map_alternating(inst, (0.0, 0.0), (1.0, 1.0), 0.5, 0.5,
                                     SolveConfig(epsilon=1e-9, max_iter=3))
        assert res.status == gp.EXHAUSTED and res.witness is None
        assert res.iterations == 3
        assert len(res.trace.points) == len(res.trace.residuals) == 4
        assert len(res.bounds) == 3 + 1

    def test_ineligible_start(self):
        res = gp.two_map_alternating(segments_pair(SPARSE), (0.0, 0.0), (1.0, 1.0),
                                     0.0, 1.0, SolveConfig(epsilon=0.01))
        assert res.status == gp.INELIGIBLE and res.witness is None
        assert res.iterations == 0
        assert res.trace.points == (((0.0, 0.0), (1.0, 1.0)),)
        assert res.trace.residuals == () and res.bounds is None

    def test_alpha_gamma_must_sum_to_one(self):
        inst = segments_pair()
        with pytest.raises(DomainError):
            gp.two_map_alternating(inst, (0.0, 0.0), (1.0, 1.0), 0.5, 0.6,
                                   SolveConfig(epsilon=0.01))

    def test_hypothesis_violation_raises(self):
        # maps that move points apart break the per-step inequality
        a = tuple((float(x), 0.0) for x in range(3))
        b = tuple((float(x), 1.0) for x in range(3))
        t = CyclicMap("t", fn=lambda p: (p[0] + 1.0 if p[0] < 2 else 2.0, 1.0))
        s = CyclicMap("s", fn=lambda p: (0.0, 0.0))
        inst = Instance("drift", CoordinateSpace(2), SubsetPair(a=a, b=b),
                        complete_graph(), map_pair=MapPair(t=t, s=s))
        with pytest.raises(HypothesisError):
            gp.two_map_alternating(inst, (0.0, 0.0), (2.0, 1.0), 0.0, 1.0,
                                   SolveConfig(epsilon=1e-6, max_iter=10))


def test_negative_index_is_outside_a_table_map():
    inst = gp.contraction_instance(3)
    with pytest.raises(DomainError):
        inst.cyclic_map(-1)
    with pytest.raises(OrbitError):
        gp.find_proximity_point(inst, -1, SolveConfig(0.05))
    with pytest.raises(OrbitError):
        gp.picard_orbit(inst, -1, 3)


def affine_lines(factor, shift, height):
    """``affine_segments_pair`` at grid 0.05 with B at the given height, so
    that d(A,B) = height."""
    xs = [k / 20 for k in range(21)]
    sets = SubsetPair(a=tuple((x, 0.0) for x in xs), b=tuple((x, height) for x in xs))
    t = CyclicMap("t", fn=lambda p: (factor * p[0] + shift, height))
    s = CyclicMap("s", fn=lambda p: (factor * p[0] + shift, 0.0))
    return Instance("lines", CoordinateSpace(2), sets, complete_graph(), map_pair=MapPair(t, s))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((0.0, 0.25, 0.5, 0.75)), st.sampled_from((0.0, 0.1, 0.25)),
       st.sampled_from((0.1, 0.3, 0.7, 1.0)), st.integers(0, 20), st.integers(0, 20),
       st.integers(0, 4), st.sampled_from((None, 0.0, 0.5, 1.5)), st.sampled_from((1e-9, 1e-4)))
def test_alternating_stops_on_its_recorded_residual(factor, shift, height, i, j, k, frac, tol):
    """The alternating scheme stops at its first step whose recorded residual
    d(x, y) - d(A,B) is within epsilon + tol, with epsilon put on, just
    inside and just outside a residual of the orbit (``frac=None``: the
    largest epsilon whose epsilon + tol does not pass it)."""
    inst = dataclasses.replace(affine_lines(factor, min(shift, 1.0 - factor), height), tol=tol)

    def run(epsilon):
        return gp.two_map_alternating(inst, inst.sets.a[i], inst.sets.b[j], factor,
                                      1.0 - factor, SolveConfig(epsilon, 40))

    orbit = run(1e-300).trace.residuals
    r = orbit[min(k, len(orbit) - 1)]
    epsilon = r - (1.0 if frac is None else frac) * tol
    while frac is None and np.nextafter(epsilon, np.inf) + tol <= r:
        epsilon = np.nextafter(epsilon, np.inf)
    while frac is None and epsilon + tol > r:
        epsilon = np.nextafter(epsilon, -np.inf)
    assume(epsilon > 0)
    res = run(epsilon)
    stop = next(n for n, q in enumerate(orbit) if q <= epsilon + tol)
    assert res.found and res.iterations == stop
    assert res.trace.residuals == orbit[:stop + 1]
    assert res.trace.residuals[-1] <= epsilon + tol


def counting(cmap, calls):
    """``cmap`` as a ``fn`` map that adds each application to ``calls[0]``."""
    def fn(x):
        calls[0] += 1
        return cmap(x)
    return CyclicMap(cmap.name, fn=fn)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("find", "fixed", "parallel", "alternating")), st.integers(0, 10**6),
       st.sampled_from(("nearest", "affine:0.5")),
       st.sampled_from(("complete", "diagonal", "random:0.5", "random:0.9")),
       st.integers(0, 9), st.integers(0, 9), st.integers(1, 6), st.integers(0, 7),
       st.sampled_from((None, 0.0, 0.5, 1.5)), st.sampled_from((1e-9, 1e-2)),
       st.integers(1, 3), st.sampled_from((None, 0.0, 0.5, 0.9)))
def test_scheme_contract(scheme, seed, map_rule, graph_rule, i, j, max_iter, k, frac, tol,
                         power, factor):
    """Every scheme records equally many points and residuals, stops at the
    first residual its rule accepts or after max_iter + 1 residuals, and
    applies its maps a fixed number of times per recorded step.  Tabulated
    instances take ``fn`` maps that count their applications; ``factor``
    swaps in ``affine_segments_pair`` for the pair schemes.  epsilon is put
    just below, on or just above residual k of the orbit (``frac=None``: a
    tiny epsilon that no positive residual passes)."""
    calls = [0]
    base = dataclasses.replace(
        gp.random_instance(seed, 5, 5, map_rule=map_rule, graph_rule=graph_rule), tol=tol)
    if scheme in ("find", "fixed"):
        inst = dataclasses.replace(base, cyclic_map=counting(base.cyclic_map, calls))
        start = inst.points[i]
        run = (lambda cfg: gp.find_proximity_point(inst, start, cfg)) if scheme == "find" else (
            lambda cfg: gp.epsilon_fixed_point(inst, start, power, cfg))
    else:
        if factor is None:
            f = base.cyclic_map
            inst = dataclasses.replace(base, cyclic_map=None,
                                       map_pair=MapPair(counting(f, calls), counting(f, calls)))
            alpha = 0.5
        else:
            aff = gp.affine_segments_pair(factor, 0.1 * (1.0 - factor), 0.25)
            pair = aff.map_pair
            inst = dataclasses.replace(aff, map_pair=MapPair(counting(pair.t, calls),
                                                             counting(pair.s, calls)), tol=tol)
            alpha = factor
        a, b = inst.sets.a, inst.sets.b
        start = (a[i % len(a)], b[j % len(b)])
        run = (lambda cfg: gp.two_map_parallel(inst, *start, cfg)) if scheme == "parallel" else (
            lambda cfg: gp.two_map_alternating(inst, *start, alpha, 1.0 - alpha, cfg))
    try:
        orbit = run(SolveConfig(1e-300, max_iter)).trace.residuals
        epsilon = 1e-300 if frac is None or not orbit else max(
            orbit[min(k, len(orbit) - 1)] - frac * tol, 1e-300)
        calls[0] = 0
        res = run(SolveConfig(epsilon, max_iter))
    except HypothesisError as exc:  # the alternating step test failed after step n's images
        assert scheme == "alternating" and calls[0] == 2 * (exc.step + 1)
        return
    rule = (lambda r: r < epsilon) if scheme == "fixed" else (lambda r: r <= epsilon + tol)
    pts, rs, n = res.trace.points, res.trace.residuals, res.iterations
    if res.status == gp.INELIGIBLE and not rs:  # the start is no edge
        assert scheme != "fixed" and pts == (start,) and n == 0 and res.bounds is None
        assert calls[0] == (1 if scheme == "find" else 0)
        return
    assert len(pts) == len(rs) == n + 1
    assert not any(rule(r) for r in rs[:n])
    if res.status == gp.EXHAUSTED:
        assert n == max_iter and not rule(rs[n]) and res.witness is None
    else:
        assert rule(rs[n])
        assert res.witness == (pts[n] if res.status == gp.FOUND else None)
        if res.status == gp.INELIGIBLE:  # the witness's step is no edge
            assert scheme == "find"
            assert not gp.contains_edge(inst.graph, pts[n], base.cyclic_map(pts[n]))
    expected = {"find": n + 1, "fixed": power * (n + 1), "parallel": 2 * (n + 1),
                "alternating": 2 * n}
    assert calls[0] == expected[scheme]
    assert (res.bounds is None) == (scheme != "alternating")
    assert res.bounds is None or len(res.bounds) == len(rs)
