"""Enumeration and diameter bounds."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gproximity as gp
from gproximity import (CoordinateSpace, CyclicMap, Instance, MapPair,
                        SubsetPair, complete_graph, explicit_graph)
from gproximity.errors import DomainError

STRICT = gp.STRICT
VACUOUS = gp.VACUOUS


def gap_interval(step=0.5):
    """A = [-3,-1], B = [1,3] on a grid; T x = (1-x)/2 on A, (-1-x)/2 on B."""
    k = round(2 / step)
    a = tuple((-3.0 + i * step,) for i in range(k + 1))
    b = tuple((1.0 + i * step,) for i in range(k + 1))

    def t(p):
        x = p[0]
        return ((1 - x) / 2,) if x < 0 else ((-1 - x) / 2,)

    sets = SubsetPair(a=a, b=b,
                      a_contains=lambda p: -3 <= p[0] <= -1,
                      b_contains=lambda p: 1 <= p[0] <= 3)
    return Instance("gap", CoordinateSpace(1), sets, complete_graph(),
                    cyclic_map=CyclicMap("gap-map", fn=t))


class TestEnumerateProximitySet:
    def test_exact_set(self):
        ps = gp.enumerate_proximity_set(gap_interval(), 0.0)
        assert ps.members == ((-1.0,), (1.0,))

    def test_negative_epsilon_rejected(self):
        with pytest.raises(DomainError):
            gp.enumerate_proximity_set(gap_interval(), -0.1)

    def test_larger_epsilon_catches_more(self):
        inst = gap_interval()
        small = gp.enumerate_proximity_set(inst, 0.0)
        large = gp.enumerate_proximity_set(inst, 1.0)
        assert set(small.members) < set(large.members)

    def test_vacuous_admits_off_edge_points(self):
        # graph with a single self-loop edge set: no (x, Tx) edges at all,
        # so strict membership is empty and vacuous membership is everything
        inst = gap_interval()
        inst = Instance(inst.name, inst.space, inst.sets,
                        explicit_graph(set()), cyclic_map=inst.cyclic_map)
        strict = gp.enumerate_proximity_set(inst, 0.0, mode=STRICT)
        vac = gp.enumerate_proximity_set(inst, 0.0, mode=VACUOUS)
        assert strict.members == ()
        assert set(vac.members) == set(inst.points)

    def test_members_keep_scan_order(self):
        inst = gap_interval()
        ps = gp.enumerate_proximity_set(inst, 5.0)
        assert list(ps.members) == [p for p in inst.points if p in set(ps.members)]


class TestProximityDiameter:
    def test_exact_set_diameter(self):
        inst = gap_interval()
        ps = gp.enumerate_proximity_set(inst, 0.0)
        assert gp.proximity_diameter(inst, ps) == 2.0

    def test_empty_raises(self):
        inst = gap_interval()
        ps = gp.ProximitySet(0.0, STRICT, np.empty(0, np.intp), inst.points)
        with pytest.raises(DomainError):
            gp.proximity_diameter(inst, ps)


def constant_pair(n=5):
    a = tuple((i / (n - 1), 0.0) for i in range(n))
    b = tuple((i / (n - 1), 1.0) for i in range(n))
    t = CyclicMap("t", fn=lambda p: (0.5, 1.0))
    s = CyclicMap("s", fn=lambda p: (0.5, 0.0))
    return Instance("const-pair", CoordinateSpace(2), SubsetPair(a=a, b=b),
                    complete_graph(), map_pair=MapPair(t=t, s=s))


class TestEnumeratePairSet:
    def test_constant_maps_cover_everything(self):
        inst = constant_pair()
        pps = gp.enumerate_pair_set(inst, 0.01)
        assert len(pps.members) == 25

    def test_members_are_a_cross_b(self):
        inst = constant_pair()
        pps = gp.enumerate_pair_set(inst, 0.01)
        for x, y in pps.members:
            assert inst.sets.in_a(x) and inst.sets.in_b(y)

    def test_pair_diameter_is_diagonal(self):
        inst = constant_pair()
        pps = gp.enumerate_pair_set(inst, 0.01)
        assert gp.pair_diameter(inst, pps) == pytest.approx(math.sqrt(2))

    def test_edge_restriction(self):
        inst = constant_pair()
        only = ((0.0, 0.0), (1.0, 1.0))
        inst = Instance(inst.name, inst.space, inst.sets,
                        explicit_graph({only}), map_pair=inst.map_pair)
        pps = gp.enumerate_pair_set(inst, 0.01)
        assert pps.members == (only,)


class TestDiameterBounds:
    def test_contraction_bound_formula(self):
        assert gp.contraction_diam_bound(0.5, 0.1, 2.0) == pytest.approx(8.4)

    def test_two_map_bound_formula(self):
        assert gp.two_map_diam_bound(0.5, 0.1, 2.0) == pytest.approx(4.2)

    def test_alpha_range(self):
        with pytest.raises(DomainError):
            gp.contraction_diam_bound(1.0, 0.1, 0.0)
        with pytest.raises(DomainError):
            gp.two_map_diam_bound(-0.1, 0.1, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 0.95), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    def test_bounds_monotone_in_epsilon(self, alpha, eps, dab):
        assert (gp.contraction_diam_bound(alpha, eps + 0.5, dab)
                >= gp.contraction_diam_bound(alpha, eps, dab))


class TestMinimizerReport:
    def test_gap_interval_minimizer(self):
        rep = gp.minimizer_report(gap_interval())
        assert rep.residual == pytest.approx(0.0)
        assert rep.minimizer in ((-1.0,), (1.0,))
        assert rep.nonexpansive
        assert rep.minimizer_in_set

    def test_no_eligible_point_raises(self):
        inst = gap_interval()
        inst = Instance(inst.name, inst.space, inst.sets,
                        explicit_graph(set()), cyclic_map=inst.cyclic_map)
        with pytest.raises(DomainError):
            gp.minimizer_report(inst)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([0.0, 0.01, 0.1, 1.0]), st.sampled_from([0.0, 0.01, 0.1, 1.0]))
def test_monotone_in_epsilon(e1, e2):
    if e1 > e2:
        e1, e2 = e2, e1
    inst = gap_interval()
    small = gp.enumerate_proximity_set(inst, e1)
    large = gp.enumerate_proximity_set(inst, e2)
    assert set(small.members) <= set(large.members)
