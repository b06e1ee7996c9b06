"""Classification checks against hand-computed small instances."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gproximity as gp
from gproximity import (CoordinateSpace, CrrParams, CyclicMap, Instance,
                        MapPair, SubsetPair, TabulatedSpace, complete_graph,
                        explicit_graph)
from gproximity.errors import ClassificationError, DomainError


def line_instance(fn, a, b, graph=None, name="line", halves=False):
    """1-d coordinate instance from point lists of floats.

    With halves=True the sets are the half-lines x <= 0 and x >= 0, so
    images need not land on stored samples to count as cyclic.
    """
    sets = SubsetPair(a=tuple((x,) for x in a), b=tuple((x,) for x in b),
                      a_contains=(lambda p: p[0] <= 0) if halves else None,
                      b_contains=(lambda p: p[0] >= 0) if halves else None)
    return Instance(
        name=name,
        space=CoordinateSpace(1),
        sets=sets,
        graph=graph or complete_graph(),
        cyclic_map=CyclicMap(name + "-map", fn=lambda p: (fn(p[0]),)),
    )


def halving_toward_zero():
    # A = (-inf, 0], B = [0, inf); T x = -x/2 swaps sides and shrinks
    return line_instance(lambda x: -x / 2,
                         a=[-2.0, -1.0, -0.5, 0.0],
                         b=[0.0, 0.5, 1.0, 2.0],
                         name="halving", halves=True)


class TestValidateCyclic:
    def test_cyclic_map_passes(self):
        inst = halving_toward_zero()
        assert gp.validate_cyclic(inst).ok

    def test_undefined_images_are_violations(self):
        space = TabulatedSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
        sets = SubsetPair((0,), (5,))
        single = Instance("oob", space, sets, complete_graph(),
                          cyclic_map=CyclicMap("table", table=(1, 0)))
        pair = Instance("oob", space, sets, complete_graph(),
                        map_pair=MapPair(CyclicMap("t", table=(1, 0)), CyclicMap("s", table=(1, 0))))
        for report in (gp.validate_cyclic(single), gp.validate_pair(pair)):
            assert [(v.axiom, v.where) for v in report.violations] == \
                [("cyclic", (0,)), ("cyclic", (5,))]
            assert "not defined at 5" in report.violations[1].detail

    def test_non_cyclic_map_flagged(self):
        inst = line_instance(lambda x: x, a=[-1.0], b=[1.0])
        report = gp.validate_cyclic(inst)
        assert not report.ok
        assert len(report.violations) == 2


class TestMinContractionFactor:
    def test_halving_factor(self):
        est = gp.min_contraction_factor(halving_toward_zero())
        assert est.contractive
        assert est.alpha_min == pytest.approx(0.5)

    def test_isometry_not_contractive(self):
        inst = line_instance(lambda x: -x, a=[-1.0, -2.0], b=[1.0, 2.0])
        est = gp.min_contraction_factor(inst)
        assert not est.contractive
        assert est.alpha_min == pytest.approx(1.0)

    def test_zero_edge_with_positive_image_is_infinite(self):
        # two distinct tabulated points at distance 0, mapped apart
        d = np.array([[0.0, 0.0, 1.0],
                      [0.0, 0.0, 1.0],
                      [1.0, 1.0, 0.0]])
        inst = Instance("degenerate", TabulatedSpace(d),
                        SubsetPair(a=(0, 1), b=(2,)), complete_graph(),
                        cyclic_map=CyclicMap("deg", table=(2, 2, 0)))
        # make point 0 map somewhere at positive distance from image of 1
        inst = Instance("degenerate", TabulatedSpace(d),
                        SubsetPair(a=(0, 1), b=(2,)), complete_graph(),
                        cyclic_map=CyclicMap("deg", table=(2, 0, 0)))
        est = gp.min_contraction_factor(inst)
        assert not est.contractive
        assert math.isinf(est.alpha_min)

    def test_edge_violation_raises(self):
        g = explicit_graph({((-1.0,), (1.0,))})
        inst = line_instance(lambda x: -2 * x, a=[-1.0, -2.0], b=[1.0, 2.0, 4.0],
                             graph=g)
        with pytest.raises(ClassificationError):
            gp.min_contraction_factor(inst)

    def test_vacuous_graph_gives_zero(self):
        inst = line_instance(lambda x: -x / 2, a=[-2.0, 0.0], b=[0.0, 1.0],
                             graph=explicit_graph(set()))
        est = gp.min_contraction_factor(inst)
        assert est.contractive
        assert est.alpha_min == 0.0


class TestIsGContraction:
    def test_halving_at_half(self):
        inst = halving_toward_zero()
        assert gp.is_g_contraction(inst, 0.5)
        assert gp.is_g_contraction(inst, 0.9)

    def test_halving_fails_below(self):
        chk = gp.is_g_contraction(inst=halving_toward_zero(), alpha=0.25)
        assert not chk
        assert chk.worst_edge is not None

    def test_alpha_out_of_range(self):
        with pytest.raises(DomainError):
            gp.is_g_contraction(halving_toward_zero(), 1.0)


class TestEdgeNonexpansive:
    def test_reflection(self):
        inst = line_instance(lambda x: -x, a=[-1.0, -2.0], b=[1.0, 2.0])
        assert gp.is_edge_nonexpansive(inst)

    def test_doubling_is_expansive(self):
        inst = line_instance(lambda x: -2 * x, a=[-1.0, -2.0], b=[1.0, 2.0, 4.0])
        chk = gp.is_edge_nonexpansive(inst)
        assert not chk
        assert chk.margin > 0


class TestCrrParams:
    def test_simplex_is_strict(self):
        with pytest.raises(DomainError):
            CrrParams(0.5, 0.25, 0.0)
        CrrParams(0.5, 0.2, 0.09)  # fine

    def test_rate(self):
        p = CrrParams(0.2, 0.2, 0.0)
        assert p.k == pytest.approx(0.5)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            CrrParams(-0.1, 0.0, 0.0)


class TestIsCrrMoh:
    def test_pure_contraction_params(self):
        inst = halving_toward_zero()
        assert gp.is_crr_moh(inst, CrrParams(0.5, 0.0, 0.0))
        assert not gp.is_crr_moh(inst, CrrParams(0.1, 0.0, 0.0))

    def test_kannan_style_params(self):
        # d(Tx,Ty) = |x-y|/2 and d(x,Tx)+d(y,Ty) = 1.5(|x|+|y|) >= 1.5|x-y|
        inst = halving_toward_zero()
        assert gp.is_crr_moh(inst, CrrParams(0.0, 0.34, 0.0))


class TestCrrParamsFeasible:
    def test_finds_contraction_params(self):
        inst = halving_toward_zero()
        p = gp.crr_params_feasible(inst, 0.25)
        assert p is not None
        assert gp.is_crr_moh(inst, p)

    def test_infeasible_returns_none(self):
        # isometric swap of {-1} and {1}: needs alpha + gamma >= 1
        inst = line_instance(lambda x: -x, a=[-1.0], b=[1.0])
        assert gp.crr_params_feasible(inst, 0.1) is None

    def test_search_is_deterministic(self):
        inst = halving_toward_zero()
        p = gp.crr_params_feasible(inst, 0.25)
        q = gp.crr_params_feasible(inst, 0.25)
        assert (p.alpha, p.beta, p.gamma) == (q.alpha, q.beta, q.gamma)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 0.45))
def test_contraction_implies_crr_and_nonexpansive(alpha):
    """Class inclusions: alpha-contraction => CRR(alpha,0,0) => nonexpansive."""
    inst = line_instance(lambda x, a=alpha: -a * x,
                         a=[-2.0, -1.0, 0.0], b=[0.0, 1.0, 2.0])
    assert gp.is_g_contraction(inst, min(alpha + 0.01, 0.99))
    assert gp.is_crr_moh(inst, CrrParams(min(alpha + 0.01, 0.99), 0.0, 0.0))
    assert gp.is_edge_nonexpansive(inst)


def pair_instance():
    a = tuple((x, 0.0) for x in (0.0, 0.5, 1.0))
    b = tuple((x, 1.0) for x in (0.0, 0.5, 1.0))
    t = CyclicMap("to-top", fn=lambda p: (0.5, 1.0))
    s = CyclicMap("to-bottom", fn=lambda p: (0.5, 0.0))
    return Instance("pair", CoordinateSpace(2), SubsetPair(a=a, b=b),
                    complete_graph(), map_pair=MapPair(t=t, s=s))


class TestPairChecks:
    def test_validate_pair(self):
        assert gp.validate_pair(pair_instance()).ok

    def test_pair_preserves_edges_complete(self):
        ok, edge = gp.pair_preserves_edges(pair_instance())
        assert ok and edge is None

    def test_separated_constant_pair_is_never_certified(self):
        # at x = (0.5, 0), y = (0.5, 1): d(Tx,Sy) = d(x,y) = d(x,Tx) =
        # d(y,Sy) = d(A,B) = 1, so the inequality needs alpha+2*beta+gamma
        # >= 1, which the strict simplex forbids for every admissible triple
        inst = pair_instance()
        assert not gp.is_crr_2map(inst, CrrParams(0.0, 0.0, 0.99))
        assert not gp.is_crr_2map(inst, CrrParams(0.3, 0.3, 0.0))

    def test_touching_constant_pair_is_certified(self):
        # A = B, both maps constant at a shared point: d(Tx, Sy) = 0 always
        pts = tuple((float(x), 0.0) for x in range(4))
        t = CyclicMap("const-t", fn=lambda p: (0.0, 0.0))
        inst = Instance("touching", CoordinateSpace(2),
                        SubsetPair(a=pts, b=pts), complete_graph(),
                        map_pair=MapPair(t=t, s=t))
        assert gp.is_crr_2map(inst, CrrParams(0.0, 0.0, 0.0))
