"""Builders and the text serialization format."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gproximity as gp
from gproximity.errors import ParseError, SpecError


class TestIntervalExample:
    def test_sets(self):
        inst = gp.interval_example(0.5)
        assert inst.sets.a[0] == (-3.0,)
        assert inst.sets.a[-1] == (-1.0,)
        assert inst.sets.b == ((1.0,), (1.5,), (2.0,), (2.5,), (3.0,))
        assert inst.d_ab == 2.0

    def test_map_swaps_sides(self):
        inst = gp.interval_example(0.5)
        assert inst.cyclic_map((-3.0,)) == (2.0,)
        assert inst.cyclic_map((1.0,)) == (-1.0,)
        assert gp.validate_cyclic(inst).ok

    def test_endpoints_are_exact(self):
        inst = gp.interval_example(1e-3)
        assert (-1.0,) in inst.sets.a
        assert (1.0,) in inst.sets.b

    def test_bad_step_rejected(self):
        with pytest.raises(SpecError):
            gp.interval_example(0.3)


class TestEllipseExample:
    def test_mirror_map_is_cyclic(self):
        inst = gp.ellipse_example(0.25)
        assert gp.validate_cyclic(inst).ok

    def test_sets_overlap_on_minor_axis(self):
        inst = gp.ellipse_example(0.25)
        assert inst.d_ab == 0.0
        assert (0.0, 0.5) in inst.sets.a
        assert (0.0, 0.5) in inst.sets.b


class TestSegmentsExample:
    def test_pair_distance_one(self):
        inst = gp.segments_example(0.25)
        assert inst.d_ab == 1.0
        assert gp.validate_pair(inst).ok

    def test_odd_grid_rejected(self):
        with pytest.raises(SpecError):
            gp.segments_example(1.0 / 3.0)


class TestAffineSegmentsPair:
    def test_contraction_inequality_holds_exactly(self):
        inst = gp.affine_segments_pair(0.5, 0.1, 0.25)
        t, s = inst.map_pair.t, inst.map_pair.s
        for p in inst.sets.a:
            for q in inst.sets.b:
                lhs = inst.space.distance(t(p), s(q))
                rhs = 0.5 * inst.space.distance(p, q) + 0.5 * inst.d_ab
                assert lhs <= rhs + 1e-12

    def test_factor_range(self):
        with pytest.raises(SpecError):
            gp.affine_segments_pair(1.0)


class TestRandomInstance:
    def test_seed_reproducibility(self):
        a = gp.random_instance(11, 8, 8)
        b = gp.random_instance(11, 8, 8)
        assert np.array_equal(a.space.dist, b.space.dist)
        assert a.cyclic_map.table == b.cyclic_map.table

    def test_metric_axioms_hold(self):
        inst = gp.random_instance(3, 10, 10)
        assert gp.validate_metric(inst.space, tol=1e-9).ok

    def test_map_is_cyclic(self):
        inst = gp.random_instance(5, 7, 9)
        assert gp.validate_cyclic(inst).ok

    def test_affine_rule(self):
        inst = gp.random_instance(5, 7, 9, map_rule="affine:0.5")
        assert gp.validate_cyclic(inst).ok

    def test_random_graph_rule_keeps_diagonal(self):
        inst = gp.random_instance(5, 6, 6, graph_rule="random:0.3")
        assert gp.validate_graph(inst.graph, inst.points).ok

    def test_unknown_rules_rejected(self):
        with pytest.raises(SpecError):
            gp.random_instance(1, 4, 4, map_rule="warp")
        with pytest.raises(SpecError):
            gp.random_instance(1, 4, 4, graph_rule="dense")


class TestContractionInstance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_certified_contraction(self, seed):
        inst = gp.contraction_instance(seed)
        est = gp.min_contraction_factor(inst)
        assert est.contractive
        assert est.alpha_min < 1.0
        assert inst.d_ab == 0.0

    def test_worst_ratio_formula(self):
        inst = gp.contraction_instance(9, factor=0.3)
        est = gp.min_contraction_factor(inst)
        assert est.alpha_min <= 0.3 / 0.7 + 1e-9

    def test_factor_range(self):
        with pytest.raises(SpecError):
            gp.contraction_instance(0, factor=0.5)


class TestReflectionInstance:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_isometric_and_separated(self, seed):
        inst = gp.reflection_instance(seed)
        assert gp.is_edge_nonexpansive(inst)
        assert inst.d_ab >= 0.99  # gap = 1 along the x axis
        est = gp.min_contraction_factor(inst)
        assert not est.contractive


class TestIdentityPairInstance:
    def test_hypothesis_scan(self):
        inst = gp.identity_pair_instance(2)
        t, s = inst.map_pair.t, inst.map_pair.s
        for x in inst.sets.a:
            for y in inst.sets.b:
                lhs = inst.space.distance(x, t(x)) + inst.space.distance(s(y), y)
                assert lhs == 0.0


ROUNDTRIP_BUILDERS = [
    lambda: gp.interval_example(0.5),
    lambda: gp.ellipse_example(0.5),
    lambda: gp.segments_example(0.25),
    lambda: gp.affine_segments_pair(0.25, 0.0, 0.25),
    lambda: gp.random_instance(4, 5, 6),
    lambda: gp.random_instance(4, 5, 6, graph_rule="random:0.4"),
    lambda: gp.contraction_instance(4),
    lambda: gp.identity_pair_instance(4),
]


class TestSerialization:
    @pytest.mark.parametrize("build", ROUNDTRIP_BUILDERS)
    def test_roundtrip(self, build):
        inst = build()
        text = gp.dumps(inst)
        back = gp.loads(text)
        assert back.name == inst.name
        assert back.points == inst.points or len(back.points) == len(inst.points)
        assert back.kind == inst.kind
        assert back.d_ab == pytest.approx(inst.d_ab, abs=1e-12)
        # dumping again is a fixed point of the format
        assert gp.dumps(back) == text

    def test_tabulated_distances_survive_exactly(self):
        inst = gp.random_instance(8, 6, 6)
        back = gp.loads(gp.dumps(inst))
        assert np.array_equal(back.space.dist, inst.space.dist)

    def test_save_load_file(self, tmp_path):
        inst = gp.random_instance(8, 4, 4)
        path = tmp_path / "inst.gpx"
        gp.save_instance(inst, path)
        back = gp.load_instance(path)
        assert back.name == inst.name

    def test_bad_header_raises(self):
        with pytest.raises(ParseError):
            gp.loads("not an instance file\n")

    @pytest.mark.parametrize("text, line, words", [
        ("gproximity-instance v1\nname: x\nkind: coordinate\nbuilder: interval\n"
         "arg: bogus=1\n", 5, "bogus"),
        ("gproximity-instance v1\nname: x\nkind: coordinate\nbuilder: interval\n"
         "arg: grid_step=0.3\n", 4, "does not divide"),
        ("gproximity-instance v1\nname: x\nkind: tabulated\nn: 2\nA: 0\nB: 5\n"
         "graph: complete\nmap: table\ntable: 1 0\ndist:\nrow: 1.0\n", 6, "outside 0..1"),
        ("gproximity-instance v1\nname: x\nkind: tabulated\nn: 2\nA: 0\nB: 1\n"
         "graph: complete\nmap: table\ntable: 1 0\ndist:\nrow: nan\n", 11, "non-finite"),
        ("gproximity-instance v1\nname: x\nkind: tabulated\nn: 2\nA: 0\nB: 1\n"
         "graph: custom even\nmap: table\ntable: 1 0\ndist:\nrow: 1.0\n", 7, "graph spec"),
        ("gproximity-instance v1\nname: x\nkind: tabulated\nn: 3\nA: 0 0 1\nB: 2\n"
         "graph: complete\nmap: table\ntable: 2 2 0\ndist:\nrow: 1.0\nrow: 2.0 1.0\n",
         5, "index 0 repeated"),
        ("gproximity-instance v1\nname: x\nkind: tabulated\nn: 3\nA: 0 1\nB: 2 1 2\n"
         "graph: complete\nmap: table\ntable: 2 2 0\ndist:\nrow: 1.0\nrow: 2.0 1.0\n",
         6, "index 2 repeated"),
        ("gproximity-instance v1\nname: x\nkind: tabulated\nn: 2\nA: 0\nB: 1\n"
         "graph: edges 2\nedge: 0 1\nedge: -1 1\nmap: table\ntable: 1 0\ndist:\nrow: 1.0\n",
         9, "edge index -1 outside 0..1"),
        ("gproximity-instance v1\nname: x\nkind: tabulated\nn: 2\nA: 0\nB: 1\n"
         "graph: edges 1\nedge: 0 2\nmap: table\ntable: 1 0\ndist:\nrow: 1.0\n",
         8, "edge index 2 outside 0..1"),
    ])
    def test_malformed_files_raise_with_line(self, text, line, words):
        with pytest.raises(ParseError) as err:
            gp.loads(text)
        assert err.value.line == line
        assert words in str(err.value)

    def test_custom_graph_does_not_serialize(self):
        inst = gp.random_instance(8, 3, 3)
        custom = gp.Instance(inst.name, inst.space, inst.sets,
                             gp.custom_graph("any", lambda x, y: True),
                             cyclic_map=inst.cyclic_map)
        with pytest.raises(SpecError):
            gp.dumps(custom)

    def test_truncated_raises_with_line(self):
        inst = gp.random_instance(8, 4, 4)
        text = gp.dumps(inst)
        clipped = "\n".join(text.splitlines()[:5])
        with pytest.raises(ParseError):
            gp.loads(clipped)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12), st.integers(2, 12))
def test_random_instance_roundtrip_property(seed, n_a, n_b):
    inst = gp.random_instance(seed, n_a, n_b)
    back = gp.loads(gp.dumps(inst))
    assert np.array_equal(back.space.dist, inst.space.dist)
    assert back.cyclic_map.table == inst.cyclic_map.table
    assert back.sets.a == inst.sets.a and back.sets.b == inst.sets.b
