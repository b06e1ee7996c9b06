"""Builders and the text serialization format."""
import dataclasses
import inspect
import math
import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gproximity as gp
from gproximity import _reader, cli, instances
from gproximity.cli import main
from gproximity.errors import GproximityError, ParseError, SpecError


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


class TestGridLimit:
    """A builder counts its grid's samples before it lays any out (tiny
    steps: ``MALFORMED_FILES``)."""

    def test_limit_counts_samples_per_axis(self):
        limit = instances._MAX_SAMPLES
        assert instances._grid_steps(2.0 / (limit - 2), 2.0) + 1 <= limit
        with pytest.raises(SpecError):
            instances._grid_steps(2.0 / limit, 2.0)
        side = math.isqrt(limit)  # 3162: an ellipse axis of 3.0 / step + 1 samples
        assert instances._grid_steps(3.0 / (side - 1), 3.0, axes=2) == pytest.approx(side - 1)
        with pytest.raises(SpecError):
            gp.ellipse_example(3.0 / side)


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

    @pytest.mark.parametrize("p", [0, 0.3, 0.6, 1])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_graph_is_the_loop_graph(self, seed, p):
        """One numpy call makes the graph the n^2 loop made, from the same
        draws, leaving the generator where the loop left it."""
        n = 1 + 4 * seed
        rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        g = instances._graph_from_rule(f"random:{p}", n, rng)
        assert g == loop_random_graph(f"random:{p}", n, loop_rng)
        assert rng.random() == loop_rng.random()
        assert {type(v) for e in g.edges for v in e} <= {int}

    def test_unknown_rules_rejected(self):
        with pytest.raises(SpecError):
            gp.random_instance(1, 4, 4, map_rule="warp")
        with pytest.raises(SpecError):
            gp.random_instance(1, 4, 4, graph_rule="dense")


def loop_random_graph(rule, n, rng):
    """The ``random:p`` graph as ``_graph_from_rule`` built it with a loop
    over all n^2 pairs (a verbatim copy)."""
    p = float(rule.split(":", 1)[1])
    draws = rng.random((n, n))
    edges = {(i, i) for i in range(n)}
    edges.update((i, j) for i in range(n) for j in range(n)
                 if i != j and draws[i, j] < p)
    return gp.explicit_graph(edges)


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


#: A file claiming 10^9 points that ends after its first row.
HUGE = ("gproximity-instance v1\nname: huge\nkind: tabulated\nn: 1000000000\nA: 0\nB: 1\n"
        "graph: complete\nmap: none\ndist:\nrow: 1.0\n")


#: Malformed files: (text, line of the error, words of its message).
MALFORMED_FILES = [
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
    ("gproximity-instance v1\nname: x\nkind: tabulated\nn: 2\nA: 0\nB: 1\n"
     "graph: edges -2\nmap: table\ntable: 1 0\ndist:\nrow: 1.0\n", 7, "edge count -2"),
    ("gproximity-instance v1\nname: x\nkind: tabulated\nn: 2\nA: 0\nB: 1\n"
     "graph: edges 1 junk\nedge: 0 1\nmap: table\ntable: 1 0\ndist:\nrow: 1.0\n",
     7, "malformed edge count"),
    ("gproximity-instance v1\nname: x\nkind: tabulated\nn: 2\nA: 0\nB: 1\n"
     "graph: edgesXYZ 1\nedge: 0 1\nmap: table\ntable: 1 0\ndist:\nrow: 1.0\n",
     7, "unknown graph spec 'edgesXYZ 1'"),
    ("gproximity-instance v1\nname: x\nkind: tabulated\nn: 2\nA: 0\nB: 1\n"
     "graph:\nmap: table\ntable: 1 0\ndist:\nrow: 1.0\n", 7, "unknown graph spec ''"),
    ("gproximity-instance v1\nname: x\nkind: tabulated\nn: 2\nA: 0\nB: 1\n"
     "graph: complete\nmap: table\ntable: 1 0\ndist:\nrow: 1.0\n\nrow: 2.0 1.0\n",
     13, "after the distance rows"),
    ("gproximity-instance v1\nname: x\nkind: tabulated\nn: 1\nA: 0\nB: 0\n"
     "graph: complete\nmap: none\ndist:\nrow: 1.0\n", 10, "after the distance rows"),
    ("gproximity-instance v1\nname: x\nkind: coordinate\nbuilder: interval\n"
     "arg: grid_step=0.5\narg: grid_step=0.25\n", 6, "'grid_step' repeated"),
    (HUGE, 11, "unexpected end of file"),
    # one case for each remaining error of the loader
    ("gproximity-instance v1\nname: x\nkind: coordinate\nbuilder: circle\n"
     "arg: grid_step=0.5\n", 4, "unknown builder 'circle'"),
    ("gproximity-instance v1\nname: x\nkind: coordinate\nbuilder: interval\n"
     "arg: grid_step\n", 5, "malformed arg 'grid_step'"),
    ("gproximity-instance v1\nname: x\nkind: coordinate\nbuilder: interval\n"
     "arg: grid_step=fine\n", 4, "builder 'interval' rejects its arguments"),
    ("gproximity-instance v1\nname: x\nkind: tabulated\nn: two\nA: 0\nB: 1\n"
     "graph: complete\nmap: table\ntable: 1 0\ndist:\nrow: 1.0\n", 4, "malformed point count"),
    ("gproximity-instance v1\nname: x\nkind: tabulated\nn: 0\nA: 0\nB: 1\n"
     "graph: complete\nmap: table\ntable: 1 0\ndist:\nrow: 1.0\n", 4,
     "point count 0 is not positive"),
    ("gproximity-instance v1\nname: x\nkind: tabulated\nn: 2\nA: 0\nB: 1\n"
     "graph: complete\nmap: tabel\ntable: 1 0\ndist:\nrow: 1.0\n", 8, "unknown map spec 'tabel'"),
    ("gproximity-instance v1\nname: x\nkind: tabulated\nn: 2\nA: 0\nB: 1\n"
     "graph: complete\nmap: table\ntable: 1 0\ndist:\nrow: one\n", 11,
     "malformed distance in row 1"),
] + [
    # a grid step so fine that the builder's grid would not fit in memory
    (f"gproximity-instance v1\nname: x\nkind: coordinate\nbuilder: {builder}\n"
     f"{args}arg: grid_step={step}\n", 4, f"grid step {step} lays out more than 10000000 samples")
    for builder, args in (("interval", ""), ("ellipse", ""), ("segments", ""),
                          ("affine-segments", "arg: factor=0.5\n"))
    for step in ("1e-300", "5e-324")  # 2 / 5e-324 overflows to inf
]


def test_instances_and_tables_compare_by_identity():
    """Two builds of one instance are two objects, and ``==`` and ``hash``
    say so: for a table, whose matrices would compare elementwise, and for
    coordinates, whose maps are fresh closures."""
    for make in (lambda: gp.random_instance(1, 4, 4), lambda: gp.interval_example(0.5)):
        a, b = make(), make()
        assert a == a and a != b and len({a, b, a}) == 2
    a, b = gp.random_instance(1, 4, 4).space, gp.random_instance(1, 4, 4).space
    assert a == a and a != b and len({a, b, a}) == 2


def test_map_tables_take_integer_entries():
    """Each entry through ``operator.index``: a bool or numpy integer is its
    int, and a float is refused, not truncated."""
    table = gp.CyclicMap("f", table=(np.int64(2), True, 0)).table
    assert table == (2, 1, 0) and {type(i) for i in table} == {int}
    for bad in (1.7, -0.5, np.float64(1.0)):
        with pytest.raises(gp.DomainError, match=re.escape(f"table entry {bad!r} ")):
            gp.CyclicMap("f", table=(0, bad))


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

    @pytest.mark.parametrize("text, line, words", MALFORMED_FILES)
    def test_malformed_files_raise_with_line(self, text, line, words):
        with pytest.raises(ParseError) as err:
            gp.loads(text)
        assert err.value.line == line
        assert words in str(err.value)

    @pytest.mark.parametrize("text, line, words", MALFORMED_FILES)
    def test_malformed_files_are_one_cli_error_line(self, tmp_path, capsys, text, line, words):
        path = tmp_path / "bad.gpx"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["validate", str(path)])
        out, err = capsys.readouterr()
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert exc.value.code == 2 and out == ""
        assert len(errors) == 1 and errors[0].startswith(f"error: line {line}: ")
        assert words in errors[0]

    def test_rows_are_read_before_the_matrix_is_built(self):
        """A file claiming n = 5000 with two rows fails at its end without
        allocating the 200 MB matrix its header announces."""
        import tracemalloc

        text = HUGE.replace("1000000000", "5000") + "row: 2.0 1.0\n"
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="line 12: unexpected end of file"):
                gp.loads(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_mapless_roundtrip(self):
        inst = gp.random_instance(8, 3, 4)
        bare = gp.Instance("bare", inst.space, inst.sets, inst.graph)
        text = gp.dumps(bare)
        assert "map: none\n" in text
        back = gp.loads(text)
        assert (back.cyclic_map, back.map_pair) == (None, None)
        assert (back.sets, back.graph) == (bare.sets, bare.graph)
        assert np.array_equal(back.space.dist, bare.space.dist)
        assert gp.dumps(back) == text

    @pytest.mark.parametrize("graph", [
        gp.complete_graph(), gp.diagonal_graph(), gp.explicit_graph({(0, 1), (2, 2), (5, 3)}),
        gp.DirectedGraph(gp.EXPLICIT, pairs=([5, 0, 5, 2], [3, 1, 3, 2])),
        gp.DirectedGraph(gp.EXPLICIT, pairs=(np.array([5, 0, 2]), np.array([3, 1, 2]))),
        gp.DirectedGraph(gp.EXPLICIT,
                         pairs=([True, 0, np.int64(4), 1], [0, False, np.int64(1), 0]))])
    def test_every_graph_roundtrips(self, graph):
        inst = gp.random_instance(8, 3, 3)
        inst = gp.Instance(inst.name, inst.space, inst.sets, graph, cyclic_map=inst.cyclic_map)
        text = gp.dumps(inst)
        assert "edges" not in vars(inst.graph)  # written from the end sequences
        assert gp.loads(text).graph == inst.graph

    @pytest.mark.parametrize("end", [9, 4, -1, 2.0, np.float64(1.0), "1", None, (0,)])
    @pytest.mark.parametrize("side", [0, 1])
    def test_end_that_is_not_an_index_does_not_serialize(self, end, side):
        """``dumps`` writes only an edge list that ``loads`` reads back: an
        end outside 0..n-1, or one that is not an integer, is refused by name."""
        inst = gp.random_instance(1, 2, 2)
        ends = [[0, 1, 2], [1, 2, 3]]
        ends[side][1] = end
        bad = dataclasses.replace(inst, graph=gp.DirectedGraph(gp.EXPLICIT, pairs=ends))
        with pytest.raises(SpecError, match=rf"edge end {re.escape(repr(end))} is not a point "
                                            r"index in 0\.\.3"):
            gp.dumps(bad)

    @pytest.mark.parametrize("sets, entry, words", [
        (((0, 1, 0), (2, 3)), None, "A index 0 repeated"),
        (((0, 1), (2, 3, 3)), None, "B index 3 repeated"),
        (((0, 1), (2, 3)), ((0, 1), 1.0000001), "not exactly symmetric"),
        (((0, 1), (2, 3)), ((1, 0), np.nextafter(0.36, 1.0)), "not exactly symmetric"),
        (((0, 1), (2, 3)), ((1, 1), 0.5), "zero diagonal")],
        ids=("repeated-A", "repeated-B", "upper", "lower-ulp", "diagonal"))
    def test_tabulated_instance_a_file_cannot_state_does_not_serialize(self, sets, entry, words):
        """A file lists each index of A and B once and keeps only the strict
        lower triangle of the distances, so ``dumps`` refuses a repeated
        index, which ``loads`` would reject, and a matrix that is not
        exactly symmetric with a zero diagonal, which ``loads`` would give
        back as another metric."""
        inst = gp.random_instance(1, 2, 2)
        dist = inst.space.dist.copy()
        if entry is not None:
            dist[entry[0]] = entry[1]
        bad = dataclasses.replace(inst, space=gp.TabulatedSpace(dist), sets=gp.SubsetPair(*sets))
        with pytest.raises(SpecError, match=words):
            gp.dumps(bad)

    @pytest.mark.parametrize("graph", [
        gp.diagonal_graph(), gp.explicit_graph({((-3.0,), (2.0,))})])
    def test_coordinate_instance_keeps_its_builder_graph(self, graph):
        """A coordinate file names its builder, which makes the complete
        graph; any other graph would come back complete, so it does not
        serialize."""
        inst = dataclasses.replace(gp.interval_example(0.5), graph=graph)
        with pytest.raises(SpecError, match="a coordinate file states a builder call"):
            gp.dumps(inst)
        assert gp.loads(gp.dumps(gp.interval_example(0.5))).graph == gp.complete_graph()

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


#: The options the classify report reads.
CLASSIFY_ARGS = SimpleNamespace(alpha=0.9, crr_grid=0.1)


def report_lines(inst):
    """The validate, classify and enumerate report lines of ``inst``, each
    block closed by its result or by the error that ended it."""
    out = []
    for block in (lambda rep: cli._validation_block(rep, inst),
                  lambda rep: cli._classify_block(rep, inst, CLASSIFY_ARGS),
                  lambda rep: cli._enumerate_block(rep, inst, 0.3, "strict")):
        rep = cli.Report()
        try:
            rep.add("result", block(rep))
        except GproximityError as exc:
            rep.add(type(exc).__name__, exc)
        out += rep.lines
    return out


def one_kind(one_map):
    """Replacements of an instance's maps: one map, a pair, or none, never
    both a map and a pair."""
    return st.one_of(st.builds(dict, cyclic_map=st.one_of(st.none(), one_map), map_pair=st.none()),
                     st.builds(dict, cyclic_map=st.none(),
                               map_pair=st.builds(gp.MapPair, one_map, one_map)))


@st.composite
def replaced_instances(draw):
    """A small random instance with its map or pair, sets, graph, tol and
    name replaced, each at random, by ones a file may or may not state."""
    inst = gp.random_instance(draw(st.integers(0, 99)), draw(st.integers(1, 4)),
                              draw(st.integers(1, 4)))
    n = inst.space.n
    point = st.integers(0, n - 1)
    near = st.integers(-1, n)  # an index, or one just outside 0..n-1
    in_range = st.lists(point, min_size=n, max_size=n)
    tables = st.one_of(in_range, in_range,  # in range on half the draws
                       st.lists(near, min_size=n, max_size=n), st.lists(point, max_size=n - 1))
    one_map = st.one_of(tables.map(lambda t: gp.CyclicMap("drawn", table=t)),
                        st.just(gp.CyclicMap("identity", fn=lambda p: p)))
    entry = st.one_of(near, st.sampled_from((0.5, True, np.int64(1))))
    subset = st.one_of(st.lists(point, min_size=1, max_size=n, unique=True),
                       st.lists(entry, min_size=1, max_size=n + 1))
    graph = st.one_of(st.sampled_from((gp.complete_graph(), gp.diagonal_graph())),
                      st.lists(st.tuples(near, near), max_size=2 * n).map(gp.explicit_graph))
    options = {"sets": st.builds(gp.SubsetPair, subset, subset),
               "graph": graph,
               "tol": st.sampled_from((gp.DEFAULT_TOL, 0.0, 1e-6)),
               "name": st.sampled_from(("drawn", "", "tab\tinside", " padded ", "two\nlines"))}
    changes = draw(one_kind(one_map)) if draw(st.booleans()) else {}
    changes.update((key, draw(value)) for key, value in options.items() if draw(st.booleans()))
    return dataclasses.replace(inst, **changes)


@settings(max_examples=150, deadline=None)
@given(replaced_instances())
def test_dumps_refuses_or_writes_what_loads_gives_back(inst):
    """``dumps`` raises SpecError for an instance a file cannot state, and
    otherwise writes one whose reports read as the instance's own."""
    try:
        text = gp.dumps(inst)
    except SpecError:
        return
    assert report_lines(gp.loads(text)) == report_lines(inst)


#: Each coordinate builder's instance at a coarse grid.
BUILT = (gp.interval_example(0.5), gp.ellipse_example(0.5), gp.segments_example(0.5),
         gp.affine_segments_pair(0.5, 0.25, 0.5))


@st.composite
def replaced_builds(draw):
    """A coordinate builder's instance with its map or pair, sets, space,
    graph, name and tol replaced, each at random: by coordinate ones, or by
    the tables of its points, which a tabulated file may state."""
    inst = draw(st.sampled_from(BUILT))
    pts, pos = inst.points, inst.sets.position
    n = len(pts)
    point = st.integers(0, n - 1)
    table = st.lists(point, min_size=n, max_size=n).map(lambda t: gp.CyclicMap("drawn", table=t))
    one_map = st.one_of(table, st.just(gp.CyclicMap("identity", fn=lambda p: p)))
    indices = gp.SubsetPair(*(tuple(pos[p] for p in side) for side in (inst.sets.a, inst.sets.b)))
    # the points as a table: the space, index sets and table maps at once
    tables = instances._tabulated_from_coords(np.asarray(pts))
    tabulated = one_kind(table).map(lambda maps: {"space": tables, "sets": indices, **maps})
    space = st.one_of(tabulated, st.fixed_dictionaries(
        {"space": st.sampled_from((gp.CoordinateSpace(1), gp.CoordinateSpace(2)))}))
    graph = st.one_of(st.sampled_from((gp.complete_graph(), gp.diagonal_graph())),
                      st.lists(st.tuples(point, point), max_size=n).map(gp.explicit_graph))
    rest = st.fixed_dictionaries({}, optional={
        "sets": st.sampled_from((indices, gp.SubsetPair(inst.sets.b, inst.sets.a))),
        "graph": graph,
        "name": st.sampled_from((inst.name, "drawn", " padded ")),
        "tol": st.sampled_from((gp.DEFAULT_TOL, 0.0))})
    changes = {}
    for option in (space, one_kind(one_map), rest):
        if draw(st.booleans()):
            changes.update(draw(option))
    return dataclasses.replace(inst, **changes) if changes else inst


@settings(max_examples=100, deadline=None)
@given(replaced_builds())
@example(BUILT[0])  # and each builder's own instance, unreplaced
@example(BUILT[1])
@example(BUILT[2])
@example(BUILT[3])
def test_dumps_of_a_built_instance_refuses_or_writes_what_loads_gives_back(inst):
    """A coordinate file states a builder call, so ``dumps`` writes a
    builder's own instance, refuses any replaced coordinate one, and holds
    a replaced tabulated one to the reports of what it writes."""
    try:
        text = gp.dumps(inst)
    except SpecError:
        assert not inst.params
        return
    assert report_lines(gp.loads(text)) == report_lines(inst)


def dumps_reference(inst):
    """``dumps`` of a tabulated instance as it wrote the ``edge:`` section
    from ``graph.edges``, a set of (x, y) tuples sorted as tuples: the
    reference of the keyed writer."""
    lines = [instances.FORMAT_HEADER, f"name: {inst.name}"]
    n = inst.space.n
    lines.append("kind: tabulated")
    lines.append(f"n: {n}")
    lines.append("A: " + " ".join(str(i) for i in inst.sets.a))
    lines.append("B: " + " ".join(str(i) for i in inst.sets.b))
    g = inst.graph
    if g.rule in (gp.COMPLETE, gp.DIAGONAL):
        lines.append(f"graph: {g.rule}")
    else:
        lines.append(f"graph: edges {len(g.edges)}")
        lines.extend(f"edge: {x} {y}" for x, y in sorted(g.edges))
    if inst.map_pair is not None:
        lines.append("map: pair")
        lines.append("table-t: " + " ".join(str(i) for i in inst.map_pair.t.table))
        lines.append("table-s: " + " ".join(str(i) for i in inst.map_pair.s.table))
    elif inst.cyclic_map is not None:
        lines.append("map: table")
        lines.append("table: " + " ".join(str(i) for i in inst.cyclic_map.table))
    else:
        lines.append("map: none")
    lines.append("dist:")
    d = inst.space.dist
    lines.extend("row: " + " ".join(map(repr, d[i, :i].tolist())) for i in range(1, n))
    return "\n".join(lines) + "\n"


def with_map(inst, kind):
    """``inst`` with no map, with its own table, or with its table and the
    reversed table as a pair."""
    if kind == "none":
        return gp.Instance(inst.name, inst.space, inst.sets, inst.graph)
    if kind == "table":
        return inst
    table = inst.cyclic_map.table
    pair = gp.MapPair(gp.CyclicMap("t", table=table), gp.CyclicMap("s", table=table[::-1]))
    return gp.Instance(inst.name, inst.space, inst.sets, inst.graph, map_pair=pair)


@pytest.mark.parametrize("seed", [1, 2, 3, 17])
@pytest.mark.parametrize("p", ["0", "0.3", "0.6", "1"])
@pytest.mark.parametrize("kind", ["none", "table", "pair"])
def test_dumps_matches_the_tuple_writer(seed, p, kind):
    inst = with_map(gp.random_instance(seed, 3 + seed % 5, 4, graph_rule=f"random:{p}"), kind)
    assert gp.dumps(inst) == dumps_reference(inst)


@pytest.mark.parametrize("pairs", [
    ([3, 0, 3, 2, 0, 3], [1, 0, 1, 2, 0, 1]),
    ([np.int64(4), 0, 4, np.int64(0)], [np.int64(1), np.int64(6), 1, 6]),
    (np.array([6, 5, 6, 0, 1]), np.array([0, 6, 0, 0, 6])),
    ([], []),
])
def test_dumps_of_listed_pairs_matches_the_tuple_writer(pairs):
    """Repeated pairs are written once, numpy integer ends as their index."""
    inst = gp.random_instance(5, 3, 4)
    inst = dataclasses.replace(inst, graph=gp.DirectedGraph(gp.EXPLICIT, pairs=pairs))
    assert gp.dumps(inst) == dumps_reference(inst)
    assert gp.dumps(gp.loads(gp.dumps(inst))) == gp.dumps(inst)


def test_dumps_rows_repr_each_entry():
    inst = gp.random_instance(3, 4, 5)
    d = inst.space.dist
    rows = [ln for ln in gp.dumps(inst).splitlines() if ln.startswith("row:")]
    assert rows == ["row: " + " ".join(repr(float(d[i, j])) for j in range(i))
                    for i in range(1, inst.space.n)]


# ------------------------------------------------------ columnar edge: section

#: Tabulated files: explicit edges with one map and with a map pair, a
#: complete graph, and a table with negative zeros in it.
LOADER_BASES = (
    gp.dumps(gp.random_instance(5, 3, 4, graph_rule="random:0.5")),
    gp.dumps(gp.random_instance(6, 2, 2, graph_rule="random:0.3")),
    gp.dumps(gp.contraction_instance(7, rays=2, depth=1)),
    gp.dumps(gp.identity_pair_instance(8, n=3)).replace("graph: complete",
                                                          "graph: edges 2\nedge: 0 1\nedge: 2 2"),
    "gproximity-instance v1\nname: zeros\nkind: tabulated\nn: 3\nA: 0 1\nB: 2\n"
    "graph: edges 1\nedge: 2 0\nmap: none\ndist:\nrow: -0.0\nrow: 1.5 -0.0\n",
)
VALUE_TOKENS = ("nan", "inf", "-inf", "-1", "3", "99", "1e309", "-0.0", "+1", "1_0",
                "007", "0x1", "1.0", "edge:", "row:", "")


def line_reader_only():
    """The section fast path switched off: every line goes through _Reader."""
    return mock.patch.object(_reader._Reader, "columns", lambda *args: None)


def load_outcome(text):
    try:
        inst = gp.loads(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    tables = [m.table for m in (inst.cyclic_map, inst.map_pair and inst.map_pair.t,
                                inst.map_pair and inst.map_pair.s) if m]
    edges = inst.graph.edges
    return ("ok", inst.name, inst.space.dist.tobytes(), inst.space.dist.shape,
            inst.graph.rule, edges, edges and {type(v) for e in edges for v in e},
            inst.sets.a, inst.sets.b, tables)


@st.composite
def mutated_sections(draw):
    """A tabulated dumps text with one to three edits, mostly inside its
    edge: and row: sections."""
    lines = draw(st.sampled_from(LOADER_BASES)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        body = [k for k, ln in enumerate(lines) if ln.startswith(("edge:", "row:"))]
        k = draw(st.sampled_from(body or [len(lines) - 1]))
        how = draw(st.sampled_from(("blank", "extra", "missing", "nospace", "value",
                                    "duplicate", "truncate", "indent")))
        toks = lines[k].split(" ")
        if how == "blank":
            lines.insert(k, draw(st.sampled_from(("", "   "))))
        elif how == "extra":
            lines[k] += " " + draw(st.sampled_from(VALUE_TOKENS))
        elif how == "missing":
            lines[k] = " ".join(toks[:-1])
        elif how == "nospace":
            lines[k] = lines[k].replace(": ", ":", 1)
        elif how == "value":
            toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(VALUE_TOKENS))
            lines[k] = " ".join(toks)
        elif how == "duplicate":
            lines.insert(k, lines[k])
            head = next((i for i, ln in enumerate(lines) if ln.startswith("graph: edges ")), None)
            if lines[k].startswith("edge:") and head is not None and draw(st.booleans()):
                count = int(lines[head].split()[2])
                lines[head] = f"graph: edges {count + 1}"
        elif how == "truncate":
            del lines[k:]
        else:
            lines[k] = "  " + lines[k]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(mutated_sections())
def test_columnar_sections_match_the_line_reader(text):
    """Every file loads to the instance the line reader builds (distances
    bitwise, edges, tables, sets) or fails with its error text and line."""
    fast = load_outcome(text)
    with line_reader_only():
        assert fast == load_outcome(text)


@pytest.mark.parametrize("base", LOADER_BASES)
def test_canonical_sections_load_as_the_line_reader_does(base):
    fast = load_outcome(base)
    with line_reader_only():
        assert fast == load_outcome(base)
    assert fast[0] == "ok"


SHAPES_HEAD = ("gproximity-instance v1\nname: shapes\nkind: tabulated\nn: 3\nA: 0 1\nB: 2\n"
               "graph: edges 3\n")
SHAPES_ROWS = "map: none\ndist:\nrow: 1.0\nrow: 2.0 1.5\n"


@pytest.mark.parametrize("text", [
    SHAPES_HEAD + "edge: 0 1\nedge: 1 2\nedge: 2 0\n" + SHAPES_ROWS,
    # a token moved across a line break: a key among the values
    SHAPES_HEAD + "edge: 0 1 1\nedge: 2\nedge: 2 0\n" + SHAPES_ROWS,
    SHAPES_HEAD + "edge: 0 1\nedge: 1 2\nedge: 2 0\n" + SHAPES_ROWS.replace("1.0\n", "1.0 2.0\n"),
    # the right token count, but a line that does not start with its key
    SHAPES_HEAD + "edge: 0\n1 edge: 1 2\nedge: 2 0\n" + SHAPES_ROWS,
    SHAPES_HEAD + "edge: 0 1\nedge: 1 2\nedge: 2 0\n" + SHAPES_ROWS.replace("1.0\nrow:", "1.0 row:\n"),
    SHAPES_HEAD + "edge: 0 1 edge: 1 2\nedge: \nedge: 2\n" + SHAPES_ROWS,
    # empty, negative and unmet edge counts; a one-point file has no rows
    SHAPES_HEAD.replace("edges 3", "edges 0") + SHAPES_ROWS,
    SHAPES_HEAD.replace("edges 3", "edges -2") + SHAPES_ROWS,
    SHAPES_HEAD.replace("edges 3", "edges 99") + "edge: 0 1\n" + SHAPES_ROWS,
    "gproximity-instance v1\nname: one\nkind: tabulated\nn: 1\nA: 0\nB: 0\n"
    "graph: edges 1\nedge: 0 0\nmap: none\ndist:\n",
])
def test_hand_made_sections_match_the_line_reader(text):
    fast = load_outcome(text)
    with line_reader_only():
        assert fast == load_outcome(text)


def test_duplicate_edge_lines_collapse():
    text = LOADER_BASES[4].replace("graph: edges 1\nedge: 2 0", "graph: edges 3\nedge: 2 0\n"
                                   "edge: 1 1\nedge: 2 0")
    assert gp.loads(text).graph.edges == {(2, 0), (1, 1)}


def test_reader_builder_arguments_match_the_builders():
    """The reader checks arg: names against its own table, without the
    builders; the table must name each registered builder's parameters."""
    assert _reader.BUILDER_ARGS == {name: tuple(inspect.signature(fn).parameters)
                                    for name, fn in instances._BUILDERS.items()}


def test_canonical_sections_skip_the_line_walk():
    """A canonical file reads its edge: section in one pass: the number of
    _Reader.next calls grows with the row count only, not the edge count."""
    calls = []
    real_next = _reader._Reader.next

    def counting_next(self, *args):
        calls.append(self.pos)
        return real_next(self, *args)

    big = gp.random_instance(9, 100, 100, graph_rule="random:0.9")
    small = gp.random_instance(9, 2, 2, graph_rule="random:0.9")
    texts = [gp.dumps(big), gp.dumps(small)]
    assert len(big.graph.edges) > 35_000 and texts[0].count("\n") > 35_000
    counts = []
    with mock.patch.object(_reader._Reader, "next", counting_next):
        for text in texts:
            calls.clear()
            gp.loads(text)
            counts.append(len(calls))
    assert counts[0] - counts[1] == big.space.n - small.space.n == 196
    assert counts[1] - (small.space.n - 1) <= 12
