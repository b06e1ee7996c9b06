import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gproximity import (EXPLICIT, CyclicMap, DirectedGraph, Instance, SubsetPair,
                        TabulatedSpace, complete_graph, contains_edge, diagonal_graph,
                        explicit_graph, interval_example, validate_graph)
from gproximity.graph import adjacency
from gproximity.metric import point_positions
from gproximity.errors import DomainError

PTS = (0, 1, 2, 3)


def test_complete_contains_everything():
    g = complete_graph()
    assert contains_edge(g, 0, 3)
    assert contains_edge(g, 3, 0)
    assert contains_edge(g, 1, 1)


def test_diagonal_contains_only_loops():
    g = diagonal_graph()
    assert contains_edge(g, 2, 2)
    assert not contains_edge(g, 0, 1)


def test_explicit_edges():
    g = explicit_graph({(0, 1), (1, 2)})
    assert contains_edge(g, 0, 1)
    assert not contains_edge(g, 1, 0)
    # self loops are always edges, even when not listed
    assert contains_edge(g, 0, 0)


def test_validate_graph_flags_foreign_explicit_endpoint():
    g = explicit_graph({(0, 9)})
    report = validate_graph(g, PTS)
    assert not report.ok
    g = explicit_graph({(7, 1), (0, (1.0,)), (2, 3), (0, 9), (-1, 0), (1, 1)})
    assert [v.where for v in validate_graph(g, PTS).violations if v.axiom == "endpoint"] == \
        [(-1, 0), (0, 9), (0, (1.0,)), (7, 1)]
    # a self-loop is listed at point 1 only; an edge with two foreign ends is no loop
    g = explicit_graph({(7, 9), (1, 1), (-1, -1)})
    assert [v.where for v in validate_graph(g, PTS).violations] == \
        [(0,), (2,), (3,), (-1, -1), (7, 9)]


def test_validate_graph_accepts_complete():
    assert validate_graph(complete_graph(), PTS).ok


def on_line(g, table):
    """An instance on PTS placed at 0..3 on a line, A = {0, 1}, B = {2, 3},
    with graph ``g`` and the cyclic map of ``table``."""
    space = TabulatedSpace(np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0))))
    return Instance("line", space, SubsetPair((0, 1), (2, 3)), g,
                    cyclic_map=CyclicMap("m", table=table))


def scanned(eng):
    """(i, j) of the edges of a pass, as each block's ``pairs`` decodes them."""
    return [ij for pairs, _d, df, _u in eng.blocks()
            for ij in zip(*(a.tolist() for a in pairs(np.arange(df.size))))]


def test_listed_edges_are_deterministic():
    """The engine scans a listed graph's edges among the points in sorted
    order, the diagonal included, whatever order they were listed in."""
    g = explicit_graph({(2, 0), (0, 1), (1, 2), (0, 9)})
    first, second = on_line(g, (0, 1, 2, 3)).engine, on_line(g, (0, 1, 2, 3)).engine
    pairs = [scanned(first), scanned(second)]
    assert pairs[0] == pairs[1] == [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2), (3, 3)]


class TestPreservesEdges:
    SHIFT = (1, 2, 3, 0)

    def test_complete_is_trivial(self):
        assert on_line(complete_graph(), self.SHIFT).engine.preserved == (True, None)

    def test_explicit_pass(self):
        ok, _ = on_line(explicit_graph({(0, 1)}), (0, 1, 2, 3)).engine.preserved
        assert ok

    def test_explicit_fail_reports_witness(self):
        ok, edge = on_line(explicit_graph({(0, 1)}), self.SHIFT).engine.preserved
        assert not ok
        assert edge == (0, 1)


class TestAdjacency:
    def pairs(self, g):
        adj = adjacency(g, point_positions(PTS))
        return None if adj is None else list(zip(*(a.tolist() for a in np.nonzero(adj))))

    def test_complete_is_all_pairs(self):
        assert self.pairs(complete_graph()) is None

    def test_explicit_lists_only_its_edges_sorted(self):
        g = explicit_graph({(2, 0), (0, 1), (1, 1), (0, 9)})
        assert self.pairs(g) == [(0, 0), (0, 1), (1, 1), (2, 0), (2, 2), (3, 3)]

    def test_diagonal(self):
        assert self.pairs(diagonal_graph()) == [(i, i) for i in PTS]

    def test_positions_follow_the_point_order(self):
        g = explicit_graph({(3, 1), (9, 3)})
        adj = adjacency(g, point_positions((3, 1)))
        assert adj.tolist() == [[True, True], [False, True]]


def test_negative_index_end_is_foreign():
    """A negative end names no point of a tabulated instance, so it makes no
    edge: it must not wrap onto the last point, as it would if ends were
    used as numpy indices."""
    listed = DirectedGraph("explicit", pairs=([-1], [0]))
    assert listed == explicit_graph({(-1, 0)})
    assert not adjacency(listed, point_positions((0, 1, 2)))[2, 0]
    inst = on_line(listed, (0, 1, 2, 3))
    assert not inst.has_edge(3, 0) and inst.has_edge(3, 3)


def listed_graphs(seed):
    """A graph of random index pairs with repeated pairs, most of the
    diagonal and ends outside the points, negative ones among them, built
    from its end sequences and from its edges; with the points, a random
    subset of 0..n-1 in random order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    k = int(rng.integers(0, 3 * n))
    i, j = rng.integers(-n, n, size=k), rng.integers(-n, n, size=k)
    loops = np.flatnonzero(rng.random(n) < 0.7)
    i, j = np.concatenate([i, loops, i[:3]]), np.concatenate([j, loops, j[:3]])
    order = rng.permutation(i.size)
    i, j = i[order].tolist(), j[order].tolist()
    pts = [int(p) for p in rng.permutation(n)[:int(rng.integers(1, n + 1))]]
    return DirectedGraph("explicit", pairs=(i, j)), explicit_graph(zip(i, j)), pts


@pytest.mark.parametrize("seed", range(40))
def test_index_pairs_act_as_the_tuple_set(seed):
    """adjacency and validate_graph read a graph's end sequences as the set
    of its pairs, without building that set; equality and hash go by it."""
    listed, tuples, pts = listed_graphs(seed)
    position = point_positions(pts)
    assert np.array_equal(adjacency(listed, position), adjacency(tuples, position))
    assert validate_graph(listed, pts) == validate_graph(tuples, pts)
    assert "edges" not in vars(listed)
    assert listed == tuples and hash(listed) == hash(tuples)
    assert listed.edges == tuples.edges
    assert {type(v) for e in listed.edges for v in e} <= {int}


#: A tabulated instance on the points 0..3 and a coordinate one on ten
#: points of the line, whose halving map sends some points off the grid.
ON_LINE, INTERVAL = on_line(complete_graph(), (2, 3, 0, 1)), interval_example(0.5)


def ends(inst):
    """An end of a listed edge: a point of ``inst``, a foreign int (negative
    ones among them), a float, or a coordinate tuple, on the grid or off."""
    return st.one_of(st.sampled_from(inst.points), st.integers(-4, 9),
                     st.sampled_from((0.5, 1.0, 2.9, -1.0)),
                     st.tuples(st.sampled_from((-3.0, -2.5, -1.0, 0.5, 1.0, 2.0, 2.75))))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_equal_graphs_act_alike(data):
    """A graph built from its end sequences and one built from its edges
    are equal, and every check reads them alike, ends that are no point
    included."""
    inst = data.draw(st.sampled_from((ON_LINE, INTERVAL)))
    listed = data.draw(st.lists(st.tuples(ends(inst), ends(inst)), max_size=12))
    listed += listed[::2]
    i, j = [x for x, _ in listed], [y for _, y in listed]
    by_ends, by_edges = DirectedGraph(EXPLICIT, pairs=(i, j)), explicit_graph(zip(i, j))
    assert by_ends == by_edges and hash(by_ends) == hash(by_edges)
    first, second = (dataclasses.replace(inst, graph=g) for g in (by_ends, by_edges))
    assert np.array_equal(first.adjacency, second.adjacency)
    assert validate_graph(by_ends, inst.points) == validate_graph(by_edges, inst.points)
    for x in inst.points + tuple(i):
        for y in inst.points + tuple(j):
            assert first.has_edge(x, y) == second.has_edge(x, y) == contains_edge(by_edges, x, y)
    assert first.engine.preserved == second.engine.preserved
    assert np.array_equal(first.engine.on_edge, second.engine.on_edge)


@pytest.mark.parametrize("pairs", [([0, 1], [1]), ([], [0]), ([0],), ([0], [1], [2]), 5])
def test_ends_must_be_two_sequences_of_one_length(pairs):
    with pytest.raises(DomainError):
        DirectedGraph(EXPLICIT, pairs=pairs)
