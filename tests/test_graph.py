import numpy as np
import pytest

from gproximity import (CyclicMap, DirectedGraph, Instance, SubsetPair, TabulatedSpace,
                        complete_graph, contains_edge, diagonal_graph, explicit_graph,
                        validate_graph)
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


def test_foreign_point_rejected_when_points_given():
    g = complete_graph()
    with pytest.raises(DomainError):
        contains_edge(g, 0, 9, points=PTS)


def test_validate_graph_flags_foreign_explicit_endpoint():
    g = explicit_graph({(0, 9)})
    report = validate_graph(g, PTS)
    assert not report.ok
    g = explicit_graph({(7, 1), (0, (1.0,)), (2, 3), (0, 9), (-1, 0), (1, 1)})
    assert [v.where for v in validate_graph(g, PTS).violations if v.axiom == "endpoint"] == \
        [(-1, 0), (0, 9), (0, (1.0,)), (7, 1)]


def test_validate_graph_accepts_complete():
    assert validate_graph(complete_graph(), PTS).ok


def on_line(g, table):
    """An instance on PTS placed at 0..3 on a line, A = {0, 1}, B = {2, 3},
    with graph ``g`` and the cyclic map of ``table``."""
    space = TabulatedSpace(np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0))))
    return Instance("line", space, SubsetPair((0, 1), (2, 3)), g,
                    cyclic_map=CyclicMap("m", table=table))


def test_listed_edges_are_deterministic():
    """The engine scans a listed graph's edges among the points in sorted
    order, the diagonal included, whatever order they were listed in."""
    g = explicit_graph({(2, 0), (0, 1), (1, 2), (0, 9)})
    first, second = on_line(g, (0, 1, 2, 3)).engine, on_line(g, (0, 1, 2, 3)).engine
    pairs = [tuple(a.tolist()) for a in first.edge_pairs(np.arange(first.edges[0].size))]
    assert pairs == [tuple(a.tolist()) for a in second.edge_pairs(np.arange(second.edges[0].size))]
    assert list(zip(*pairs)) == [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2), (3, 3)]


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
    """A negative end of an index-array graph names no point: it must not
    wrap onto the last point, as it would by numpy indexing."""
    listed = DirectedGraph("explicit", pairs=([-1], [0]))
    assert listed == explicit_graph({(-1, 0)})
    assert not adjacency(listed, point_positions((0, 1, 2)))[2, 0]
    inst = on_line(listed, (0, 1, 2, 3))
    assert not inst.has_edge(3, 0) and inst.has_edge(3, 3)


def listed_graphs(seed):
    """A graph of random index pairs with repeated pairs, most of the
    diagonal and ends outside the points, negative ones among them, as
    index arrays and as a set; with the points, a random subset of 0..n-1
    in random order."""
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
    """adjacency and validate_graph read a graph of index arrays as the set
    of its pairs, without building that set; equality and hash go by it."""
    listed, tuples, pts = listed_graphs(seed)
    position = point_positions(pts)
    assert np.array_equal(adjacency(listed, position), adjacency(tuples, position))
    assert validate_graph(listed, pts) == validate_graph(tuples, pts)
    assert "edges" not in vars(listed)
    assert listed == tuples and hash(listed) == hash(tuples)
    assert listed.edges == tuples.edges
    assert {type(v) for e in listed.edges for v in e} <= {int}
