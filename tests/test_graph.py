import numpy as np
import pytest

from gproximity import (DirectedGraph, complete_graph, contains_edge, custom_graph,
                        diagonal_graph, explicit_graph, iter_edges,
                        preserves_edges, validate_graph)
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


def test_custom_predicate():
    g = custom_graph("even-sum", lambda x, y: (x + y) % 2 == 0)
    assert contains_edge(g, 1, 3)
    assert not contains_edge(g, 1, 2)
    assert contains_edge(g, 1, 1)


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


def test_validate_graph_flags_loopless_custom_predicate():
    g = custom_graph("strictly-less", lambda x, y: x < y)
    report = validate_graph(g, PTS)
    assert not report.ok


def test_iter_edges_is_deterministic():
    g = explicit_graph({(2, 0), (0, 1), (1, 2)})
    first = list(iter_edges(g, PTS))
    second = list(iter_edges(g, PTS))
    assert first == second
    assert set(first) >= {(2, 0), (0, 1), (1, 2)}


def test_iter_edges_complete_count():
    g = complete_graph()
    assert len(list(iter_edges(g, PTS))) == len(PTS) ** 2


class TestPreservesEdges:
    def test_complete_is_trivial(self):
        ok, edge = preserves_edges(complete_graph(), lambda x: x, PTS)
        assert ok and edge is None

    def test_explicit_pass(self):
        g = explicit_graph({(0, 1)})
        ok, _ = preserves_edges(g, lambda x: x, PTS)
        assert ok

    def test_explicit_fail_reports_witness(self):
        g = explicit_graph({(0, 1)})
        shift = {0: 1, 1: 2, 2: 3, 3: 0}
        ok, edge = preserves_edges(g, shift.__getitem__, PTS)
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

    def test_custom_always_has_the_diagonal(self):
        g = custom_graph("less", lambda x, y: x < y)
        assert self.pairs(g) == [(i, j) for i in PTS for j in PTS if i <= j]

    def test_diagonal(self):
        assert self.pairs(diagonal_graph()) == [(i, i) for i in PTS]

    def test_positions_follow_the_point_order(self):
        g = explicit_graph({(3, 1), (9, 3)})
        adj = adjacency(g, point_positions((3, 1)))
        assert adj.tolist() == [[True, True], [False, True]]


def listed_graphs(seed):
    """A graph of random index pairs with repeated pairs, most of the
    diagonal and ends outside the points, as index arrays and as a set;
    with the points, a random subset of 0..n-1 in random order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    k = int(rng.integers(0, 3 * n))
    i, j = rng.integers(0, n, size=k), rng.integers(0, n, size=k)
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
