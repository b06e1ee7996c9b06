import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gproximity import (CoordinateSpace, SubsetPair, TabulatedSpace,
                        pair_distance, set_diameter, validate_metric,
                        validate_sets)
from gproximity.errors import DomainError, StructuralError


def euclidean_table(points):
    arr = np.asarray(points, dtype=float)
    diff = arr[:, None, :] - arr[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


class TestTabulatedSpace:
    def test_distance_lookup(self):
        d = euclidean_table([(0, 0), (3, 4), (0, 4)])
        space = TabulatedSpace(d)
        assert space.distance(0, 1) == 5.0
        assert space.distance(1, 2) == 3.0
        assert space.n == 3

    def test_rejects_non_square(self):
        with pytest.raises(StructuralError):
            TabulatedSpace(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        d = np.zeros((2, 2))
        d[0, 1] = d[1, 0] = math.inf
        with pytest.raises(StructuralError):
            TabulatedSpace(d)

    def test_matrix_is_read_only(self):
        space = TabulatedSpace(euclidean_table([(0, 0), (1, 0)]))
        with pytest.raises(ValueError):
            space.dist[0, 1] = 7.0


class TestValidateMetric:
    def test_euclidean_table_passes(self):
        space = TabulatedSpace(euclidean_table([(0, 0), (1, 2), (-3, 1), (4, 4)]))
        assert validate_metric(space).ok

    def test_coordinate_space_passes_vacuously(self):
        assert validate_metric(CoordinateSpace(2)).ok

    def test_flags_asymmetry(self):
        d = euclidean_table([(0, 0), (1, 0), (2, 0)])
        d = d.copy()
        d[0, 1] = 9.0
        report = validate_metric(TabulatedSpace(d))
        assert not report.ok
        assert "symmetry at (0, 1): d(0,1) = 9.0 but d(1,0) = 1.0" in map(str, report.violations)

    def test_flags_triangle_violation(self):
        d = np.array([[0.0, 1.0, 1.0],
                      [1.0, 0.0, 5.0],
                      [1.0, 5.0, 0.0]])
        report = validate_metric(TabulatedSpace(d))
        assert any(v.axiom == "triangle" for v in report.violations)

    def test_triangle_violations_match_triple_loop(self, monkeypatch):
        import gproximity.metric

        monkeypatch.setattr(gproximity.metric, "_BLOCK_ELEMS", 100)  # 2 rows of i per block
        rng = np.random.default_rng(5)
        d = euclidean_table(rng.uniform(0, 1, size=(7, 2)))
        d[1, 5] = d[5, 1] = 3.0
        d[2, 6] = d[6, 2] = 2.5
        report = validate_metric(TabulatedSpace(d))
        found = [v.where for v in report.violations if v.axiom == "triangle"]
        expected = [(i, k, j) for i in range(7) for k in range(7) for j in range(7)
                    if d[i, j] - (d[i, k] + d[k, j]) > 1e-9]
        assert found == expected and expected

    def test_triangle_blocks_without_violations_are_skipped_exactly(self, monkeypatch):
        """One violation barely above tol in one block of four: the other
        blocks skip ``argwhere``, and the list is the triple loop's."""
        import gproximity.metric

        monkeypatch.setattr(gproximity.metric, "_BLOCK_ELEMS", 100)
        d = np.abs(np.subtract.outer(np.arange(7.0), np.arange(7.0)))  # points on a line
        d[2, 4] = d[4, 2] = 2.0 + 1.5e-9
        report = validate_metric(TabulatedSpace(d))
        found = [v.where for v in report.violations]
        expected = [(i, k, j) for i in range(7) for k in range(7) for j in range(7)
                    if d[i, j] - (d[i, k] + d[k, j]) > 1e-9]
        assert found == expected == [(2, 3, 4), (4, 3, 2)]

    def test_triangle_check_memory_stays_below_one_cube(self):
        import tracemalloc

        n = 200
        space = TabulatedSpace(euclidean_table(np.random.default_rng(1).uniform(0, 1, size=(n, 2))))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert validate_metric(space).ok
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < n ** 3 * 8

    def test_flags_nonzero_diagonal(self):
        d = np.array([[0.5, 1.0], [1.0, 0.0]])
        report = validate_metric(TabulatedSpace(d))
        assert "identity at (0,): d(0,0) = 0.5 != 0" in map(str, report.violations)

    def test_flags_negative_entry(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        report = validate_metric(TabulatedSpace(d))
        assert "nonnegativity at (0, 1): d(0,1) = -1.0 < 0" in map(str, report.violations)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                min_size=2, max_size=12))
def test_euclidean_clouds_always_satisfy_axioms(points):
    space = TabulatedSpace(euclidean_table(points))
    assert validate_metric(space, tol=1e-7).ok


class TestSubsetPair:
    def test_points_order_a_then_new_b(self):
        sp = SubsetPair(a=(1, 2, 3), b=(3, 4))
        assert sp.points == (1, 2, 3, 4)

    def test_points_list_each_point_once(self):
        sp = SubsetPair(a=(0, 0, 1), b=(2, 1, 2))
        assert sp.points == (0, 1, 2)

    def test_membership(self):
        sp = SubsetPair(a=((0.0,), (1.0,)), b=((2.0,),))
        assert sp.in_a((0.0,))
        assert not sp.in_a((2.0,))
        assert sp.in_b((2.0,))

    def test_predicate_membership_wins(self):
        sp = SubsetPair(a=((0.0,),), b=((2.0,),),
                        a_contains=lambda p: p[0] < 1,
                        b_contains=lambda p: p[0] >= 1)
        assert sp.in_a((0.5,))
        assert sp.in_b((7.0,))


class TestValidateSets:
    def test_tabulated_cover(self):
        space = TabulatedSpace(euclidean_table([(0, 0), (1, 0), (2, 0)]))
        assert validate_sets(space, SubsetPair(a=(0, 1), b=(2,))).ok
        report = validate_sets(space, SubsetPair(a=(0,), b=(2,)))
        assert not report.ok

    def test_tabulated_index_bounds(self):
        space = TabulatedSpace(euclidean_table([(0, 0), (1, 0)]))
        report = validate_sets(space, SubsetPair(a=(0, 5), b=(1,)))
        assert not report.ok

    def test_coordinate_dimension(self):
        report = validate_sets(CoordinateSpace(2),
                               SubsetPair(a=((0.0, 0.0),), b=((1.0,),)))
        assert not report.ok


class TestPairDistance:
    def test_interval_gap(self):
        space = CoordinateSpace(1)
        sets = SubsetPair(a=((-3.0,), (-1.0,)), b=((1.0,), (3.0,)))
        assert pair_distance(space, sets) == 2.0

    def test_touching_sets(self):
        space = CoordinateSpace(1)
        sets = SubsetPair(a=((0.0,), (1.0,)), b=((1.0,), (2.0,)))
        assert pair_distance(space, sets) == 0.0

    def test_tabulated(self):
        space = TabulatedSpace(euclidean_table([(0, 0), (5, 0), (9, 0)]))
        assert pair_distance(space, SubsetPair(a=(0,), b=(1, 2))) == 5.0


def same_float(x, y) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


class TestPairDistanceShortcut:
    """Coordinate sets sharing a point give d(A, B) = 0.0 without a fold, bit
    for bit the fold's value; tables always fold, sign bits and non-zero
    diagonals included."""

    @staticmethod
    def fold(space, sets):
        from gproximity.metric import _fold_cross, point_array

        return _fold_cross(space, point_array(space, sets.a), point_array(space, sets.b), np.min)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(("plain", "negative-zero", "negative", "diagonal")))
    def test_tables_bitwise_equal_to_fold(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        d = np.round(rng.uniform(0, 2, size=(n, n)), 1)
        d = np.minimum(d, d.T)
        np.fill_diagonal(d, 0.0)
        i, j = rng.integers(n, size=2)
        if kind == "negative-zero":
            d[i, j] = d[j, i] = -0.0
        elif kind == "negative":
            d[i, j] = d[j, i] = -0.5
        elif kind == "diagonal":
            d[i, i] = 0.5
        space = TabulatedSpace(d)
        a = tuple(sorted(set(rng.integers(n, size=rng.integers(1, n + 1)).tolist())))
        b = tuple(sorted(set(rng.integers(n, size=rng.integers(1, n + 1)).tolist())))
        sets = SubsetPair(a, b)
        assert same_float(pair_distance(space, sets), self.fold(space, sets))

    @pytest.mark.parametrize("entry, value", [(0.0, 0.0), (-0.0, -0.0), (-1.0, -1.0)])
    def test_overlapping_table_with_sign_bits(self, entry, value):
        d = np.array([[0.0, 1.0, entry], [1.0, 0.0, 2.0], [entry, 2.0, 0.0]])
        sets = SubsetPair((0, 1), (1, 2))
        got = pair_distance(TabulatedSpace(d), sets)
        assert got == value and same_float(got, self.fold(TabulatedSpace(d), sets))

    def test_shared_point_with_non_zero_self_distance_folds(self):
        d = np.array([[0.5, 1.0], [1.0, 0.25]])
        assert pair_distance(TabulatedSpace(d), SubsetPair((0, 1), (0,))) == 0.5

    def test_shared_point_still_rejects_foreign_indices(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DomainError):
            pair_distance(TabulatedSpace(d), SubsetPair((0, 5), (0,)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_coordinates_bitwise_equal_to_fold(self, dim, seed, overlap):
        rng = np.random.default_rng(seed)
        a = [tuple(p) for p in rng.integers(-3, 4, size=(6, dim)).astype(float).tolist()]
        b = [tuple(p) for p in rng.integers(-3, 4, size=(5, dim)).astype(float).tolist()]
        if overlap:
            b.append(a[int(rng.integers(6))])
        a.append(a[0])  # a repeated point: the overlap test reads sets, not counts
        space, sets = CoordinateSpace(dim), SubsetPair(tuple(a), tuple(b))
        assert same_float(pair_distance(space, sets), self.fold(space, sets))

    def test_overlap_skips_the_fold(self, monkeypatch):
        import gproximity.metric

        def no_fold(*args):
            raise AssertionError("folded")

        monkeypatch.setattr(gproximity.metric, "_fold_cross", no_fold)
        inst_sets = SubsetPair(((0.0, 0.5), (1.0, 0.0)), ((0.0, 0.5),))
        assert pair_distance(CoordinateSpace(2), inst_sets) == 0.0


class TestBlockedFolds:
    """pair_distance and set_diameter fold over row blocks: the same value as
    the full matrix, without ever holding it."""

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_bitwise_equal_to_full_matrix(self, monkeypatch, block):
        import gproximity._scan
        import gproximity.metric

        rng = np.random.default_rng(4)
        pa, pb = rng.uniform(0, 1, size=(23, 2)), rng.uniform(1, 2, size=(17, 2))
        full = gproximity._scan.cross_dists(CoordinateSpace(2), pa, pb)
        whole = gproximity._scan.cross_dists(CoordinateSpace(2), pa, pa)
        space, sets = CoordinateSpace(2), SubsetPair(tuple(map(tuple, pa)), tuple(map(tuple, pb)))
        tab = TabulatedSpace(euclidean_table(np.vstack([pa, pb])))
        tab_sets = SubsetPair(tuple(range(23)), tuple(range(23, 40)))
        monkeypatch.setattr(gproximity.metric, "_BLOCK_ELEMS", block)
        assert pair_distance(space, sets) == full.min()
        assert pair_distance(tab, tab_sets) == tab.dist[:23, 23:].min()
        assert set_diameter(space, sets.a) == whole.max()

    def test_memory_stays_below_one_matrix(self, monkeypatch):
        import tracemalloc

        import gproximity.metric

        n = 1000
        rng = np.random.default_rng(5)
        sets = SubsetPair(tuple(map(tuple, rng.uniform(0, 1, size=(n, 2)))),
                          tuple(map(tuple, rng.uniform(2, 3, size=(n, 2)))))
        monkeypatch.setattr(gproximity.metric, "_BLOCK_ELEMS", 20 * n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pair_distance(CoordinateSpace(2), sets)
            set_diameter(CoordinateSpace(2), sets.a)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4


class TestSetDiameter:
    def test_singleton_is_zero(self):
        assert set_diameter(CoordinateSpace(1), ((4.0,),)) == 0.0

    def test_empty_raises(self):
        with pytest.raises(DomainError):
            set_diameter(CoordinateSpace(1), ())

    def test_known_value(self):
        pts = ((0.0, 0.0), (3.0, 4.0), (1.0, 1.0))
        assert set_diameter(CoordinateSpace(2), pts) == 5.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(-20, 20), st.floats(-20, 20)),
                min_size=1, max_size=10, unique=True),
       st.tuples(st.floats(-20, 20), st.floats(-20, 20)))
def test_diameter_grows_with_more_points(points, extra):
    space = CoordinateSpace(2)
    base = set_diameter(space, tuple(points))
    assert set_diameter(space, tuple(points) + (extra,)) >= base


def kernel_reference(p, q):
    return np.sqrt(((p[:, None] - q[None]) ** 2).sum(-1))


def same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(0, 30), st.integers(1, 30), st.integers(0, 2 ** 32 - 1),
       st.sampled_from((1, 7, 64, 1 << 16)))
def test_distance_kernel_bitwise_equal_to_reference(dim, n, m, seed, chunk):
    """euclidean (aligned and cross, with and without caller buffers),
    cross_dists and elem_dists against the broadcast formula; small chunks
    make cross matrices cross row-chunk boundaries, and NaN-filled buffers
    show a stale entry."""
    import gproximity._scan
    import gproximity.metric
    from gproximity.metric import euclidean

    rng = np.random.default_rng(seed)
    p = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    q = rng.normal(size=(m, dim)) * 10.0 ** rng.integers(-3, 4, size=(m, 1))
    if n and m:
        q[0] = p[0]  # a zero distance
    q_aligned = q[np.arange(n) % m]
    cross, aligned = kernel_reference(p, q), np.diagonal(kernel_reference(p, q_aligned))
    pt, qt, at = (np.ascontiguousarray(a.T) for a in (p, q, q_aligned))
    space = CoordinateSpace(dim)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gproximity.metric, "_BLOCK_ELEMS", chunk)
        same_bits(euclidean(pt, qt, cross=True), cross)
        same_bits(euclidean(pt, at), aligned)
        chunk_rows = min(n, max(1, chunk // m))
        out, scratch = np.full((n, m), np.nan), np.full(chunk_rows * m, np.nan)
        assert euclidean(pt, qt, cross=True, out=out, scratch=scratch) is out
        same_bits(out, cross)
        out, scratch = np.full(n, np.nan), np.full(n, np.nan)
        assert euclidean(pt, at, out=out, scratch=scratch) is out
        same_bits(out, aligned)
        same_bits(gproximity._scan.cross_dists(space, p, q), cross)
        same_bits(gproximity._scan.elem_dists(space, p, q_aligned), aligned)
    table = TabulatedSpace(kernel_reference(p, p))
    rows, cols = rng.integers(0, max(n, 1), size=(2, n))
    same_bits(gproximity._scan.cross_dists(table, rows, cols), table.dist[np.ix_(rows, cols)])
    same_bits(gproximity._scan.elem_dists(table, rows, cols), table.dist[rows, cols])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_scalar_distance_bitwise_equal_to_kernel(dim, seed):
    """CoordinateSpace.distance, which the solver reads, against the kernel
    that the scans, d(A,B) and enumerate read."""
    import gproximity._scan

    rng = np.random.default_rng(seed)
    p, q = rng.normal(size=(2, 200, dim)) * 10.0 ** rng.integers(-3, 4, size=(2, 200, 1))
    space = CoordinateSpace(dim)
    scalar = [space.distance(tuple(x), tuple(y)) for x, y in zip(p.tolist(), q.tolist())]
    same_bits(np.array(scalar), gproximity._scan.elem_dists(space, p, q))
    with pytest.raises(ValueError):
        space.distance((0.0,) * dim, (0.0,) * (dim + 1))


def test_table_kernel_rejects_foreign_indices():
    import gproximity._scan

    table = TabulatedSpace(euclidean_table([(0, 0), (1, 0)]))
    for bad in ([0, 2], [-1, 0]):
        with pytest.raises(DomainError):
            gproximity._scan.cross_dists(table, np.array(bad), np.array([0, 1]))
