"""Nearest-neighbor index against a brute-force linear scan, tie-breaking,
and mini-batch assembly."""

import numpy as np
import pytest

from stein_icp import (
    InputError,
    MatchRejectionError,
    PointCloud,
    build_index,
    match_batch,
    match_stacked,
    sample_minibatch,
)

from oracles import linear_scan_nn


class TestQueryAgainstLinearScan:
    def test_random_clouds(self, rng):
        """The kd-tree route must agree with the O(NM) scan exactly."""
        ref = rng.uniform(-1, 1, (300, 3))
        queries = rng.uniform(-1.2, 1.2, (150, 3))
        index = build_index(PointCloud(ref))
        dist, idx = index.query(queries)
        odist, oidx = linear_scan_nn(queries, ref)
        np.testing.assert_array_equal(idx, oidx)
        np.testing.assert_allclose(dist, odist, rtol=1e-12)

    def test_single_query_point(self, rng):
        ref = rng.uniform(-1, 1, (50, 3))
        index = build_index(PointCloud(ref))
        dist, idx = index.query(ref[7])
        assert idx.shape == (1,)
        assert idx[0] == 7
        assert dist[0] == 0.0

    def test_single_reference_point(self, rng):
        index = build_index(PointCloud([[1.0, 2.0, 3.0]]))
        dist, idx = index.query(rng.uniform(-1, 1, (5, 3)))
        np.testing.assert_array_equal(idx, np.zeros(5, dtype=int))

    def test_workers_do_not_change_results(self, rng):
        ref = rng.uniform(-1, 1, (400, 3))
        queries = rng.uniform(-1, 1, (500, 3))
        index = build_index(PointCloud(ref))
        d1, i1 = index.query(queries, workers=1)
        d4, i4 = index.query(queries, workers=4)
        np.testing.assert_array_equal(i1, i4)
        np.testing.assert_array_equal(d1, d4)


class TestTieBreaking:
    def test_symmetric_tie_goes_to_lowest_index(self):
        """Four reference points at exactly distance 1 from the origin; the
        winner must be index 0 regardless of tree layout."""
        ref = np.array([
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [3.0, 3.0, 3.0],
        ])
        index = build_index(PointCloud(ref))
        dist, idx = index.query(np.zeros((1, 3)))
        assert idx[0] == 0
        assert dist[0] == pytest.approx(1.0)

    def test_duplicate_reference_points(self):
        ref = np.array([[0.5, 0.5, 0.5]] * 4 + [[2.0, 2.0, 2.0]])
        index = build_index(PointCloud(ref))
        _, idx = index.query(np.array([[0.4, 0.5, 0.5]]))
        assert idx[0] == 0

    def test_tie_order_is_input_order(self):
        """Reversing the reference changes which point is 'lowest index'."""
        a = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
        b = a[::-1].copy()
        ia = build_index(PointCloud(a)).query(np.zeros((1, 3)))[1][0]
        ib = build_index(PointCloud(b)).query(np.zeros((1, 3)))[1][0]
        assert ia == 0
        assert ib == 1  # the -x point now precedes the +x point

    def test_mixed_tied_and_untied_queries(self, rng):
        ref = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0.2, 0.1, 5.0]])
        queries = np.array([[0.0, 0.0, 0.0], [0.19, 0.1, 5.0]])
        _, idx = build_index(PointCloud(ref)).query(queries)
        np.testing.assert_array_equal(idx, [0, 2])


class TestSampleMinibatch:
    def test_distinct_and_in_range(self, rng):
        idx = sample_minibatch(100, 40, rng)
        assert len(np.unique(idx)) == 40
        assert idx.min() >= 0 and idx.max() < 100

    def test_full_batch(self, rng):
        idx = sample_minibatch(10, 10, rng)
        np.testing.assert_array_equal(np.sort(idx), np.arange(10))

    def test_validation(self, rng):
        with pytest.raises(InputError):
            sample_minibatch(10, 0, rng)
        with pytest.raises(InputError):
            sample_minibatch(10, 11, rng)

    def test_seeded_reproducibility(self):
        a = sample_minibatch(1000, 100, np.random.default_rng(5))
        b = sample_minibatch(1000, 100, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestMatchBatch:
    def test_fields_and_lengths(self, rng):
        ref = rng.uniform(-1, 1, (60, 3))
        index = build_index(PointCloud(ref))
        pts = rng.uniform(-1, 1, (20, 3))
        batch = match_batch(pts, index)
        assert len(batch) == 20
        np.testing.assert_array_equal(batch.indices, np.arange(20))
        np.testing.assert_array_equal(batch.transformed, pts)
        np.testing.assert_array_equal(batch.source_points, pts)
        d, i = index.query(pts)
        np.testing.assert_array_equal(batch.reference_points, ref[i])
        np.testing.assert_array_equal(batch.distances, d)
        assert batch.reference_normals is None

    def test_max_dist_filters(self):
        ref = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        index = build_index(PointCloud(ref))
        pts = np.array([[0.1, 0.0, 0.0], [5.0, 0.0, 0.0]])
        batch = match_batch(pts, index, max_dist=1.0)
        assert len(batch) == 1
        np.testing.assert_array_equal(batch.indices, [0])

    def test_all_rejected_raises(self):
        index = build_index(PointCloud([[0.0, 0.0, 0.0]]))
        with pytest.raises(MatchRejectionError):
            match_batch(np.array([[5.0, 5.0, 5.0]]), index, max_dist=0.1)

    def test_normals_attached_and_zero_marker_dropped(self):
        nrm = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        ref = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        index = build_index(PointCloud(ref, nrm))
        pts = np.array([[0.1, 0.0, 0.0], [1.9, 0.0, 0.0]])
        batch = match_batch(pts, index, with_normals=True)
        assert len(batch) == 1
        np.testing.assert_array_equal(batch.reference_normals, [[0.0, 0.0, 1.0]])

    def test_normals_requested_but_absent(self):
        index = build_index(PointCloud([[0.0, 0.0, 0.0]]))
        with pytest.raises(InputError):
            match_batch(np.zeros((1, 3)), index, with_normals=True)

    def test_indices_and_source_passthrough(self, rng):
        """The optimizer passes untransformed source points alongside the
        transformed ones; filtering must keep them aligned."""
        ref = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        index = build_index(PointCloud(ref))
        src = np.array([[0.5, 0.0, 0.0], [50.0, 0.0, 0.0]])
        moved = src + [0.01, 0, 0]
        batch = match_batch(moved, index, max_dist=1.0,
                            indices=np.array([7, 9]), source_points=src)
        np.testing.assert_array_equal(batch.indices, [7])
        np.testing.assert_array_equal(batch.source_points, [[0.5, 0.0, 0.0]])
        np.testing.assert_array_equal(batch.transformed, [[0.51, 0.0, 0.0]])


class TestMatchStacked:
    @pytest.mark.parametrize("with_normals", [False, True])
    def test_rows_against_linear_scan_and_match_batch(self, rng, with_normals):
        """Every row of a K=3 stack: the mask is exactly the max_dist and
        zero-normal rejection of the brute-force matches, and the row
        compressed by its mask equals match_batch on that row alone."""
        ref = rng.uniform(-1, 1, (80, 3))
        nrm = rng.normal(size=(80, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        nrm[::4] = 0.0
        index = build_index(PointCloud(ref, nrm))
        pts = rng.uniform(-1.1, 1.1, (3, 25, 3))
        matched, normals, dist, keep = match_stacked(pts, index, 0.3,
                                                     with_normals=with_normals)
        assert (normals is not None) == with_normals
        assert 0 < keep.sum() < keep.size
        for k in range(3):
            odist, oidx = linear_scan_nn(pts[k], ref)
            expected = odist <= 0.3
            if with_normals:
                expected &= np.any(nrm[oidx] != 0.0, axis=1)
            np.testing.assert_array_equal(keep[k], expected)
            np.testing.assert_array_equal(matched[k], ref[oidx])

            batch = match_batch(pts[k], index, 0.3, with_normals=with_normals)
            np.testing.assert_array_equal(batch.indices, np.flatnonzero(keep[k]))
            np.testing.assert_array_equal(batch.reference_points, matched[k][keep[k]])
            np.testing.assert_array_equal(batch.distances, dist[k][keep[k]])
            if with_normals:
                np.testing.assert_array_equal(batch.reference_normals, normals[k][keep[k]])
