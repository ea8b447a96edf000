"""Nearest-neighbor index against a brute-force linear scan, tie-breaking,
the certified cell grid against the kd-tree, the random-reshuffling
minibatch sampler, and stacked matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from stein_icp import (
    InputError,
    MatchRejectionError,
    PointCloud,
    SteinConfig,
    build_index,
    match_stacked,
    run_particle_engine,
)
from stein_icp.correspondence import ReshuffledBatches

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


def _warm_query(index, queries):
    """Query twice: the second pass runs on the cells the first one filled."""
    cold = index.query(queries)
    dist, idx = index.query(queries)
    np.testing.assert_array_equal(dist, cold[0])
    np.testing.assert_array_equal(idx, cold[1])
    return dist, idx


def _assert_kd_answer(ref, queries, dist, idx):
    """Indices equal the linear scan's; on queries the kd path does not
    call tied, distances equal a raw cKDTree query bit for bit."""
    _, oidx = linear_scan_nn(queries, ref)
    np.testing.assert_array_equal(idx, oidx)
    raw = cKDTree(ref).query(queries, k=2)[0]
    untied = raw[:, 1] - raw[:, 0] > 1e-12 * np.maximum(raw[:, 0], 1.0)
    np.testing.assert_array_equal(dist[untied], raw[untied, 0])


def _surface(rng, n):
    """A wavy sheet, the kind of cloud the engine matches against."""
    pts = rng.uniform(-1, 1, (n, 3))
    pts[:, 2] = 0.25 * np.sin(3.0 * pts[:, 0]) + 0.15 * np.cos(2.0 * pts[:, 1])
    return pts


lattice_clouds = st.lists(
    st.tuples(*[st.integers(min_value=-3, max_value=3)] * 3), min_size=1, max_size=30,
).map(lambda rows: 0.25 * np.array(rows, dtype=float))


class TestCertifiedGrid:
    """Most queries are answered from the cell grid. Every answer, certified
    or not, must be the kd-tree's: index and distance bits."""

    def test_near_surface_queries_are_certified_and_exact(self, rng):
        """10000 points: more than one of the grid's 8192-point passes."""
        ref = _surface(rng, 2000)
        index = build_index(PointCloud(ref))
        queries = ref[rng.integers(0, 2000, 10000)] + rng.normal(0, 0.01, (10000, 3))
        dist, idx = _warm_query(index, queries)
        _assert_kd_answer(ref, queries, dist, idx)
        assert index.queried == 20000
        assert index.certified > 0.7 * index.queried

    def test_cell_centers_and_faces(self, rng):
        ref = _surface(rng, 1500)
        index = build_index(PointCloud(ref))
        cells = np.stack([rng.integers(0, d, 400) for d in index._dims], axis=1)
        centers = index._origin + (cells + 0.5) * index._h
        corners = index._origin + cells * index._h
        faces = centers.copy()
        faces[:, 0] = corners[:, 0]
        edges = corners.copy()
        edges[:, 2] = centers[:, 2]
        queries = np.vstack([centers, corners, faces, edges])
        dist, idx = _warm_query(index, queries)
        _assert_kd_answer(ref, queries, dist, idx)
        assert index.certified > 0

    def test_far_and_overflowing_queries(self, rng):
        ref = _surface(rng, 500)
        index = build_index(PointCloud(ref))
        far = np.array([[100.0, 0.0, 0.0], [-50.0, 30.0, 2.0], [0.0, 0.0, -1e6]])
        dist, idx = _warm_query(index, far)
        _assert_kd_answer(ref, far, dist, idx)
        assert index.certified == 0
        dist, idx = index.query(np.array([[1e300, 0.0, 0.0], [0.0, -1e300, 1e300]]))
        np.testing.assert_array_equal(dist, [np.inf, np.inf])
        np.testing.assert_array_equal(idx, [500, 500])

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8])
    def test_fewer_than_eight_reference_points(self, rng, n):
        ref = rng.uniform(-1, 1, (n, 3))
        index = build_index(PointCloud(ref))
        queries = np.vstack([rng.uniform(-1.5, 1.5, (200, 3)), ref])
        dist, idx = _warm_query(index, queries)
        _assert_kd_answer(ref, queries, dist, idx)
        assert index.certified > 0

    @pytest.mark.parametrize("ref, queries, expected", [
        # Four points at distance 1 from the origin, then 3.0 away.
        ([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0], [3.0, 3.0, 3.0]],
         [[0.0, 0, 0]], [0]),
        ([[0.5, 0.5, 0.5]] * 4 + [[2.0, 2.0, 2.0]], [[0.4, 0.5, 0.5]], [0]),
        ([[-1.0, 0, 0], [1.0, 0, 0], [5.0, 5.0, 5.0]], [[0.0, 0, 0]], [0]),
        ([[1.0, 0, 0], [-1.0, 0, 0], [0.2, 0.1, 5.0]],
         [[0.0, 0, 0], [0.19, 0.1, 5.0]], [0, 2]),
    ])
    def test_ties_and_duplicates_on_a_warm_index(self, rng, ref, queries, expected):
        ref = np.asarray(ref, dtype=float)
        queries = np.asarray(queries, dtype=float)
        index = build_index(PointCloud(ref))
        index.query((queries + rng.normal(0, 0.05, (50,) + queries.shape)).reshape(-1, 3))
        dist, idx = _warm_query(index, queries)
        np.testing.assert_array_equal(idx, expected)
        _assert_kd_answer(ref, queries, dist, idx)

    def test_near_tie_goes_to_lowest_index_on_a_warm_index(self, rng):
        """Index 1 is nearer than index 0 by 1e-14, inside the tie
        tolerance: the kd contract gives index 0, whose distance comes from
        the exhaustive tie resolution."""
        ref = np.vstack([[[1.0, 0, 0], [-(1.0 - 1e-14), 0, 0]], rng.uniform(3, 4, (30, 3))])
        index = build_index(PointCloud(ref))
        origin = np.zeros((1, 3))
        index.query(rng.normal(0, 0.05, (200, 3)))
        dist, idx = _warm_query(index, origin)
        assert idx[0] == 0
        assert dist[0] == np.linalg.norm(ref[0])

    def test_workers_on_a_warm_index(self, rng):
        """Near and far points in one call on a warm index: the far points
        lie outside the grid and all go to the kd-tree, the near ones are
        mostly certified, and every point gets the kd-tree's answer."""
        ref = _surface(rng, 1000)
        near = ref[rng.integers(0, 1000, 2000)] + rng.normal(0, 0.02, (2000, 3))
        far = rng.uniform(5, 6, (3000, 3))
        queries = np.vstack([near, far])
        index = build_index(PointCloud(ref))
        dist, idx = _warm_query(index, queries)
        assert 0 < index.certified <= 2 * len(near) < index.queried
        _assert_kd_answer(ref, queries, dist, idx)

    @settings(max_examples=80, deadline=None)
    @given(lattice_clouds, lattice_clouds, st.integers(min_value=0, max_value=2**32 - 1))
    def test_repeated_queries_match_oracle(self, ref, lattice, seed):
        """Lattice points give exact ties and duplicates; jittered copies
        give ordinary queries. Each pass must give the kd-tree's answer."""
        rng = np.random.default_rng(seed)
        queries = np.vstack([lattice, lattice + rng.normal(0, 0.05, lattice.shape),
                             rng.uniform(-1, 1, (20, 3))])
        index = build_index(PointCloud(ref))
        for _ in range(3):
            dist, idx = index.query(queries[rng.permutation(len(queries))])
        dist, idx = index.query(queries)
        _assert_kd_answer(ref, queries, dist, idx)


def _streams(count, seed=5):
    return [np.random.default_rng([seed, r]) for r in range(count)]


class TestReshuffledBatches:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=120), st.data())
    def test_epoch_batches_are_disjoint_and_cover(self, n, data):
        """Within an epoch each row's batches are in range, int32, and
        pairwise disjoint, and together cover m * (n // m) indices."""
        m = data.draw(st.integers(min_value=1, max_value=n), label="m")
        rows = np.arange(3)
        sampler = ReshuffledBatches(n, m, _streams(3))
        per_epoch = n // m
        for epoch in range(2):
            got = [sampler.batches(epoch * per_epoch + e, rows) for e in range(per_epoch)]
            for batch in got:
                assert batch.shape == (3, m) and batch.dtype == np.int32
            drawn = np.concatenate(got, axis=1)
            assert drawn.min() >= 0 and drawn.max() < n
            for row in drawn:
                assert len(np.unique(row)) == m * per_epoch

    def test_slices_one_permutation_per_epoch(self):
        """Batch e of epoch t is slice e of the stream's t-th permutation."""
        n, m = 23, 5
        sampler = ReshuffledBatches(n, m, _streams(2))
        oracle = _streams(2)
        for epoch in range(3):
            perms = [rng.permutation(n) for rng in oracle]
            for e in range(n // m):
                batch = sampler.batches(epoch * (n // m) + e, np.arange(2))
                for r in range(2):
                    np.testing.assert_array_equal(batch[r], perms[r][e * m:(e + 1) * m])

    def test_full_batch_every_iteration(self):
        sampler = ReshuffledBatches(10, 10, _streams(2))
        for it in range(4):
            for row in sampler.batches(it, np.arange(2)):
                np.testing.assert_array_equal(np.sort(row), np.arange(10))

    def test_rows_do_not_depend_on_the_rows_drawn_with_them(self):
        """Leaving a row out (a frozen restart) changes no other row."""
        everyone = ReshuffledBatches(50, 7, _streams(3))
        some = ReshuffledBatches(50, 7, _streams(3))
        for it in range(16):
            np.testing.assert_array_equal(some.batches(it, np.array([0, 2])),
                                          everyone.batches(it, np.arange(3))[[0, 2]])

    def test_validation(self):
        for m in (0, 11, -1):
            with pytest.raises(InputError, match=rf"batch size must satisfy 1 <= m <= 10, got {m}"):
                ReshuffledBatches(10, m, _streams(1))


class TestMatchBatch:
    """match_stacked on the one-pose batches of a K=1 stack."""

    def test_fields_and_lengths(self, rng):
        ref = rng.uniform(-1, 1, (60, 3))
        index = build_index(PointCloud(ref))
        pts = rng.uniform(-1, 1, (20, 3))
        matched, normals, dist, keep = match_stacked(pts[None], index)
        assert matched.shape == (1, 20, 3) and dist.shape == keep.shape == (1, 20)
        assert keep.all()
        d, i = index.query(pts)
        np.testing.assert_array_equal(matched[0], ref[i])
        np.testing.assert_array_equal(dist[0], d)
        assert normals is None

    def test_max_dist_filters(self):
        ref = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        index = build_index(PointCloud(ref))
        pts = np.array([[[0.1, 0.0, 0.0], [5.0, 0.0, 0.0]]])
        keep = match_stacked(pts, index, max_dist=1.0)[3]
        np.testing.assert_array_equal(keep, [[True, False]])

    def test_all_rejected_raises(self):
        """A batch with no surviving pair is an all-False mask row, and the
        engine stops on it with MatchRejectionError."""
        reference = PointCloud([[0.0, 0.0, 0.0]])
        index = build_index(reference)
        keep = match_stacked(np.array([[[5.0, 5.0, 5.0]]]), index, max_dist=0.1)[3]
        assert not keep.any()
        cfg = SteinConfig(particles=1, batch_size=1, iterations=1, max_dist=0.1)
        with pytest.raises(MatchRejectionError):
            run_particle_engine(PointCloud([[5.0, 5.0, 5.0]]), reference, np.zeros((1, 6)), cfg)

    def test_normals_attached_and_zero_marker_dropped(self):
        nrm = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        ref = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        index = build_index(PointCloud(ref, nrm))
        pts = np.array([[[0.1, 0.0, 0.0], [1.9, 0.0, 0.0]]])
        _, normals, _, keep = match_stacked(pts, index, with_normals=True)
        np.testing.assert_array_equal(keep, [[True, False]])
        np.testing.assert_array_equal(normals, [nrm])

    def test_normals_requested_but_absent(self):
        index = build_index(PointCloud([[0.0, 0.0, 0.0]]))
        with pytest.raises(InputError):
            match_stacked(np.zeros((1, 1, 3)), index, with_normals=True)

    def test_indices_and_source_passthrough(self):
        """The optimizer keeps the untransformed source batch next to the
        moved one; rejection only masks, so every output keeps the batch's
        layout and the mask selects the source points of the kept pairs."""
        ref = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        index = build_index(PointCloud(ref))
        src = np.array([[[0.5, 0.0, 0.0], [50.0, 0.0, 0.0]]])
        matched, _, dist, keep = match_stacked(src + [0.01, 0, 0], index, max_dist=1.0)
        assert matched.shape == src.shape and dist.shape == keep.shape == (1, 2)
        np.testing.assert_array_equal(src[keep], [[0.5, 0.0, 0.0]])
        np.testing.assert_array_equal(matched[keep], [[0.0, 0.0, 0.0]])


class TestMatchStacked:
    @pytest.mark.parametrize("with_normals", [False, True])
    def test_rows_against_linear_scan_and_match_batch(self, rng, with_normals):
        """Every row of a K=3 stack: the mask is exactly the max_dist and
        zero-normal rejection of the brute-force matches, and the row equals
        the match of that batch alone (a K=1 stack)."""
        ref = rng.uniform(-1, 1, (80, 3))
        nrm = rng.normal(size=(80, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        nrm[::4] = 0.0
        index = build_index(PointCloud(ref, nrm))
        pts = rng.uniform(-1.1, 1.1, (3, 25, 3))
        stacked = match_stacked(pts, index, 0.3, with_normals=with_normals)
        matched, normals, dist, keep = stacked
        assert (normals is not None) == with_normals
        assert 0 < keep.sum() < keep.size
        for k in range(3):
            odist, oidx = linear_scan_nn(pts[k], ref)
            expected = odist <= 0.3
            if with_normals:
                expected &= np.any(nrm[oidx] != 0.0, axis=1)
            np.testing.assert_array_equal(keep[k], expected)
            np.testing.assert_array_equal(matched[k], ref[oidx])

            alone = match_stacked(pts[k][None], index, 0.3, with_normals=with_normals)
            for whole, row in zip(stacked, alone):
                if whole is not None:
                    np.testing.assert_array_equal(row[0], whole[k])
