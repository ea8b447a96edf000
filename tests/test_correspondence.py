"""Nearest-neighbor index against a brute-force linear scan, tie-breaking,
the certified cell grid against the kd-tree, the grid's one way to locate a
point, the coarse nearest-point table against the kd-tree, the
random-reshuffling minibatch sampler, and stacked matching."""

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
    make_scene,
    match_stacked,
    run_particle_engine,
    run_stein_icp,
)
from stein_icp.correspondence import NearestTable, ReshuffledBatches

from oracles import linear_scan_nn


class TestQueryAgainstLinearScan:
    def test_random_clouds(self, rng):
        """The kd-tree route must agree with the O(NM) scan exactly."""
        ref = rng.uniform(-1, 1, (300, 3))
        queries = rng.uniform(-1.2, 1.2, (150, 3))
        index = build_index(PointCloud(ref))
        dist, idx = index.query(queries.T)
        odist, oidx = linear_scan_nn(queries, ref)
        np.testing.assert_array_equal(idx, oidx)
        np.testing.assert_allclose(dist, odist, rtol=1e-12)

    def test_single_query_point(self, rng):
        ref = rng.uniform(-1, 1, (50, 3))
        index = build_index(PointCloud(ref))
        dist, idx = index.query(ref[7][:, None])
        assert idx.shape == (1,)
        assert idx[0] == 7
        assert dist[0] == 0.0

    def test_points_must_be_coordinate_rows(self, rng):
        """Both matchers take (3, n) coordinate rows; (n, 3) points, a lone
        3-vector and a (3, K, m) stack are bad input."""
        cloud = PointCloud(rng.uniform(-1, 1, (50, 3)))
        index = build_index(cloud)
        for matcher in (index, NearestTable(cloud, index.grid)):
            for points in (np.zeros((5, 3)), np.zeros(3), np.zeros((3, 2, 2))):
                with pytest.raises(InputError, match=r"^query points must be \(3, n\) "
                                                     r"coordinate rows, got shape"):
                    matcher.query(points)
            assert matcher.queried == 0

    def test_single_reference_point(self, rng):
        index = build_index(PointCloud([[1.0, 2.0, 3.0]]))
        dist, idx = index.query(rng.uniform(-1, 1, (5, 3)).T)
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
        dist, idx = index.query(np.zeros((3, 1)))
        assert idx[0] == 0
        assert dist[0] == pytest.approx(1.0)

    def test_duplicate_reference_points(self):
        ref = np.array([[0.5, 0.5, 0.5]] * 4 + [[2.0, 2.0, 2.0]])
        index = build_index(PointCloud(ref))
        _, idx = index.query(np.array([[0.4, 0.5, 0.5]]).T)
        assert idx[0] == 0

    def test_tie_order_is_input_order(self):
        """Reversing the reference changes which point is 'lowest index'."""
        a = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
        b = a[::-1].copy()
        ia = build_index(PointCloud(a)).query(np.zeros((3, 1)))[1][0]
        ib = build_index(PointCloud(b)).query(np.zeros((3, 1)))[1][0]
        assert ia == 0
        assert ib == 1  # the -x point now precedes the +x point

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_tie_on_a_reference_whose_extent_overflows(self):
        """A query midway between two points of a reference that also holds
        +-1e308 is tied; the tie resolves to the lower index without a ball
        query, which rejects such a reference."""
        ref = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [1e308, 0.0, 0.0],
                        [-1e308, 0.0, 0.0]])
        index = build_index(PointCloud(ref))
        dist, idx = index.query(np.array([[0.05, 0.0, 0.0], [0.09, 0.0, 0.0]]).T)
        np.testing.assert_array_equal(idx, [0, 1])
        np.testing.assert_allclose(dist, [0.05, 0.01], rtol=1e-12)

    @pytest.mark.parametrize("scale", [0.05, 2.0])
    def test_near_tie_goes_to_lowest_index_below_unit_distance(self, scale):
        """Index 1 is nearer than index 0 by 3e-13, inside the tie
        tolerance 1e-12 * max(d, 1): the tie goes to index 0 below unit
        distance as above it, on a cold and on a warm index."""
        ref = np.array([[scale, 0.0, 0.0], [-(scale - 3e-13), 0.0, 0.0], [5.0, 5.0, 5.0]])
        dist, idx = _warm_query(build_index(PointCloud(ref)), np.zeros((1, 3)))
        assert idx[0] == 0
        assert dist[0] == np.linalg.norm(ref[0])

    def test_mixed_tied_and_untied_queries(self, rng):
        ref = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0.2, 0.1, 5.0]])
        queries = np.array([[0.0, 0.0, 0.0], [0.19, 0.1, 5.0]])
        _, idx = build_index(PointCloud(ref)).query(queries.T)
        np.testing.assert_array_equal(idx, [0, 2])


def _warm_query(index, queries):
    """Query the (n, 3) points twice, as coordinate rows: the second pass
    runs on the cells the first one filled."""
    cold = index.query(queries.T)
    dist, idx = index.query(queries.T)
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
        grid = index.grid
        cells = np.stack([rng.integers(0, d, 400) for d in grid.dims], axis=1)
        centers = grid.origin + (cells + 0.5) * grid.h
        corners = grid.origin + cells * grid.h
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
        dist, idx = index.query(np.array([[1e300, 0.0, 0.0], [0.0, -1e300, 1e300]]).T)
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
        index.query((queries + rng.normal(0, 0.05, (50,) + queries.shape)).reshape(-1, 3).T)
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
        index.query(rng.normal(0, 0.05, (200, 3)).T)
        dist, idx = _warm_query(index, origin)
        assert idx[0] == 0
        assert dist[0] == np.linalg.norm(ref[0])

    def test_near_and_far_points_in_one_call(self, rng):
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

    def test_every_point_inside_the_grid(self, rng):
        """One call whose points all lie in the grid: every answer is the
        kd-tree's, and each cell the points land in is filled once."""
        ref = _surface(rng, 1500)
        index = build_index(PointCloud(ref))
        queries = ref[rng.integers(0, 1500, 5000)] + rng.normal(0, 0.01, (5000, 3))
        dist, idx = _warm_query(index, queries)
        _assert_kd_answer(ref, queries, dist, idx)
        assert index.certified > 0.7 * index.queried
        cells = np.floor((queries - index.grid.origin) / index.grid.h)
        assert index.filled == len(np.unique(cells, axis=0))

    def test_points_just_outside_the_grid_certify_in_border_cells(self, rng):
        """Points within half a cell outside the padded box, next to a wavy
        sheet, in one call: they locate to border cells, some certify
        there, every answer is the kd-tree's (index and distance bits),
        and each border cell they land in is filled once."""
        ref = _surface(rng, 3000)
        index = build_index(PointCloud(ref))
        grid = index.grid
        top = grid.origin + grid.dims * grid.h
        queries = rng.uniform(grid.origin, top, (2000, 3))
        axis = rng.integers(0, 3, 2000)
        upper = rng.random(2000) < 0.5
        step = rng.uniform(0.0, 0.5 * grid.h, 2000)
        rows = np.arange(2000)
        queries[rows, axis] = np.where(upper, top[axis] + step, grid.origin[axis] - step)
        dist, idx = index.query(queries.T)
        _assert_kd_answer(ref, queries, dist, idx)
        assert index.certified > 0
        cells = np.clip(np.floor((queries - grid.origin) / grid.h), 0, grid.dims - 1)
        assert ((cells == 0) | (cells == grid.dims - 1)).any(axis=1).all()
        assert index.filled == len(np.unique(cells, axis=0))

    def test_inside_outside_and_overflowing_across_passes(self, rng):
        """2 * 8192 + 1 points in one call, in the grid (kind 0), far
        outside it (1) and with overflowing squared distances (2), shuffled:
        the points in the grid take two 8192-point passes, and each pass
        maps back to rows spread among points of every kind."""
        ref = _surface(rng, 1000)
        index = build_index(PointCloud(ref))
        n = 2 * 8192 + 1
        kind = rng.choice(3, n, p=[0.9, 0.05, 0.05])
        queries = ref[rng.integers(0, 1000, n)] + rng.normal(0, 0.02, (n, 3))
        queries[kind == 1] = rng.uniform(5, 6, (np.sum(kind == 1), 3))
        queries[kind == 2] = rng.uniform(-1, 1, (np.sum(kind == 2), 3)) * 1e300
        assert np.sum(kind == 0) > 8192
        dist, idx = _warm_query(index, queries)
        finite = kind < 2
        _assert_kd_answer(ref, queries[finite], dist[finite], idx[finite])
        assert np.all(dist[~finite] == np.inf) and np.all(idx[~finite] == 1000)
        assert 0 < index.certified <= 2 * np.sum(kind == 0)

    def test_points_on_the_upper_faces_of_the_grid(self, rng):
        """Coordinates on the far faces of the padded box, where the grid
        ends, and one float below them, queried in one call with points
        inside the grid: every answer is the kd-tree's."""
        ref = _surface(rng, 800)
        index = build_index(PointCloud(ref))
        top = index.grid.origin + index.grid.dims * index.grid.h
        inner = ref[rng.integers(0, 800, 300)] + rng.normal(0, 0.02, (300, 3))
        faces = []
        for c in range(3):
            on = inner[:20].copy()
            on[:, c] = top[c]
            below = on.copy()
            below[:, c] = np.nextafter(top[c], -np.inf)
            faces += [on, below]
        queries = np.vstack([inner, *faces])
        dist, idx = _warm_query(index, queries)
        _assert_kd_answer(ref, queries, dist, idx)

    def test_answers_do_not_depend_on_the_split_into_calls(self, rng):
        """One stream queried as one call and, on a fresh index, as calls of
        random sizes across the 8192-point passes: the same answers, bit
        for bit, and the same certified total."""
        ref = _surface(rng, 1200)
        n = 20000
        queries = ref[rng.integers(0, 1200, n)] + rng.normal(0, 0.03, (n, 3))
        queries[rng.random(n) < 0.1] *= 4.0
        whole = build_index(PointCloud(ref))
        dist, idx = whole.query(queries.T)
        split = build_index(PointCloud(ref))
        cuts = np.sort(rng.choice(np.arange(1, n), 6, replace=False))
        parts = [split.query(part.T) for part in np.split(queries, cuts)]
        np.testing.assert_array_equal(np.concatenate([p[0] for p in parts]).view(np.int64),
                                      dist.view(np.int64))
        np.testing.assert_array_equal(np.concatenate([p[1] for p in parts]), idx)
        assert split.queried == whole.queried == n
        assert split.certified == whole.certified
        assert split.filled == whole.filled
        _assert_kd_answer(ref, queries, dist, idx)

    def test_non_finite_points_get_the_marker_and_skip_the_kd_tree(self, rng):
        """The kd-tree rejects a non-finite coordinate; such a point has no
        reference point at a finite distance and gets (inf, len(reference))."""
        ref = _surface(rng, 300)
        index = build_index(PointCloud(ref))
        tree = index._tree

        class FiniteOnly:
            def query(self, points, *args, **kwargs):
                assert np.isfinite(points).all()
                return tree.query(points, *args, **kwargs)

        index._tree = FiniteOnly()
        queries = np.array([[np.nan, 0.0, 0.0], [0.1, np.inf, 0.0], [0.0, 0.2, -np.inf],
                            [5.0, 5.0, 5.0], [np.nan, np.nan, np.nan], ref[3]])
        dist, idx = index.query(queries.T)
        np.testing.assert_array_equal(dist[[0, 1, 2, 4]], np.inf)
        np.testing.assert_array_equal(idx[[0, 1, 2, 4]], 300)
        assert idx[5] == 3 and dist[5] == 0.0
        _assert_kd_answer(ref, queries[[3, 5]], dist[[3, 5]], idx[[3, 5]])
        assert index.queried == 6

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
            dist, idx = index.query(queries[rng.permutation(len(queries))].T)
        dist, idx = index.query(queries.T)
        _assert_kd_answer(ref, queries, dist, idx)


class TestCellGrid:
    def test_clamped_locates_every_point(self, rng):
        """A point in the grid gets cell floor((q - origin) / h); points on
        its lower and upper faces, one float below the upper faces,
        outside it and NaN land on border cells; every reference point
        gets its own cell."""
        ref = _surface(rng, 800)
        grid = build_index(PointCloud(ref)).grid
        top = grid.origin + grid.dims * grid.h
        inner = rng.uniform(grid.origin, top, (500, 3))
        inner = inner[(inner < top).all(axis=1)]
        cell, flat = grid.clamped(inner.T)
        np.testing.assert_array_equal(cell, np.floor((inner - grid.origin) / grid.h).T)
        np.testing.assert_array_equal(flat, np.ravel_multi_index(tuple(cell), tuple(grid.dims)))
        edge = []
        for c in range(3):
            for value in (grid.origin[c], top[c], np.nextafter(top[c], -np.inf),
                          top[c] + 0.3 * grid.h, top[c] + 3.0, grid.origin[c] - 3.0, np.nan):
                on = inner[:20].copy()
                on[:, c] = value
                edge.append(on)
        edge = np.vstack(edge)
        cell, flat = grid.clamped(edge.T)
        np.testing.assert_array_equal(flat, np.ravel_multi_index(tuple(cell), tuple(grid.dims)))
        assert ((cell >= 0) & (cell < grid.dims[:, None])).all()
        assert ((cell == 0) | (cell == grid.dims[:, None] - 1)).any(axis=0).all()
        cell, flat = grid.clamped(ref.T)
        np.testing.assert_array_equal(cell, np.floor((ref - grid.origin) / grid.h).T)
        assert ((cell > 0) & (cell < grid.dims[:, None] - 1)).all()


_SCENES = {"blob": {"n": 5000, "seed": 1}, "ring": {"n": 8000, "seed": 5},
           "block": {"n": 4000, "seed": 3}}


def _scene_table(name):
    reference = make_scene(name, **_SCENES[name])[1]
    index = build_index(reference)
    return reference.points, index.grid, NearestTable(reference, index.grid)


class TestNearestTable:
    """The coarse level's table, graded against a raw kd-tree: its answers
    are approximate by design, within a proven bound and without a drift
    in any direction."""

    @pytest.mark.parametrize("scene", sorted(_SCENES))
    def test_distance_within_two_sqrt3_cell_edges_of_the_exact_one(self, rng, scene):
        """Inside the grid the table's point is a reference point at the
        distance the table reports, at most 2 sqrt(3) h farther than the
        nearest reference point."""
        ref, grid, table = _scene_table(scene)
        queries = rng.uniform(grid.origin, grid.origin + grid.dims * grid.h, (200_000, 3))
        dist, idx = table.query(queries.T)
        exact = cKDTree(ref).query(queries)[0]
        np.testing.assert_array_equal(dist, np.sqrt(((ref[idx] - queries) ** 2).sum(axis=1)))
        assert (dist >= exact).all()
        assert (dist - exact).max() <= 2.0 * np.sqrt(3.0) * grid.h
        assert table.queried == 200_000

    @pytest.mark.parametrize("scene", ["ring", "block"])
    def test_no_direction_bias_near_the_surface(self, rng, scene):
        """Within 1 cm of the surface the table's point is off the exact
        one by less than 0.05 h on average along every axis. The distance
        transform alone breaks ties toward lower cell indices (up to 0.18 h
        on average); the face-neighbor sweep removes that drift."""
        ref, grid, table = _scene_table(scene)
        direction = rng.normal(size=(100_000, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        queries = (ref[rng.integers(len(ref), size=100_000)]
                   + direction * rng.uniform(0.0, 0.01, (100_000, 1)))
        _, idx = table.query(queries.T)
        _, exact = cKDTree(ref).query(queries)
        drift = (ref[idx] - ref[exact]).mean(axis=0)
        assert (np.abs(drift) < 0.05 * grid.h).all(), drift / grid.h

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_and_far_points(self, rng):
        """A point with no finite distance gets (inf, len(reference)); a
        point far outside the grid lands on its border and gets a finite
        answer."""
        ref = _surface(rng, 300)
        cloud = PointCloud(ref)
        table = NearestTable(cloud, build_index(cloud).grid)
        queries = np.array([[np.nan, 0.0, 0.0], [0.1, np.inf, 0.0], [0.0, 0.2, -np.inf],
                            [1e200, 1e200, 0.0], [50.0, -40.0, 30.0], [-1e6, 0.0, 0.0]])
        dist, idx = table.query(queries.T)
        np.testing.assert_array_equal(dist[:4], np.inf)
        np.testing.assert_array_equal(idx[:4], 300)
        assert (idx[4:] < 300).all()
        np.testing.assert_array_equal(dist[4:],
                                      np.sqrt(((ref[idx[4:]] - queries[4:]) ** 2).sum(axis=1)))


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


def _rows(stack):
    """(3, K, m) coordinate rows of a (K, m, 3) stack of points."""
    return np.ascontiguousarray(np.asarray(stack, dtype=float).transpose(2, 0, 1))


class TestMatchStackedOneRow:
    """match_stacked on the one-pose batches of a K=1 stack."""

    def test_fields_and_lengths(self, rng):
        ref = rng.uniform(-1, 1, (60, 3))
        index = build_index(PointCloud(ref))
        pts = rng.uniform(-1, 1, (20, 3))
        matched, normals, dist, keep = match_stacked(_rows(pts[None]), index)
        assert matched.shape == (3, 1, 20) and dist.shape == keep.shape == (1, 20)
        assert keep.all()
        d, i = index.query(pts.T)
        np.testing.assert_array_equal(matched[:, 0], ref[i].T)
        np.testing.assert_array_equal(dist[0], d)
        assert normals is None

    def test_max_dist_filters(self):
        ref = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        index = build_index(PointCloud(ref))
        pts = _rows([[[0.1, 0.0, 0.0], [5.0, 0.0, 0.0]]])
        keep = match_stacked(pts, index, max_dist=1.0)[3]
        np.testing.assert_array_equal(keep, [[True, False]])

    def test_all_rejected_raises(self):
        """A batch with no surviving pair is an all-False mask row: the
        engine records it as the particle's failure, and the swarm's front
        end raises MatchRejectionError on it."""
        reference = PointCloud([[0.0, 0.0, 0.0]])
        index = build_index(reference)
        keep = match_stacked(_rows([[[5.0, 5.0, 5.0]]]), index, max_dist=0.1)[3]
        assert not keep.any()
        cfg = SteinConfig(particles=1, batch_size=1, iterations=1, max_dist=0.1,
                          trans_range=0.0, rot_range=0.0)
        source = PointCloud([[5.0, 5.0, 5.0]])
        result = run_particle_engine(source, reference, np.zeros((1, 6)), cfg)
        assert result.failures == [(0, 0, "all pairs rejected")]
        with pytest.raises(MatchRejectionError):
            run_stein_icp(source, reference, cfg)

    def test_normals_attached_and_zero_marker_dropped(self):
        nrm = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        ref = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        index = build_index(PointCloud(ref, nrm))
        pts = _rows([[[0.1, 0.0, 0.0], [1.9, 0.0, 0.0]]])
        _, normals, _, keep = match_stacked(pts, index, with_normals=True)
        np.testing.assert_array_equal(keep, [[True, False]])
        np.testing.assert_array_equal(normals, _rows([nrm]))

    def test_normals_requested_but_absent(self):
        index = build_index(PointCloud([[0.0, 0.0, 0.0]]))
        with pytest.raises(InputError):
            match_stacked(np.zeros((3, 1, 1)), index, with_normals=True)

    def test_indices_and_source_passthrough(self):
        """The optimizer keeps the untransformed source batch next to the
        moved one; rejection only masks, so every output keeps the batch's
        layout and the mask selects the source points of the kept pairs."""
        ref = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        index = build_index(PointCloud(ref))
        src = _rows([[[0.5, 0.0, 0.0], [50.0, 0.0, 0.0]]])
        matched, _, dist, keep = match_stacked(src + [[[0.01]], [[0]], [[0]]], index,
                                               max_dist=1.0)
        assert matched.shape == src.shape and dist.shape == keep.shape == (1, 2)
        np.testing.assert_array_equal(src[:, keep], [[0.5], [0.0], [0.0]])
        np.testing.assert_array_equal(matched[:, keep], [[0.0], [0.0], [0.0]])


class TestMatchStacked:
    @pytest.mark.parametrize("with_normals", [False, True])
    def test_rows_against_linear_scan_and_one_row_stacks(self, rng, with_normals):
        """Every row of a K=3 stack: the mask is exactly the max_dist and
        zero-normal rejection of the brute-force matches, and the row equals
        the match of that batch alone (a K=1 stack)."""
        ref = rng.uniform(-1, 1, (80, 3))
        nrm = rng.normal(size=(80, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        nrm[::4] = 0.0
        index = build_index(PointCloud(ref, nrm))
        pts = rng.uniform(-1.1, 1.1, (3, 25, 3))
        stacked = match_stacked(_rows(pts), index, 0.3, with_normals=with_normals)
        matched, normals, dist, keep = stacked
        assert (normals is not None) == with_normals
        assert 0 < keep.sum() < keep.size
        for k in range(3):
            odist, oidx = linear_scan_nn(pts[k], ref)
            expected = odist <= 0.3
            if with_normals:
                expected &= np.any(nrm[oidx] != 0.0, axis=1)
            np.testing.assert_array_equal(keep[k], expected)
            np.testing.assert_array_equal(matched[:, k], ref[oidx].T)

            alone = match_stacked(_rows(pts[k][None]), index, 0.3, with_normals=with_normals)
            for whole, row in zip(stacked, alone):
                if whole is not None:
                    np.testing.assert_array_equal(row[..., 0, :], whole[..., k, :])
