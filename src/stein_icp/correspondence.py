"""Nearest-neighbor search, mini-batch sampling and stacked matching.

Both matchers work on one CellGrid over the reference cloud: its cells,
its one way to locate a point (clamped to the grid, so that every point
has a cell) and its one squared-distance sum, and both keep their
per-cell data at the flat cell number. Query points are (3, n) coordinate
rows, one contiguous row per axis, the layout the particle engine carries
its minibatches in: match_stacked takes a (3, K, m) stack of them and
answers with (3, K, m) rows of matched points and normals. Only the
points the exact index sends to the kd-tree are transposed to the (p, 3)
points the tree takes.

The index wraps a kd-tree and guarantees two things the optimizer relies
on: queries are exact (never approximate), and exact distance ties resolve
to the lowest reference index so runs are reproducible. Most queries are
answered from lazily filled grid cells whose answers are certified to be
the kd-tree's own (see NeighborIndex).

The particle engine's coarse matching level is a NearestTable: one
reference id per grid cell, precomputed by a distance transform
(Fitzgibbon, "Robust registration of 2D and 3D point sets", Image and
Vision Computing 2003), so that a query costs one clamped cell lookup and
one gather, with no certificate and no kd-tree. Its answers are
approximate, within 2 * sqrt(3) cell edges of the exact distance inside
the grid.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .errors import InputError

__all__ = ["NeighborIndex", "build_index", "match_stacked"]

_TIE_RTOL = 1e-12

# The cell grid (CellGrid) and the index's certified cells (NeighborIndex).
# The index keeps, per grid cell, a filled flag, a 28-byte row of candidate
# ids and a float64 bound: 37 bytes of address space a cell, 37 MiB at
# _CELL_BUDGET cells. A page of fresh memory is committed only when a cell
# on it fills.
_CANDIDATES = 7
_CELL_SPACINGS = 1.6      # cell edge in median nearest-neighbor spacings
_SPACING_SAMPLE = 4096    # reference points the spacing is measured on
_GRID_PAD = 4             # cells of padding around the bounding box
_CELL_BUDGET = 1 << 20
_CERT_SLACK = 1e-9        # covers the rounding of the three distances
_CHUNK = 8192             # query points per pass, bounding the (c, p) temporaries


class CellGrid:
    """A regular cell grid over a reference cloud, shared by both matchers.

    spacing is the reference's median nearest-neighbor spacing, measured on
    a strided sample: inf for a single point, 0 when most sampled points
    have a duplicate, and NaN (not measured) when the extent overflows. The
    grid covers the reference's bounding box, padded by _GRID_PAD cells on
    every side, so it holds every reference point: origin is its lower
    corner, h the cell edge and dims the cells per axis. h is
    _CELL_SPACINGS spacings (the extent, or 1, when that is 0 or
    undefined), grown until the grid has at most _CELL_BUDGET cells. A box
    whose extent overflows gets no cells.

    Cell (i, j, k) is flat cell (i * dims[1] + j) * dims[2] + k. centers[c]
    holds origin[c] + (i + 0.5) * h along axis c, the one rounding of a
    cell center that every reader of the grid uses. cols holds the
    reference's coordinates as (3, N) rows, one contiguous row per axis,
    and normal_cols its normals likewise (None when it has none): the
    rows both matchers measure and gather from.

    Query points are (3, n) coordinate rows as well. A point's fractional
    cell coordinates are (q - origin) / h, rounded once; clamped, the one
    way to locate points, clamps them to [0, dims - 1] (a NaN goes to 0,
    a point on an upper face or outside the grid lands on a border cell)
    and truncates them. squared_distances is the one squared distance
    between reference and query points, summed as the kd-tree sums it.
    """

    def __init__(self, reference: PointCloud, tree: cKDTree):
        points = reference.points
        self.cols = np.ascontiguousarray(points.T)
        self.normal_cols = (None if reference.normals is None
                            else np.ascontiguousarray(reference.normals.T))
        lo = points.min(axis=0)
        extent = points.max(axis=0) - lo
        self.spacing, self.h, self.dims = np.nan, 1.0, np.zeros(3, dtype=np.intp)
        if np.isfinite(extent).all():
            sample = points[::max(1, len(points) // _SPACING_SAMPLE)]
            self.spacing = float(np.median(tree.query(sample, k=2)[0][:, 1]))
            h = _CELL_SPACINGS * self.spacing
            if not 0.0 < h < np.inf:
                h = max(float(extent.max()), 1.0)
            while np.prod(np.floor(extent / h) + 1 + 2 * _GRID_PAD) > _CELL_BUDGET:
                h *= 1.25
            self.h, self.dims = h, (np.floor(extent / h) + 1 + 2 * _GRID_PAD).astype(np.intp)
            lo = lo - _GRID_PAD * h
        self.origin = lo
        self.centers = [self.origin[c] + (np.arange(self.dims[c]) + 0.5) * self.h
                        for c in range(3)]

    def clamped(self, q: np.ndarray):
        """(cell, flat) of every point with coordinate rows q, shape
        (3, n): its (3, n) cell coordinates, clamped to the grid, and its
        flat cell."""
        cell = np.empty(q.shape, dtype=np.intp)
        flat = np.zeros(q.shape[1], dtype=np.intp)
        for c in range(3):
            frac = q[c] - self.origin[c]
            frac /= self.h
            np.fmax(frac, 0.0, out=frac)
            np.fmin(frac, self.dims[c] - 1, out=frac)
            cell[c] = frac
            flat *= self.dims[c]
            flat += cell[c]
        return cell, flat

    def squared_distances(self, ids: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Squared distances from reference points ids to points with
        coordinate rows q, shape (3, p), as the kd-tree computes them:
        (dx*dx + dy*dy) + dz*dz, so that their square roots are its
        distances bit for bit. ids has shape (p,) or (c, p)."""
        sq = np.take(self.cols[0], ids)
        sq -= q[0]
        sq *= sq
        for c in (1, 2):
            delta = np.take(self.cols[c], ids)
            delta -= q[c]
            delta *= delta
            sq += delta
        return sq


class NeighborIndex:
    """Exact nearest-neighbor index over a reference cloud.

    query returns, for each point, the kd-tree answer: the nearest
    reference point, ties on distance to the lowest index. Most points get
    that answer from a cell of the grid instead, with a certificate that
    it is the same index and the same distance bits:

    The first query that lands in a cell fills it: the ids C of the 7
    reference points nearest the cell center c, and D, the distance from c
    to the 8th (inf when the reference has no 8th). For a query q in the
    cell, let r = |q - c|; by the triangle inequality every reference
    point outside C is at least D - r from q. The distances to C are the
    grid's squared distances, so their square roots are the kd-tree's
    values bit for bit. Let d1 < d2 be the best two and gap = 1e-12 *
    max(d1, 1) the kd path's tie tolerance. The point is certified when
    d2 - d1 > gap and d1 + gap + r < D - 1e-9 * max(D, 1), the slack
    covering the rounding of r, d1 and D. Then one reference point is at
    d1 and every other one is farther than d1 + gap, so the kd-tree's two
    nearest are that candidate and a point it does not call tied: it
    returns that candidate at distance d1. The triangle inequality holds
    for any q, so a point outside the grid goes through the certificate
    in the border cell clamped locates it in; far from the grid, r > D
    and it fails. Every point not certified, on a near-tie, a failed
    certificate or not finite, goes to the kd-tree; a grid with no cells
    certifies nothing.

    Layout: per flat cell, a filled flag, a row of a (cells, 7) int32
    table of candidate ids and a float64 D, all allocated for the whole
    grid and written only as cells fill.

    A query makes these passes. Locate: the grid's clamped cells, filling
    the cells still empty. Certify, 8192 points at a time: one row gather
    of the candidate ids, transposed to (7, p) candidate rows; the squared
    distances; one sweep over the rows for d1 and d2; the candidate at d1;
    r from the gathered cell centers; the certificate. The kd-tree answers
    the rest.

    A point with no reference point at a finite distance (its squared
    distances overflow, or a coordinate is not finite) gets distance inf
    and index len(reference), the kd-tree's own marker; a non-finite point
    never reaches the kd-tree, which rejects it. `queried`, `certified`
    and `filled` count the points queried, the points answered from the
    grid and the cells filled.

    query fills cells and counts as it goes, so it changes the index: one
    index must not be queried concurrently.
    """

    def __init__(self, reference: PointCloud, tree: cKDTree, grid: CellGrid):
        self.reference = reference
        self.grid = grid
        self._tree = tree
        self.queried = 0
        self.certified = 0
        self.filled = 0
        cells = int(np.prod(grid.dims))
        self._filled = np.zeros(cells, dtype=bool)
        self._ids = np.empty((cells, min(_CANDIDATES, len(reference))), dtype=np.int32)
        self._bound = np.empty(cells)

    def query(self, points: np.ndarray):
        """Nearest reference point for each query point, given as (3, n)
        coordinate rows.

        Returns (distances, indices), each of length n. Ties on distance go
        to the lowest reference index. Points the grid does not certify go
        to the kd-tree, transposed to the (p, 3) points it takes.
        """
        points = _query_rows(points)
        n = points.shape[1]
        dist = np.empty(n)
        idx = np.empty(n, dtype=np.intp)
        hit = np.zeros(n, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):  # such points miss
            cell, flat = self.grid.clamped(points)
            if self._filled.size:
                empty = ~np.take(self._filled, flat)
                if empty.any():
                    self._fill(np.unique(flat[empty]))
                for start in range(0, n, _CHUNK):
                    sl = slice(start, start + _CHUNK)
                    hit[sl], dist[sl], idx[sl] = self._certify(points[:, sl], cell[:, sl],
                                                               flat[sl])
        miss = np.flatnonzero(~hit)
        self.queried += n
        self.certified += n - miss.size
        # The kd-tree rejects a non-finite coordinate; such a point has no
        # reference point at a finite distance.
        finite = np.isfinite(points[:, miss]).all(axis=0)
        dist[miss[~finite]], idx[miss[~finite]] = np.inf, len(self.reference)
        miss = miss[finite]
        if miss.size:
            dist[miss], idx[miss] = self._kd_query(points[:, miss].T)
        return dist, idx

    def _kd_query(self, points: np.ndarray):
        n_ref = len(self.reference)
        k = min(2, n_ref)
        d, i = self._tree.query(points, k=k)
        if k == 1:
            return d, i
        dist = d[:, 0].copy()
        idx = i[:, 0].copy()
        # A tie between the two nearest hints at a larger tied set; resolve
        # those few points against every point within the tie tolerance of
        # the nearest. The set is grown by k-nearest queries, not a ball
        # query, which rejects a reference whose extent overflows.
        with np.errstate(invalid="ignore"):     # inf - inf for overflowing points
            tied = np.flatnonzero((d[:, 1] - d[:, 0]) <= _TIE_RTOL * np.maximum(d[:, 0], 1.0))
        for t in tied:
            limit = dist[t] + _TIE_RTOL * max(dist[t], 1.0)
            k = 2
            while True:
                k = min(2 * k, n_ref)
                dd, ii = self._tree.query(points[t], k=k)
                if k == n_ref or dd[-1] > limit:
                    break
            best = ii[dd <= limit].min()
            idx[t] = best
            dist[t] = dd[ii == best][0]
        return dist, idx

    def _certify(self, q, cell, flat):
        """(ok, dist, idx) of points with coordinate rows q, shape (3, p),
        in the given cells and flat cells: ok marks the points certified,
        whose dist and idx are the kd-tree's answer.

        Works on coordinate rows and candidate rows, (c, p), so that every
        step is a pass over contiguous memory."""
        cand = np.take(self._ids, flat, axis=0).T.astype(np.intp, order="C")  # (c, p)
        sq = self.grid.squared_distances(cand, q)
        # Best and runner-up squared distance over the candidate rows.
        d1 = sq[0].copy()
        d2 = np.full(len(d1), np.inf)
        tmp = np.empty_like(d1)
        for row in sq[1:]:
            np.maximum(d1, row, out=tmp)
            np.minimum(d2, tmp, out=d2)
            np.minimum(d1, row, out=d1)
        # A certified point has exactly one candidate at d1 (else d2 == d1):
        # the largest id marked is that candidate.
        cand *= sq == d1
        best = cand.max(axis=0)
        np.sqrt(d1, out=d1)
        np.sqrt(d2, out=d2)
        r = np.zeros(len(d1))
        for c in range(3):
            off = np.take(self.grid.centers[c], cell[c])
            np.subtract(q[c], off, out=off)
            off *= off
            r += off
        np.sqrt(r, out=r)
        gap = _TIE_RTOL * np.maximum(d1, 1.0)
        d2 -= d1
        ok = d2 > gap
        gap += d1
        gap += r
        ok &= gap < np.take(self._bound, flat)
        return ok, d1, best

    def _fill(self, cells: np.ndarray):
        """Store candidates and bound of the given (unfilled) flat cells."""
        cell = np.unravel_index(cells, tuple(self.grid.dims))
        centers = np.column_stack([np.take(self.grid.centers[c], cell[c]) for c in range(3)])
        d, i = self._tree.query(centers, k=self._ids.shape[1] + 1)
        bound = d[:, -1]
        bound = np.where(bound >= 1.0, bound * (1.0 - _CERT_SLACK), bound - _CERT_SLACK)
        self._ids[cells] = i[:, :-1]
        self._bound[cells] = bound
        self._filled[cells] = True
        self.filled += len(cells)


def build_index(reference: PointCloud) -> NeighborIndex:
    """Build the search structure once per reference cloud."""
    tree = cKDTree(reference.points)
    return NeighborIndex(reference, tree, CellGrid(reference, tree))


class NearestTable:
    """Approximate nearest reference point from one id per grid cell.

    The table holds one reference id per cell of a CellGrid, built once:

    - a cell that holds reference points takes its lowest-index point;
    - one Euclidean distance transform gives every cell the entry of its
      nearest occupied cell;
    - one sweep keeps, of each cell's entry and the entries of its six
      face neighbors, the one whose point is nearest the cell center. The
      transform breaks ties between equidistant occupied cells toward lower
      cell indices; without the sweep, matched points near the surface sit
      up to 0.18 h off on average, toward lower indices, and the swarm
      inherits that bias.

    query reads the id of each point's clamped cell and measures the
    grid's squared distance to it. Inside the grid the answer is at most
    2 * sqrt(3) * h farther than the nearest reference point: the cell
    center is within sqrt(3)/2 h of the point and of any point in the cell,
    and the transform's cell is no farther than the cell of the exact
    nearest point. A point with no finite distance gets distance inf and
    index len(reference), the exact index's marker. `queried` counts the
    points queried.
    """

    def __init__(self, reference: PointCloud, grid: CellGrid):
        self.reference = reference
        self.grid = grid
        self.queried = 0
        self._table = _face_sweep(_transform_entries(grid), grid).ravel()

    def query(self, points: np.ndarray):
        """(distances, indices) of the table's reference point for each
        query point, given as (3, n) coordinate rows."""
        points = _query_rows(points)
        with np.errstate(over="ignore", invalid="ignore"):    # such points get the marker
            idx = np.take(self._table, self.grid.clamped(points)[1]).astype(np.intp)
            dist = self.grid.squared_distances(idx, points)
            np.sqrt(dist, out=dist)
        lost = ~np.isfinite(dist)
        dist[lost], idx[lost] = np.inf, len(self.reference)
        self.queried += points.shape[1]
        return dist, idx


def _query_rows(points) -> np.ndarray:
    """Query points as float64 (3, n) coordinate rows; any other shape
    raises InputError."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] != 3:
        raise InputError(f"query points must be (3, n) coordinate rows, got shape {points.shape}")
    return points


def _transform_entries(grid: CellGrid) -> np.ndarray:
    """The int32 id, shape dims, of the lowest-index reference point in
    each cell's nearest occupied cell (the cell itself when occupied), by
    one Euclidean distance transform over the grid, which holds every
    reference point."""
    from scipy.ndimage import distance_transform_edt

    dims = tuple(grid.dims)
    occupied, first = np.unique(grid.clamped(grid.cols)[1], return_index=True)
    owner = np.zeros(int(np.prod(dims)), dtype=np.int32)
    owner[occupied] = first
    empty = np.ones(dims, dtype=bool)
    empty.flat[occupied] = False
    nearest = distance_transform_edt(empty, return_distances=False, return_indices=True)
    return owner[np.ravel_multi_index(tuple(nearest), dims)]


def _face_sweep(entry: np.ndarray, grid: CellGrid) -> np.ndarray:
    """Of each cell's id in entry, shape dims, and its six face neighbors'
    ids, the one whose point is nearest the cell center: the cell's own on
    a tie, else the first neighbor nearer than every id before it.

    A neighbor's point is measured from the cell's center per axis, summed
    in axis order. Along the two axes the neighbor shares with the cell,
    that term is the one already measured from the neighbor's own center,
    so only the shifted axis is measured again."""

    def along(values, axis):
        shape = [1, 1, 1]
        shape[axis] = -1
        return values.reshape(shape)

    terms = []
    for c in range(3):
        term = np.take(grid.cols[c], entry)
        term -= along(grid.centers[c], c)
        term *= term
        terms.append(term)
    best = entry.copy()
    best_sq = terms[0] + terms[1]
    best_sq += terms[2]
    whole = (slice(None),) * 3
    for axis in range(3):
        for lo, hi in ((slice(None, -1), slice(1, None)), (slice(1, None), slice(None, -1))):
            src = whole[:axis] + (lo,) + whole[axis + 1:]
            dst = whole[:axis] + (hi,) + whole[axis + 1:]
            shifted = np.take(grid.cols[axis], entry[src])
            shifted -= along(grid.centers[axis][hi], axis)
            shifted *= shifted
            part = [shifted if c == axis else terms[c][src] for c in range(3)]
            sq = part[0] + part[1]
            sq += part[2]
            nearer = sq < best_sq[dst]
            np.copyto(best[dst], entry[src], where=nearer)
            np.copyto(best_sq[dst], sq, where=nearer)
    return best


class ReshuffledBatches:
    """Minibatches of m out of n source indices by random reshuffling.

    Each stream (one Generator per row) walks through epochs of n // m
    batches. At the first batch of an epoch every requested row draws
    rng.permutation(n) from its own stream into a preallocated (rows, n)
    int32 table; batch e of the epoch is columns [e*m, (e+1)*m) of that
    row. Within an epoch a row's batches are disjoint, and the n mod m
    leftover indices sit that epoch out. A row's batches depend only on
    its own stream, not on which other rows are drawn.
    """

    def __init__(self, n: int, m: int, rngs):
        if m < 1 or m > n:
            raise InputError(f"batch size must satisfy 1 <= m <= {n}, got {m}")
        self._rngs = rngs
        self._m = m
        self._per_epoch = n // m
        self._perms = np.empty((len(rngs), n), dtype=np.int32)

    def batches(self, it: int, rows: np.ndarray) -> np.ndarray:
        """The (len(rows), m) int32 batches of iteration it for the given
        rows. Iterations are taken in order from 0, and a row requested at
        an iteration was requested at the start of that epoch."""
        e = it % self._per_epoch
        if e == 0:
            for r in rows:
                self._perms[r] = self._rngs[r].permutation(self._perms.shape[1])
        return self._perms[rows, e * self._m:(e + 1) * self._m]


def match_stacked(points: np.ndarray, index: NeighborIndex, max_dist: float | None = None,
                  *, with_normals: bool = False):
    """Match K batches of points, held as (3, K, m) coordinate rows, to
    their nearest reference points; index is a NeighborIndex or a
    NearestTable.

    Returns (reference_points, normals, distances, keep): the matched points
    and, when with_normals, their normals (else None), both (3, K, m) rows
    gathered from the grid's reference rows; the (K, m) distances; and the
    (K, m) bool mask of pairs that survive rejection. A point with no
    neighbor at a finite distance (overflowing coordinates) is rejected and
    keeps distance inf. max_dist, when set, rejects pairs farther apart
    than the threshold; with_normals rejects pairs whose reference normal
    is the zero marker.
    """
    if with_normals and index.grid.normal_cols is None:
        raise InputError("point-to-plane matching needs reference normals")
    shape = points.shape[1:]
    dist, ref_idx = index.query(points.reshape(3, -1))
    dist = dist.reshape(shape)
    ref_idx = ref_idx.reshape(shape)
    # Points without a neighbor at a finite distance carry the index marker
    # len(reference); they are rejected and never index the reference.
    keep = ref_idx < len(index.reference)
    ref_idx = np.where(keep, ref_idx, 0)
    if max_dist is not None:
        keep &= dist <= max_dist
    normals = None
    if with_normals:
        normals = np.take(index.grid.normal_cols, ref_idx, axis=1)
        keep &= np.einsum("ikm,ikm->km", normals, normals) > 0.5
    return np.take(index.grid.cols, ref_idx, axis=1), normals, dist, keep
