"""Nearest-neighbor search, mini-batch sampling and stacked matching.

The index wraps a kd-tree and guarantees two things the optimizer relies
on: queries are exact (never approximate), and exact distance ties resolve
to the lowest reference index so runs are reproducible. Most queries are
answered from a lazily filled cell grid whose answers are certified to be
the kd-tree's own. The grid keeps each filled cell's candidate ids as one
row of a slot-major int32 table, and a query works on one transposed
(3, n) copy of its points, so that certifying a point costs one row gather
of ids and contiguous passes over (candidate, point) rows (see
NeighborIndex for the table layout and the passes a query makes).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .errors import InputError

__all__ = ["NeighborIndex", "build_index", "match_stacked"]

_TIE_RTOL = 1e-12

# The certified cell grid (layout in NeighborIndex). A filled cell costs one
# 28-byte row of candidate ids and one float64 bound, in tables grown by half
# as cells fill; the slot map holds one int32 per cell of the padded bounding
# box, at most _CELL_BUDGET of them (4 MiB).
_CANDIDATES = 7
_CELL_SPACINGS = 1.6      # cell edge in median nearest-neighbor spacings
_SPACING_SAMPLE = 4096    # reference points the spacing is measured on
_GRID_PAD = 4             # cells of padding around the bounding box
_CELL_BUDGET = 1 << 20
_CERT_SLACK = 1e-9        # covers the rounding of the three distances
_CHUNK = 8192             # query points per pass, bounding the (c, p) temporaries


class NeighborIndex:
    """Exact nearest-neighbor index over a reference cloud.

    query returns, for each point, the kd-tree answer: the nearest
    reference point, ties on distance to the lowest index. Most points get
    that answer from a cell grid instead, with a certificate that it is
    the same index and the same distance bits:

    The grid covers the reference's bounding box, padded by a few cells.
    The first query that lands in a cell fills it: the ids C of the 7
    reference points nearest the cell center c, and D, the distance from c
    to the 8th (inf when the reference has no 8th). For a query q in the
    cell, let r = |q - c|; by the triangle inequality every reference
    point outside C is at least D - r from q. The distances to C are
    computed as the kd-tree computes them, sqrt((dx*dx + dy*dy) + dz*dz),
    so they are its values bit for bit. Let d1 < d2 be the best two and
    gap = 1e-12 * max(d1, 1) the kd path's tie tolerance. The point is
    certified when d2 - d1 > gap and d1 + gap + r < D - 1e-9 * max(D, 1),
    the slack covering the rounding of r, d1 and D. Then one reference
    point is at d1 and every other one is farther than d1 + gap, so the
    kd-tree's two nearest are that candidate and a point it does not call
    tied: it returns that candidate at distance d1. Every other point, on
    a near-tie, a failed certificate, outside the grid or not finite, goes
    to the kd-tree.

    Layout: a filled cell's slot is its row in a slot-major (cells, 7)
    int32 table of candidate ids, with one float64 D per slot; an int32
    slot map over the grid's cells points to it. Candidate coordinates are
    gathered from per-axis copies of the reference, and cell centers c
    from per-axis tables of origin + (cell + 0.5) * h, the one rounding of
    the center that the fill measures D from and the certificate measures
    r from.

    A query makes these passes. Locate: one transposed (3, n) copy of the
    points and their fractional cell coordinates; when a point lies outside
    the grid, the rows inside it and their coordinates are gathered, else
    (every point inside) nothing is; then the cells' flat numbers and
    slots, filling the cells still empty. Certify, 8192 points at a time:
    one row gather of the candidate ids, transposed to (7, p) candidate
    rows; per axis, a gather of candidate coordinates and the squared
    differences; one sweep over the rows for d1 and d2; the candidate at
    d1; r from the gathered cell centers; the certificate. The kd-tree
    answers the rest.

    A point with no reference point at a finite distance (its squared
    distances overflow, or a coordinate is not finite) gets distance inf
    and index len(reference), the kd-tree's own marker; a non-finite point
    never reaches the kd-tree, which rejects it. `queried`, `certified`
    and `filled` count the points queried, the points answered from the
    grid and the cells filled.

    query fills cells and counts as it goes, so it changes the index: one
    index must not be queried concurrently.
    """

    def __init__(self, reference: PointCloud, tree: cKDTree):
        self.reference = reference
        self._tree = tree
        self.queried = 0
        self.certified = 0
        self.filled = 0
        pts = reference.points
        self._cols = [np.ascontiguousarray(pts[:, c]) for c in range(3)]
        self._origin, self._h, self._dims = _grid_shape(pts, tree)
        self._centers = [self._origin[c] + (np.arange(self._dims[c]) + 0.5) * self._h
                         for c in range(3)]
        self._slots = np.full(int(np.prod(self._dims)), -1, dtype=np.int32)
        self._ids = np.empty((0, min(_CANDIDATES, len(pts))), dtype=np.int32)
        self._bound = np.empty(0)

    def query(self, points: np.ndarray):
        """Nearest reference point for each query point.

        Returns (distances, indices). Ties on distance go to the lowest
        reference index. Points the grid does not certify go to the
        kd-tree.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = len(points)
        dist = np.empty(n)
        idx = np.empty(n, dtype=np.intp)
        hit = np.zeros(n, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):  # such points miss
            rows, q, cell, slot = self._locate(points)
            for start in range(0, len(slot), _CHUNK):
                sl = slice(start, start + _CHUNK)
                at = sl if rows is None else rows[sl]
                hit[at], dist[at], idx[at] = self._certify(q[:, sl], cell[:, sl], slot[sl])
        miss = np.flatnonzero(~hit)
        self.queried += n
        self.certified += n - miss.size
        # The kd-tree rejects a non-finite coordinate; such a point has no
        # reference point at a finite distance.
        finite = np.isfinite(points[miss]).all(axis=1)
        dist[miss[~finite]], idx[miss[~finite]] = np.inf, len(self.reference)
        miss = miss[finite]
        if miss.size:
            dist[miss], idx[miss] = self._kd_query(points[miss])
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
        # those few points exhaustively against every candidate at that radius.
        with np.errstate(invalid="ignore"):     # inf - inf for overflowing points
            tied = np.flatnonzero((d[:, 1] - d[:, 0]) <= _TIE_RTOL * np.maximum(d[:, 0], 1.0))
        for t in tied:
            radius = dist[t] * (1.0 + 10.0 * _TIE_RTOL) + 1e-300
            cand = self._tree.query_ball_point(points[t], radius)
            cand = np.sort(np.asarray(cand, dtype=np.int64))
            dd = np.linalg.norm(self.reference.points[cand] - points[t], axis=1)
            best = dd <= dd.min() * (1.0 + _TIE_RTOL) + 1e-300
            idx[t] = cand[best][0]
            dist[t] = dd[best][0]
        return dist, idx

    def _locate(self, points):
        """(rows, q, cell, slot) of the points inside the grid: their row
        numbers (None when every point is inside), their (3, p) coordinate
        rows and cell coordinates, and the table slots of their cells,
        filling the cells that are still empty."""
        q = np.ascontiguousarray(points.T)
        frac = q - self._origin[:, None]
        frac /= self._h
        # A NaN coordinate fails both tests; an empty query passes them.
        if ((frac.min(axis=1, initial=np.inf) >= 0).all()
                and (frac.max(axis=1, initial=-np.inf) < self._dims).all()):
            rows = None
        else:
            rows = np.flatnonzero(((frac >= 0) & (frac < self._dims[:, None])).all(axis=0))
            q = np.take(q, rows, axis=1)
            frac = np.take(frac, rows, axis=1)
        cell = frac.astype(np.intp)
        flat = cell[0] * self._dims[1]
        flat += cell[1]
        flat *= self._dims[2]
        flat += cell[2]
        slot = self._slots[flat]
        empty = slot < 0
        if empty.any():
            self._fill(np.unique(flat[empty]))
            slot = self._slots[flat]
        return rows, q, cell, slot.astype(np.intp)

    def _certify(self, q, cell, slot):
        """(ok, dist, idx) of points with coordinate rows q, shape (3, p),
        in the given cells and table slots: ok marks the points certified,
        whose dist and idx are the kd-tree's answer.

        Works on coordinate rows and candidate rows, (c, p), so that every
        step is a pass over contiguous memory."""
        cand = np.take(self._ids, slot, axis=0).T.astype(np.intp, order="C")  # (c, p)
        sq = np.take(self._cols[0], cand)
        sq -= q[0]
        sq *= sq
        for c in (1, 2):
            delta = np.take(self._cols[c], cand)
            delta -= q[c]
            delta *= delta
            sq += delta
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
            off = np.take(self._centers[c], cell[c])
            np.subtract(q[c], off, out=off)
            off *= off
            r += off
        np.sqrt(r, out=r)
        gap = _TIE_RTOL * np.maximum(d1, 1.0)
        d2 -= d1
        ok = d2 > gap
        gap += d1
        gap += r
        ok &= gap < np.take(self._bound, slot)
        return ok, d1, best

    def _fill(self, cells: np.ndarray):
        """Store candidates and bound of the given (unfilled) flat cells."""
        cell = np.unravel_index(cells, tuple(self._dims))
        centers = np.column_stack([np.take(self._centers[c], cell[c]) for c in range(3)])
        d, i = self._tree.query(centers, k=self._ids.shape[1] + 1)
        bound = d[:, -1]
        bound = np.where(bound >= 1.0, bound * (1.0 - _CERT_SLACK), bound - _CERT_SLACK)
        start, stop = self.filled, self.filled + len(cells)
        if stop > len(self._bound):
            cap = min(self._slots.size, max(stop, len(self._bound) * 3 // 2))
            ids = np.empty((cap, self._ids.shape[1]), dtype=np.int32)
            ids[:start] = self._ids[:start]
            grown = np.empty(cap)
            grown[:start] = self._bound[:start]
            self._ids, self._bound = ids, grown
        self._ids[start:stop] = i[:, :-1]
        self._bound[start:stop] = bound
        self._slots[cells] = np.arange(start, stop, dtype=np.int32)
        self.filled = stop


def _grid_shape(points: np.ndarray, tree: cKDTree):
    """(origin, h, dims) of the cell grid over points.

    The cell edge h is _CELL_SPACINGS median nearest-neighbor spacings on a
    strided sample (the extent, or 1, when that is 0 or undefined), grown
    until the padded bounding box has at most _CELL_BUDGET cells. A box
    whose extent overflows gets no cells.
    """
    lo = points.min(axis=0)
    extent = points.max(axis=0) - lo
    if not np.isfinite(extent).all():
        return lo, 1.0, np.zeros(3, dtype=np.intp)
    sample = points[::max(1, len(points) // _SPACING_SAMPLE)]
    h = _CELL_SPACINGS * float(np.median(tree.query(sample, k=2)[0][:, 1]))
    if not 0.0 < h < np.inf:
        h = max(float(extent.max()), 1.0)
    while np.prod(np.floor(extent / h) + 1 + 2 * _GRID_PAD) > _CELL_BUDGET:
        h *= 1.25
    dims = (np.floor(extent / h) + 1 + 2 * _GRID_PAD).astype(np.intp)
    return lo - _GRID_PAD * h, h, dims


def build_index(reference: PointCloud) -> NeighborIndex:
    """Build the search structure once per reference cloud."""
    return NeighborIndex(reference, cKDTree(reference.points))


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
    """Match a (K, m, 3) stack of points to their nearest reference points.

    Returns (reference_points, normals, distances, keep): the matched points
    and, when with_normals, their normals (else None), both (K, m, 3); the
    (K, m) distances; and the (K, m) bool mask of pairs that survive
    rejection. A point with no neighbor at a finite distance (overflowing
    coordinates) is rejected and keeps distance inf. max_dist, when set,
    rejects pairs farther apart than the threshold; with_normals rejects
    pairs whose reference normal is the zero marker.
    """
    if with_normals and index.reference.normals is None:
        raise InputError("point-to-plane matching needs reference normals")
    dist, ref_idx = index.query(points.reshape(-1, 3))
    dist = dist.reshape(points.shape[:-1])
    ref_idx = ref_idx.reshape(points.shape[:-1])
    # Points without a neighbor at a finite distance carry the index marker
    # len(reference); they are rejected and never index the reference.
    keep = ref_idx < len(index.reference)
    ref_idx = np.where(keep, ref_idx, 0)
    if max_dist is not None:
        keep &= dist <= max_dist
    normals = None
    if with_normals:
        normals = np.take(index.reference.normals, ref_idx, axis=0)
        keep &= np.einsum("...i,...i->...", normals, normals) > 0.5
    return np.take(index.reference.points, ref_idx, axis=0), normals, dist, keep
