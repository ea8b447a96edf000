"""Nearest-neighbor search and mini-batch assembly.

The index wraps a kd-tree and guarantees two things the optimizer relies
on: queries are exact (never approximate), and exact distance ties resolve
to the lowest reference index so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .errors import InputError, MatchRejectionError

__all__ = ["NeighborIndex", "build_index", "sample_minibatch", "match_stacked", "match_batch",
           "MiniBatch"]

_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class NeighborIndex:
    """Exact nearest-neighbor index over a reference cloud."""

    reference: PointCloud
    _tree: cKDTree

    def query(self, points: np.ndarray, workers: int = 1):
        """Nearest reference point for each query point.

        Returns (distances, indices). Ties on distance go to the lowest
        reference index.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n_ref = len(self.reference)
        k = min(2, n_ref)
        d, i = self._tree.query(points, k=k, workers=workers)
        if k == 1:
            return d.reshape(len(points)), np.full(len(points), 0)
        dist = d[:, 0].copy()
        idx = i[:, 0].copy()
        # A tie between the two nearest hints at a larger tied set; resolve
        # those few points exhaustively against every candidate at that radius.
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


def build_index(reference: PointCloud) -> NeighborIndex:
    """Build the search structure once per reference cloud."""
    return NeighborIndex(reference, cKDTree(reference.points))


def sample_minibatch(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly sample m distinct indices out of n, without replacement."""
    if m < 1 or m > n:
        raise InputError(f"batch size must satisfy 1 <= m <= {n}, got {m}")
    return rng.choice(n, size=m, replace=False)


@dataclass(frozen=True)
class MiniBatch:
    """Matched correspondences for one gradient evaluation.

    All arrays share the same leading length: pairs that survived any
    rejection filtering. `source_points` are the untransformed source
    coordinates (the rotation gradient needs them), `transformed` are the
    same points under the pose that was used for matching.
    """

    indices: np.ndarray            # (m,) source indices
    source_points: np.ndarray      # (m, 3)
    transformed: np.ndarray        # (m, 3)
    reference_points: np.ndarray   # (m, 3)
    distances: np.ndarray          # (m,)
    reference_normals: np.ndarray | None = None  # (m, 3) when requested

    def __len__(self) -> int:
        return self.indices.shape[0]


def match_stacked(points: np.ndarray, index: NeighborIndex, max_dist: float | None = None,
                  *, with_normals: bool = False, workers: int = 1):
    """Match a (K, m, 3) stack of points to their nearest reference points.

    Returns (reference_points, normals, distances, keep): the matched points
    and, when with_normals, their normals (else None), both (K, m, 3); the
    (K, m) distances; and the (K, m) bool mask of pairs that survive
    rejection. max_dist, when set, rejects pairs farther apart than the
    threshold; with_normals rejects pairs whose reference normal is the
    zero marker.
    """
    if with_normals and index.reference.normals is None:
        raise InputError("point-to-plane matching needs reference normals")
    dist, ref_idx = index.query(points.reshape(-1, 3), workers=workers)
    dist = dist.reshape(points.shape[:-1])
    ref_idx = ref_idx.reshape(points.shape[:-1])
    keep = np.ones(dist.shape, dtype=bool)
    if max_dist is not None:
        keep &= dist <= max_dist
    normals = None
    if with_normals:
        normals = index.reference.normals[ref_idx]
        keep &= np.einsum("...i,...i->...", normals, normals) > 0.5
    return index.reference.points[ref_idx], normals, dist, keep


def match_batch(
    transformed: np.ndarray,
    index: NeighborIndex,
    max_dist: float | None = None,
    *,
    indices: np.ndarray | None = None,
    source_points: np.ndarray | None = None,
    with_normals: bool = False,
    workers: int = 1,
) -> MiniBatch:
    """Match transformed batch points to their nearest reference points.

    The one-pose view of match_stacked: rejected pairs are dropped, and
    dropping every pair raises MatchRejectionError. with_normals attaches
    the surviving pairs' normals.
    """
    transformed = np.atleast_2d(np.asarray(transformed, dtype=float))
    m = transformed.shape[0]
    indices = np.arange(m) if indices is None else np.asarray(indices)
    source_points = transformed if source_points is None else source_points
    matched, normals, dist, keep = (None if a is None else a[0] for a in match_stacked(
        transformed[None], index, max_dist, with_normals=with_normals, workers=workers))
    if not keep.any():
        raise MatchRejectionError(
            f"all {m} correspondences rejected (max_dist={max_dist}); clouds may not overlap"
        )
    return MiniBatch(
        indices=indices[keep],
        source_points=np.asarray(source_points, dtype=float)[keep],
        transformed=transformed[keep],
        reference_points=matched[keep],
        distances=dist[keep],
        reference_normals=None if normals is None else normals[keep],
    )
