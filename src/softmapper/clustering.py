"""Clustering of points inside a single cover element."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .data import PointCloud, hausdorff_to_subsample


@dataclass(frozen=True)
class KMeansClusterer:
    k: int
    max_iter: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or self.max_iter < 1:
            raise ValueError("k and max_iter must be >= 1")


@dataclass(frozen=True)
class SingleLinkageClusterer:
    threshold: float

    def __post_init__(self):
        if not self.threshold > 0:
            raise ValueError(f"threshold must be > 0, got {self.threshold}")


Clusterer = KMeansClusterer | SingleLinkageClusterer


def _kmeans_pp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(pts.shape[0])]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total == 0:  # all remaining points coincide with a chosen center
            centers[j] = pts[rng.integers(pts.shape[0])]
            continue
        centers[j] = pts[rng.choice(pts.shape[0], p=d2 / total)]
        d2 = np.minimum(d2, ((pts - centers[j]) ** 2).sum(axis=1))
    return centers


def _kmeans_labels(pts: np.ndarray, cfg: KMeansClusterer) -> np.ndarray:
    k = min(cfg.k, pts.shape[0])
    rng = np.random.default_rng(cfg.seed)
    centers = _kmeans_pp_init(pts, k, rng)
    # argmin breaks ties toward the lowest centroid index
    labels = cdist(pts, centers).argmin(axis=1)
    for _ in range(cfg.max_iter):
        for j in range(k):
            mask = labels == j
            if mask.any():
                centers[j] = pts[mask].mean(axis=0)
        new_labels = cdist(pts, centers).argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


# Candidate pairs come from a kd-tree searched at a slightly larger radius;
# each is kept iff the dense cdist formula sqrt(sum((a - b)**2)) <= threshold
# holds, so ties at exactly the threshold resolve as cdist resolves them.
_RADIUS_PAD = 1e-9
_CHUNK = 1 << 13  # candidate pairs checked at a time, to bound memory


def _within(a_cols, b_cols, i, j, threshold: float) -> np.ndarray:
    """Mask of the pairs (i[k], j[k]) at distance <= threshold, given the
    points as coordinate rows (p x n).

    Squares are summed coordinate by coordinate, in cdist's order, so the
    mask matches cdist(a, b)[i, j] <= threshold bit for bit.
    """
    sq = np.zeros(i.size)
    for a, b in zip(a_cols, b_cols):
        d = a[i] - b[j]
        sq += d * d
    return np.sqrt(sq) <= threshold


def cross_radius_pairs(a_pts: np.ndarray, b_pts: np.ndarray, threshold: float):
    """Yield chunks (i, j) of int32 index arrays: the pairs, row i of a_pts
    and row j of b_pts, at distance <= threshold."""
    cand = cKDTree(a_pts).sparse_distance_matrix(
        cKDTree(b_pts), threshold * (1 + _RADIUS_PAD), output_type="ndarray")
    a_cols, b_cols = np.ascontiguousarray(a_pts.T), np.ascontiguousarray(b_pts.T)
    for s in range(0, cand.size, _CHUNK):
        i, j = cand["i"][s:s + _CHUNK], cand["j"][s:s + _CHUNK]
        ok = _within(a_cols, b_cols, i, j, threshold)
        yield i[ok].astype(np.int32), j[ok].astype(np.int32)


def merge_components(label: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Add the undirected edges (i[k], j[k]) to a component labelling.

    ``label`` maps every vertex to its component's smallest vertex (start
    from ``np.arange(n)`` for no edges); so does the result, which may share
    memory with ``label``. Each round hooks every root to the smallest root
    it shares an edge with and then jumps pointers until every vertex points
    at its root; edges already inside one component drop out.
    """
    while True:
        li, lj = label[i], label[j]
        differ = li != lj
        if not differ.any():
            return label
        i, j, li, lj = i[differ], j[differ], li[differ], lj[differ]
        np.minimum.at(label, np.maximum(li, lj), np.minimum(li, lj))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def _linkage_labels(pts: np.ndarray, threshold: float) -> np.ndarray:
    """Connected components of the graph linking points at distance <= threshold.

    A candidate pair whose points are already joined cannot change the
    components, so only the others have their distance checked.
    """
    cand = cKDTree(pts).query_pairs(threshold * (1 + _RADIUS_PAD), output_type="ndarray")
    cols = np.ascontiguousarray(pts.T)
    label = np.arange(pts.shape[0])
    for s in range(0, len(cand), _CHUNK):
        i, j = cand[s:s + _CHUNK, 0], cand[s:s + _CHUNK, 1]
        apart = label[i] != label[j]
        i, j = i[apart], j[apart]
        ok = _within(cols, cols, i, j, threshold)
        label = merge_components(label, i[ok], j[ok])
    return label


def cluster(clusterer: Clusterer, cloud: PointCloud, member_indices) -> list[np.ndarray]:
    """Partition the given point indices into clusters.

    Returns disjoint sorted index arrays, ordered by smallest member index.
    """
    members = np.unique(np.asarray(member_indices, dtype=np.intp))
    if members.size == 0:
        raise ValueError("cannot cluster an empty member set")
    if members[-1] >= cloud.n or members[0] < 0:
        raise ValueError("member index out of range")
    if members.size == 1:
        return [members]
    pts = cloud.points[members]
    if isinstance(clusterer, KMeansClusterer):
        labels = _kmeans_labels(pts, clusterer)
        _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        labels = first[inverse]
    else:
        labels = _linkage_labels(pts, clusterer.threshold)
    # members are sorted and each label is its cluster's first position, so
    # sorting by label orders the clusters by smallest member
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order])) + 1
    return np.split(members[order], starts)


def threshold_from_hausdorff(
    cloud: PointCloud, fraction: float, factor: float, seed: int
) -> SingleLinkageClusterer:
    """Single-linkage clusterer whose threshold is a multiple of the
    Hausdorff distance between the cloud and a random subsample."""
    if not factor > 0:
        raise ValueError("factor must be > 0")
    return SingleLinkageClusterer(factor * hausdorff_to_subsample(cloud, fraction, seed))
