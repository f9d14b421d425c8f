"""Clustering of points inside a single cover element."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .data import PointCloud, hausdorff_to_subsample


_KMEANS_ITER = 100  # Lloyd iterations at most


@dataclass(frozen=True)
class KMeansClusterer:
    k: int
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class SingleLinkageClusterer:
    threshold: float

    def __post_init__(self):
        if not 0 < self.threshold < math.inf:
            raise ValueError(f"threshold must be finite and > 0, got {self.threshold}")


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
    for _ in range(_KMEANS_ITER):
        for j in range(k):
            mask = labels == j
            if mask.any():
                centers[j] = pts[mask].mean(axis=0)
        new_labels = cdist(pts, centers).argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


# A cell bound within this relative slack of the threshold, plus the
# rounding of the shifted coordinates, counts as undecided, so the rounding of
# centres, radii and distances never decides a link; only point checks by the
# cdist formula do.
_SLACK = 1e-6
_EPS = np.finfo(float).eps
_CHUNK = 1 << 13  # point pairs checked at a time, to bound memory


def _within(cols, i, j, threshold: float) -> np.ndarray:
    """Mask of the pairs (i[k], j[k]) at distance <= threshold, given the
    points as coordinate rows (d x n).

    Squares are summed coordinate by coordinate, in cdist's order, so the
    mask matches cdist(pts, pts)[i, j] <= threshold bit for bit.
    """
    sq = np.zeros(i.size)
    for c in cols:
        d = c[i] - c[j]
        sq += d * d
    return np.sqrt(sq) <= threshold


def _cells_across(shifted: np.ndarray, threshold: float) -> tuple[float, float]:
    """The side threshold / (2 sqrt(d)) of the exact grid's cells, and the
    number of whole cells across the widest coordinate of ``shifted`` (the
    points less their least coordinates).

    Raises ValueError from 2**50 cells on, where a cell could no longer be
    told apart in floating point. Every single-linkage call applies this
    rule, whichever way it links, so the outcome never depends on set size.
    """
    side = threshold / (2 * math.sqrt(shifted.shape[1]))
    cells = np.floor(shifted.max() / side)
    if cells >= 2.0 ** 50:
        raise ValueError(f"threshold {threshold} is too small for the extent of the points")
    return side, cells


def range_pairs(sa, na, sb, nb):
    """Yield chunks (k, i, j) of at most _CHUNK index pairs: for each k,
    every i in [sa[k], sa[k] + na[k]) with every j in [sb[k], sb[k] + nb[k])."""
    count = na * nb
    ends = np.cumsum(count)
    for s in range(0, int(ends[-1]) if ends.size else 0, _CHUNK):
        flat = np.arange(s, min(s + _CHUNK, ends[-1]))
        k = np.searchsorted(ends, flat, side="right")
        off = flat - (ends[k] - count[k])
        yield k, sa[k] + off // nb[k], sb[k] + off % nb[k]


class Grid:
    """Entries binned into cells of side threshold / (2 sqrt(d)), the exact
    grid of single linkage (DBSCAN with minPts = 1, Gan & Tao 2015).

    Entry k is the point pts[k] of set owner[k], and a cell holds entries of
    one set only. Cells are binned from the points less their least
    coordinates, and the cells across the points' extent must number below
    2**50: the rounding then moves a point by under a quarter cell, so two
    points of one cell lie within 3/4 of the threshold and a cell's entries
    are linked outright. ``order`` lists the entries cell by cell, each
    cell's in their order in ``pts`` (the sort is stable); cell c holds
    positions start[c]:start[c + 1] of that order, ``cell`` maps each position
    to its cell and ``cols`` holds the ordered points as coordinate rows.

    A cell is bounded by the centre and the half diagonal of its points'
    bounding box, so a one-point cell is bounded by its point. The candidate
    cell pairs (a, b) come from a kd-tree on the centres; ``split`` bounds
    them. Bounds are taken on the shifted points, where rounding costs at
    most a few ulps of the extent, and widened by that much and by the slack.
    """

    def __init__(self, pts: np.ndarray, owner: np.ndarray, threshold: float):
        n, d = pts.shape
        self.threshold = threshold
        shifted = pts - pts.min(axis=0)
        side, cells = _cells_across(shifted, threshold)
        key = np.empty((d + 1, n))  # per entry: set, then cell coordinates
        key[0] = owner
        np.floor(shifted.T / side, out=key[1:])
        self.order = np.lexsort(key[::-1])
        key = key[:, self.order]
        new = np.ones(n + 1, dtype=bool)
        np.logical_or.reduce(key[:, 1:] != key[:, :-1], axis=0, out=new[1:n])
        self.start = new.nonzero()[0]
        first = self.start[:-1]
        self.cell = new[:n].cumsum() - 1
        self.cols = pts[self.order].T
        p = shifted[self.order]
        low = np.minimum.reduceat(p, first)
        span = np.maximum.reduceat(p, first) - low
        self._centre = low + span / 2
        self._radius = np.hypot.reduce(span, axis=1) / 2
        # the shift and the centres each round by up to an ulp of the extent,
        # (cells + 1) sides of threshold / (2 sqrt(d)), per coordinate, which
        # is 4 sqrt(d) ulps in all; the distances round relative to themselves
        self._pad = threshold * (_SLACK + 2 * _EPS * (cells + 1))
        self.a, self.b = self._candidates(key[0], first)

    def split(self, keep=None):
        """The candidate cell pairs, or those the boolean mask ``keep`` picks,
        as the cell pairs (a, b) whose upper bound is within the threshold
        less the pad, so every point pair between them is linked, and the
        undecided ones, whose lower bound is within it plus the pad.
        """
        a, b = (self.a, self.b) if keep is None else (self.a[keep], self.b[keep])
        diff = self._centre[a] - self._centre[b]
        gap = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        spread = self._radius[a] + self._radius[b]
        ok = gap + spread <= self.threshold - self._pad
        near = ~ok & (gap - spread <= self.threshold + self._pad)
        return (a[ok], b[ok]), (a[near], b[near])

    def _candidates(self, owner, first):
        """Cell pairs whose centres lie within the threshold plus the pad
        plus twice the largest radius; where every cell holds one point, as
        in sparse or high-dimensional clouds, that is the padded threshold.
        ``owner`` gives the set of each ordered entry.

        No two centres lie farther apart than the diagonal of their bounding
        box, so a reach past twice that adds no pair. It is capped there, but
        at no less than 1: the tree squares the reach and the set offsets,
        and a square overflows from about 1e154 on and underflows below
        about 1e-154.
        """
        centre = self._centre
        reach = min(self.threshold + self._pad + 2 * self._radius.max(),
                    max(2 * float(np.hypot.reduce(np.ptp(centre, axis=0))), 1.0))
        if owner[0] != owner[-1]:
            # the set index as one more coordinate puts sets out of each other's reach
            centre = np.column_stack([centre, owner[first] * (2 * reach)])
        pairs = cKDTree(centre).query_pairs(reach, output_type="ndarray")
        return pairs[:, 0], pairs[:, 1]

    def linked(self, sa, na, sb, nb, keep=None):
        """Yield chunks (k, i, j) of the entry pairs of range pairs k within
        the threshold.

        Range pair k pairs positions sa[k]:sa[k] + na[k] with sb[k]:sb[k] +
        nb[k]. Every range pair is checked, or those the boolean mask
        ``keep`` picks, in one pass of chunks of at most _CHUNK entry pairs.
        """
        ks = np.arange(na.size) if keep is None else np.flatnonzero(keep)
        for k, i, j in range_pairs(sa[ks], na[ks], sb[ks], nb[ks]):
            ok = _within(self.cols, i, j, self.threshold)
            yield ks[k[ok]], i[ok], j[ok]


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


def _linkage_parts(members: np.ndarray, pts: np.ndarray, threshold: float) -> list[np.ndarray]:
    """The sorted, unique ``members`` at points ``pts``, split into the
    connected components of the graph linking points at distance <=
    threshold, ordered by smallest member.

    A set whose point pairs fit one check block, n(n - 1)/2 <= _CHUNK, is
    linked from a single cdist; there the grid's set-up costs more than
    checking every pair. Each point's links are then one int, bit k for
    point k, and every component is grown breadth-first from its lowest
    unseen point, each point expanded once. Larger sets go through the grid.
    """
    n = pts.shape[0]
    if n * (n - 1) // 2 > _CHUNK:
        return _split(members, _grid_labels(pts, threshold))
    _cells_across(pts - pts.min(axis=0), threshold)
    w = (n + 7) // 8
    raw = np.packbits(cdist(pts, pts) <= threshold, axis=1, bitorder="little").tobytes()
    from_bytes = int.from_bytes
    links = [from_bytes(raw[k:k + w], "little") for k in range(0, n * w, w)]
    unseen = (1 << n) - 1
    found = []
    while unseen:
        part = new = unseen & -unseen
        while new:
            reach = 0
            while new:
                bit = new & -new
                reach |= links[bit.bit_length() - 1]
                new ^= bit
            new = reach & ~part
            part |= new
        unseen ^= part
        found.append(part.to_bytes(w, "little"))
    rows = np.frombuffer(b"".join(found), dtype=np.uint8).reshape(-1, w)
    rows = np.unpackbits(rows, axis=1, count=n, bitorder="little").view(bool)
    return [members[row] for row in rows]


def _grid_labels(pts: np.ndarray, threshold: float) -> np.ndarray:
    """Component labels of the graph linking points at distance <=
    threshold, through the exact grid.

    Cells are joined outright, then along all sure cell pairs at once; the
    undecided cell pairs are then point-checked in one pass. A pair whose
    cells the sure pairs already joined is not checked; one joined only
    within the pass may be.
    """
    g = Grid(pts, np.zeros(pts.shape[0]), threshold)
    (a, b), (p, q) = g.split()
    label = merge_components(np.arange(g.start.size - 1), a, b)
    s, size = g.start[:-1], np.diff(g.start)
    for k, _, _ in g.linked(s[p], size[p], s[q], size[q], label[p] != label[q]):
        label = merge_components(label, p[k], q[k])
    out = np.empty(pts.shape[0], dtype=np.intp)
    out[g.order] = label[g.cell]
    return out


def _split(members: np.ndarray, labels: np.ndarray) -> list[np.ndarray]:
    """The sorted ``members`` grouped by label, ordered by smallest member."""
    # each group is sorted after a stable sort by label
    order = labels.argsort(kind="stable")
    cut = [0, *((labels[order[1:]] != labels[order[:-1]]).nonzero()[0] + 1).tolist(), order.size]
    members = members[order]
    return sorted((members[i:j] for i, j in zip(cut, cut[1:])), key=lambda part: part[0])


def cluster(clusterer: Clusterer, cloud: PointCloud, member_indices) -> list[np.ndarray]:
    """Partition the given point indices into clusters.

    Returns disjoint sorted index arrays, ordered by smallest member index.
    """
    members = np.asarray(member_indices, dtype=np.intp)
    if members.ndim != 1 or not (members[1:] > members[:-1]).all():
        members = np.unique(members)
    if members.size == 0:
        raise ValueError("cannot cluster an empty member set")
    if members[-1] >= cloud.n or members[0] < 0:
        raise ValueError("member index out of range")
    if members.size == 1:
        return [members.copy()]  # members may be the caller's own array
    pts = cloud.points.take(members, axis=0)
    if isinstance(clusterer, KMeansClusterer):
        return _split(members, _kmeans_labels(pts, clusterer))
    return _linkage_parts(members, pts, clusterer.threshold)


def threshold_from_hausdorff(
    cloud: PointCloud, fraction: float, factor: float, seed: int
) -> SingleLinkageClusterer:
    """Single-linkage clusterer whose threshold is a multiple of the
    Hausdorff distance between the cloud and a random subsample."""
    if not factor > 0:
        raise ValueError("factor must be > 0")
    return SingleLinkageClusterer(factor * hausdorff_to_subsample(cloud, fraction, seed))
