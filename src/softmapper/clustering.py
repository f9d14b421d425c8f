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


# A cell bound within this relative slack of the threshold, plus the
# rounding of the shifted coordinates, counts as undecided, so the rounding of
# centres, radii and distances never decides a link; only point checks by the
# cdist formula do.
_SLACK = 1e-6
_EPS = np.finfo(float).eps
_CHUNK = 1 << 13  # point pairs checked at a time, to bound memory


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
    are linked outright. ``order`` lists the entries cell by cell, by
    ``rank`` inside a cell; cell c holds positions start[c]:start[c + 1] of
    that order, ``cell`` maps each position to its cell and ``cols`` holds the
    ordered points as coordinate rows.

    A cell is bounded by the centre and the half diagonal of its points'
    bounding box, so a one-point cell is bounded by its point. The candidate
    cell pairs (a, b) come from a kd-tree on the centres; ``split`` bounds
    them. Bounds are taken on the shifted points, where rounding costs at
    most a few ulps of the extent, and widened by that much and by the slack.
    """

    def __init__(self, pts: np.ndarray, owner: np.ndarray, threshold: float, rank=None):
        n, d = pts.shape
        self.threshold = threshold
        shifted = pts - pts.min(axis=0)
        key = np.empty((d + 1, n))  # per entry: set, then cell coordinates
        key[0] = owner
        np.floor(shifted.T / (threshold / (2 * np.sqrt(d))), out=key[1:])
        cells = key[1:].max()
        if cells >= 2.0 ** 50:
            raise ValueError(f"threshold {threshold} is too small for the extent of the points")
        self.order = np.lexsort(key[::-1] if rank is None else np.vstack([[rank], key[::-1]]))
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

    def split(self, live, join=None):
        """The candidate cell pairs that ``live(a, b)`` keeps, as the cell
        pairs (a, b) whose upper bound is within the threshold less the pad,
        so every point pair between them is linked, and those whose lower
        bound is within it plus the pad, nearest first.

        Candidates are bounded _CHUNK at a time, and ``join(a, b)`` gets each
        chunk's sure pairs before ``live`` sees the next chunk, so a caller
        can skip the pairs that earlier links settled.
        """
        chunks = []
        for s in range(0, self.a.size, _CHUNK):
            a, b = self.a[s:s + _CHUNK], self.b[s:s + _CHUNK]
            keep = live(a, b)
            a, b = a[keep], b[keep]
            diff = self._centre[a] - self._centre[b]
            gap = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            spread = self._radius[a] + self._radius[b]
            ok = gap + spread <= self.threshold - self._pad
            lower = gap - spread
            near = ~ok & (lower <= self.threshold + self._pad)
            if join is not None:
                join(a[ok], b[ok])
            chunks.append((a[ok], b[ok], a[near], b[near], lower[near]))
        if len(chunks) != 1:
            none = np.empty(0, dtype=np.intp)
            chunks = [[np.concatenate(c) for c in zip((none,) * 4 + (np.empty(0),), *chunks)]]
        sa, sb, ma, mb, lower = chunks[0]
        first = np.argsort(lower, kind="stable")
        return (sa, sb), (ma[first], mb[first])

    def _candidates(self, owner, first):
        """Cell pairs whose centres lie within the threshold plus the pad
        plus twice the largest radius; where every cell holds one point, as
        in sparse or high-dimensional clouds, that is the padded threshold.
        ``owner`` gives the set of each ordered entry."""
        reach = self.threshold + self._pad + 2 * self._radius.max()
        centre = self._centre
        if owner[0] != owner[-1]:
            # the set index as one more coordinate puts sets out of each other's reach
            centre = np.column_stack([centre, owner[first] * (2 * reach)])
        pairs = cKDTree(centre).query_pairs(reach, output_type="ndarray")
        return pairs[:, 0], pairs[:, 1]

    def linked(self, sa, na, sb, nb, live):
        """Yield chunks (k, i, j) of the entry pairs of range pairs k within
        the threshold.

        Range pair k pairs positions sa[k]:sa[k] + na[k] with sb[k]:sb[k] +
        nb[k]. ``live(ks)`` picks the range pairs among ks that still need
        checking, so a caller can skip what earlier links settled: it is
        asked once for all of them, then again for each block of at most
        _CHUNK entry pairs, taken in order (a larger range pair is a block of
        its own, checked in chunks).
        """
        ks = np.flatnonzero(live(np.arange(na.size)))
        count = na[ks] * nb[ks]
        ends = np.cumsum(count)
        at = 0
        while at < ks.size:
            stop = max(at + 1, int(np.searchsorted(ends, ends[at] - count[at] + _CHUNK, "right")))
            block, at = ks[at:stop], stop
            block = block[live(block)]
            for k, i, j in range_pairs(sa[block], na[block], sb[block], nb[block]):
                ok = _within(self.cols, self.cols, i, j, self.threshold)
                yield block[k[ok]], i[ok], j[ok]


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

    Cells are joined outright, then along sure cell pairs; the other cell
    pairs are point-checked nearest first. Cell pairs already joined are
    skipped at every step.
    """
    g = Grid(pts, np.zeros(pts.shape[0]), threshold)
    label = np.arange(g.start.size - 1)

    def apart(a, b):
        return label[a] != label[b]

    def join(a, b):
        nonlocal label
        label = merge_components(label, a, b)

    if g.a.size:
        _, (a, b) = g.split(apart, join)
        s, size = g.start[:-1], np.diff(g.start)
        for k, _, _ in g.linked(s[a], size[a], s[b], size[b], lambda ks: apart(a[ks], b[ks])):
            join(a[k], b[k])
    out = np.empty(pts.shape[0], dtype=np.intp)
    out[g.order] = label[g.cell]
    return out


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
    else:
        labels = _linkage_labels(pts, clusterer.threshold)
    # members are sorted, and so is each cluster after a stable sort by label
    order = labels.argsort(kind="stable")
    cut = [0, *((labels[order[1:]] != labels[order[:-1]]).nonzero()[0] + 1).tolist(), order.size]
    members = members[order]
    return sorted((members[i:j] for i, j in zip(cut, cut[1:])), key=lambda part: part[0])


def threshold_from_hausdorff(
    cloud: PointCloud, fraction: float, factor: float, seed: int
) -> SingleLinkageClusterer:
    """Single-linkage clusterer whose threshold is a multiple of the
    Hausdorff distance between the cloud and a random subsample."""
    if not factor > 0:
        raise ValueError("factor must be > 0")
    return SingleLinkageClusterer(factor * hausdorff_to_subsample(cloud, fraction, seed))
