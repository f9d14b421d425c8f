"""Clustering of points inside a single cover element."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .cover import _spread
from .data import PointCloud, hausdorff_to_subsample


_KMEANS_ITER = 100  # Lloyd iterations at most


@dataclass(frozen=True)
class KMeansClusterer:
    """Lloyd's k-means from a k-means++ start drawn with ``seed``, so the
    clusters are deterministic; ``k`` >= 1 and ``seed`` >= 0 are integers
    (numpy integers included)."""

    k: int
    seed: int = 0

    def __post_init__(self):
        for name, low in (("k", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < low:
                raise ValueError(f"{name} must be >= {low} and an integer, got {value!r}")


@dataclass(frozen=True)
class SingleLinkageClusterer:
    """Clusters are the connected components of the graph linking points at
    distance <= ``threshold``, which is finite and > 0 (see ``cluster``)."""

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
_CHUNK = 1 << 13  # point or cell pairs handled at a time, to bound memory


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


def _cells_across(extent: np.ndarray, threshold: float) -> tuple[float, float]:
    """The side threshold / (2 sqrt(d)) of the exact grid's cells, and the
    number of whole cells across the widest coordinate of ``extent`` (a
    cloud's largest less least coordinates, one per dimension): 0 when the
    points coincide, whatever the side, and infinite when the side
    underflows to 0 and they do not.

    ``CellIndex`` rejects 2**50 cells or more, where a cell could no longer
    be told apart in floating point, once per cloud and threshold, whichever
    way its sets are linked, so the outcome never depends on set size.
    """
    side = threshold / (2 * math.sqrt(extent.size))
    widest = float(extent.max())
    if widest == 0:  # coincident points, even where the side underflows to 0
        return side, 0.0
    return side, float(np.floor(widest / side)) if side > 0 else math.inf


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


class CellIndex:
    """A cloud binned into cells of side threshold / (2 sqrt(d)), the exact
    grid of single linkage (DBSCAN with minPts = 1, Gan & Tao 2015), shared
    by every ``Grid`` over the cloud's point sets; ``cell_index`` keeps one
    per cloud and threshold.

    Every linkage distance, here, in a ``Grid`` and in ``cluster``, is taken
    on ``points``, the cloud's times the power of two 2**-e that brings their
    largest |coordinate| into [1/2, 1), where no square overflows, against
    ``limit``, the caller's ``threshold`` times 2**-e capped at 4 sqrt(d),
    past which every pair links. The scaling is exact (``optimize._scaled``),
    so scaling a cloud and its threshold by 2**k, for k from -1000 to 1000,
    changes no partition.

    Construction only applies the extent rule (``_cells_across``) to the
    cloud's extent; an extent past the largest double raises
    FloatingPointError. ``bin``, which a ``Grid`` calls on first use, bins the
    points less the cloud's least coordinates: ``id`` maps each point to its
    cell, numbered in lexicographic order of the cells' coordinates, of
    which there are ``count``. The cells across the extent number below
    2**50, so the rounding moves a point by under a quarter cell, and two
    points of one cell lie within 3/4 of the threshold.

    A cell is bounded by the centre and the half diagonal of its points'
    bounding box, so a one-point cell is bounded by its point. The cell
    pairs (c, e), c < e, whose lower bound is within the threshold plus the
    pad come from a kd-tree on the centres: cell c's partners are
    ``pair_cell[pair_start[c]:pair_start[c + 1]]``, and ``pair_sure`` marks
    those whose upper bound is within the threshold less the pad, so every
    point pair between them is linked. Bounds are taken on the shifted
    points, where rounding costs at most a few ulps of the extent, and
    widened by that much and by the slack. A set's points in a cell lie in
    the cloud's bounding box of that cell, so these classes hold for every
    set of the cloud: a sure pair is sure for the set, and a pair left out
    is too far apart for it.
    """

    def __init__(self, points: np.ndarray, threshold: float):
        self.threshold = threshold
        exp = int(np.frexp(np.abs(points).max(initial=0.0))[1])
        with np.errstate(over="ignore"):  # an infinite extent raises, an infinite limit is capped
            extent = points.max(axis=0) - points.min(axis=0)
            self.limit = min(float(np.ldexp(threshold, -exp)), 4 * math.sqrt(points.shape[1]))
        if not np.all(np.isfinite(extent)):
            raise FloatingPointError("the extent of the points overflows a double")
        self.points = np.ldexp(points, -exp)
        self.side, self.across = _cells_across(np.ldexp(extent, -exp), self.limit)
        if self.limit == 0 or self.across >= 2.0 ** 50:  # a limit of 0 underflowed
            raise ValueError(f"threshold {threshold} is too small for the extent of the points")
        self.id = None

    def bin(self) -> None:
        n = self.points.shape[0]
        shifted = self.points - self.points.min(axis=0)
        # per point: cell coordinates; with no whole cell across, all are 0
        key = np.floor(shifted.T / self.side) if self.across else np.zeros_like(shifted.T)
        order = np.lexsort(key[::-1])
        key = key[:, order]
        new = np.ones(n, dtype=bool)
        np.logical_or.reduce(key[:, 1:] != key[:, :-1], axis=0, out=new[1:])
        first = new.nonzero()[0]
        self.count = first.size
        self.id = np.empty(n, dtype=np.intp)
        self.id[order] = new.cumsum() - 1
        p = shifted[order]
        low = np.minimum.reduceat(p, first)
        span = np.maximum.reduceat(p, first) - low
        centre = low + span / 2
        radius = np.hypot.reduce(span, axis=1) / 2
        # the shift and the centres each round by up to an ulp of the extent,
        # (across + 1) sides of threshold / (2 sqrt(d)), per coordinate, which
        # is 4 sqrt(d) ulps in all; the distances round relative to themselves
        pad = self.limit * (_SLACK + 2 * _EPS * (self.across + 1))
        a, b = cKDTree(centre).query_pairs(self.limit + pad + 2 * radius.max(),
                                           output_type="ndarray").T
        gap = np.empty(a.size)  # by blocks of pairs, so the differences held stay bounded
        for s in range(0, a.size, _CHUNK):
            diff = centre[a[s:s + _CHUNK]] - centre[b[s:s + _CHUNK]]
            gap[s:s + _CHUNK] = np.einsum("ij,ij->i", diff, diff)
        np.sqrt(gap, out=gap)
        spread = radius[a] + radius[b]
        sure = gap + spread <= self.limit - pad
        keep = np.flatnonzero(sure | (gap - spread <= self.limit + pad))
        keep = keep[np.argsort(a[keep], kind="stable")]
        self.pair_start = np.searchsorted(a[keep], np.arange(self.count + 1))
        self.pair_cell, self.pair_sure = b[keep], sure[keep]


def cell_index(cloud: PointCloud, threshold: float) -> CellIndex:
    """The cloud's ``CellIndex`` at ``threshold``, made on first use and kept
    in the cloud's memo."""
    cells = cloud._grids.get(threshold)
    if cells is None:
        cells = cloud._grids[threshold] = CellIndex(cloud.points, threshold)
    return cells


class Grid:
    """Entries of one or more point sets of a cloud, binned by the cloud's
    ``CellIndex``.

    Entry k is the point idx[k] of the cloud in set owner[k], and a grid
    cell holds the entries of one set in one of the index's cells, so a
    cell's entries are linked outright. ``order`` lists the entries cell by
    cell, cells by (set, index cell), each cell's in their order in ``idx``
    (the sort is stable); cell c holds positions start[c]:start[c + 1] of
    that order, ``cell`` maps each position to its cell and ``cols`` holds
    the ordered points as coordinate rows.

    The candidate cell pairs (a, b), a < b, join two cells of one set whose
    index cells the index pairs, and ``split`` classes them as the index
    does. A pair the set's own bounds would call sure may come out
    undecided and be point-checked, so every link found stays exact.
    """

    def __init__(self, cells: CellIndex, idx: np.ndarray, owner: np.ndarray):
        if cells.id is None:
            cells.bin()
        n = idx.size
        self.limit = cells.limit
        key = np.asarray(owner, dtype=np.intp) * cells.count + cells.id[idx]
        self.order = np.argsort(key, kind="stable")
        key = key[self.order]
        new = np.ones(n + 1, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=new[1:n])
        self.start = new.nonzero()[0]
        self.cell = new[:n].cumsum() - 1
        self.cols = cells.points[idx[self.order]].T
        key = key[self.start[:-1]]  # each cell's (set, index cell)
        home = key % cells.count
        k, at = _spread(cells.pair_start[home], np.diff(cells.pair_start)[home])
        want = key[k] - home[k] + cells.pair_cell[at]
        b = np.minimum(np.searchsorted(key, want), key.size - 1)
        hit = key[b] == want
        self.a, self.b, self._sure = k[hit], b[hit], cells.pair_sure[at[hit]]

    def split(self, keep=None):
        """The candidate cell pairs, or those the boolean mask ``keep`` picks,
        as the sure cell pairs (a, b), whose every point pair is linked, and
        the undecided ones.
        """
        a, b, sure = ((self.a, self.b, self._sure) if keep is None
                      else (self.a[keep], self.b[keep], self._sure[keep]))
        return (a[sure], b[sure]), (a[~sure], b[~sure])

    def linked(self, sa, na, sb, nb, keep=None):
        """Yield chunks (k, i, j) of the entry pairs of range pairs k within
        the threshold.

        Range pair k pairs positions sa[k]:sa[k] + na[k] with sb[k]:sb[k] +
        nb[k]. Every range pair is checked, or those the boolean mask
        ``keep`` picks, in one pass of chunks of at most _CHUNK entry pairs.
        """
        ks = np.arange(na.size) if keep is None else np.flatnonzero(keep)
        for k, i, j in range_pairs(sa[ks], na[ks], sb[ks], nb[ks]):
            ok = _within(self.cols, i, j, self.limit)
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
    threshold, ordered by smallest member, from a single cdist.

    ``cluster`` takes this path for a set whose point pairs fit one check
    block, n(n - 1)/2 <= _CHUNK; there the grid's set-up costs more than
    checking every pair. Each point's links are then one int, bit k for
    point k, and every component is grown breadth-first from its lowest
    unseen point, each point expanded once.
    """
    n = pts.shape[0]
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


def _grid_labels(cells: CellIndex, idx: np.ndarray) -> np.ndarray:
    """Component labels of the graph linking the cloud's points idx at
    distance <= threshold, through a grid over the cloud's ``cells``.

    Cells are joined outright, then along all sure cell pairs at once; the
    undecided cell pairs are then point-checked in one pass. A pair whose
    cells the sure pairs already joined is not checked; one joined only
    within the pass may be.
    """
    g = Grid(cells, idx, np.zeros(idx.size, dtype=np.intp))
    (a, b), (p, q) = g.split()
    label = merge_components(np.arange(g.start.size - 1), a, b)
    s, size = g.start[:-1], np.diff(g.start)
    for k, _, _ in g.linked(s[p], size[p], s[q], size[q], label[p] != label[q]):
        label = merge_components(label, p[k], q[k])
    out = np.empty(idx.size, dtype=np.intp)
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

    The indices are a nonempty 1-D integer array, or a sequence numpy reads
    as one, in any order and with repeats; any other dtype or shape, bool
    included, raises ValueError. Returns disjoint sorted index arrays, ordered by
    smallest member index.
    """
    members = np.asarray(member_indices)
    if members.ndim != 1 or members.dtype.kind not in "iu" or members.size == 0:
        raise ValueError("member indices must be a nonempty 1-D integer array")
    members = members.astype(np.intp, copy=False)
    if not (members[1:] > members[:-1]).all():
        members = np.unique(members)
    if members[-1] >= cloud.n or members[0] < 0:
        raise ValueError("member index out of range")
    if isinstance(clusterer, KMeansClusterer):
        return _split(members, _kmeans_labels(cloud.points.take(members, axis=0), clusterer))
    cells = cell_index(cloud, clusterer.threshold)  # rejects a threshold too small for the cloud
    if members.size * (members.size - 1) // 2 > _CHUNK:
        return _split(members, _grid_labels(cells, members))
    return _linkage_parts(members, cells.points.take(members, axis=0), cells.limit)


def threshold_from_hausdorff(
    cloud: PointCloud, fraction: float, factor: float, seed: int
) -> SingleLinkageClusterer:
    """Single-linkage clusterer whose threshold is a multiple of the
    Hausdorff distance between the cloud and a random subsample."""
    if not factor > 0:
        raise ValueError("factor must be > 0")
    return SingleLinkageClusterer(factor * hausdorff_to_subsample(cloud, fraction, seed))
