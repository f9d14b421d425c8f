"""Turn a binary cover assignment into a Mapper graph (clustered nerve)."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy import sparse

from .clustering import (
    Clusterer,
    Grid,
    KMeansClusterer,
    SingleLinkageClusterer,
    cluster,
    merge_components,
    range_pairs,
)
from .data import PointCloud


@dataclass(frozen=True)
class MapperNode:
    id: int
    cover_index: int
    members: tuple[int, ...]  # sorted point indices, nonempty

    def __post_init__(self):
        if not self.members:
            raise ValueError("node members must be nonempty")


@dataclass(frozen=True)
class MapperGraph:
    """Dimension <= 1 nerve: nodes are clusters, edges mark shared points.

    Edges are unordered id pairs (u, v) with u < v; each weight is the size
    of the member intersection (always >= 1).
    """

    nodes: tuple[MapperNode, ...]
    edges: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def _nerve(n: int, members: np.ndarray, indptr: np.ndarray, nodes: tuple) -> MapperGraph:
    """The graph on the nodes; node k's members are members[indptr[k]:indptr[k + 1]].

    Nodes u < v sharing points get an edge weighted by the shared count, read
    off the sparse product B^T B of the n x K membership matrix B; the keys
    are inserted in ascending (u, v) order.
    """
    bt = sparse.csr_matrix((np.ones(members.size, dtype=np.int32), members, indptr),
                           shape=(len(nodes), n))
    shared = bt @ bt.T
    rows = np.repeat(np.arange(len(nodes)), np.diff(shared.indptr))
    upper = shared.indices > rows
    u, v, w = rows[upper], shared.indices[upper], shared.data[upper]
    order = np.lexsort((v, u))
    keys = zip(u[order].tolist(), v[order].tolist())
    return MapperGraph(nodes, dict(zip(keys, w[order].tolist())))


def _cat(parts: list) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """np.unique of integer keys by sorting, which beats its hash table here."""
    keys = np.sort(keys)
    new = np.ones(keys.size, dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return keys[new]


def _distinct_stream(chunks) -> np.ndarray:
    """_distinct of the concatenated key chunks, merged as they come, so
    memory stays within about twice the distinct keys plus a chunk."""
    kept, pending, size = np.empty(0, dtype=np.intp), [], 0
    for keys in chunks:
        pending.append(keys)
        size += keys.size
        if size > kept.size:
            kept, pending, size = _distinct(np.concatenate([kept, *pending])), [], 0
    return _distinct(np.concatenate([kept, *pending]))


def _spread(start: np.ndarray, size: np.ndarray):
    """(k, i): for each k, every i in [start[k], start[k] + size[k])."""
    k = np.repeat(np.arange(size.size), size)
    return k, start[k] + np.arange(k.size) - np.repeat(np.cumsum(size) - size, size)


def _among(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Mask of the entries of q found in the sorted array keys."""
    at = np.minimum(np.searchsorted(keys, q), keys.size - 1)
    return (keys[at] == q) if keys.size else np.zeros(q.size, dtype=bool)


def _kmeans_graph(cloud: PointCloud, e: np.ndarray, clusterer: KMeansClusterer) -> MapperGraph:
    """Cluster every cover element's support of e from scratch."""
    nodes, parts = [], []
    for j in range(e.shape[1]):
        support = np.flatnonzero(e[:, j])
        if support.size == 0:
            continue
        for part in cluster(clusterer, cloud, support):
            nodes.append(MapperNode(len(nodes), j + 1, tuple(part.tolist())))
            parts.append(part)
    indptr = np.cumsum([0] + [part.size for part in parts])
    return _nerve(cloud.n, _cat(parts), indptr, tuple(nodes))


class LinkageEpoch:
    """Single-linkage Mapper graphs of every draw of one Bernoulli scheme.

    Entries with p = 1 form each cover element's deterministic core, which is
    clustered once here; entries with 0 < p < 1 form its margin. A draw keeps
    the whole core and some of the margin, so the clusters of element j are
    the connected components of a small graph whose units are the core
    clusters of j and its drawn margin points. Its edges, built once here,
    join units exactly when the radius graph does in every draw.
    ``graph(e)`` equals the Mapper graph of e clustered from scratch.
    """

    def __init__(self, cloud: PointCloud, probs, clusterer: SingleLinkageClusterer):
        p = np.asarray(probs)
        if p.ndim != 2 or p.shape[0] != cloud.n:
            raise ValueError(f"scheme must have {cloud.n} rows, got {p.shape}")
        self.cloud, self.clusterer = cloud, clusterer
        self._shape = p.shape
        flat = np.flatnonzero(p > 0)
        pt, elem = np.divmod(flat, p.shape[1])
        core = p.ravel()[flat] == 1
        margin = ~core & (p.ravel()[flat] < 1)
        by_elem = np.argsort(elem[core], kind="stable")
        pt_core, elem_core = pt[core][by_elem], elem[core][by_elem]
        bounds = np.searchsorted(elem_core, np.arange(p.shape[1] + 1)).tolist()
        core_pt, unit_elem = [], []
        for j in np.flatnonzero(np.diff(bounds)).tolist():
            for part in cluster(clusterer, cloud, pt_core[bounds[j]:bounds[j + 1]]):
                core_pt.append(part)
                unit_elem.append(j)
        self._core_pt = _cat(core_pt)
        self._core_unit = np.repeat(np.arange(len(core_pt)), [part.size for part in core_pt])
        self._margin_pt, self._margin_elem = pt[margin], elem[margin]
        self._margin_unit = len(unit_elem) + np.arange(self._margin_pt.size)
        self._unit_elem = np.concatenate([np.array(unit_elem, dtype=np.intp), self._margin_elem])
        self._core_elem = self._unit_elem[self._core_unit]
        self._edges = self._margin_edges()

    def _margin_edges(self) -> np.ndarray:
        """Unit pairs (2 x E) whose components match the radius graph's in
        every draw, from one grid over the supports of the elements with a
        margin.

        Margin entries come first in each cell, so a cell's core entries,
        which lie within threshold / 2 of each other and hence in one core
        cluster, follow them as one range. Entries sharing a cell or a sure
        cell pair are linked unchecked; the other cell pairs are
        point-checked nearest first. Every (core cluster, margin point) link
        is kept, and once one is known it is not checked again. Core clusters
        are in every draw, so two margin points linked to one core cluster
        are joined through it and need no edge of their own: each margin
        point gets one linked core cluster as its anchor, and a margin pair
        sharing an anchor is neither checked nor kept.
        """
        n_margin = self._margin_pt.size
        if n_margin == 0:
            return np.empty((2, 0), dtype=np.int32)
        in_pass = np.zeros(self._shape[1], dtype=bool)
        in_pass[self._margin_elem] = True
        core = np.flatnonzero(in_pass[self._core_elem])
        pt = np.concatenate([self._margin_pt, self._core_pt[core]])
        is_core = np.arange(pt.size) >= n_margin
        g = Grid(self.cloud.points[pt], np.concatenate([self._margin_elem, self._core_elem[core]]),
                 self.clusterer.threshold, rank=is_core)
        unit = np.concatenate([self._margin_unit, self._core_unit[core]])[g.order]
        s = g.start[:-1]
        m = np.add.reduceat((~is_core[g.order]).astype(np.intp), s)
        c = np.diff(g.start) - m
        rep, has_core = s + m, (c > 0).astype(np.intp)  # each cell's first core entry
        n_units = self._unit_elem.size

        sure, near = g.split(lambda a, b: (m[a] > 0) | (m[b] > 0))
        # (core cluster, margin point) links: core units come first, so each
        # key is core * n_units + margin
        a, b = sure
        known = _distinct_stream(
            unit[j] * n_units + unit[i] for _, i, j in range_pairs(
                np.concatenate([s, s[a], s[b]]), np.concatenate([m, m[a], m[b]]),
                np.concatenate([rep, rep[b], rep[a]]),
                np.concatenate([has_core, has_core[b], has_core[a]])))
        # undecided cell pairs, nearest first, one margin point at a time
        a, b = near
        k_ab, i_ab = _spread(s[a], m[a] * has_core[b])
        k_ba, i_ba = _spread(s[b], m[b] * has_core[a])
        order = np.argsort(np.concatenate([k_ab, k_ba]), kind="stable")
        sa = np.concatenate([i_ab, i_ba])[order]
        sb = np.concatenate([rep[b[k_ab]], rep[a[k_ba]]])[order]
        nb = np.concatenate([c[b[k_ab]], c[a[k_ba]]])[order]
        key = unit[sb] * n_units + unit[sa]
        for k, _, _ in g.linked(sa, np.ones_like(sa), sb, nb,
                                lambda ks: ~_among(known, key[ks])):
            known = _distinct(np.concatenate([known, key[k]]))

        # margin with margin, except pairs sharing an anchor; a cell whose
        # margin points share one anchor skips a cell that shares it too
        anchor = np.full(n_units, -1)
        np.maximum.at(anchor, known % n_units, known // n_units)
        own = np.where(is_core[g.order], -1, anchor[unit])
        low = np.minimum.reduceat(np.where(is_core[g.order], n_units, own), s)
        shared = np.where(low == np.maximum.reduceat(own, s), low, -1)
        lone = shared < 0
        a, b = (x[(shared[sure[0]] != shared[sure[1]]) | lone[sure[0]]] for x in sure)
        p, q = (x[(shared[near[0]] != shared[near[1]]) | lone[near[0]]] for x in near)
        pairs = chain(range_pairs(s[lone], m[lone], s[lone], m[lone]),
                      range_pairs(s[a], m[a], s[b], m[b]),
                      g.linked(s[p], m[p], s[q], m[q], lambda ks: np.ones(ks.size, dtype=bool)))

        def margin_keys():
            for _, i, j in pairs:
                lo, hi = np.minimum(unit[i], unit[j]), np.maximum(unit[i], unit[j])
                yield (lo * n_units + hi)[(lo != hi) & ((own[i] != own[j]) | (own[i] < 0))]

        keys = _distinct_stream(chain([known], margin_keys()))
        return np.stack(np.divmod(keys, n_units)).astype(np.int32)

    def graph(self, e) -> MapperGraph:
        """The Mapper graph of the draw e (n x r, nonzero = assigned).

        Nodes run in (cover_index, smallest member) order.
        """
        e = np.asarray(e)
        if e.shape != self._shape:
            raise ValueError(f"assignment must be {self._shape}, got {e.shape}")
        drawn = e[self._margin_pt, self._margin_elem] != 0
        # a draw assigns every core entry, and beyond them only drawn margin entries
        if (not np.all(e[self._core_pt, self._core_elem])
                or np.count_nonzero(e) != self._core_pt.size + np.count_nonzero(drawn)):
            raise ValueError("assignment is not a draw of this epoch's scheme")
        present = np.ones(self._unit_elem.size, dtype=bool)
        present[self._margin_unit[~drawn]] = False
        a, b = self._edges
        keep = present[a] & present[b]
        # one components call over all elements: edges never cross elements
        root = merge_components(np.arange(present.size), a[keep], b[keep])
        pts = np.concatenate([self._core_pt, self._margin_pt[drawn]])
        roots = root[np.concatenate([self._core_unit, self._margin_unit[drawn]])]
        smallest = np.full(present.size, self.cloud.n)  # smallest member of each root's component
        np.minimum.at(smallest, roots, pts)
        used = np.flatnonzero(smallest < self.cloud.n)
        # a component lies in one element; nodes run by (element, smallest member)
        by_node = used[np.lexsort((smallest[used], self._unit_elem[used]))]
        node = np.empty(present.size, dtype=np.intp)
        node[by_node] = np.arange(by_node.size)
        col = node[roots]
        members = pts[np.lexsort((pts, col))]
        indptr = np.zeros(by_node.size + 1, dtype=np.intp)
        np.cumsum(np.bincount(col, minlength=by_node.size), out=indptr[1:])
        flat, bounds = members.tolist(), indptr.tolist()
        nodes = tuple(MapperNode(k, j + 1, tuple(flat[bounds[k]:bounds[k + 1]]))
                      for k, j in enumerate(self._unit_elem[by_node].tolist()))
        return _nerve(self.cloud.n, members, indptr, nodes)


def map_comp(
    cloud: PointCloud, e: np.ndarray, clusterer: Clusterer, epoch: LinkageEpoch | None = None
) -> MapperGraph:
    """Cluster each cover element's point set and take the nerve.

    Column j of e selects the points assigned to cover element j; each
    cluster becomes a node tagged with j. Node ids run in (cover_index,
    cluster) order. Every node pair sharing a point gets an edge, whatever
    their cover indices.

    A single-linkage graph comes from ``epoch.graph(e)``; pass the epoch
    built once for the scheme e was drawn from, or leave it out to treat e
    as its own scheme. k-means clusters every support from scratch.
    """
    e = np.asarray(e)
    if e.ndim != 2 or e.shape[0] != cloud.n:
        raise ValueError(f"assignment matrix must have {cloud.n} rows, got {e.shape}")
    if isinstance(clusterer, KMeansClusterer):
        return _kmeans_graph(cloud, e, clusterer)
    if epoch is None:
        epoch = LinkageEpoch(cloud, e != 0, clusterer)
    elif epoch.cloud is not cloud or epoch.clusterer != clusterer:
        raise ValueError("epoch was built for another cloud or clusterer")
    return epoch.graph(e)


def connected_components(graph: MapperGraph) -> dict[int, int]:
    """Map each node id to its component representative (smallest id)."""
    edges = np.array(list(graph.edges), dtype=np.intp).reshape(-1, 2)
    label = merge_components(np.arange(graph.n_nodes), edges[:, 0], edges[:, 1])
    return dict(zip((nd.id for nd in graph.nodes), label.tolist()))
