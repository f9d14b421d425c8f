"""Turn a binary cover assignment into a Mapper graph (clustered nerve)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .clustering import (
    Clusterer,
    KMeansClusterer,
    SingleLinkageClusterer,
    cluster,
    cross_radius_pairs,
    merge_components,
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
    clusters of j and its drawn margin points, linked by the radius-graph
    edges that touch a margin point of j. ``graph(e)`` equals the Mapper
    graph of e clustered from scratch.
    """

    def __init__(self, cloud: PointCloud, probs, clusterer: SingleLinkageClusterer):
        p = np.asarray(probs)
        if p.ndim != 2 or p.shape[0] != cloud.n:
            raise ValueError(f"scheme must have {cloud.n} rows, got {p.shape}")
        self.cloud, self.clusterer = cloud, clusterer
        self._shape = p.shape
        unit_of = np.empty(cloud.n, dtype=np.intp)  # units of the current element's points
        unit_elem, core_pt, core_unit, margin_pt, margin_unit, edges = [], [], [], [], [], []
        for j in range(p.shape[1]):
            col = p[:, j]
            core_j = np.flatnonzero(col == 1)
            if core_j.size:
                for part in cluster(clusterer, cloud, core_j):
                    unit_of[part] = len(unit_elem)
                    core_pt.append(part)
                    core_unit.append(np.full(part.size, len(unit_elem)))
                    unit_elem.append(j)
            margin_j = np.flatnonzero((col > 0) & (col < 1))
            if margin_j.size == 0:
                continue
            units = len(unit_elem) + np.arange(margin_j.size)
            unit_of[margin_j] = units
            unit_elem.extend([j] * margin_j.size)
            margin_pt.append(margin_j)
            margin_unit.append(units)
            support = np.flatnonzero((col > 0) & (col <= 1))
            keys = []
            for i, k in cross_radius_pairs(cloud.points[margin_j], cloud.points[support],
                                           clusterer.threshold):
                a, b = unit_of[margin_j[i]], unit_of[support[k]]
                lo, hi = np.minimum(a, b), np.maximum(a, b)
                keys.append(_distinct((lo * len(unit_elem) + hi)[lo != hi]))
            pair = np.divmod(_distinct(_cat(keys)), len(unit_elem))
            edges.append(np.stack(pair).astype(np.int32))
        self._unit_elem = np.array(unit_elem, dtype=np.intp)
        self._core_pt, self._core_unit = _cat(core_pt), _cat(core_unit)
        self._margin_pt, self._margin_unit = _cat(margin_pt), _cat(margin_unit)
        self._core_elem = self._unit_elem[self._core_unit]
        self._margin_elem = self._unit_elem[self._margin_unit]
        self._edges = np.concatenate(edges, axis=1) if edges else np.empty((2, 0), dtype=np.int32)

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
    parent = {nd.id: nd.id for nd in graph.nodes}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in graph.edges:
        ra, rb = find(u), find(v)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {nd.id: find(nd.id) for nd in graph.nodes}
