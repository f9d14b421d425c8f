"""Turn a binary cover assignment into a Mapper graph (clustered nerve)."""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .clustering import (
    Clusterer,
    Grid,
    SingleLinkageClusterer,
    cell_index,
    cluster,
    merge_components,
    range_pairs,
)
from .cover import AssignmentScheme, MarginDraws, _spread
from .data import PointCloud


class MapperNode(NamedTuple):
    id: int
    cover_index: int
    members: tuple[int, ...]  # sorted point indices


class MapperGraph:
    """Dimension <= 1 nerve: nodes are clusters, edges mark shared points.

    ``MapperGraph(indptr, members, cover, links, draws)`` stores these fields
    as given. Node k has cover index cover[k] and the members
    members[indptr[k]:indptr[k + 1]], sorted point indices, at least one.
    ``links`` (3 x E ints) holds the edges (u, v), u < v, ascending, with
    their weights w, the sizes of the member intersections (always >= 1).
    ``nodes`` (MapperNode records) and ``edges`` ({(u, v): w}) are views of
    the same nodes and edges, built on first read.

    A graph may hold the graphs of several draws as their disjoint union:
    draw m has the nodes draws[m]:draws[m + 1], no edge joins two draws, and
    each draw's nodes and edges come in the order its own graph gives them.
    ``draws`` defaults to [0, n_nodes], a single draw.

    A graph's nodes are unions of units, disjoint point sets: ``_units``
    (ptr, pts) lists unit u's points pts[ptr[u]:ptr[u + 1]], ascending, and
    ``_node_units`` (ptr, unit) lists node k's units unit[ptr[k]:ptr[k + 1]],
    ascending. A graph given by its members has one unit per node, the node
    itself. ``LinkageEpoch`` builds its graphs from its own units instead
    (``_of_units``), and then ``indptr`` and ``members`` are views listed on
    first read, as ``nodes`` is. ``sizes`` holds each node's member count.
    """

    def __init__(self, indptr: np.ndarray, members: np.ndarray, cover: np.ndarray,
                 links: np.ndarray, draws: np.ndarray | None = None):
        self.indptr, self.members, self.cover, self.links = indptr, members, cover, links
        self.draws = np.array([0, cover.size]) if draws is None else draws

    @classmethod
    def _of_units(cls, units: tuple, node_units: tuple, cover: np.ndarray, links: np.ndarray,
                  draws: np.ndarray) -> MapperGraph:
        graph = cls.__new__(cls)
        graph._units, graph._node_units = units, node_units
        graph.cover, graph.links, graph.draws = cover, links, draws
        return graph

    @cached_property
    def _units(self) -> tuple[np.ndarray, np.ndarray]:
        return self.indptr, self.members

    @cached_property
    def _node_units(self) -> tuple[np.ndarray, np.ndarray]:
        k = np.arange(self.n_nodes + 1)
        return k, k[:-1]

    @cached_property
    def sizes(self) -> np.ndarray:
        (ptr, _), (at, unit) = self._units, self._node_units
        return np.add.reduceat(np.diff(ptr)[unit], at[:-1])

    @cached_property
    def indptr(self) -> np.ndarray:
        return np.cumsum(_cat([[0], self.sizes]))

    @cached_property
    def members(self) -> np.ndarray:
        (ptr, pts), (_, unit) = self._units, self._node_units
        pts = pts[_spread(ptr[unit], np.diff(ptr)[unit])[1]]
        # each node's units in turn, each unit's points ascending, so a stable
        # sort by (node, point) merges runs
        node = np.repeat(np.arange(self.n_nodes), self.sizes) * (int(pts.max(initial=0)) + 1)
        return np.sort(node + pts, kind="stable") - node

    @cached_property
    def nodes(self) -> tuple[MapperNode, ...]:
        flat, bounds = self.members.tolist(), self.indptr.tolist()
        return tuple(MapperNode(k, j, tuple(flat[bounds[k]:bounds[k + 1]]))
                     for k, j in enumerate(self.cover.tolist()))

    @cached_property
    def edges(self) -> dict:
        return {(u, v): w for u, v, w in zip(*self.links.tolist())}

    @property
    def n_nodes(self) -> int:
        return self.cover.size

    @property
    def n_edges(self) -> int:
        return self.links.shape[1]

    def __eq__(self, other):
        if not isinstance(other, MapperGraph):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f))
                   for f in ("indptr", "members", "cover", "links", "draws"))

    def __repr__(self):
        return (f"MapperGraph({self.indptr!r}, {self.members!r}, {self.cover!r}, {self.links!r},"
                f" {self.draws!r})")


def _union(graphs: list[MapperGraph]) -> MapperGraph:
    """The disjoint union of single-draw graphs, taken in order."""
    draws = np.cumsum([0, *(g.n_nodes for g in graphs)])
    links = [g.links + [[k], [k], [0]] for g, k in zip(graphs, draws)]
    return MapperGraph(np.cumsum(_cat([[0], *(np.diff(g.indptr) for g in graphs)])),
                       _cat([g.members for g in graphs]), _cat([g.cover for g in graphs]),
                       np.concatenate([np.empty((3, 0), dtype=np.intp), *links], axis=1), draws)


def _nerve(pts: np.ndarray, col: np.ndarray, k: int):
    """The pairs u < v of k nodes that share points, and their shared counts;
    membership i puts point pts[i] in node col[i], and the memberships come
    sorted by (point, node).

    Every two nodes of one point lie at most (nodes per point - 1) places
    apart. Returns the arrays (u, v, count), ascending in (u, v).
    """
    keys, gap = [], 1
    while (at := np.flatnonzero(pts[gap:] == pts[:-gap])).size:
        keys.append(col.take(at) * k + col.take(at + gap))
        gap += 1
    keys = np.sort(_cat(keys))
    ends = _run_ends(keys)
    return (*_divmod(keys[ends[:-1]], k), np.diff(ends))


def _divmod(keys: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """np.divmod of integer keys by k from one floor division, which numpy
    runs about four times faster than divmod."""
    q = keys // k
    return q, keys - q * k


def _run_ends(keys: np.ndarray) -> np.ndarray:
    """The start of each run of equal entries of the sorted array keys, then keys.size."""
    ends = np.ones(keys.size + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=ends[1:-1])
    return np.flatnonzero(ends)


def _cat(parts: list) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """np.unique of integer keys by sorting, which beats its hash table here."""
    keys = np.sort(keys)
    new = np.ones(keys.size, dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return keys[new]


def _among(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Mask of the entries of q found in the sorted array keys."""
    at = np.minimum(np.searchsorted(keys, q), keys.size - 1)
    return (keys[at] == q) if keys.size else np.zeros(q.size, dtype=bool)


def _by_element(pt: np.ndarray, elem: np.ndarray, r: int):
    """Entries (point pt[k] in element elem[k]), given in point order, sorted
    by element and then point: the order, the sorted entries, and each
    element's bounds as a list."""
    # the ids fit the smallest unsigned type that holds r, which numpy radix-sorts
    order = np.argsort(elem.astype(np.min_scalar_type(r)), kind="stable")
    elem = elem[order]
    return order, pt[order], elem, np.searchsorted(elem, np.arange(r + 1)).tolist()


class _Element(NamedTuple):
    """What an epoch keeps of one cover element for the next epoch on its cloud."""

    core: np.ndarray  # sorted point indices with p = 1
    margin: np.ndarray  # sorted point indices with 0 < p < 1
    parts: list  # the core's clusters
    edges: np.ndarray | None  # margin edges (2 x E) in unit ids local to the element, or
    # None when it has no margin or they are yet to be built


class _Memo(NamedTuple):
    """What an epoch keeps for the next epoch on its (cloud, clusterer)."""

    scheme: AssignmentScheme  # the last epoch's, whose support ``state`` derives from
    state: dict  # the arrays graph(e) reads (LinkageEpoch._STATE), by attribute, read-only
    elements: list  # the _Element record of each element of its last scheme


class LinkageEpoch:
    """Mapper graphs of every draw of one Bernoulli scheme.

    Entries with p = 1 form each cover element's deterministic core, which is
    clustered once here; entries with 0 < p < 1 form its margin. A draw keeps
    the whole core and some of the margin, so under single linkage the
    clusters of element j are the connected components of a small graph whose
    units are the core clusters of j and its drawn margin points. Its edges,
    built once here, join units exactly when the radius graph does in every
    draw. ``graph(draws)`` equals the Mapper graphs of the draws clustered
    from scratch. The scheme is an ``AssignmentScheme``, whose entries are
    read as they are, or a dense n x r matrix, which goes through
    ``AssignmentScheme``; an entry outside [0, 1] (or NaN) raises ValueError.
    ``scheme`` holds the ``AssignmentScheme`` either way.

    Units run element by element, and within an element by smallest member,
    core clusters and margin points alike. An element's core clusters depend
    only on its core point set and its edges only on its core and margin
    sets. The cloud keeps one memo per clusterer, written by the last epoch
    built on it with that clusterer: that epoch's scheme, whose support is
    its shape, the flat indices of its nonzero entries and which of them
    equal 1, everything the epoch derived from the support, and one record
    per element. Everything ``graph`` reads depends only on the cloud, the
    clusterer and the support, so an epoch whose support equals the memo's
    takes the memo's arrays, which are read-only, builds nothing and puts
    its own scheme in the memo. Any other epoch takes record j's clusters
    for element j if its core is unchanged, and its edges if the margin is
    too; it clusters the other cores, searches one margin grid over the
    other elements and replaces the memo. A cloud's first epoch has no memo;
    the memo holds no reference to it. ``map_comp`` builds an epoch per
    call, so its calls on draws of schemes of one support find their epoch
    in the memo. ``last_scheme`` reads the memo's scheme, whose build
    records let the next scheme build check that its support repeats before
    computing it (``cover._reuse``).

    The epoch also keeps what no draw decides: each margin entry's column
    in a ``MarginDraws`` block, each unit's points, and the unit pairs that
    share points, with their shared counts, from one ``_nerve`` pass over
    the entries in the point-major order ``flatnonzero`` gives them. A node
    is the union of its component's units; its smallest unit, the
    component's root, holds its smallest member, so the roots already run in
    node order. A draw's graph holds each node as its units (see
    ``MapperGraph``) and lists no member. Two units of one element share no
    point, so ``graph`` weighs each edge by summing the present unit pairs
    between its two nodes.

    Any clusterer serves a scheme without margin entries (a single draw, as
    ``map_comp`` builds for k-means); a scheme with them needs single linkage,
    and any other clusterer raises ValueError.
    """

    # the arrays graph reads, which the memo keeps; the rest of a rebuild is
    # dropped when it returns
    _STATE = ("_margin_perm", "_margin_unit", "_unit_elem", "_unit_ptr", "_unit_pts", "_pairs",
              "_edges")

    def __init__(self, cloud: PointCloud, scheme: AssignmentScheme | np.ndarray,
                 clusterer: Clusterer):
        shape = scheme.shape if isinstance(scheme, AssignmentScheme) else np.shape(scheme)
        if len(shape) != 2 or shape[0] != cloud.n:
            raise ValueError(f"scheme must have {cloud.n} rows and r columns, got {shape}")
        if not isinstance(scheme, AssignmentScheme):
            scheme = AssignmentScheme(scheme)
        self.cloud, self.scheme, self.clusterer = cloud, scheme, clusterer
        r = scheme.shape[1]
        flat, margin = scheme.flat, scheme.margin
        if margin.any() and not isinstance(clusterer, SingleLinkageClusterer):
            raise ValueError("a scheme with margin entries (0 < p < 1) needs single linkage")
        memo = cloud._epochs.get(clusterer)
        if (memo is not None and memo.scheme.shape == scheme.shape
                and np.array_equal(memo.scheme.flat, flat)
                and np.array_equal(memo.scheme.margin, margin)):
            vars(self).update(memo.state)  # the same support: everything below repeats
            cloud._epochs[clusterer] = memo._replace(scheme=scheme)
            return
        # only the old records are read from here on: free the old arrays before
        # the new are built
        last = [] if memo is None else cloud._epochs.pop(clusterer).elements
        del memo
        pt, elem = _divmod(flat, r)
        core_at, margin_at = np.flatnonzero(~margin), np.flatnonzero(margin)
        core_order, core_pt, core_elem, cb = _by_element(pt[core_at], elem[core_at], r)
        margin_order, margin_pt, margin_elem, mb = _by_element(pt[margin_at], elem[margin_at], r)
        core_at, margin_at = core_at[core_order], margin_at[margin_order]  # in element order
        self._margin_perm = margin_order  # each margin entry's MarginDraws column
        elements = []
        for j in range(r):
            c, m = core_pt[cb[j]:cb[j + 1]], margin_pt[mb[j]:mb[j + 1]]
            prev = last[j] if j < len(last) else None
            same = prev is not None and np.array_equal(c, prev.core)
            parts = prev.parts if same else cluster(clusterer, cloud, c) if c.size else []
            edges = prev.edges if same and np.array_equal(m, prev.margin) else None
            elements.append(_Element(c, m, parts, edges))
        parts = [part for el in elements for part in el.parts]
        n_parts = np.array([len(el.parts) for el in elements], dtype=np.intp)
        n_margin = np.diff(mb)
        core_pt = _cat(parts)  # the core entries again, cluster by cluster
        sizes = np.array([part.size for part in parts], dtype=np.intp)
        # number the units, listed core clusters first, by (element, smallest
        # member); a cluster's members ascend
        elem = np.concatenate([np.repeat(np.arange(r), n_parts), margin_elem])
        by_min = np.argsort(elem * cloud.n + np.concatenate(
            [core_pt[np.cumsum(sizes) - sizes], margin_pt]))
        n_units = by_min.size
        rank = np.empty(n_units, dtype=np.intp)
        rank[by_min] = np.arange(n_units)
        core_unit = np.repeat(rank[:len(parts)], sizes)
        self._margin_unit = rank[len(parts):]
        self._unit_elem = elem[by_min]
        # each unit's points, ascending: a cluster's members ascend, and a
        # stable sort by unit keeps them so (the units come in long runs,
        # which numpy's stable sort of intp merges faster than a radix sort)
        unit = np.concatenate([core_unit, self._margin_unit])
        order = np.argsort(unit, kind="stable")
        self._unit_pts = np.concatenate([core_pt, margin_pt])[order]
        self._unit_ptr = np.searchsorted(unit[order], np.arange(n_units + 1))
        off = np.searchsorted(self._unit_elem, np.arange(r + 1))  # element j's units
        # each entry's unit, point-major as flatnonzero gave them, so units
        # ascend within a point; the core's (element, point) keys, in part
        # order, come in one sorted run per cluster, which a stable sort merges
        unit = np.empty(flat.size, dtype=np.intp)
        unit[margin_at] = self._margin_unit
        by_elem = np.argsort(core_elem * cloud.n + core_pt, kind="stable")
        unit[core_at] = core_unit[by_elem]
        self._pairs = np.stack(_nerve(pt, unit, n_units))
        rebuild = np.array([el.edges is None for el in elements], dtype=bool) & (n_margin > 0)
        edges = self._margin_edges(rebuild, (margin_pt, margin_elem, self._margin_unit),
                                   (core_pt, core_elem, core_unit))
        at = np.searchsorted(edges[0], off).tolist()  # the pass's edges run by element
        for j in np.flatnonzero(rebuild).tolist():
            elements[j] = elements[j]._replace(edges=edges[:, at[j]:at[j + 1]] - int(off[j]))
        pieces = [elements[j].edges + int(off[j]) for j in np.flatnonzero(n_margin).tolist()]
        self._edges = np.concatenate(pieces, axis=1) if pieces else edges
        state = {name: getattr(self, name) for name in self._STATE}
        for a in state.values():
            a.flags.writeable = False  # later epochs share them
        cloud._epochs[clusterer] = _Memo(scheme, state, elements)

    def _margin_edges(self, rebuild: np.ndarray, margin: tuple, core: tuple) -> np.ndarray:
        """Unit pairs (2 x E) of the elements the mask ``rebuild`` picks,
        whose components match the radius graph's in every draw, from one
        grid over those elements' supports, binned by the cloud's cell index;
        they come ascending in their first unit. ``margin`` and ``core`` hold
        the (point, element, unit) arrays of the margin and core entries.

        Margin entries are passed first, so the grid's stable sort puts them
        first in each cell, and a cell's core entries, which lie within 3/4
        of the threshold of each other and hence in one core cluster, follow
        them as one range. Entries sharing a cell or a sure cell pair are
        linked unchecked; the other cell pairs are point-checked in one pass.
        Every (core cluster, margin point) link is kept. One already known
        from a shared cell or a sure cell pair is not checked again; one
        found within the pass may be. Core clusters are in every draw, so
        two margin points linked to one core cluster are joined through it
        and need no edge of their own: each margin point gets one linked core
        cluster as its anchor, and a margin pair sharing an anchor is neither
        checked nor kept. Every margin point of a cell links to the cell's
        core cluster, so a cell pair whose cells both hold core entries of
        one cluster adds nothing and is not searched.
        """
        if not rebuild.any():
            return np.empty((2, 0), dtype=np.int32)
        # the margin entries, then the core entries, of the rebuilt elements
        at = [np.flatnonzero(rebuild[elem]) for _, elem, _ in (margin, core)]
        pt, elem, unit = (np.concatenate([m[at[0]], c[at[1]]]) for m, c in zip(margin, core))
        is_core = np.arange(pt.size) >= at[0].size
        g = Grid(cell_index(self.cloud, self.clusterer.threshold), pt, elem)
        unit = unit[g.order]
        s = g.start[:-1]
        m = np.add.reduceat((~is_core[g.order]).astype(np.intp), s)
        c = np.diff(g.start) - m
        rep, has_core = s + m, (c > 0).astype(np.intp)  # each cell's first core entry
        n_units = self._unit_elem.size
        cl = np.full(s.size, -1)
        cl[c > 0] = unit[rep[c > 0]]  # each cell's core cluster

        sure, near = g.split(((m[g.a] > 0) | (m[g.b] > 0))
                             & ((cl[g.a] != cl[g.b]) | (cl[g.a] < 0)))
        # (core cluster, margin point) links, each keyed core * n_units + margin
        a, b = sure
        known = _distinct(_cat([unit[j] * n_units + unit[i] for _, i, j in range_pairs(
            np.concatenate([s, s[a], s[b]]), np.concatenate([m, m[a], m[b]]),
            np.concatenate([rep, rep[b], rep[a]]),
            np.concatenate([has_core, has_core[b], has_core[a]]))]))
        # undecided cell pairs, one margin point at a time, each against the
        # other cell's core range unless that link is already known
        a, b = near
        k_ab, i_ab = _spread(s[a], m[a] * has_core[b])
        k_ba, i_ba = _spread(s[b], m[b] * has_core[a])
        sa = np.concatenate([i_ab, i_ba])
        sb = np.concatenate([rep[b[k_ab]], rep[a[k_ba]]])
        nb = np.concatenate([c[b[k_ab]], c[a[k_ba]]])
        key = unit[sb] * n_units + unit[sa]
        found = [key[k] for k, _, _ in g.linked(sa, np.ones_like(sa), sb, nb,
                                                 ~_among(known, key))]
        known = _distinct(np.concatenate([known, *found]))

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
        keys = [known]
        for _, i, j in chain(range_pairs(s[lone], m[lone], s[lone], m[lone]),
                             range_pairs(s[a], m[a], s[b], m[b]),
                             g.linked(s[p], m[p], s[q], m[q])):
            lo, hi = np.minimum(unit[i], unit[j]), np.maximum(unit[i], unit[j])
            keys.append((lo * n_units + hi)[(lo != hi) & ((own[i] != own[j]) | (own[i] < 0))])
        keys = _distinct(np.concatenate(keys))
        return np.stack(_divmod(keys, n_units)).astype(np.int32)

    def graph(self, draws: MarginDraws | None = None) -> MapperGraph:
        """The disjoint union of the Mapper graphs of ``draws``, a
        ``MarginDraws`` of the epoch's own scheme, whose block is taken as it
        is, with draw m's node range in the graph's ``draws``. With draws
        left out, the graph of the scheme itself, which must have no margin
        entries: it is its own only draw. Anything else raises ValueError.

        Each draw's nodes run in (cover_index, smallest member) order, its
        edges in ascending (u, v) order. Draw m's units and entries are the
        epoch's shifted by m times their counts, so one components call, one
        sort of the present units by node and one pass over the shared unit
        pairs build all draws.
        """
        if draws is None and not self._margin_unit.size:  # the scheme is its own only draw
            drawn = np.empty((1, 0), dtype=bool)
        elif isinstance(draws, MarginDraws) and draws.scheme is self.scheme:
            drawn = draws.drawn[:, self._margin_perm]  # in the epoch's margin order
        else:
            raise ValueError("not a draw: graph takes a MarginDraws of the epoch's own scheme,"
                             " or nothing for a scheme with no margin entries (0 < p < 1)")
        n_draws, n_units = drawn.shape[0], self._unit_elem.size
        shift = np.arange(n_draws)[:, None] * n_units
        drawn = drawn.ravel()
        present = np.ones(n_draws * n_units, dtype=bool)
        present[(shift + self._margin_unit).ravel()[~drawn]] = False
        a, b = (self._edges[:, None] + shift).reshape(2, -1)
        keep = present[a] & present[b]
        # one components call over all elements: edges never cross elements
        root = merge_components(np.arange(present.size), a[keep], b[keep])
        # a component lies in one element and its root is its smallest unit,
        # the one holding its smallest member, so the roots run in node order
        by_node = np.flatnonzero(present & (root == np.arange(present.size)))
        k = by_node.size
        node = np.empty(present.size, dtype=np.intp)
        node[by_node] = np.arange(k)
        node = node[root]
        # each node's units: the present (draw, unit) slots, by node and then unit
        slots = np.flatnonzero(present)
        slots = slots[np.argsort(node[slots], kind="stable")]
        at = np.searchsorted(node[slots], np.arange(k + 1))
        # a node's points are its units', and two units of one element share
        # none, so a node pair's weight sums those of its present unit pairs
        u, v, w = self._pairs
        u, v = (shift + u).ravel(), (shift + v).ravel()
        shared = present[u] & present[v]
        keys = node[u[shared]] * k + node[v[shared]]
        order = np.argsort(keys, kind="stable")
        keys, w = keys[order], np.tile(w, n_draws)[shared][order]
        first = _run_ends(keys)[:-1]
        links = np.stack([*_divmod(keys[first], k),
                          np.add.reduceat(w, first) if first.size else first])
        # draw m's units are m n_units to (m + 1) n_units
        return MapperGraph._of_units(
            (self._unit_ptr, self._unit_pts), (at, slots % n_units),
            self._unit_elem[by_node % n_units] + 1, links,
            np.searchsorted(by_node, n_units * np.arange(n_draws + 1)))


def last_scheme(cloud: PointCloud, clusterer: Clusterer) -> AssignmentScheme | None:
    """The scheme of the last ``LinkageEpoch`` built on the cloud with the
    clusterer, or None if there is none."""
    memo = cloud._epochs.get(clusterer)
    return None if memo is None else memo.scheme


def map_comp(cloud: PointCloud, e, clusterer: Clusterer) -> MapperGraph:
    """Cluster each cover element's point set and take the nerve.

    Column j of e selects the points assigned to cover element j; each
    cluster becomes a node tagged with j. Node ids run in (cover_index,
    cluster) order. Every node pair sharing a point gets an edge, whatever
    their cover indices.

    A stack of draws e (M x n x r, or a ``MarginDraws``) gives the disjoint
    union of their graphs, draw m's nodes in ``draws[m]:draws[m + 1]`` (see
    ``MapperGraph``). e may also be an ``AssignmentScheme`` with no margin
    entries, such as a standard scheme, which is its own draw: its graph is
    built from its entries, with no n x r matrix.

    Under single linkage a ``MarginDraws`` gives ``LinkageEpoch(cloud,
    e.scheme, clusterer).graph(e)``: its scheme's core is clustered once for
    all its draws, and not at all when the cloud's memo holds an epoch of
    the same support. Any other e is its own scheme, which clusters every
    nonempty column once; a stack, a ``MarginDraws`` under k-means listed as
    its dense draws, builds one epoch per draw, each taking the element
    records of the draw before it, and joins their graphs.
    """
    if isinstance(e, MarginDraws):
        if isinstance(clusterer, SingleLinkageClusterer):
            return LinkageEpoch(cloud, e.scheme, clusterer).graph(e)
        e = e.dense()
    if not isinstance(e, AssignmentScheme):
        e = np.asarray(e) != 0  # the scheme of a draw: its assigned entries, all 1
        if e.ndim == 3:
            return _union([LinkageEpoch(cloud, d, clusterer).graph() for d in e])
    return LinkageEpoch(cloud, e, clusterer).graph()


def node_means(graph: MapperGraph, values) -> np.ndarray:
    """Each node's mean of ``values`` (one value or row per point) over its
    members, one row per node in id order.

    Each unit's values are summed once, in member order, and each node adds
    up its units' sums in unit order (see ``MapperGraph``). A node of one
    unit takes that unit's sum as it is, so a graph given by its members
    sums each node in member order, and keeps a sum of -0.0."""
    (ptr, pts), (at, unit) = graph._units, graph._node_units
    sums = np.add.reduceat(np.asarray(values, dtype=float).take(pts, axis=0), ptr[:-1], axis=0)
    sums = np.add.reduceat(sums.take(unit, axis=0), at[:-1], axis=0)
    return (sums.T / graph.sizes).T
