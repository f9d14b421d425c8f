"""Graph filtration by mean filter values, persistence diagrams and the
total-persistence loss with its subgradient.

Both diagram modes come from Kruskal sweeps over one union-find in which
the elder root survives each merge (Cohen-Steiner, Edelsbrunner & Harer,
"Extending persistence using Poincare and Lefschetz duality", 2009). The
ascending sweep adds nodes by (value, id) and edges by (max endpoint value,
edge): its merges are the regular H0 points and the extended Ord0 points,
and each component's min pairs with its first node in the descending order
as an Ext0 point. The descending sweep adds nodes by (-value, id) and edges
by (-min endpoint value, edge): its merges are the Rel1 points. Each edge
that closes a cycle in the descending sweep is an Ext1 death; its cycle,
written as ascending-edge ranks and reduced over Z/2 against the earlier
Ext1 cycles, has as its latest edge the Ext1 birth. These are the pairs of
the coned complex's matrix reduction, so every diagram coordinate is
realized by a specific node, which is what the subgradient chain traverses.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .clustering import Clusterer
from .data import PointCloud
from .filters import FilterValues
from .mapper import LinkageEpoch, MapperGraph, map_comp, node_means


@dataclass(frozen=True)
class FilteredGraph:
    graph: MapperGraph
    node_values: np.ndarray  # phi per node id; an edge's values are its endpoints' (see _ends)


@dataclass(frozen=True)
class DiagramPoint:
    birth: float
    death: float
    cls: str  # Ord0 | Ext0 | Ext1 | Rel1 | H0
    birth_node: int
    death_node: int | None


@dataclass(frozen=True)
class Diagram:
    points: tuple[DiagramPoint, ...]

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def by_class(self, cls: str) -> list[DiagramPoint]:
        return [pt for pt in self.points if pt.cls == cls]


def map_pers_filtration(graph: MapperGraph, filter_values: FilterValues) -> FilteredGraph:
    """Node value = mean filter value over members; edge value = max endpoint."""
    return FilteredGraph(graph, node_means(graph, filter_values.values))


def _ends(phi: list, e: tuple[int, int]) -> tuple[int, int]:
    """The endpoints of the edge e = (u, v), u < v, that realize its max and
    its min value; a tie goes to the smaller id."""
    u, v = e
    return (v, u) if phi[v] > phi[u] else (u, v) if phi[v] < phi[u] else (u, u)


def _kruskal(key: list, edges: list) -> tuple[list, Callable[[int], int]]:
    """Add ``edges`` in order to a union-find over the nodes of ``key``; at
    each merge the root with the smaller key survives (the elder rule).

    Returns the younger root each edge retires (None for an edge that closes
    a cycle) and the final ``find``.
    """
    parent = list(range(len(key)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    retired = []
    for u, v in edges:
        elder, younger = find(u), find(v)
        if elder == younger:
            retired.append(None)
            continue
        if key[younger] < key[elder]:
            elder, younger = younger, elder
        parent[younger] = elder
        retired.append(younger)
    return retired, find


def _ascending(fg: FilteredGraph, cls: str) -> tuple[list, list, Callable[[int], int]]:
    """The sublevel sweep: one ``cls`` point per merge off the diagonal, the
    edges in sweep order, and the final ``find``, whose roots are their
    components' minima."""
    phi = fg.node_values.tolist()
    edges = sorted(fg.graph.edges, key=lambda e: (phi[_ends(phi, e)[0]], e))
    retired, find = _kruskal([(x, v) for v, x in enumerate(phi)], edges)
    pts = [DiagramPoint(phi[r], phi[top], cls, r, top) for e, r in zip(edges, retired)
           if r is not None and phi[r] != phi[top := _ends(phi, e)[0]]]
    return pts, edges, find


def _forest(n: int, links: list) -> tuple[list, list, list]:
    """Root every tree of the forest given as ((u, v), label) links; returns
    each node's parent (a root is its own), the label of the link to it and
    its depth."""
    adj = [[] for _ in range(n)]
    for (u, v), label in links:
        adj[u].append((v, label))
        adj[v].append((u, label))
    parent, label_up, depth = [None] * n, [None] * n, [0] * n
    for root in range(n):
        if parent[root] is None:
            parent[root], stack = root, [root]
            while stack:
                a = stack.pop()
                for b, label in adj[a]:
                    if parent[b] is None:
                        parent[b], label_up[b], depth[b] = a, label, depth[a] + 1
                        stack.append(b)
    return parent, label_up, depth


def extended_persistence(fg: FilteredGraph) -> Diagram:
    phi = fg.node_values.tolist()
    pts, up, find = _ascending(fg, "Ord0")
    # Ext0: each component's min against its first node in the descending order
    roots = {}
    for v in sorted(range(len(phi)), key=lambda v: (-phi[v], v)):
        roots.setdefault(find(v), v)
    pts += [DiagramPoint(phi[r], phi[v], "Ext0", r, v) for r, v in roots.items()]

    down = sorted(up, key=lambda e: (-phi[_ends(phi, e)[1]], e))
    retired, _ = _kruskal([(-x, v) for v, x in enumerate(phi)], down)
    rank = {e: i for i, e in enumerate(up)}
    parent, rank_up, depth = _forest(
        len(phi), [(e, rank[e]) for e, r in zip(down, retired) if r is not None])
    cycles: dict[int, set[int]] = {}  # Ext1 cycles, reduced, by their latest ascending edge
    for e, r in zip(down, retired):
        bottom = _ends(phi, e)[1]
        if r is not None:
            if phi[r] != phi[bottom]:
                pts.append(DiagramPoint(phi[r], phi[bottom], "Rel1", r, bottom))
            continue
        # the cycle e closes in the descending forest, as ascending-edge ranks
        cycle, (u, v) = {rank[e]}, e
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            cycle.add(rank_up[u])
            u = parent[u]
        while (low := max(cycle)) in cycles:
            cycle ^= cycles[low]
        cycles[low] = cycle
        top = _ends(phi, up[low])[0]
        pts.append(DiagramPoint(phi[top], phi[bottom], "Ext1", top, bottom))
    pts.sort(key=lambda p: (p.cls, p.birth, p.death, p.birth_node))
    return Diagram(tuple(pts))


def regular_persistence(fg: FilteredGraph) -> Diagram:
    """Sublevel-set H0 persistence: the merges of the sublevel sweep, plus
    one essential point per component pairing its min with the global max
    of the filtration."""
    phi = fg.node_values
    if phi.size == 0:
        return Diagram(())
    pts, _, find = _ascending(fg, "H0")
    gmax, gmax_node = float(phi.max()), int(phi.argmax())
    pts += [DiagramPoint(float(phi[v]), gmax, "H0", v, gmax_node)
            for v in range(phi.size) if find(v) == v]
    pts.sort(key=lambda p: (p.birth, p.death, p.birth_node))
    return Diagram(tuple(pts))


def total_persistence(diagram: Diagram) -> float:
    return float(sum(abs(pt.birth - pt.death) for pt in diagram))


def loss_and_subgradient(
    cloud: PointCloud,
    e: np.ndarray,
    filter_family,
    theta: np.ndarray,
    clusterer: Clusterer,
    mode: str = "extended",
    epoch: LinkageEpoch | None = None,
) -> tuple[float, np.ndarray]:
    """Total persistence of the Mapper graph of e under f_theta, and one
    subgradient element w.r.t. theta.

    The graph depends only on (cloud, e, clusterer), so the chain rule runs
    through node means and the recorded realizing endpoints: each diagram
    point contributes sign(birth - death) * (grad birth - grad death), with
    sign(0) = 0; the gradient of a node value averages the Jacobian rows of
    its members. ``epoch`` is the reusable Mapper of the scheme e was drawn
    from (see ``map_comp``).
    """
    if mode not in ("regular", "extended"):
        raise ValueError(f"mode must be 'regular' or 'extended', got {mode!r}")
    fv = filter_family.evaluate(cloud, theta)
    graph = map_comp(cloud, e, clusterer, epoch)
    fg = map_pers_filtration(graph, fv)
    diagram = extended_persistence(fg) if mode == "extended" else regular_persistence(fg)
    loss = total_persistence(diagram)

    s = fv.n_params
    grad = np.zeros(s)
    if s == 0:
        return loss, grad
    node_grad = node_means(graph, fv.jacobian)
    for pt in diagram:
        sign = np.sign(pt.birth - pt.death)
        if sign == 0:
            continue
        grad += sign * node_grad[pt.birth_node]
        if pt.death_node is not None:
            grad -= sign * node_grad[pt.death_node]
    if not np.all(np.isfinite(grad)) or not np.isfinite(loss):
        raise FloatingPointError("non-finite loss or subgradient")
    return loss, grad
