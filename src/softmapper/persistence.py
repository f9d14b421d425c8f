"""Graph filtration by mean filter values, persistence diagrams and the
total-persistence loss with its subgradient.

Extended persistence is computed as regular persistence of the coned
complex: an apex vertex is added, every graph vertex gets a cone edge and
every graph edge a cone triangle. Ascending-phase simplices are ordered by
increasing filtration value; cone simplices by decreasing value of their
base, where a cone triangle's base value is the min of its edge's endpoint
values (the superlevel sweep). Every diagram coordinate is realized by a
specific node, which is what the subgradient chain traverses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import Clusterer
from .data import PointCloud
from .filters import FilterValues
from .mapper import LinkageEpoch, MapperGraph, map_comp


@dataclass(frozen=True)
class FilteredGraph:
    graph: MapperGraph
    node_values: np.ndarray  # phi per node id
    edge_values: dict[tuple[int, int], float]  # max of endpoint values
    edge_argmax: dict[tuple[int, int], int]  # endpoint realizing the max (tie: smaller id)
    edge_argmin: dict[tuple[int, int], int]  # endpoint realizing the min (tie: smaller id)


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
    fv = filter_values.values
    node_values = np.array([fv[list(nd.members)].mean() for nd in graph.nodes])
    edge_values, argmax, argmin = {}, {}, {}
    for (u, v) in graph.edges:
        # u < v by construction, so ties resolve to the smaller id
        if node_values[v] > node_values[u]:
            argmax[(u, v)], argmin[(u, v)] = v, u
        elif node_values[v] < node_values[u]:
            argmax[(u, v)], argmin[(u, v)] = u, v
        else:
            argmax[(u, v)], argmin[(u, v)] = u, u
        edge_values[(u, v)] = float(node_values[argmax[(u, v)]])
    return FilteredGraph(graph, node_values, edge_values, argmax, argmin)


# Internal simplex tags for the coned reduction.
_APEX, _VERT, _EDGE, _CONE_V, _CONE_E = range(5)


def _reduce(columns: list[set[int]]) -> dict[int, int]:
    """Standard left-to-right Z/2 boundary reduction; returns {birth: death}."""
    pivot: dict[int, int] = {}
    pairs: dict[int, int] = {}
    for j, col in enumerate(columns):
        while col:
            low = max(col)
            if low not in pivot:
                pivot[low] = j
                pairs[low] = j
                break
            col ^= columns[pivot[low]]
        columns[j] = col
    return pairs


def extended_persistence(fg: FilteredGraph) -> Diagram:
    g = fg.graph
    phi = fg.node_values
    if g.n_nodes == 0:
        return Diagram(())
    edges = sorted(g.edges)
    edge_min = {e: float(min(phi[e[0]], phi[e[1]])) for e in edges}

    ascending = [(float(phi[v]), 0, v, (_VERT, v)) for v in range(g.n_nodes)]
    ascending += [(fg.edge_values[e], 1, i, (_EDGE, e)) for i, e in enumerate(edges)]
    ascending.sort(key=lambda t: t[:3])
    descending = [(-float(phi[v]), 0, v, (_CONE_V, v)) for v in range(g.n_nodes)]
    descending += [(-edge_min[e], 1, i, (_CONE_E, e)) for i, e in enumerate(edges)]
    descending.sort(key=lambda t: t[:3])

    simplices = [(_APEX, None)] + [t[3] for t in ascending] + [t[3] for t in descending]
    index = {s: i for i, s in enumerate(simplices)}

    columns = []
    for kind, payload in simplices:
        if kind in (_APEX, _VERT):
            columns.append(set())
        elif kind == _EDGE:
            u, v = payload
            columns.append({index[(_VERT, u)], index[(_VERT, v)]})
        elif kind == _CONE_V:
            columns.append({0, index[(_VERT, payload)]})
        else:
            u, v = payload
            columns.append({index[(_EDGE, payload)], index[(_CONE_V, u)], index[(_CONE_V, v)]})
    pairs = _reduce(columns)

    def coordinate(s):
        kind, payload = s
        if kind == _VERT or kind == _CONE_V:
            return float(phi[payload]), payload
        if kind == _EDGE:
            return fg.edge_values[payload], fg.edge_argmax[payload]
        return edge_min[payload], fg.edge_argmin[payload]

    pts = []
    for birth_idx, death_idx in pairs.items():
        sb, sd = simplices[birth_idx], simplices[death_idx]
        if sb[0] == _APEX:
            continue
        b, bn = coordinate(sb)
        d, dn = coordinate(sd)
        if sb[0] == _VERT and sd[0] == _EDGE:
            cls = "Ord0"
        elif sb[0] == _VERT and sd[0] == _CONE_V:
            cls = "Ext0"
        elif sb[0] == _EDGE and sd[0] == _CONE_E:
            cls = "Ext1"
        else:
            cls = "Rel1"
        if cls in ("Ord0", "Rel1") and b == d:
            continue  # diagonal noise from same-value merges
        pts.append(DiagramPoint(b, d, cls, bn, dn))
    pts.sort(key=lambda p: (p.cls, p.birth, p.death, p.birth_node))
    return Diagram(tuple(pts))


def regular_persistence(fg: FilteredGraph) -> Diagram:
    """Sublevel-set H0 persistence of the graph filtration via union-find.

    Each merge pairs the younger component (larger min value; ties broken
    toward the larger birth node id) with the merging edge's value. One
    essential point per component pairs the component min with the global
    max of the filtration.
    """
    g = fg.graph
    phi = fg.node_values
    if g.n_nodes == 0:
        return Diagram(())
    parent = list(range(g.n_nodes))
    birth: dict[int, tuple[float, int]] = {v: (float(phi[v]), v) for v in range(g.n_nodes)}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    pts = []
    for e in sorted(g.edges, key=lambda e: (fg.edge_values[e], e)):
        ra, rb = find(e[0]), find(e[1])
        if ra == rb:
            continue
        # elder rule: the component with the smaller min survives
        if birth[ra] <= birth[rb]:
            elder, younger = ra, rb
        else:
            elder, younger = rb, ra
        b, bn = birth[younger]
        d = fg.edge_values[e]
        if b != d:
            pts.append(DiagramPoint(b, d, "H0", bn, fg.edge_argmax[e]))
        parent[younger] = elder
        birth[elder] = min(birth[elder], birth[younger])

    gmax = float(phi.max())
    gmax_node = int(phi.argmax())
    for v in range(g.n_nodes):
        if find(v) == v:
            b, bn = birth[v]
            pts.append(DiagramPoint(b, gmax, "H0", bn, gmax_node))
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
    node_grads: dict[int, np.ndarray] = {}

    def node_grad(nid: int) -> np.ndarray:
        if nid not in node_grads:
            members = list(graph.nodes[nid].members)
            node_grads[nid] = fv.jacobian[members].mean(axis=0)
        return node_grads[nid]

    for pt in diagram:
        sign = np.sign(pt.birth - pt.death)
        if sign == 0:
            continue
        grad += sign * node_grad(pt.birth_node)
        if pt.death_node is not None:
            grad -= sign * node_grad(pt.death_node)
    if not np.all(np.isfinite(grad)) or not np.isfinite(loss):
        raise FloatingPointError("non-finite loss or subgradient")
    return loss, grad
