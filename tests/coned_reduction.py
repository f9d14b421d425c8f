"""The matrix-reduction persistence that ``softmapper.persistence`` replaced,
kept as an oracle for its sweeps.

Extended persistence is computed as regular persistence of the coned
complex: an apex vertex is added, every graph vertex gets a cone edge and
every graph edge a cone triangle. Ascending-phase simplices are ordered by
increasing filtration value; cone simplices by decreasing value of their
base, where a cone triangle's base value is the min of its edge's endpoint
values (the superlevel sweep). Regular persistence is a union-find over the
ascending edges.
"""

from softmapper.persistence import Diagram, DiagramPoint

# Internal simplex tags for the coned reduction.
_APEX, _VERT, _EDGE, _CONE_V, _CONE_E = range(5)


def _edge_extremes(phi, edges):
    """Each edge's value (the max of its endpoints' values) and the endpoints
    realizing its max and its min; edges are (u, v) with u < v, and a tie
    goes to the smaller id."""
    value, argmax, argmin = {}, {}, {}
    for u, v in edges:
        argmax[(u, v)] = v if phi[v] > phi[u] else u
        argmin[(u, v)] = v if phi[v] < phi[u] else u
        value[(u, v)] = float(phi[argmax[(u, v)]])
    return value, argmax, argmin


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


def extended_persistence(fg) -> Diagram:
    g = fg.graph
    phi = fg.node_values
    if g.n_nodes == 0:
        return Diagram(())
    edges = sorted(g.edges)
    edge_values, edge_argmax, edge_argmin = _edge_extremes(phi, edges)
    edge_min = {e: float(min(phi[e[0]], phi[e[1]])) for e in edges}

    ascending = [(float(phi[v]), 0, v, (_VERT, v)) for v in range(g.n_nodes)]
    ascending += [(edge_values[e], 1, i, (_EDGE, e)) for i, e in enumerate(edges)]
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
            return edge_values[payload], edge_argmax[payload]
        return edge_min[payload], edge_argmin[payload]

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


def regular_persistence(fg) -> Diagram:
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
    edge_values, edge_argmax, _ = _edge_extremes(phi, g.edges)
    parent = list(range(g.n_nodes))
    birth: dict[int, tuple[float, int]] = {v: (float(phi[v]), v) for v in range(g.n_nodes)}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    pts = []
    for e in sorted(g.edges, key=lambda e: (edge_values[e], e)):
        ra, rb = find(e[0]), find(e[1])
        if ra == rb:
            continue
        # elder rule: the component with the smaller min survives
        if birth[ra] <= birth[rb]:
            elder, younger = ra, rb
        else:
            elder, younger = rb, ra
        b, bn = birth[younger]
        d = edge_values[e]
        if b != d:
            pts.append(DiagramPoint(b, d, "H0", bn, edge_argmax[e]))
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
