"""Graph filtration by mean filter values, persistence diagrams and the
total-persistence loss with its subgradient.

Both diagram modes come from Kruskal sweeps over one union-find in which
the elder root survives each merge (Cohen-Steiner, Edelsbrunner & Harer,
"Extending persistence using Poincare and Lefschetz duality", 2009). The
ascending sweep adds nodes by (value, id) and edges by (max endpoint value,
u, v): its merges are the regular H0 points and the extended Ord0 points,
and its roots are the components' minima. The descending sweep adds nodes
by (-value, id) and edges by (-min endpoint value, u, v): its merges are
the Rel1 points, and its roots are the components' maxima (ties to the
smaller id). Each component's two roots form its Ext0 point. Each edge
that closes a cycle in the descending sweep is an Ext1 death. Its cycle
comes out of that sweep's union-find, which labels each edge with the bit
of its ascending rank and keeps each node's xor of labels up to its root,
as an int bit set; reduced over Z/2 against the earlier Ext1 cycles, its
highest bit is the latest edge, the Ext1 birth. These are the pairs of
the coned complex's matrix reduction, so every diagram coordinate is
realized by a specific node, which is what the subgradient chain traverses.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .clustering import Clusterer
from .cover import AssignmentScheme, MarginDraws
from .data import PointCloud
from .filters import FilterValues
from .mapper import LinkageEpoch, MapperGraph, map_comp, node_means


@dataclass(frozen=True)
class FilteredGraph:
    graph: MapperGraph
    node_values: np.ndarray  # phi per node id; an edge's values are its endpoints' (see _sweep)


@dataclass(frozen=True)
class DiagramPoint:
    birth: float
    death: float
    cls: str  # Ord0 | Ext0 | Ext1 | Rel1 | H0
    birth_node: int
    death_node: int


def map_pers_filtration(graph: MapperGraph, filter_values: FilterValues) -> FilteredGraph:
    """Node value = mean filter value over members (``node_means``, unit by
    unit); edge value = max endpoint."""
    return FilteredGraph(graph, node_means(graph, filter_values.values))


def _kruskal(key: list, edges: Iterable, labels: list) -> tuple[list, list, Callable[[int], int]]:
    """Add ``edges`` in order to a union-find over the nodes of ``key``; at
    each merge the root with the smaller key survives (the elder rule).
    A root's path xor is 0, so a root needs no ``find``.

    Each node also holds the xor of the int ``labels`` of the forest edges
    between it and its parent, which ``find`` keeps as it compresses paths,
    so an edge that closes a cycle gives the xor of the labels around the
    cycle: with one bit per label, the cycle's edge set.

    Returns the younger root each edge retires (None for an edge that closes
    a cycle), the closed cycles in order, and the final ``find``.
    """
    parent = list(range(len(key)))
    path = [0] * len(key)

    def find(a):
        # afterwards a hangs from its root, and path[a] is the xor up to it
        if parent[p := parent[a]] == p:
            return p
        chain = [a]
        while parent[p] != p:
            chain.append(p)
            p = parent[p]
        acc = 0
        for b in reversed(chain):
            acc ^= path[b]
            path[b], parent[b] = acc, p
        return p

    retired, cycles = [], []
    for (u, v), label in zip(edges, labels):
        elder = u if parent[u] == u else find(u)
        younger = v if parent[v] == v else find(v)
        # the xor from one root down to u, across the edge and up from v to the
        # other: the cycle if the roots are one, else the label of their link
        x = label ^ path[u] ^ path[v]
        if elder == younger:
            retired.append(None)
            cycles.append(x)
            continue
        if key[younger] < key[elder]:
            elder, younger = younger, elder
        parent[younger], path[younger] = elder, x
        retired.append(younger)
    return retired, cycles, find


def _sweep(fg: FilteredGraph, sign: float, rank: np.ndarray | None = None) -> tuple:
    """The ascending (sign 1) or descending (sign -1) Kruskal sweep: nodes by
    (sign * value, id), edges by (sign * value, u, v) of the endpoint realizing
    their max, or with sign -1 their min (ties to u, the smaller id). Returns
    the edge order, those endpoints in that order and ``_kruskal``'s results,
    each edge labelled by the bit of its ``rank`` entry, if given. Each
    node's elder key is its place in (sign * value, id) order, an int; with
    no NaN value (see ``_ascending``) the ints order as the pairs do."""
    phi, (u, v, _) = sign * fg.node_values, fg.graph.links
    end = np.where(phi[v] > phi[u], v, u)
    order = np.lexsort((v, u, phi[end]))
    labels = [0] * order.size if rank is None else [1 << i for i in rank[order].tolist()]
    key = np.empty(phi.size, dtype=np.intp)
    key[np.argsort(phi, kind="stable")] = np.arange(phi.size)
    return order, end[order].tolist(), *_kruskal(key.tolist(),
                                                 zip(u[order].tolist(), v[order].tolist()), labels)


def _ascending(fg: FilteredGraph, cls: str) -> tuple[list, np.ndarray, list, Callable]:
    """The sublevel sweep: one ``cls`` point per merge off the diagonal, the
    edge order and each edge's top endpoint in that order (see ``_sweep``),
    and the final ``find``, whose roots are their components' minima. A NaN
    node value, which orders against nothing, raises ValueError."""
    if (nan := np.flatnonzero(np.isnan(fg.node_values))).size:
        raise ValueError(f"node {nan[0]} has a NaN value")
    phi = fg.node_values.tolist()
    up, top, retired, _, find = _sweep(fg, 1.0)
    pts = [DiagramPoint(phi[r], phi[t], cls, r, t) for t, r in zip(top, retired)
           if r is not None and phi[r] != phi[t]]
    return pts, up, top, find


def _draw_of(graph: MapperGraph) -> np.ndarray:
    """The draw of each node of a graph holding one or more draws."""
    return np.repeat(np.arange(graph.draws.size - 1), np.diff(graph.draws))


def extended_persistence(fg: FilteredGraph) -> tuple[DiagramPoint, ...]:
    """The Ord0, Ext0, Rel1 and Ext1 points of the graph's diagram, sorted
    by (class, birth, death, birth node); for a graph of several draws, each
    draw's diagram in turn, as each draw's own graph gives it."""
    phi = fg.node_values.tolist()
    pts, up, top, find = _ascending(fg, "Ord0")
    # each edge's place in the ascending sweep labels it in the descending one
    _, bottom, retired, cycles, find_down = _sweep(fg, -1.0, np.argsort(up))
    # Ext0: each component's min, its ascending root, against its max, its descending root
    pts += [DiagramPoint(phi[r], phi[peak := find_down(r)], "Ext0", r, peak)
            for r in range(len(phi)) if find(r) == r]
    pts += [DiagramPoint(phi[r], phi[b], "Rel1", r, b) for b, r in zip(bottom, retired)
            if r is not None and phi[r] != phi[b]]
    # Ext1: each closed cycle, a bit set of ascending ranks, reduced over Z/2
    # against the earlier ones; its latest edge is the birth. Two draws share
    # no edge, so a cycle only ever meets cycles of its own draw
    reduced = {}
    for b, cycle in zip([b for b, r in zip(bottom, retired) if r is None], cycles):
        while (low := cycle.bit_length() - 1) in reduced:
            cycle ^= reduced[low]
        if low < 0:  # a graph's closed cycles are independent: only a broken sweep gets here
            raise RuntimeError(f"the Ext1 cycle closed at node {b} reduced to zero")
        reduced[low] = cycle
        pts.append(DiagramPoint(phi[top[low]], phi[b], "Ext1", top[low], b))
    draw = _draw_of(fg.graph).tolist()
    pts.sort(key=lambda p: (draw[p.birth_node], p.cls, p.birth, p.death, p.birth_node))
    return tuple(pts)


def _tops(values: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Per node, the node ``np.argmax`` picks in its draw's values: the
    first largest, or the first NaN if the draw holds one."""
    lo = draws[:-1][np.diff(draws) > 0]  # the nonempty draws' first nodes
    size = np.diff(np.append(lo, values.size))
    top = np.repeat(np.maximum.reduceat(values, lo), size)  # NaN if the draw holds one
    at = np.where((values == top) | np.isnan(values), np.arange(values.size), values.size)
    return np.repeat(np.minimum.reduceat(at, lo), size)


def regular_persistence(fg: FilteredGraph) -> tuple[DiagramPoint, ...]:
    """Sublevel-set H0 persistence: the merges of the sublevel sweep, plus
    one essential point per component pairing its min with the global max
    of the filtration, sorted by (birth, death, birth node); for a graph of
    several draws, each draw's diagram in turn, each pairing with its own
    draw's maximum."""
    phi = fg.node_values.tolist()
    pts, _, _, find = _ascending(fg, "H0")
    top = _tops(fg.node_values, fg.graph.draws).tolist()
    pts += [DiagramPoint(phi[v], phi[top[v]], "H0", v, top[v])
            for v in range(len(phi)) if find(v) == v]
    draw = _draw_of(fg.graph).tolist()
    pts.sort(key=lambda p: (draw[p.birth_node], p.birth, p.death, p.birth_node))
    return tuple(pts)


def total_persistence(diagram: tuple[DiagramPoint, ...]) -> float:
    return float(sum(abs(pt.birth - pt.death) for pt in diagram))


@contextmanager
def raising(message: str):
    """Within the block, a numpy overflow or invalid operation raises
    FloatingPointError(message) instead of warning."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError:
            raise FloatingPointError(message) from None


def loss_and_subgradient(
    cloud: PointCloud,
    e: np.ndarray,
    filter_family,
    theta: np.ndarray,
    clusterer: Clusterer,
    mode: str = "extended",
    epoch: LinkageEpoch | None = None,
    *,
    fv: FilterValues | None = None,
) -> tuple:
    """Total persistence of the Mapper graph of e under f_theta, and one
    subgradient element w.r.t. theta; for a stack e of M draws (M x n x r,
    or a ``MarginDraws``), the M losses and the M x p subgradients. e may
    also be an ``AssignmentScheme`` with no margin entries, which is its own
    one draw (see ``map_comp``).

    The graph depends only on (cloud, e, clusterer), so the chain rule runs
    through node means and the recorded realizing endpoints: each diagram
    point contributes sign(birth - death) * (grad birth - grad death), with
    sign(0) = 0; the gradient of a node value averages the Jacobian rows of
    its members, summed unit by unit as its value is (see ``node_means``).
    ``epoch`` is the reusable Mapper of the scheme e was drawn from (see
    ``map_comp``). ``fv`` is ``filter_family.evaluate(cloud, theta)`` when
    the caller holds it already, as an epoch's draws share it; without it
    the filter is evaluated here. An ``fv`` whose length is not the cloud's
    point count raises ValueError.

    A stack goes through one ``map_comp`` call, one filtration and one
    diagram of the union of its draws' graphs. Each draw's loss sums its own
    diagram's points in order and its subgradient adds their terms in order,
    so every draw gets, bit for bit, what a call on it alone gives. An
    overflow or a non-finite result raises FloatingPointError.
    """
    if mode not in ("regular", "extended"):
        raise ValueError(f"mode must be 'regular' or 'extended', got {mode!r}")
    if fv is None:
        fv = filter_family.evaluate(cloud, theta)
    elif fv.values.shape[0] != cloud.n:
        raise ValueError(f"fv must hold one value per point ({cloud.n}),"
                         f" got {fv.values.shape[0]}")
    if not isinstance(e, (AssignmentScheme, MarginDraws)):
        e = np.asarray(e)
    graph = map_comp(cloud, e, clusterer, epoch)
    with raising("non-finite loss or subgradient"):
        fg = map_pers_filtration(graph, fv)
        diagram = extended_persistence(fg) if mode == "extended" else regular_persistence(fg)
        birth, death = np.array([(p.birth, p.death) for p in diagram],
                                dtype=float).reshape(-1, 2).T
        nodes = np.array([(p.birth_node, p.death_node) for p in diagram],
                         dtype=np.intp).reshape(-1, 2)
        draw = _draw_of(graph)[nodes[:, 0]]
        n_draws = graph.draws.size - 1
        span = birth - death
        losses = np.bincount(draw, np.abs(span), n_draws)  # in diagram order
        grads = np.zeros((n_draws, fv.n_params))
        if fv.n_params:
            # each point off the diagonal adds sign * (grad birth) and then
            # -sign * (grad death) to its draw's subgradient, one at a time
            sign = np.sign(span)
            at = np.flatnonzero(sign)  # NaN counts as off the diagonal
            coef = np.stack([sign[at], -sign[at]], axis=1).reshape(-1, 1)
            np.add.at(grads, draw[at].repeat(2),
                      coef * node_means(graph, fv.jacobian)[nodes[at].ravel()])
    if not (np.all(np.isfinite(losses)) and np.all(np.isfinite(grads))):
        raise FloatingPointError("non-finite loss or subgradient")
    if isinstance(e, MarginDraws) or len(e.shape) == 3:
        return losses, grads
    return float(losses[0]), grads[0]
