"""Serialization of graphs, diagrams and optimization traces."""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .mapper import MapperGraph, _nerve
from .optimize import Trace

# 8-step viridis-like ramp, dark to bright
_RAMP = [
    "#440154", "#46327e", "#365c8d", "#277f8e",
    "#1fa187", "#4ac16d", "#a0da39", "#fde725",
]

_MAX_INDEX = np.iinfo(np.intp).max


def export_dot(graph: MapperGraph, colors) -> str:
    """Render the graph as DOT; node fill colors follow the color ramp.

    Non-finite colors and colors spanning an infinite range raise
    ValueError; equal colors fill every node with the middle of the ramp.
    """
    colors = np.asarray(colors, dtype=float)
    if colors.shape != (graph.n_nodes,):
        raise ValueError(f"need one color per node, got {colors.shape}")
    if graph.n_nodes == 0:
        return "graph mapper { }\n"
    bad = np.flatnonzero(~np.isfinite(colors))
    if bad.size:
        raise ValueError(f"node {bad[0]} has the non-finite color {colors[bad[0]]}")
    lo, hi = float(colors.min()), float(colors.max())
    span = hi - lo
    if span == np.inf:
        raise ValueError("node colors span an infinite range")
    # ramp step min(7, int(8 t)) at t = (color - lo) / span in [0, 1], or t = 1/2
    steps = (np.minimum((colors - lo) / span * 8, 7).astype(np.intp).tolist() if span > 0
             else [4] * graph.n_nodes)
    out = ["graph mapper {", "  node [style=filled];"]
    out += [f'  n{k} [label="{k}", tooltip="{size}", fillcolor="{_RAMP[step]}"];'
            for k, (size, step) in enumerate(zip(graph.sizes.tolist(), steps))]
    out += [f"  n{u} -- n{v} [weight={w}];" for u, v, w in zip(*graph.links.tolist())]
    out.append("}")
    return "\n".join(out) + "\n"


def _tokens(xs: list) -> list[str]:
    """Each number of ``xs`` as ``json.dumps`` writes it."""
    return json.dumps(xs)[1:-1].split(", ") if xs else []


def graph_to_json(graph: MapperGraph, values=None) -> str:
    """The graph as one line of JSON, written as ``json.dumps(doc, sort_keys=True)``
    writes it; each node's "value" and "color" are its entry of ``values``
    (zeros when left out)."""
    values = np.zeros(graph.n_nodes) if values is None else np.asarray(values, dtype=float)
    if values.shape != (graph.n_nodes,):
        raise ValueError(f"need one value per node, got {values.shape}")
    members, bounds = _tokens(graph.members.tolist()), graph.indptr.tolist()
    nodes = ", ".join(
        f'{{"color": {x}, "cover_index": {j}, "id": {k}, "members":'
        f' [{", ".join(members[bounds[k]:bounds[k + 1]])}], "value": {x}}}'
        for k, (j, x) in enumerate(zip(graph.cover.tolist(), _tokens(values.tolist()))))
    edges = ", ".join(f'{{"source": {u}, "target": {v}, "weight": {w}}}'
                      for u, v, w in zip(*graph.links.tolist()))
    return f'{{"edges": [{edges}], "nodes": [{nodes}]}}\n'


def _is_index(x) -> bool:
    return type(x) is int and 0 <= x <= _MAX_INDEX


def _is_members(x) -> bool:
    return (isinstance(x, list) and x != [] and all(map(_is_index, x))
            and all(a < b for a, b in zip(x, x[1:])))


def graph_from_json(text: str) -> MapperGraph:
    """The graph of a document written by ``graph_to_json``.

    Raises ValueError unless the node ids are the ints 0, 1, ..., K - 1, each
    node's cover index is an int from 0 up to the largest np.intp and its
    members a nonempty, strictly increasing list of them, and the edges, with
    int endpoints and weights, are the nerve of the members: one per node
    pair sharing points, weighted by the shared count.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("graph document is nested too deeply") from None
    try:
        if type(doc["nodes"]) is not list or type(doc["edges"]) is not list:
            raise TypeError  # reported below
        nodes = sorted(doc["nodes"], key=lambda nd: nd["id"])
        if ([nd["id"] for nd in nodes] != list(range(len(nodes)))
                or not all(type(nd["id"]) is int for nd in nodes)):
            raise ValueError("node ids must be the ints 0, 1, ..., K - 1")
        if not all(_is_index(nd["cover_index"]) and _is_members(nd["members"]) for nd in nodes):
            raise ValueError(f"node cover indices must be ints in [0, {_MAX_INDEX}], and"
                             " members nonempty, strictly increasing lists of them")
        edges = [(e["source"], e["target"], e["weight"]) for e in doc["edges"]]
    except KeyError as exc:
        raise ValueError(f"graph document lacks the key {exc}") from None
    except TypeError:
        raise ValueError("a graph document is an object with 'nodes' and 'edges' lists"
                         " of objects") from None
    if not all(type(x) is int for edge in edges for x in edge):
        raise ValueError("edge endpoints and weights must be ints")
    sizes = [len(nd["members"]) for nd in nodes]
    indptr = np.cumsum([0, *sizes])
    members = np.array([i for nd in nodes for i in nd["members"]], dtype=np.intp)
    cover = np.array([nd["cover_index"] for nd in nodes], dtype=np.intp)
    order = np.argsort(members, kind="stable")  # memberships by (point, node)
    col = np.repeat(np.arange(len(nodes)), sizes)
    links = np.stack(_nerve(members[order], col[order], len(nodes)))
    if sorted((min(u, v), max(u, v), w) for u, v, w in edges) != list(zip(*links.tolist())):
        raise ValueError("edges must join exactly the node pairs that share points, once"
                         " each, weighted by the shared count")
    return MapperGraph(indptr, members, cover, links)


def diagram_to_csv(diagram) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["class", "birth", "death", "birth_node", "death_node"])
    for pt in diagram:
        w.writerow([pt.cls, repr(pt.birth), repr(pt.death), pt.birth_node, pt.death_node])
    return buf.getvalue()


def trace_to_csv(trace: Trace) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    s = len(trace.thetas[0]) if len(trace) else 0
    w.writerow(["epoch", "risk", "risk_se", "grad_norm"] + [f"theta_{k}" for k in range(s)]
               + ["seconds"])
    for i in range(len(trace)):
        w.writerow(
            [i, repr(trace.risks[i]), repr(trace.risk_ses[i]), repr(trace.grad_norms[i])]
            + [repr(float(x)) for x in trace.thetas[i]]
            + [f"{trace.seconds[i]:.6f}"]
        )
    return buf.getvalue()


def learning_curve_svg(trace: Trace) -> str:
    """Standalone SVG polyline of estimated risk per epoch, with axes."""
    width, height, margin = 640, 360, 40
    xs = np.arange(len(trace), dtype=float)
    ys = np.array(trace.risks, dtype=float)
    if xs.size == 0:
        return f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"/>\n'
    x0, x1 = xs.min(), max(xs.max(), xs.min() + 1)
    y0, y1 = ys.min(), ys.max()
    if y1 == y0:
        y1 = y0 + 1
    px = margin + (xs - x0) / (x1 - x0) * (width - 2 * margin)
    # y1 - y0 is still 0 when |y0| >= 2**53
    py = height - margin - (ys - y0) / ((y1 - y0) or 1.0) * (height - 2 * margin)
    pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(px, py))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'  <line x1="{margin}" y1="{height - margin}" x2="{width - margin}"'
        f' y2="{height - margin}" stroke="black"/>\n'
        f'  <line x1="{margin}" y1="{margin}" x2="{margin}"'
        f' y2="{height - margin}" stroke="black"/>\n'
        f'  <text x="{width // 2}" y="{height - 8}" font-size="12">epoch</text>\n'
        f'  <text x="8" y="{height // 2}" font-size="12" transform="rotate(-90 14 {height // 2})">'
        f'estimated risk</text>\n'
        f'  <text x="{margin}" y="{margin - 6}" font-size="10">{y1:.4g}</text>\n'
        f'  <text x="{margin}" y="{height - margin + 14}" font-size="10">{y0:.4g}</text>\n'
        f'  <polyline fill="none" stroke="#277f8e" stroke-width="1.5" points="{pts}"/>\n'
        f"</svg>\n"
    )
