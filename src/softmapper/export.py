"""Serialization of graphs, diagrams and optimization traces."""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .mapper import MapperGraph, MapperNode
from .optimize import Trace
from .persistence import Diagram

# 8-step viridis-like ramp, dark to bright
_RAMP = [
    "#440154", "#46327e", "#365c8d", "#277f8e",
    "#1fa187", "#4ac16d", "#a0da39", "#fde725",
]


def _ramp_color(t: float) -> str:
    idx = min(7, max(0, int(t * 8)))
    return _RAMP[idx]


def export_dot(graph: MapperGraph, colors) -> str:
    """Render the graph as DOT; node fill colors follow the color ramp."""
    colors = np.asarray(colors, dtype=float)
    if colors.shape != (graph.n_nodes,):
        raise ValueError(f"need one color per node, got {colors.shape}")
    if graph.n_nodes == 0:
        return "graph mapper { }\n"
    lo, hi = colors.min(), colors.max()
    span = hi - lo
    out = ["graph mapper {", "  node [style=filled];"]
    for nd in graph.nodes:
        t = (colors[nd.id] - lo) / span if span > 0 else 0.5
        out.append(
            f'  n{nd.id} [label="{nd.id}", tooltip="{len(nd.members)}",'
            f' fillcolor="{_ramp_color(t)}"];'
        )
    for (u, v) in sorted(graph.edges):
        out.append(f"  n{u} -- n{v} [weight={graph.edges[(u, v)]}];")
    out.append("}")
    return "\n".join(out) + "\n"


def graph_to_json(graph: MapperGraph, values=None, colors=None) -> str:
    values = np.zeros(graph.n_nodes) if values is None else np.asarray(values, dtype=float)
    colors = values if colors is None else np.asarray(colors, dtype=float)
    doc = {
        "nodes": [
            {
                "id": nd.id,
                "cover_index": nd.cover_index,
                "members": nd.members,
                "value": float(values[nd.id]),
                "color": float(colors[nd.id]),
            }
            for nd in graph.nodes
        ],
        "edges": [
            {"source": u, "target": v, "weight": w}
            for (u, v), w in sorted(graph.edges.items())
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def graph_from_json(text: str) -> MapperGraph:
    doc = json.loads(text)
    try:
        nodes = tuple(
            MapperNode(nd["id"], nd["cover_index"], tuple(nd["members"]))
            for nd in sorted(doc["nodes"], key=lambda nd: nd["id"])
        )
        edges = {
            (min(e["source"], e["target"]), max(e["source"], e["target"])): e["weight"]
            for e in doc["edges"]
        }
    except KeyError as exc:
        raise ValueError(f"graph document lacks the key {exc}") from None
    except TypeError:
        raise ValueError("a graph document is an object with 'nodes' and 'edges' lists"
                         " of objects") from None
    return MapperGraph(nodes, edges)


def diagram_to_csv(diagram: Diagram) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["class", "birth", "death", "birth_node", "death_node"])
    for pt in diagram:
        w.writerow([pt.cls, repr(pt.birth), repr(pt.death), pt.birth_node,
                    "" if pt.death_node is None else pt.death_node])
    return buf.getvalue()


def trace_to_csv(trace: Trace) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    s = len(trace.thetas[0]) if len(trace) else 0
    w.writerow(["epoch", "risk", "grad_norm"] + [f"theta_{k}" for k in range(s)] + ["seconds"])
    for i in range(len(trace)):
        w.writerow(
            [trace.epochs[i], repr(trace.risks[i]), repr(trace.grad_norms[i])]
            + [repr(float(x)) for x in trace.thetas[i]]
            + [f"{trace.seconds[i]:.6f}"]
        )
    return buf.getvalue()


def learning_curve_svg(trace: Trace, width: int = 640, height: int = 360) -> str:
    """Standalone SVG polyline of estimated risk per epoch, with axes."""
    margin = 40
    xs = np.array(trace.epochs, dtype=float)
    ys = np.array(trace.risks, dtype=float)
    if xs.size == 0:
        return f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"/>\n'
    x0, x1 = xs.min(), max(xs.max(), xs.min() + 1)
    y0, y1 = ys.min(), ys.max()
    if y1 == y0:
        y1 = y0 + 1
    px = margin + (xs - x0) / (x1 - x0) * (width - 2 * margin)
    py = height - margin - (ys - y0) / (y1 - y0) * (height - 2 * margin)
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
