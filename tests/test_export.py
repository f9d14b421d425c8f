import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import graph_of, make_filtered_graph
from softmapper.export import (
    diagram_to_csv,
    export_dot,
    graph_from_json,
    graph_to_json,
    learning_curve_svg,
    trace_to_csv,
)
from softmapper.optimize import Trace
from softmapper.persistence import extended_persistence


def _two_node_graph():
    return graph_of([(0, 1), (1, 2)], [1, 2], {(0, 1): 1})


def test_dot_empty():
    assert export_dot(graph_of([]), []) == "graph mapper { }\n"


def test_dot_two_nodes_one_edge():
    dot = export_dot(_two_node_graph(), [0.0, 1.0])
    assert dot.startswith("graph mapper {")
    assert dot.count("--") == 1
    assert "n0 -- n1 [weight=1];" in dot
    assert 'n0 [label="0", tooltip="2"' in dot
    # extreme colors hit the ends of the ramp
    assert "#440154" in dot and "#fde725" in dot


@pytest.mark.parametrize("color", [2.0, -0.0, 5e-324, -1e308])
def test_dot_constant_colors_use_middle_ramp(color):
    assert export_dot(_two_node_graph(), [color, color]).count("#1fa187") == 2
    assert export_dot(graph_of([(0,)]), [color]).count("#1fa187") == 1


@pytest.mark.parametrize("colors, match", [
    ([0.0, math.inf], "node 1 has the non-finite color inf"),
    ([-math.inf, 1.0], "node 0 has the non-finite color -inf"),
    ([0.0, math.nan], "node 1 has the non-finite color nan"),
    ([math.nan, math.nan], "node 0 "),
    ([math.inf, math.inf], "node 0 "),
    ([-math.inf, -math.inf], "node 0 "),
    ([-1e308, 1e308], "infinite range"),
    ([0.0, 1.0, 2.0], "one color per node"),
])
def test_dot_rejects_colors_off_the_ramp(colors, match):
    with pytest.raises(ValueError, match=match):
        export_dot(_two_node_graph(), colors)


def test_json_round_trip():
    g = _two_node_graph()
    text = graph_to_json(g, values=[0.5, 1.5])
    assert text.count("\n") == 1 and text.endswith("\n")  # one compact line
    back = graph_from_json(text)
    assert back == g
    assert back.edges == g.edges


@pytest.mark.parametrize("values", [[0.5], [0.5, 1.5, 2.5], [[0.5, 1.5]]])
def test_json_needs_one_value_per_node(values):
    with pytest.raises(ValueError, match="one value per node"):
        graph_to_json(_two_node_graph(), values)


def test_json_round_trip_empty():
    assert graph_from_json(graph_to_json(graph_of([]))) == graph_of([])


def test_diagram_csv():
    d = extended_persistence(
        make_filtered_graph([0, 1, 2, 1], [(0, 1), (1, 2), (2, 3), (0, 3)])
    )
    rows = list(csv.reader(io.StringIO(diagram_to_csv(d))))
    assert rows[0] == ["class", "birth", "death", "birth_node", "death_node"]
    body = {(r[0], float(r[1]), float(r[2])) for r in rows[1:]}
    assert body == {("Ext0", 0.0, 2.0), ("Ext1", 2.0, 0.0)}


def test_trace_csv_round_trip_exact_floats():
    tr = Trace()
    tr.append(np.array([0.1, 1 / 3]), 2.5, 0.125, 0.7, 0.01)
    tr.append(np.array([0.2, 2 / 3]), 2.25, 0.1, 0.6, 0.01)
    rows = list(csv.reader(io.StringIO(trace_to_csv(tr))))
    assert rows[0] == ["epoch", "risk", "risk_se", "grad_norm", "theta_0", "theta_1", "seconds"]
    assert len(rows) == 3
    assert [r[0] for r in rows[1:]] == ["0", "1"]
    # repr round-trips doubles exactly
    assert float(rows[1][4]) == 0.1
    assert float(rows[1][5]) == 1 / 3
    assert float(rows[2][1]) == 2.25
    assert float(rows[2][2]) == 0.1


def test_trace_csv_empty():
    rows = list(csv.reader(io.StringIO(trace_to_csv(Trace()))))
    assert rows == [["epoch", "risk", "risk_se", "grad_norm", "seconds"]]


def test_learning_curve_svg():
    tr = Trace()
    for i in range(5):
        tr.append(np.array([0.0]), 5.0 - i, 0.0, 1.0, 0.0)
    svg = learning_curve_svg(tr)
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="640" height="360">')
    assert "polyline" in svg
    assert "epoch" in svg
    # at |risk| >= 2**53, risk + 1 == risk: a flat curve still gets finite points
    flat = Trace()
    flat.append(np.array([0.0]), 1e200, 0.0, 1.0, 0.0)
    svg = learning_curve_svg(flat)
    assert "nan" not in svg
    assert 'points="40.0,320.0"' in svg
    empty = learning_curve_svg(Trace())
    assert empty.startswith("<svg") and empty.rstrip().endswith("/>")


_ORACLE_RAMP = ["#440154", "#46327e", "#365c8d", "#277f8e",
                "#1fa187", "#4ac16d", "#a0da39", "#fde725"]


def _oracle_json(graph, values=None):
    """graph_to_json written as one dict per node and edge, dumped by json."""
    values = np.zeros(graph.n_nodes) if values is None else np.asarray(values, dtype=float)
    values, members, bounds = values.tolist(), graph.members.tolist(), graph.indptr.tolist()
    doc = {
        "nodes": [
            {"id": k, "cover_index": j, "members": members[bounds[k]:bounds[k + 1]],
             "value": values[k], "color": values[k]}
            for k, j in enumerate(graph.cover.tolist())
        ],
        "edges": [{"source": u, "target": v, "weight": w}
                  for (u, v), w in sorted(graph.edges.items())],
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def _oracle_dot(graph, colors):
    """export_dot written node by node in numpy-scalar arithmetic."""
    colors = np.asarray(colors, dtype=float)
    if graph.n_nodes == 0:
        return "graph mapper { }\n"
    if not all(math.isfinite(c) for c in colors.tolist()):
        raise ValueError("non-finite color")
    lo, hi = colors.min(), colors.max()
    span = hi - lo
    out = ["graph mapper {", "  node [style=filled];"]
    for k, size in enumerate(np.diff(graph.indptr).tolist()):
        t = (colors[k] - lo) / span if span > 0 else 0.5
        color = _ORACLE_RAMP[min(7, max(0, int(t * 8)))]  # int(nan) raises ValueError
        out.append(f'  n{k} [label="{k}", tooltip="{size}", fillcolor="{color}"];')
    for (u, v) in sorted(graph.edges):
        out.append(f"  n{u} -- n{v} [weight={graph.edges[(u, v)]}];")
    out.append("}")
    return "\n".join(out) + "\n"


def _outcome(write, *args):
    """What ``write`` returns, or ValueError if it raises one."""
    with np.errstate(all="ignore"):  # the oracle's scalar overflow
        try:
            return write(*args)
        except ValueError:
            return ValueError


_INDICES = st.integers(0, 2 ** 62)
_VALUES = st.one_of(st.sampled_from([-0.0, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf]),
                    st.floats())


@st.composite
def graphs_and_values(draw):
    """A graph of up to 6 nodes with any edges between them, and one float per node."""
    members = draw(st.lists(st.lists(_INDICES, min_size=1, max_size=5, unique=True).map(sorted),
                            max_size=6))
    k = len(members)
    cover = draw(st.lists(_INDICES, min_size=k, max_size=k))
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges = draw(st.dictionaries(st.sampled_from(pairs), _INDICES)) if pairs else {}
    return graph_of(members, cover, edges), draw(st.lists(_VALUES, min_size=k, max_size=k))


@settings(max_examples=300, deadline=None)
@given(graphs_and_values())
@example((graph_of([]), []))
@example((graph_of([(0, 2 ** 62)], [2 ** 62]), [-0.0]))
@example((graph_of([(0, 1), (1, 2), (5,)], [3, 3, 0]), [5e-324, 1e308, math.nan]))
@example((graph_of([(0, 1), (1, 2)], [0, 1], {(0, 1): 1}), [-math.inf, math.inf]))
def test_writers_match_their_dict_and_per_node_oracles(case):
    graph, values = case
    assert graph_to_json(graph, values) == _oracle_json(graph, values)
    assert graph_to_json(graph) == _oracle_json(graph)
    assert _outcome(export_dot, graph, values) == _outcome(_oracle_dot, graph, values)
