import csv
import io

import numpy as np

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


def test_dot_constant_colors_use_middle_ramp():
    dot = export_dot(_two_node_graph(), [2.0, 2.0])
    assert dot.count("#1fa187") == 2


def test_json_round_trip():
    g = _two_node_graph()
    text = graph_to_json(g, values=[0.5, 1.5])
    assert text.count("\n") == 1 and text.endswith("\n")  # one compact line
    back = graph_from_json(text)
    assert back == g
    assert back.edges == g.edges


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
