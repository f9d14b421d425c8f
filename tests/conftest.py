import sys

import numpy as np
import pytest
from scipy import sparse

from softmapper.cover import MarginDraws
from softmapper.filters import FilterValues
from softmapper.mapper import MapperGraph
from softmapper.persistence import map_pers_filtration


def graph_of(members, cover=None, edges=None):
    """The graph whose node k has the members members[k], the cover index
    cover[k] (1 when left out) and the given {(u, v): w} edges, u < v (none
    when left out)."""
    indptr = np.zeros(len(members) + 1, dtype=np.intp)
    np.cumsum([len(m) for m in members], out=indptr[1:])
    flat = np.array([i for m in members for i in m], dtype=np.intp)
    cover = np.ones(len(members), dtype=np.intp) if cover is None else np.asarray(cover, np.intp)
    links = np.array([(u, v, w) for (u, v), w in sorted((edges or {}).items())], dtype=np.intp)
    return MapperGraph(indptr, flat, cover, links.reshape(-1, 3).T)


def margin_draws(scheme, e) -> MarginDraws:
    """The ``MarginDraws`` of the scheme (an ``AssignmentScheme``) holding
    the draw e (n x r) or the stack of draws e (M x n x r); asserts that each
    is a draw: it assigns every entry with p = 1 and no entry with p = 0."""
    e = np.asarray(e) != 0
    assert e.ndim in (2, 3) and e.shape[-2:] == scheme.shape, e.shape
    e = e.reshape(-1, e.shape[-2] * e.shape[-1])
    core, margin = scheme.flat[~scheme.margin], scheme.flat[scheme.margin]
    assert e[:, core].all()
    assert np.count_nonzero(e) == e.shape[0] * core.size + np.count_nonzero(e[:, margin])
    return MarginDraws(scheme, e[:, margin])


def n_components(graph) -> int:
    """The number of connected components of the graph, counted by scipy."""
    u, v, _ = graph.links
    adj = sparse.coo_matrix((np.ones(u.size), (u, v)), shape=(graph.n_nodes, graph.n_nodes))
    return sparse.csgraph.connected_components(adj, directed=False)[0]


def make_filtered_graph(values, edges):
    """Filtered graph with one singleton node per value and the given edges."""
    values = np.asarray(values, dtype=float)
    graph = graph_of([(i,) for i in range(values.size)],
                     edges={(min(u, v), max(u, v)): 1 for u, v in edges})
    fv = FilterValues(values, np.zeros((values.size, 0)))
    return map_pers_filtration(graph, fv)


def random_filtered_graph(rng, max_nodes=30, edge_prob=0.15):
    n = int(rng.integers(1, max_nodes + 1))
    values = rng.standard_normal(n)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob
    ]
    return make_filtered_graph(values, edges)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


def pytest_terminal_summary(terminalreporter):
    """Echo the one-line acceptance statuses after the test summary."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
