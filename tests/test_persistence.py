from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import coned_reduction
from conftest import make_filtered_graph, random_filtered_graph
from softmapper.clustering import SingleLinkageClusterer
from softmapper.data import PointCloud
from softmapper.filters import FilterValues, FixedFilter, LinearFilter
from softmapper.mapper import MapperGraph, MapperNode
from softmapper.persistence import (
    extended_persistence,
    loss_and_subgradient,
    map_pers_filtration,
    regular_persistence,
    total_persistence,
)


def test_filtration_values():
    nodes = (MapperNode(0, 1, (1, 2)), MapperNode(1, 2, (2, 3)))
    graph = MapperGraph(nodes, {(0, 1): 1})
    fv = FilterValues(np.array([9.0, 0.0, 1.0, 3.0]), np.zeros((4, 0)))
    fg = map_pers_filtration(graph, fv)
    assert fg.node_values[0] == 0.5
    assert fg.node_values[1] == 2.0
    assert [f.name for f in fields(fg)] == ["graph", "node_values"]
    d = extended_persistence(fg)
    assert [(p.cls, p.birth, p.death, p.birth_node, p.death_node) for p in d] == [
        ("Ext0", 0.5, 2.0, 0, 1)]


def test_edge_tie_goes_to_smaller_id():
    # edge (2, 3) joins two equal values: its max and its min are both node 2
    edges = [(0, 2), (1, 3), (2, 3)]
    d = extended_persistence(make_filtered_graph([0, 1, 2, 2], edges))
    assert [(p.birth, p.death, p.death_node) for p in d.by_class("Ord0")] == [(1.0, 2.0, 2)]
    d = extended_persistence(make_filtered_graph([2, 1, 0, 0], edges))
    assert [(p.birth, p.death, p.death_node) for p in d.by_class("Rel1")] == [(1.0, 0.0, 2)]


def test_extended_path():
    d = extended_persistence(make_filtered_graph([0, 1, 2], [(0, 1), (1, 2)]))
    assert [(p.cls, p.birth, p.death) for p in d] == [("Ext0", 0.0, 2.0)]


def test_extended_four_cycle():
    d = extended_persistence(
        make_filtered_graph([0, 1, 2, 1], [(0, 1), (1, 2), (2, 3), (0, 3)])
    )
    assert [(p.cls, p.birth, p.death) for p in d] == [("Ext0", 0.0, 2.0), ("Ext1", 2.0, 0.0)]
    assert total_persistence(d) == 4.0


def test_extended_isolated_nodes():
    d = extended_persistence(make_filtered_graph([0, 5], []))
    assert [(p.cls, p.birth, p.death) for p in d] == [("Ext0", 0.0, 0.0), ("Ext0", 5.0, 5.0)]


def test_extended_branch_classes():
    # star with apex at the maximum: each side minimum is its own ascending
    # branch that merges at the apex
    fg = make_filtered_graph([0.0, 3.0, 1.0, 2.0], [(0, 1), (1, 2), (1, 3)])
    d = extended_persistence(fg)
    assert [(p.birth, p.death) for p in d.by_class("Ext0")] == [(0.0, 3.0)]
    assert {(p.birth, p.death) for p in d.by_class("Ord0")} == {(1.0, 3.0), (2.0, 3.0)}
    assert d.by_class("Rel1") == []
    # W shape instead produces a genuine downward branch pairing
    fg = make_filtered_graph([3.0, 0.0, 2.0, 1.0], [(0, 1), (1, 2), (2, 3)])
    d = extended_persistence(fg)
    assert [(p.birth, p.death) for p in d.by_class("Rel1")] == [(2.0, 0.0)]


def test_regular_path_and_w():
    d = regular_persistence(make_filtered_graph([0, 1, 2], [(0, 1), (1, 2)]))
    assert [(p.birth, p.death) for p in d] == [(0.0, 2.0)]
    d = regular_persistence(make_filtered_graph([0, 2, 1, 3], [(0, 1), (1, 2), (2, 3)]))
    assert {(p.birth, p.death) for p in d} == {(0.0, 3.0), (1.0, 2.0)}


def test_regular_empty():
    assert len(regular_persistence(make_filtered_graph([], []))) == 0
    assert len(extended_persistence(make_filtered_graph([], []))) == 0


def test_total_persistence_basic():
    d = extended_persistence(make_filtered_graph([0, 1], [(0, 1)]))
    assert total_persistence(d) == 1.0
    assert total_persistence(extended_persistence(make_filtered_graph([], []))) == 0.0


# --- the matrix reduction the sweeps replaced, on tie-heavy graphs ---


def _tie_heavy_graph(rng, integer):
    """1-40 nodes, edge probability 0.02-0.4; integer values in {0,...,4}
    make ties everywhere."""
    n = int(rng.integers(1, 41))
    p = rng.uniform(0.02, 0.4)
    values = rng.integers(0, 5, n).astype(float) if integer else rng.standard_normal(n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return make_filtered_graph(values, edges)


@pytest.mark.parametrize("chunk", range(8))
def test_sweeps_match_coned_reduction_exactly(chunk):
    rng = np.random.default_rng(61000 + chunk)
    for trial in range(250):
        fg = _tie_heavy_graph(rng, integer=trial % 2 == 1)
        assert (extended_persistence(fg).points
                == coned_reduction.extended_persistence(fg).points), trial
        assert (regular_persistence(fg).points
                == coned_reduction.regular_persistence(fg).points), trial


# --- independent oracle: merge trees via union-find, no matrix reduction ---


def _oracle_extended(fg):
    """Ord0/Rel1 from ascending/descending union-find sweeps, Ext0 per
    component, Ext1 counted by the Euler formula. The Ext1 births are the
    values of the ascending edges that close a cycle, its deaths the minima
    of the descending ones; neither multiset depends on the tie order."""
    n = fg.node_values.shape[0]
    phi = fg.node_values
    edges = sorted(fg.graph.edges)

    def sweep(edge_key, better, reverse=False):
        parent = list(range(n))
        extreme = {v: phi[v] for v in range(n)}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        pts, cycles = [], []
        for e in sorted(edges, key=edge_key, reverse=reverse):
            ra, rb = find(e[0]), find(e[1])
            if ra == rb:
                cycles.append(edge_key(e))
                continue
            if better(extreme[ra], extreme[rb]):
                elder, younger = ra, rb
            else:
                elder, younger = rb, ra
            pts.append((extreme[younger], edge_key(e)))
            parent[younger] = elder
            extreme[elder] = extreme[elder] if better(extreme[elder], extreme[younger]) else extreme[younger]
        return pts, cycles, find

    # ascending: edge enters at max endpoint value; elder = smaller min
    ord0, ext1_births, find = sweep(
        lambda e: max(phi[e[0]], phi[e[1]]), lambda a, b: a <= b
    )
    ord0 = [(b, d) for b, d in ord0 if b != d]
    # descending: edge enters at min endpoint value; elder = larger max
    rel1, ext1_deaths, _ = sweep(
        lambda e: min(phi[e[0]], phi[e[1]]), lambda a, b: a >= b, reverse=True
    )
    rel1 = [(b, d) for b, d in rel1 if b != d]

    comps = {}
    for v in range(n):
        comps.setdefault(find(v), []).append(v)
    ext0 = [(min(phi[c] for c in comp), max(phi[c] for c in comp)) for comp in comps.values()]
    beta1 = len(edges) - n + len(comps)
    return ord0, rel1, ext0, beta1, ext1_births, ext1_deaths


def _pairs(diagram, cls):
    return Counter((round(p.birth, 9), round(p.death, 9)) for p in diagram.by_class(cls))


def _ext1_values_match(diagram, births, deaths):
    """The diagram's Ext1 births and deaths are the oracle's multisets."""
    ext1 = diagram.by_class("Ext1")

    def rounded(values):
        return Counter(round(x, 9) for x in values)

    return (rounded(p.birth for p in ext1) == rounded(births)
            and rounded(p.death for p in ext1) == rounded(deaths))


@pytest.mark.parametrize("trial", range(100))
def test_extended_matches_union_find_oracle(trial):
    rng = np.random.default_rng(5000 + trial)
    fg = random_filtered_graph(rng)
    d = extended_persistence(fg)
    ord0, rel1, ext0, beta1, births, deaths = _oracle_extended(fg)
    assert _pairs(d, "Ord0") == Counter((round(b, 9), round(x, 9)) for b, x in ord0)
    assert _pairs(d, "Rel1") == Counter((round(b, 9), round(x, 9)) for b, x in rel1)
    assert _pairs(d, "Ext0") == Counter((round(b, 9), round(x, 9)) for b, x in ext0)
    assert len(d.by_class("Ext1")) == beta1
    assert _ext1_values_match(d, births, deaths)


@pytest.mark.parametrize("trial", range(25))
def test_betti_counts(trial):
    rng = np.random.default_rng(9000 + trial)
    fg = random_filtered_graph(rng)
    d = extended_persistence(fg)
    n = fg.node_values.shape[0]
    m = len(fg.graph.edges)
    _, _, ext0, beta1, _, _ = _oracle_extended(fg)
    assert len(d.by_class("Ext0")) == len(ext0)
    assert len(d.by_class("Ext1")) == m - n + len(ext0)
    assert beta1 == m - n + len(ext0)


def test_shift_and_scale_invariance(rng):
    fg = random_filtered_graph(rng, max_nodes=20, edge_prob=0.2)
    base = total_persistence(extended_persistence(fg))
    values = fg.node_values
    edges = list(fg.graph.edges)
    shifted = make_filtered_graph(values + 3.7, edges)
    assert total_persistence(extended_persistence(shifted)) == pytest.approx(base, abs=1e-12)
    scaled = make_filtered_graph(values * 2.5, edges)
    assert total_persistence(extended_persistence(scaled)) == pytest.approx(2.5 * base, rel=1e-12)


def test_class_sign_conventions(rng):
    for _ in range(20):
        d = extended_persistence(random_filtered_graph(rng))
        for p in d.by_class("Ord0"):
            assert p.birth < p.death
        for p in d.by_class("Ext0"):
            assert p.birth <= p.death
        for p in d.by_class("Ext1") + d.by_class("Rel1"):
            assert p.birth >= p.death


def test_loss_fixed_filter_empty_gradient(rng):
    cloud = PointCloud(rng.standard_normal((6, 2)))
    e = np.ones((6, 2), dtype=np.uint8)
    fam = FixedFilter(cloud.points[:, 0])
    loss, grad = loss_and_subgradient(cloud, e, fam, np.zeros(0), SingleLinkageClusterer(10.0))
    assert grad.shape == (0,)
    assert loss >= 0


def test_loss_single_node_graph():
    cloud = PointCloud([[1.0, 2.0]])
    e = np.array([[1]], dtype=np.uint8)
    loss, grad = loss_and_subgradient(
        cloud, e, LinearFilter(), np.array([1.0, 0.0]), SingleLinkageClusterer(1.0)
    )
    assert loss == 0.0
    assert np.array_equal(grad, [0.0, 0.0])


@pytest.mark.parametrize("mode", ["regular", "extended"])
def test_subgradient_finite_differences(mode):
    rng = np.random.default_rng(77)
    fam = LinearFilter()
    checked = 0
    while checked < 25:
        n = int(rng.integers(5, 30))
        p = int(rng.integers(1, 4))
        cloud = PointCloud(rng.standard_normal((n, p)))
        e = rng.integers(0, 2, size=(n, int(rng.integers(1, 5)))).astype(np.uint8)
        cl = SingleLinkageClusterer(1.0)
        theta = rng.standard_normal(p)
        loss, grad = loss_and_subgradient(cloud, e, fam, theta, cl, mode)
        fd = np.zeros(p)
        for k in range(p):
            h = 1e-6 * (1 + abs(theta[k]))
            tp, tm = theta.copy(), theta.copy()
            tp[k] += h
            tm[k] -= h
            fd[k] = (
                loss_and_subgradient(cloud, e, fam, tp, cl, mode)[0]
                - loss_and_subgradient(cloud, e, fam, tm, cl, mode)[0]
            ) / (2 * h)
        denom = max(np.linalg.norm(fd), 1e-9)
        assert np.linalg.norm(grad - fd) / denom < 1e-3
        checked += 1
