from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import coned_reduction
from conftest import graph_of, make_filtered_graph, random_filtered_graph
from softmapper import persistence
from softmapper.clustering import SingleLinkageClusterer
from softmapper.cover import smooth_scheme, standard_scheme, uniform_cover
from softmapper.data import PointCloud
from softmapper.filters import FilterValues, FixedFilter, LinearFilter
from softmapper.mapper import LinkageEpoch, map_comp
from softmapper.persistence import (
    FilteredGraph,
    extended_persistence,
    loss_and_subgradient,
    map_pers_filtration,
    regular_persistence,
    total_persistence,
)


def test_filtration_values():
    graph = graph_of([(1, 2), (2, 3)], [1, 2], {(0, 1): 1})
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
    assert [(p.birth, p.death, p.death_node) for p in d if p.cls == "Ord0"] == [(1.0, 2.0, 2)]
    d = extended_persistence(make_filtered_graph([2, 1, 0, 0], edges))
    assert [(p.birth, p.death, p.death_node) for p in d if p.cls == "Rel1"] == [(1.0, 0.0, 2)]


def test_extended_path():
    d = extended_persistence(make_filtered_graph([0, 1, 2], [(0, 1), (1, 2)]))
    assert [(p.cls, p.birth, p.death) for p in d] == [("Ext0", 0.0, 2.0)]


def test_extended_four_cycle():
    d = extended_persistence(
        make_filtered_graph([0, 1, 2, 1], [(0, 1), (1, 2), (2, 3), (0, 3)])
    )
    assert [(p.cls, p.birth, p.death) for p in d] == [("Ext0", 0.0, 2.0), ("Ext1", 2.0, 0.0)]
    assert total_persistence(d) == 4.0


def test_ext1_reduction_raises_on_a_zero_cycle(monkeypatch):
    kruskal = persistence._kruskal

    def broken(key, edges, labels):  # every closed cycle comes out empty
        retired, cycles, find = kruskal(key, edges, labels)
        return retired, [0] * len(cycles), find

    monkeypatch.setattr(persistence, "_kruskal", broken)
    with pytest.raises(RuntimeError, match="reduced to zero"):
        extended_persistence(make_filtered_graph([0, 1, 2, 1], [(0, 1), (1, 2), (2, 3), (0, 3)]))


def test_extended_isolated_nodes():
    d = extended_persistence(make_filtered_graph([0, 5], []))
    assert [(p.cls, p.birth, p.death) for p in d] == [("Ext0", 0.0, 0.0), ("Ext0", 5.0, 5.0)]


def test_extended_branch_classes():
    # star with apex at the maximum: each side minimum is its own ascending
    # branch that merges at the apex
    fg = make_filtered_graph([0.0, 3.0, 1.0, 2.0], [(0, 1), (1, 2), (1, 3)])
    d = extended_persistence(fg)
    assert [(p.birth, p.death) for p in d if p.cls == "Ext0"] == [(0.0, 3.0)]
    assert {(p.birth, p.death) for p in d if p.cls == "Ord0"} == {(1.0, 3.0), (2.0, 3.0)}
    assert [p for p in d if p.cls == "Rel1"] == []
    # W shape instead produces a genuine downward branch pairing
    fg = make_filtered_graph([3.0, 0.0, 2.0, 1.0], [(0, 1), (1, 2), (2, 3)])
    d = extended_persistence(fg)
    assert [(p.birth, p.death) for p in d if p.cls == "Rel1"] == [(2.0, 0.0)]


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


def _long_cycle_graph(rng, integer):
    """200-800 nodes on one cycle, in random id order, plus 1-20 random
    chords. The values follow one sine period along the cycle, as a
    coordinate filter does on a circle, so the sweeps grow long arcs and
    close cycles of hundreds of edges, with ascending ranks far past 64;
    integer values round it to {0,...,8}, in long tied runs."""
    n = int(rng.integers(200, 801))
    order = rng.permutation(n).tolist()
    wave = np.sin(2 * np.pi * (np.arange(n) / n + rng.random()))
    values = np.empty(n)
    values[order] = np.round(4 * wave + 4) if integer else wave + 0.01 * rng.standard_normal(n)
    edges = {(min(u, v), max(u, v)) for u, v in zip(order, order[1:] + order[:1])}
    chords = int(rng.integers(1, 21))
    while len(edges) < n + chords:
        u, v = rng.choice(n, 2, replace=False).tolist()
        edges.add((min(u, v), max(u, v)))
    return make_filtered_graph(values, sorted(edges))


@pytest.mark.parametrize("chunk", range(8))
def test_sweeps_match_coned_reduction_exactly(chunk):
    rng = np.random.default_rng(61000 + chunk)
    graphs = [_tie_heavy_graph(rng, integer=trial % 2 == 1) for trial in range(250)]
    graphs += [_long_cycle_graph(rng, integer=trial % 2 == 1) for trial in range(4)]
    for trial, fg in enumerate(graphs):
        assert extended_persistence(fg) == coned_reduction.extended_persistence(fg), trial
        assert regular_persistence(fg) == coned_reduction.regular_persistence(fg), trial


def test_sweeps_match_coned_reduction_at_signed_zeros_and_infinities():
    """-0.0 ties 0.0 and goes to the smaller id; ±inf orders as any value."""
    rng = np.random.default_rng(61100)
    levels = np.array([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf])
    for trial in range(300):
        n = int(rng.integers(1, 25))
        edges = {(u, v): 1 for u in range(n) for v in range(u + 1, n) if rng.random() < 0.25}
        fg = FilteredGraph(graph_of([(i,) for i in range(n)], edges=edges),
                           rng.choice(levels, n))
        assert extended_persistence(fg) == coned_reduction.extended_persistence(fg), trial
        assert regular_persistence(fg) == coned_reduction.regular_persistence(fg), trial


def test_a_nan_node_value_is_rejected():
    fg = FilteredGraph(graph_of([(0,), (1,), (2,)], edges={(0, 1): 1, (1, 2): 1}),
                       np.array([0.0, np.nan, 1.0]))
    for diagram in (extended_persistence, regular_persistence):
        with pytest.raises(ValueError, match="node 1 has a NaN value"):
            diagram(fg)


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
    return Counter((round(p.birth, 9), round(p.death, 9)) for p in diagram if p.cls == cls)


def _ext1_values_match(diagram, births, deaths):
    """The diagram's Ext1 births and deaths are the oracle's multisets."""
    ext1 = [p for p in diagram if p.cls == "Ext1"]

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
    assert sum(p.cls == "Ext1" for p in d) == beta1
    assert _ext1_values_match(d, births, deaths)


@pytest.mark.parametrize("trial", range(25))
def test_betti_counts(trial):
    rng = np.random.default_rng(9000 + trial)
    fg = random_filtered_graph(rng)
    d = extended_persistence(fg)
    n = fg.node_values.shape[0]
    m = len(fg.graph.edges)
    _, _, ext0, beta1, _, _ = _oracle_extended(fg)
    assert sum(p.cls == "Ext0" for p in d) == len(ext0)
    assert sum(p.cls == "Ext1" for p in d) == m - n + len(ext0)
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
        for p in d:
            if p.cls == "Ord0":
                assert p.birth < p.death
            elif p.cls == "Ext0":
                assert p.birth <= p.death
            elif p.cls in ("Ext1", "Rel1"):
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
    with pytest.raises(ValueError, match="mode must be 'regular' or 'extended'"):
        loss_and_subgradient(cloud, e, LinearFilter(), np.array([1.0, 0.0]),
                             SingleLinkageClusterer(1.0), "ordinary")


@pytest.mark.parametrize("mode", ["regular", "extended"])
def test_a_margin_free_scheme_is_its_own_draw(mode):
    cloud = PointCloud(np.c_[np.cos(np.linspace(0, 6, 50)), np.sin(np.linspace(0, 6, 50))])
    theta, cl = np.array([1.0, 0.3]), SingleLinkageClusterer(0.5)
    fv = LinearFilter().evaluate(cloud, theta)
    scheme = standard_scheme(fv, uniform_cover(fv.values, 4, 0.3))
    assert map_comp(cloud, scheme, cl).n_nodes == 6
    loss, grad = loss_and_subgradient(cloud, scheme, LinearFilter(), theta, cl, mode)
    want = loss_and_subgradient(cloud, scheme.probs.astype(np.uint8), LinearFilter(), theta,
                                cl, mode)
    assert type(loss) is float and grad.shape == (2,)
    assert (loss, grad.tolist()) == (want[0], want[1].tolist())


@pytest.mark.parametrize("mode", ["regular", "extended"])
def test_an_epochs_own_margin_free_scheme_is_its_draw(mode):
    """Passed with the epoch built for it, a margin-free scheme gives the
    epoch's own graph and what the call without the epoch gives."""
    cloud = PointCloud(np.c_[np.cos(np.linspace(0, 6, 50)), np.sin(np.linspace(0, 6, 50))])
    theta, cl = np.array([1.0, 0.3]), SingleLinkageClusterer(0.5)
    fv = LinearFilter().evaluate(cloud, theta)
    scheme = standard_scheme(fv, uniform_cover(fv.values, 4, 0.3))
    epoch = LinkageEpoch(cloud, scheme, cl)
    assert map_comp(cloud, scheme, cl, epoch) == map_comp(cloud, scheme, cl) == epoch.graph()
    loss, grad = loss_and_subgradient(cloud, scheme, LinearFilter(), theta, cl, mode, epoch)
    want = loss_and_subgradient(cloud, scheme, LinearFilter(), theta, cl, mode)
    assert type(loss) is float and grad.shape == (2,)
    assert (loss, grad.tolist()) == (want[0], want[1].tolist())


def test_a_scheme_not_the_epochs_own_is_rejected():
    """With an epoch, the only scheme map_comp takes is the epoch's own: an
    equal scheme held in another object is no draw of it, and the epoch's
    own scheme with margin entries is no draw at all."""
    cloud = PointCloud(np.c_[np.cos(np.linspace(0, 6, 50)), np.sin(np.linspace(0, 6, 50))])
    cl = SingleLinkageClusterer(0.5)
    fv = LinearFilter().evaluate(cloud, np.array([1.0, 0.3]))
    cover = uniform_cover(fv.values, 4, 0.3)
    scheme, smooth = standard_scheme(fv, cover), smooth_scheme(fv, cover, 0.2)
    for other, epoch in ((standard_scheme(fv, cover), LinkageEpoch(cloud, scheme, cl)),
                         (smooth, LinkageEpoch(cloud, scheme, cl)),
                         (scheme, LinkageEpoch(cloud, smooth, cl))):
        with pytest.raises(ValueError, match="epoch's own"):
            map_comp(cloud, other, cl, epoch)
    with pytest.raises(ValueError, match="not a draw"):
        map_comp(cloud, smooth, cl, LinkageEpoch(cloud, smooth, cl))


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
