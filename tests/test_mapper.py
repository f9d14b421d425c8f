import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage

from softmapper.clustering import SingleLinkageClusterer
from softmapper.cover import standard_scheme, uniform_cover
from softmapper.data import PointCloud
from softmapper.mapper import MapperGraph, MapperNode, connected_components, map_comp, node_means


def trivial_clusterer():
    return SingleLinkageClusterer(1e9)  # one cluster per cover element


def test_small_nerve():
    cloud = PointCloud([[0.0], [1.0], [2.0]])
    e = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)
    g = map_comp(cloud, e, trivial_clusterer())
    assert [nd.members for nd in g.nodes] == [(0, 1), (1, 2)]
    assert g.edges == {(0, 1): 1}


def test_empty_assignment():
    cloud = PointCloud([[0.0], [1.0]])
    g = map_comp(cloud, np.zeros((2, 3), dtype=np.uint8), trivial_clusterer())
    assert g.n_nodes == 0 and g.n_edges == 0


def test_node_means():
    rng = np.random.default_rng(5)
    n = 500
    # sizes on both sides of numpy's 8-way unrolled pairwise summation
    members = [np.sort(rng.choice(n, size=k, replace=False)) for k in (1, 2, 7, 8, 9, 130, n)]
    graph = MapperGraph(tuple(MapperNode(i, 1, tuple(m.tolist())) for i, m in enumerate(members)))
    values = rng.uniform(1.0, 2.0, n)
    jacobian = rng.uniform(-2.0, -1.0, (n, 3))
    for v in (values, jacobian):
        want = np.array([v[m].mean(axis=0) for m in members])
        got = node_means(graph, v)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    empty = MapperGraph(())
    assert node_means(empty, values).shape == (0,)
    assert node_means(empty, jacobian).shape == (0, 3)


def test_circle_loop():
    ang = 2 * np.pi * (np.arange(200) + 0.5) / 200
    cloud = PointCloud(np.column_stack([np.cos(ang), np.sin(ang)]))
    height = cloud.points[:, 1]
    cover = uniform_cover(height, 10, 0.3)
    e = standard_scheme(height, cover).probs.astype(np.uint8)
    g = map_comp(cloud, e, SingleLinkageClusterer(0.5))
    comps = len(set(connected_components(g).values()))
    beta1 = g.n_edges - g.n_nodes + comps
    assert beta1 == 1


def _classical_mapper(points, values, cover, threshold):
    """Straight re-implementation of the deterministic pipeline using scipy's
    agglomerative single linkage; independent of the production code path."""
    nodes = []
    for j, (a, b) in enumerate(cover.intervals):
        pre = np.nonzero((values >= a) & (values <= b))[0]
        if pre.size == 0:
            continue
        if pre.size == 1:
            nodes.append((j + 1, frozenset(pre.tolist())))
            continue
        lk = linkage(points[pre], method="single")
        labels = fcluster(lk, t=threshold, criterion="distance")
        for lab in np.unique(labels):
            nodes.append((j + 1, frozenset(pre[labels == lab].tolist())))
    edges = set()
    for i in range(len(nodes)):
        for k in range(i + 1, len(nodes)):
            if nodes[i][1] & nodes[k][1]:
                edges.add(frozenset([nodes[i], nodes[k]]))
    return set(nodes), edges


@pytest.mark.parametrize("trial", range(10))
def test_matches_classical_mapper(trial):
    rng = np.random.default_rng(100 + trial)
    n = int(rng.integers(10, 100))
    pts = rng.standard_normal((n, 2))
    cloud = PointCloud(pts)
    values = pts[:, 0]
    cover = uniform_cover(values, int(rng.integers(2, 6)), 0.35)
    threshold = float(rng.uniform(0.3, 1.5))
    e = standard_scheme(values, cover).probs.astype(np.uint8)
    g = map_comp(cloud, e, SingleLinkageClusterer(threshold))

    got_nodes = {(nd.cover_index, frozenset(nd.members)) for nd in g.nodes}
    key = {nd.id: (nd.cover_index, frozenset(nd.members)) for nd in g.nodes}
    got_edges = {frozenset([key[u], key[v]]) for (u, v) in g.edges}
    want_nodes, want_edges = _classical_mapper(pts, values, cover, threshold)
    assert got_nodes == want_nodes
    assert got_edges == want_edges


def test_permutation_equivariance(rng):
    n = 40
    pts = rng.standard_normal((n, 2))
    e = rng.integers(0, 2, size=(n, 3)).astype(np.uint8)
    perm = rng.permutation(n)
    g1 = map_comp(PointCloud(pts), e, SingleLinkageClusterer(0.7))
    g2 = map_comp(PointCloud(pts[perm]), e[perm], SingleLinkageClusterer(0.7))
    # member i of the permuted cloud is original point perm[i]
    nodes1 = {(nd.cover_index, frozenset(int(perm[i]) for i in nd.members)) for nd in g2.nodes}
    nodes0 = {(nd.cover_index, frozenset(nd.members)) for nd in g1.nodes}
    assert nodes0 == nodes1
    assert g1.n_edges == g2.n_edges


def test_every_assigned_point_appears(rng):
    n = 30
    cloud = PointCloud(rng.standard_normal((n, 3)))
    e = rng.integers(0, 2, size=(n, 4)).astype(np.uint8)
    g = map_comp(cloud, e, SingleLinkageClusterer(0.5))
    covered = {i for nd in g.nodes for i in nd.members}
    assert covered == set(np.nonzero(e.sum(axis=1))[0].tolist())
    assert all(w >= 1 for w in g.edges.values())


def test_connected_components_cases():
    assert connected_components(MapperGraph((), {})) == {}
    nodes = tuple(MapperNode(i, 1, (i,)) for i in range(4))
    g = MapperGraph(nodes[:2], {(0, 1): 1})
    assert set(connected_components(g).values()) == {0}
    g = MapperGraph(nodes, {(0, 1): 1, (2, 3): 1})
    assert set(connected_components(g).values()) == {0, 2}
