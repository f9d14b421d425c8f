import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import fcluster, linkage

from conftest import graph_of, margin_draws, n_components
from softmapper.clustering import KMeansClusterer, SingleLinkageClusterer
from softmapper.cover import (
    AssignmentScheme,
    sample_assignment,
    smooth_scheme,
    standard_scheme,
    uniform_cover,
)
from softmapper.data import PointCloud
from softmapper.mapper import LinkageEpoch, map_comp, node_means


def trivial_clusterer():
    return SingleLinkageClusterer(1e9)  # one cluster per cover element


def test_small_nerve():
    cloud = PointCloud([[0.0], [1.0], [2.0]])
    e = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)
    g = map_comp(cloud, e, trivial_clusterer())
    assert [nd.members for nd in g.nodes] == [(0, 1), (1, 2)]
    assert g.edges == {(0, 1): 1}


def test_a_graph_is_never_equal_to_another_type():
    g = map_comp(PointCloud([[0.0], [1.0]]), np.ones((2, 1), dtype=np.uint8), trivial_clusterer())
    assert g.__eq__((g.indptr, g.members, g.cover, g.edges)) is NotImplemented
    assert g != g.edges and not g == g.members.tolist() and g == g


def test_empty_assignment():
    cloud = PointCloud([[0.0], [1.0]])
    g = map_comp(cloud, np.zeros((2, 3), dtype=np.uint8), trivial_clusterer())
    assert g.n_nodes == 0 and g.n_edges == 0


def test_node_means():
    rng = np.random.default_rng(5)
    n = 500
    # sizes on both sides of numpy's 8-way unrolled pairwise summation
    members = [np.sort(rng.choice(n, size=k, replace=False)) for k in (1, 2, 7, 8, 9, 130, n)]
    graph = graph_of(members)
    values = rng.uniform(1.0, 2.0, n)
    jacobian = rng.uniform(-2.0, -1.0, (n, 3))
    for v in (values, jacobian):
        want = np.array([v[m].mean(axis=0) for m in members])
        got = node_means(graph, v)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    empty = graph_of([])
    assert node_means(empty, values).shape == (0,)
    assert node_means(empty, jacobian).shape == (0, 3)


def test_circle_loop():
    ang = 2 * np.pi * (np.arange(200) + 0.5) / 200
    cloud = PointCloud(np.column_stack([np.cos(ang), np.sin(ang)]))
    height = cloud.points[:, 1]
    cover = uniform_cover(height, 10, 0.3)
    e = standard_scheme(height, cover).probs.astype(np.uint8)
    g = map_comp(cloud, e, SingleLinkageClusterer(0.5))
    beta1 = g.n_edges - g.n_nodes + n_components(g)
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


def _entries_match_view(scheme):
    """The scheme's entries are flatnonzero of its dense view, in values and
    order, and the view is read-only."""
    p = scheme.probs
    assert not p.flags.writeable and p.shape == scheme.shape
    assert np.array_equal(scheme.flat, np.flatnonzero(p))
    assert scheme.values.dtype == p.dtype == np.float64
    assert scheme.values.tobytes() == p.ravel()[scheme.flat].tobytes()
    again = AssignmentScheme(p)
    assert np.array_equal(again.flat, scheme.flat)
    assert again.values.tobytes() == scheme.values.tobytes()


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.sampled_from([0.05, 0.3, 0.5, 0.8]),
       st.sampled_from([1e-300, 1e-12, 1e-4, 0.02, 0.3, 3.0]))
@settings(max_examples=80, deadline=None)
def test_a_scheme_is_its_entries(seed, r, gain, delta_rel):
    """Smooth and standard schemes over values that hit the endpoints and the
    margins' edges: their entries equal flatnonzero of their dense views,
    and LinkageEpoch and map_comp build equal graphs from a scheme and from
    its dense matrix."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 120))
    pts = rng.uniform(-1, 1, (n, 2))
    cover = uniform_cover(pts[:, 0], r, gain)
    delta = delta_rel * float(np.ptp(pts[:, 0]) or 1.0)
    edges = np.concatenate([cover.intervals.ravel() - delta, cover.intervals.ravel() + delta])
    lo, hi = cover.intervals[0, 0], cover.intervals[-1, 1]
    pts[: min(n, edges.size), 0] = rng.permutation(np.clip(edges, lo, hi))[:n]
    v = pts[:, 0]
    cl = SingleLinkageClusterer(float(rng.choice([0.05, 0.3, 3.0])))
    standard, smooth = standard_scheme(v, cover), smooth_scheme(v, cover, delta)
    for scheme in (standard, smooth):
        _entries_match_view(scheme)
    # a fresh cloud for each build, so no epoch reuses another's memo
    want = map_comp(PointCloud(pts), standard.probs.astype(np.uint8), cl)
    assert map_comp(PointCloud(pts), standard, cl) == want
    assert LinkageEpoch(PointCloud(pts), standard, cl).graph() == want
    assert LinkageEpoch(PointCloud(pts), standard.probs, cl).graph() == want
    e = np.stack([sample_assignment(smooth, s) for s in range(3)])
    epoch = LinkageEpoch(PointCloud(pts), smooth.probs, cl)
    want = epoch.graph(margin_draws(epoch.scheme, e))
    assert LinkageEpoch(PointCloud(pts), smooth, cl).graph(margin_draws(smooth, e)) == want


def test_a_scheme_with_margin_entries_is_no_draw():
    cloud = PointCloud(np.arange(3.0)[:, None])
    scheme = AssignmentScheme([[1, 0], [0.5, 1], [0, 1]])
    cl = SingleLinkageClusterer(1.5)
    with pytest.raises(ValueError, match="not a draw"):
        map_comp(cloud, scheme, cl)
    with pytest.raises(ValueError, match="not a draw"):
        LinkageEpoch(cloud, scheme, cl).graph()
    with pytest.raises(ValueError, match="single linkage"):
        map_comp(cloud, scheme, KMeansClusterer(1))
    core = AssignmentScheme.from_entries((3, 2), np.array([0, 3, 5]), np.ones(3))
    assert map_comp(cloud, core, KMeansClusterer(1)) == map_comp(
        cloud, core.probs, KMeansClusterer(1))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        AssignmentScheme.from_entries((3, 2), np.array([0, 3]), np.array([1.0, np.nan]))
