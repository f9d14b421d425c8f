"""The Mapper pipeline against a from-scratch oracle.

The oracle is the straightforward construction: for every sample and every
cover element, a dense cdist threshold graph on the support, its connected
components, then every node pair's member intersection. The production path
clusters each element's deterministic core once per scheme and reuses it
across samples; the two must agree exactly, node order and edge insertion
order included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.spatial.distance import cdist

from softmapper.clustering import (
    Grid,
    KMeansClusterer,
    SingleLinkageClusterer,
    _kmeans_labels,
    cluster,
    range_pairs,
)
from softmapper.cover import sample_assignment, smooth_scheme, uniform_cover
from softmapper.data import PointCloud
from softmapper.filters import LinearFilter
from softmapper.mapper import LinkageEpoch, MapperGraph, MapperNode, map_comp
from softmapper.synthetic import generate_synthetic


def oracle_linkage_labels(pts, threshold):
    adj = sparse.csr_matrix(cdist(pts, pts) <= threshold)
    _, labels = sparse.csgraph.connected_components(adj, directed=False)
    return labels


def oracle_cluster(clusterer, cloud, member_indices):
    members = np.asarray(sorted(member_indices), dtype=int)
    pts = cloud.points[members]
    if members.size == 1:
        return [members]
    if isinstance(clusterer, KMeansClusterer):
        labels = _kmeans_labels(pts, clusterer)
    else:
        labels = oracle_linkage_labels(pts, clusterer.threshold)
    seen = {}
    for local, lab in enumerate(labels):
        seen.setdefault(lab, []).append(members[local])
    return [np.array(seen[lab], dtype=int) for lab in sorted(seen, key=lambda l: seen[l][0])]


def oracle_map_comp(cloud, e, clusterer):
    nodes = []
    for j in range(e.shape[1]):
        support = np.nonzero(e[:, j])[0]
        if support.size == 0:
            continue
        for part in oracle_cluster(clusterer, cloud, support):
            nodes.append(MapperNode(len(nodes), j + 1, tuple(int(i) for i in part)))
    edges = {}
    member_sets = [set(nd.members) for nd in nodes]
    for u in range(len(nodes)):
        for v in range(u + 1, len(nodes)):
            w = len(member_sets[u] & member_sets[v])
            if w:
                edges[(u, v)] = w
    return MapperGraph(tuple(nodes), edges)


def assert_same_graph(got, want):
    assert got == want
    assert list(got.edges) == list(want.edges)  # insertion order too


def smooth_case(case):
    """A seeded (cloud, scheme, threshold) of the kind the optimizer samples.

    Cases 0-7 are y-shapes and planar Gaussian clouds; 8 and 9 are Gaussian
    clouds in 1 and 4 dimensions, 10 has coordinates near 1e6 and a
    threshold near 1e-4, and 11 repeats some of its points.
    """
    rng = np.random.default_rng(500 + case)
    scale = 1e-4 if case == 10 else 1.0
    if case % 2 and case < 8:
        pts = generate_synthetic("y_shape", n=int(rng.integers(80, 250)), noise=0.02,
                                 seed=case).points
    else:
        pts = rng.standard_normal((int(rng.integers(40, 160)), {8: 1, 9: 4}.get(case, 2)))
    if case == 10:
        pts = 1e6 + scale * pts
    if case == 11:
        pts = np.concatenate([pts, pts[rng.integers(0, len(pts), len(pts) // 2)]])
    cloud = PointCloud(pts)
    fv = LinearFilter().evaluate(cloud, rng.standard_normal(cloud.dim))
    cover = uniform_cover(fv.values, int(rng.integers(2, 9)), float(rng.uniform(0.15, 0.5)))
    span = float(fv.values.max() - fv.values.min())
    scheme = smooth_scheme(fv, cover, float(rng.choice([1e-2, 5e-2, 0.2])) * span)
    return cloud, scheme, scale * float(rng.uniform(0.1, 0.6))


@pytest.mark.parametrize("case", range(12))
def test_epoch_matches_oracle_on_every_sample(case):
    cloud, scheme, threshold = smooth_case(case)
    assert np.any((scheme.probs > 0) & (scheme.probs < 1))  # the draws really vary
    cl = SingleLinkageClusterer(threshold)
    epoch = LinkageEpoch(cloud, scheme.probs, cl)
    km = KMeansClusterer(3, seed=case)
    for m in range(6):
        e = sample_assignment(scheme, 1000 * case + m)
        want = oracle_map_comp(cloud, e, cl)
        assert_same_graph(map_comp(cloud, e, cl, epoch), want)
        assert_same_graph(map_comp(cloud, e, cl), want)
        if m < 2:
            assert_same_graph(map_comp(cloud, e, km), oracle_map_comp(cloud, e, km))


@pytest.mark.parametrize("seed", range(4))
def test_dense_draws_with_points_in_many_nodes(seed):
    """Dense 0/1 draws over 5-8 elements put points in 3 or more nodes, so
    the nerve pairs nodes more than one membership apart."""
    rng = np.random.default_rng(700 + seed)
    n, r = int(rng.integers(30, 90)), int(rng.integers(5, 9))
    cloud = PointCloud(rng.standard_normal((n, 2)))
    e = (rng.random((n, r)) < rng.uniform(0.4, 0.8)).astype(np.uint8)
    for cl in (SingleLinkageClusterer(float(rng.uniform(0.2, 0.6))), KMeansClusterer(3, seed=seed)):
        g = map_comp(cloud, e, cl)
        assert max(np.bincount([i for nd in g.nodes for i in nd.members])) >= 3
        assert_same_graph(g, oracle_map_comp(cloud, e, cl))


def test_margin_needs_single_linkage():
    cloud = PointCloud(np.arange(4.0)[:, None])
    probs = np.array([[1, 0], [0.5, 0.5], [0, 1], [0, 1]])
    with pytest.raises(ValueError, match="single linkage"):
        LinkageEpoch(cloud, probs, KMeansClusterer(2))
    LinkageEpoch(cloud, probs == 1, KMeansClusterer(2))  # no margin: any clusterer


def test_margin_linked_to_its_core_inside_one_cell():
    """Beads of five points on a line, each inside one cell and farther
    apart than the threshold. The edge of element 0's core cuts bead 3, so
    its margin points reach the core cluster only inside their cell; bead 4
    is all margin, in both elements."""
    pts = (0.12 * np.arange(8)[:, None] + 0.005 + np.linspace(0, 0.02, 5)).reshape(-1, 1)
    cloud = PointCloud(pts)
    probs = np.zeros((40, 2))
    probs[:18, 0] = 1
    probs[18:25, 0] = 0.5
    probs[20:25, 1] = 0.5
    probs[25:, 1] = 1
    cl = SingleLinkageClusterer(0.06)
    epoch = LinkageEpoch(cloud, probs, cl)
    rng = np.random.default_rng(0)
    for _ in range(30):
        e = ((probs == 1) | ((probs > 0) & (rng.random(probs.shape) < 0.5))).astype(np.uint8)
        assert_same_graph(epoch.graph(e), oracle_map_comp(cloud, e, cl))


def test_epoch_rejects_foreign_draws():
    cloud = PointCloud(np.arange(6.0)[:, None])
    probs = np.array([[1, 0], [1, 0], [0.5, 0.5], [0, 1], [0, 1], [0, 1]])
    cl = SingleLinkageClusterer(1.0)
    epoch = LinkageEpoch(cloud, probs, cl)
    ok = np.array([[1, 0], [1, 0], [1, 0], [0, 1], [0, 1], [0, 1]])
    assert epoch.graph(ok).n_nodes == 2
    with pytest.raises(ValueError):
        epoch.graph(np.ones((6, 2)))  # assigns a p = 0 entry
    with pytest.raises(ValueError):
        epoch.graph(np.zeros((6, 2)))  # drops the core
    with pytest.raises(ValueError):
        map_comp(cloud, ok, SingleLinkageClusterer(2.0), epoch)


def all_pairs(pts, threshold):
    """Every ordered pair (i, j), i == j included, within threshold, read off
    the grid: a cell's points and sure cell pairs unchecked, the other cell
    pairs by point checks."""
    g = Grid(pts, np.zeros(len(pts), dtype=int), threshold)
    s, size = g.start[:-1], np.diff(g.start)
    (a, b), near = g.split(lambda a, b: np.ones(a.size, dtype=bool))
    chunks = [c[1:] for c in range_pairs(s, size, s, size)]
    across = [c[1:] for c in range_pairs(s[a], size[a], s[b], size[b])]
    a, b = near
    across += [c[1:] for c in g.linked(s[a], size[a], s[b], size[b],
                                       lambda ks: np.ones(ks.size, dtype=bool))]
    chunks += across + [(j, i) for i, j in across]
    return g.order[np.concatenate([np.column_stack(c) for c in chunks])]


def lattice(side):
    return np.array([[x, y] for x in range(side) for y in range(side)], dtype=float)


@pytest.mark.parametrize("threshold", [1.0, np.sqrt(2)])
def test_ties_at_the_threshold_match_cdist(threshold):
    pts = lattice(7)
    dense = cdist(pts, pts) <= threshold
    pairs = all_pairs(pts, threshold)
    assert len(pairs) == dense.sum()
    assert np.all(dense[pairs[:, 0], pairs[:, 1]])
    # holes split the lattice into pieces that only the tied edges join
    rng = np.random.default_rng(3)
    cloud = PointCloud(pts)
    for trial in range(20):
        keep = np.flatnonzero(rng.random(len(pts)) < 0.55)
        cl = SingleLinkageClusterer(threshold)
        got = [p.tolist() for p in cluster(cl, cloud, keep)]
        assert got == [p.tolist() for p in oracle_cluster(cl, cloud, keep)]
        e = (rng.random((len(pts), 3)) < 0.6).astype(np.uint8)
        assert_same_graph(map_comp(cloud, e, cl), oracle_map_comp(cloud, e, cl))


def _points(seed, n, d, scale=7.3, offset=0.0):
    return offset + np.random.default_rng(seed).random((n, d)) * scale


_ULP = 2.0 ** -33  # of coordinates near 1e6


@pytest.mark.parametrize("pts", [
    lattice(8) * 0.1 + 0.3,
    _points(5, 60, 3),
    _points(6, 60, 1),
    _points(7, 60, 4),
    _points(8, 60, 2, scale=3e-4, offset=1e6),
    np.repeat(_points(9, 30, 3), 2, axis=0),
    # two cells whose centres, rounded at 1e6, lie farther apart than the
    # threshold dense[0, 2] that links points 0 and 2
    1e6 + _ULP * np.array([[1.0], [0.0], [86001.0], [86002.0]]),
])
def test_ties_at_a_rounded_threshold_match_cdist(pts):
    """Scaled coordinates make the bounds and cdist round differently. Each
    threshold is a cdist value or the float just below one, so some pairs tie
    with it exactly and others miss it by the last bit; squaring it loses the
    last bit often enough to tell sqrt(s) <= t from s <= t * t."""
    dense = cdist(pts, pts)
    cloud = PointCloud(pts)
    rng = np.random.default_rng(4)
    for tie in dense[0][dense[0] > 0][:29]:
        for threshold in (tie, np.nextafter(tie, 0)):
            pairs = all_pairs(pts, threshold)
            assert len(pairs) == (dense <= threshold).sum()
            assert np.all(dense[pairs[:, 0], pairs[:, 1]] <= threshold)
            cl = SingleLinkageClusterer(threshold)
            for trial in range(3):
                keep = np.flatnonzero(rng.random(len(pts)) < 0.5)
                got = [p.tolist() for p in cluster(cl, cloud, keep)]
                assert got == [p.tolist() for p in oracle_cluster(cl, cloud, keep)]


@st.composite
def assignments(draw):
    n = draw(st.integers(1, 25))
    r = draw(st.integers(1, 4))
    coords = draw(st.lists(st.integers(-6, 6), min_size=2 * n, max_size=2 * n))
    bits = draw(st.lists(st.booleans(), min_size=n * r, max_size=n * r))
    pts = np.array(coords, dtype=float).reshape(n, 2) / 2
    e = np.array(bits, dtype=np.uint8).reshape(n, r)
    return pts, e, draw(st.sampled_from([0.5, 1.0, 1.5, 100.0]))


@settings(max_examples=60, deadline=None)
@given(assignments(), st.randoms(use_true_random=False))
def test_permutation_equivariance(case, random):
    pts, e, threshold = case
    perm = np.array(random.sample(range(len(pts)), len(pts)))
    cl = SingleLinkageClusterer(threshold)
    g = map_comp(PointCloud(pts), e, cl)
    h = map_comp(PointCloud(pts[perm]), e[perm], cl)
    # member i of the permuted cloud is original point perm[i]
    relabel = {nd.id: (nd.cover_index, frozenset(int(perm[i]) for i in nd.members))
               for nd in h.nodes}
    key = {nd.id: (nd.cover_index, frozenset(nd.members)) for nd in g.nodes}
    assert set(relabel.values()) == set(key.values())
    assert ({(frozenset([relabel[u], relabel[v]]), w) for (u, v), w in h.edges.items()}
            == {(frozenset([key[u], key[v]]), w) for (u, v), w in g.edges.items()})


@settings(max_examples=60, deadline=None)
@given(assignments())
def test_nodes_cover_every_nonempty_column(case):
    pts, e, threshold = case
    g = map_comp(PointCloud(pts), e, SingleLinkageClusterer(threshold))
    assert {nd.cover_index for nd in g.nodes} == {j + 1 for j in np.flatnonzero(e.any(axis=0))}
    for j in range(e.shape[1]):
        members = [i for nd in g.nodes if nd.cover_index == j + 1 for i in nd.members]
        assert sorted(members) == np.flatnonzero(e[:, j]).tolist()
    if threshold == 100.0:  # wider than the cloud: one node per nonempty column
        assert g.n_nodes == int(e.any(axis=0).sum())


@settings(max_examples=60, deadline=None)
@given(assignments())
def test_edge_weights_are_member_intersections(case):
    pts, e, threshold = case
    g = map_comp(PointCloud(pts), e, SingleLinkageClusterer(threshold))
    assert [nd.id for nd in g.nodes] == list(range(g.n_nodes))
    for u in range(g.n_nodes):
        for v in range(u + 1, g.n_nodes):
            shared = len(set(g.nodes[u].members) & set(g.nodes[v].members))
            assert g.edges.get((u, v), 0) == shared
    assert all(u < v for u, v in g.edges)
