"""The Mapper pipeline against a from-scratch oracle.

The oracle is the straightforward construction: for every sample and every
cover element, a dense cdist threshold graph on the support, its connected
components, then every node pair's member intersection. The production path
clusters each element's deterministic core once per scheme and reuses it
across samples; the two must agree exactly, node order and edge insertion
order included.
"""

import gc
import importlib
import itertools
import json
import weakref
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.spatial.distance import cdist

from conftest import graph_of
from softmapper import clustering, mapper
from softmapper.clustering import (
    Grid,
    KMeansClusterer,
    SingleLinkageClusterer,
    _grid_labels,
    _kmeans_labels,
    _linkage_parts,
    cell_index,
    cluster,
    range_pairs,
)
from softmapper.cover import (
    AssignmentScheme,
    MarginDraws,
    margin_scheme,
    sample_assignment,
    smooth_scheme,
    smoothing_width,
    uniform_cover,
)
from softmapper.data import PointCloud
from softmapper.filters import LinearFilter
from softmapper.export import export_dot, graph_from_json, graph_to_json
from softmapper.mapper import LinkageEpoch, MapperGraph, last_scheme, map_comp, node_means
from softmapper.optimize import OptimConfig, optimize
from softmapper.persistence import (
    extended_persistence,
    loss_and_subgradient,
    map_pers_filtration,
    regular_persistence,
)
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
    members, cover = [], []
    for j in range(e.shape[1]):
        support = np.nonzero(e[:, j])[0]
        if support.size == 0:
            continue
        for part in oracle_cluster(clusterer, cloud, support):
            members.append([int(i) for i in part])
            cover.append(j + 1)
    edges = {}
    member_sets = [set(m) for m in members]
    for u in range(len(members)):
        for v in range(u + 1, len(members)):
            w = len(member_sets[u] & member_sets[v])
            if w:
                edges[(u, v)] = w
    return graph_of(members, cover, edges)


def same_partition(a, b):
    """Whether two labellings of the same points group them alike."""
    def first_of_group(labels):
        _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        return first[inverse]
    return np.array_equal(first_of_group(a), first_of_group(b))


def assert_both_branches_match_cdist(pts, threshold):
    """The grid and the all-pairs check each partition pts as the oracle
    does; _linkage_parts takes the all-pairs check below 129 points, and
    then its parts must come in the oracle's order too."""
    want = oracle_linkage_labels(pts, threshold)
    assert same_partition(_grid_labels(cell_index(PointCloud(pts), threshold),
                                       np.arange(len(pts))), want)
    if len(pts) <= 128:
        cl, cloud, every = SingleLinkageClusterer(threshold), PointCloud(pts), np.arange(len(pts))
        got = _linkage_parts(every, pts, threshold)
        assert [p.tolist() for p in got] == [p.tolist() for p in oracle_cluster(cl, cloud, every)]


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


@pytest.mark.parametrize("case", range(0, 12, 3))
def test_a_margin_block_gives_the_graphs_of_its_dense_draws(case):
    """A ``MarginDraws`` block, whose columns run in the scheme's entry
    order, gives the graphs of its dense draws, with its epoch or without
    one, and an epoch takes only a block of its own scheme."""
    cloud, scheme, threshold = smooth_case(case)
    cl = SingleLinkageClusterer(threshold)
    epoch = LinkageEpoch(cloud, scheme, cl)
    # a repeated support takes the memo's arrays, the column order among them
    again = LinkageEpoch(cloud, smooth_case(case)[1], cl)
    assert again._margin_perm is epoch._margin_perm
    draws = MarginDraws(scheme, sample_assignment(margin_scheme(scheme, 5), [case, 0]))
    assert draws.drawn.any(axis=0).sum() > 1  # more than one margin entry is drawn
    e = draws.dense()
    want = map_comp(cloud, e, cl, epoch)
    assert_same_graph(epoch.graph(draws), want)
    assert_same_graph(map_comp(cloud, draws, cl, epoch), want)
    assert_same_graph(again.graph(MarginDraws(again.scheme, draws.drawn)), want)
    with pytest.raises(ValueError, match="another scheme"):
        epoch.graph(MarginDraws(again.scheme, draws.drawn))
    assert_same_graph(map_comp(cloud, draws, cl), want)
    km = KMeansClusterer(3, seed=case)
    assert_same_graph(map_comp(cloud, draws, km), map_comp(cloud, e, km))


def test_threshold_past_the_extent_matches_oracle():
    """A threshold of 1e200 links every pair; the margin grid's kd-tree
    squares its reach, which must stay finite."""
    cloud, scheme, _ = smooth_case(1)
    cl = SingleLinkageClusterer(1e200)
    epoch = LinkageEpoch(cloud, scheme.probs, cl)
    for m in range(4):
        e = sample_assignment(scheme, m)
        assert_same_graph(epoch.graph(e), oracle_map_comp(cloud, e, cl))


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


@pytest.mark.parametrize("bad", [2.0, -0.5, np.nan])
def test_entries_outside_the_unit_interval_rejected(bad):
    """An entry above 1, below 0 or NaN is neither core nor margin; the epoch
    rejects it when built, not only when a draw fails to match it."""
    cloud = generate_synthetic("circle", n=60, noise=0.0, seed=0)
    probs = np.zeros((60, 3))
    probs[:20, 0] = 1
    probs[20:40, 1] = 0.5
    probs[40:, 2] = 1
    probs[20:30, 1] = bad
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        LinkageEpoch(cloud, probs, SingleLinkageClusterer(0.5))


def test_a_cover_with_no_elements_gives_an_empty_graph():
    cloud = generate_synthetic("circle", n=50, noise=0.0, seed=0)
    graph = map_comp(cloud, np.zeros((50, 0)), SingleLinkageClusterer(0.3))
    assert graph.n_nodes == 0 and len(graph.edges) == 0


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


def test_margin_links_a_core_cluster_beside_its_own_cell():
    """Element 0's core has the clusters {0, 0.01} and {0.12, 0.13}, in
    cells 0 and 2. The margin point 0.04 shares cell 0 with the first and
    lies within the threshold of the second, so keeping it joins the two:
    a cell pair holding core entries of two clusters still needs its check."""
    cloud = PointCloud(np.array([0.0, 0.01, 0.04, 0.12, 0.13])[:, None])
    probs = np.array([[1.0], [1.0], [0.5], [1.0], [1.0]])
    cl = SingleLinkageClusterer(0.1)
    epoch = LinkageEpoch(cloud, probs, cl)
    for keep, n_nodes in [(1, 1), (0, 2)]:
        e = (probs == 1).astype(np.uint8)
        e[2, 0] = keep
        g = epoch.graph(e)
        assert g.n_nodes == n_nodes
        assert_same_graph(g, oracle_map_comp(cloud, e, cl))


def test_every_draw_sums_the_unit_pairs_of_shared_points():
    """Point 4 is in the margins of all three elements, point 5 is margin in
    element 0 and core in element 1, and points 6 and 7 are core in element 1
    and margin in element 2. Edge weights sum margin-margin, margin-core and
    core-core unit pairs, and every draw of the six margin entries must give
    the oracle's graph."""
    cloud = PointCloud(0.1 * np.arange(10.0)[:, None])
    probs = np.zeros((10, 3))
    probs[:4, 0] = 1
    probs[4] = 0.5
    probs[5, :2] = [0.5, 1]
    probs[6:8, 1:] = [1, 0.5]
    probs[8:, 2] = 1
    cl = SingleLinkageClusterer(0.15)
    epoch = LinkageEpoch(cloud, probs, cl)
    margin = np.flatnonzero((probs > 0) & (probs < 1))
    assert margin.size == 6
    for bits in range(1 << margin.size):
        e = (probs == 1).astype(np.uint8)
        e.ravel()[margin] = (bits >> np.arange(margin.size)) & 1
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
    with pytest.raises(ValueError, match=r"assignment must be \(6, 2\)"):
        epoch.graph(ok[:, :1])
    for scheme in (probs[:5], probs[:, 0]):
        with pytest.raises(ValueError, match="scheme must have 6 rows"):
            LinkageEpoch(cloud, scheme, cl)


def all_pairs(pts, threshold):
    """Every ordered pair (i, j), i == j included, within threshold, read off
    the grid: a cell's points and sure cell pairs unchecked, the other cell
    pairs by point checks."""
    g = Grid(cell_index(PointCloud(pts), threshold), np.arange(len(pts)),
             np.zeros(len(pts), dtype=int))
    s, size = g.start[:-1], np.diff(g.start)
    (a, b), near = g.split()
    chunks = [c[1:] for c in range_pairs(s, size, s, size)]
    across = [c[1:] for c in range_pairs(s[a], size[a], s[b], size[b])]
    a, b = near
    across += [c[1:] for c in g.linked(s[a], size[a], s[b], size[b])]
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
        assert_both_branches_match_cdist(pts[keep], threshold)
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
                assert_both_branches_match_cdist(pts[keep], threshold)


@pytest.mark.parametrize("n", [128, 129])
def test_linkage_on_either_side_of_the_pair_bound(n, monkeypatch):
    """128 points make 8128 pairs, within one check block of _CHUNK = 8192,
    and take the all-pairs check; 129 make 8256 and take the grid. Lattice
    holes leave pieces that only the tied edges join."""
    grid_calls = []
    monkeypatch.setattr(clustering, "_grid_labels",
                        lambda *args: grid_calls.append(1) or _grid_labels(*args))
    pts = lattice(16)
    cloud = PointCloud(pts)
    rng = np.random.default_rng(11)
    for threshold in (1.0, np.sqrt(2)):
        for trial in range(5):
            keep = np.sort(rng.permutation(len(pts))[:n])
            cl = SingleLinkageClusterer(threshold)
            got = [p.tolist() for p in cluster(cl, cloud, keep)]
            assert got == [p.tolist() for p in oracle_cluster(cl, cloud, keep)]
    assert len(grid_calls) == (10 if n > 128 else 0)


@pytest.mark.parametrize("below", [False, True])
def test_undecided_cell_pair_checked_in_several_chunks(below):
    """Two columns of 100 points, one cell each, make one
    undecided cell pair of 10,000 point pairs, more than one chunk of
    _CHUNK = 8192. Only the last point of each column lies at exactly the
    threshold, in the second chunk; just below it the columns stay apart."""
    k = np.arange(100)
    pts = np.concatenate([np.column_stack([np.zeros(100), k / 512]),
                          np.column_stack([1 + (99 - k) / 4096, k / 512])])
    threshold = np.nextafter(1.0, 0) if below else 1.0
    g = Grid(cell_index(PointCloud(pts), threshold), np.arange(len(pts)),
             np.zeros(len(pts), dtype=int))
    size = np.diff(g.start)
    _, (a, b) = g.split()
    assert size.tolist() == [100, 100] and (size[a] * size[b]).sum() > clustering._CHUNK
    dense = cdist(pts, pts) <= threshold
    pairs = all_pairs(pts, threshold)
    assert len(pairs) == dense.sum() and np.all(dense[pairs[:, 0], pairs[:, 1]])
    cl, cloud = SingleLinkageClusterer(threshold), PointCloud(pts)
    got = [p.tolist() for p in cluster(cl, cloud, range(len(pts)))]
    assert got == [p.tolist() for p in oracle_cluster(cl, cloud, range(len(pts)))]
    assert len(got) == (2 if below else 1)
    # all margin: the margin pass checks the same cell pair, margin with margin
    probs = np.full((len(pts), 1), 0.5)
    epoch = LinkageEpoch(cloud, probs, cl)
    rng = np.random.default_rng(5)
    for e in [np.ones((len(pts), 1), dtype=np.uint8),
              *((rng.random((len(pts), 1)) < 0.9).astype(np.uint8) for _ in range(5))]:
        assert_same_graph(epoch.graph(e), oracle_map_comp(cloud, e, cl))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128]), st.integers(1, 10),
       st.integers(0, 2 ** 32 - 1), st.floats(0, 0.3), st.booleans(), st.booleans())
def test_all_pairs_parts_match_cdist(n, d, seed, rank, lattice_points, below):
    """Sets of up to 128 points, across every byte and word boundary of a
    point's links held as bits, at a cdist value or the float just below it:
    cluster's parts and their order are the oracle's."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 4, (n, d)).astype(float) if lattice_points else rng.random((n, d))
    dist = np.unique(cdist(pts, pts))
    dist = dist[dist > 0] if (dist > 0).any() else np.ones(1)
    threshold = dist[int(rank * (dist.size - 1))]
    if below:
        threshold = np.nextafter(threshold, 0)
    cl, cloud = SingleLinkageClusterer(threshold), PointCloud(pts)
    got = [p.tolist() for p in cluster(cl, cloud, range(n))]
    assert got == [p.tolist() for p in oracle_cluster(cl, cloud, range(n))]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1), st.floats(0, 0.02), st.booleans(),
       st.booleans())
def test_grid_parts_on_a_shared_cloud_match_cdist(d, seed, rank, lattice_points, below):
    """Random sets of 129-600 points of one cloud, every one binned by the
    cloud's one cell index, at a cdist value or the float just below it:
    cluster's parts and their order are the oracle's."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 9, (700, d)).astype(float) if lattice_points else rng.random((700, d))
    dist = np.unique(cdist(pts[:40], pts))
    threshold = dist[dist > 0][int(rank * (np.count_nonzero(dist) - 1))]
    if below:
        threshold = np.nextafter(threshold, 0)
    cl, cloud = SingleLinkageClusterer(threshold), PointCloud(pts)
    for size in rng.integers(129, 601, 3):
        keep = np.sort(rng.choice(len(pts), size, replace=False))
        got = [p.tolist() for p in cluster(cl, cloud, keep)]
        assert got == [p.tolist() for p in oracle_cluster(cl, cloud, keep)]


@pytest.mark.parametrize("threshold", [0.1, np.nextafter(0.1, 0), 0.1 * np.sqrt(2)])
def test_sets_far_from_the_cloud_origin_match_the_oracle(threshold):
    """One far outlier puts the cloud's least coordinates, the cell index's
    origin, 1e5 away from a tie-heavy lattice, so the lattice's shifted
    coordinates round at 1e5; cluster and the margin pass still match."""
    pts = np.concatenate([lattice(25) * 0.1, [[-1e5, -1e5]]])
    cloud, cl = PointCloud(pts), SingleLinkageClusterer(threshold)
    rng = np.random.default_rng(13)
    for size in (40, 128, 129, 400, 625):
        keep = np.sort(rng.choice(625, size, replace=False))
        got = [p.tolist() for p in cluster(cl, cloud, keep)]
        assert got == [p.tolist() for p in oracle_cluster(cl, cloud, keep)]
    probs = rng.choice([0.0, 0.5, 1.0], size=(len(pts), 3), p=[0.3, 0.3, 0.4])
    epoch = LinkageEpoch(cloud, probs, cl)
    for m in range(3):
        e = (rng.random(probs.shape) < probs).astype(np.uint8)
        assert_same_graph(epoch.graph(e), oracle_map_comp(cloud, e, cl))


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


@settings(max_examples=60, deadline=None)
@given(assignments())
def test_both_linkage_branches_match_cdist(case):
    pts, _, threshold = case
    assert_both_branches_match_cdist(pts, threshold)


@settings(max_examples=60, deadline=None)
@given(assignments(), st.integers(0, 2 ** 32 - 1))
def test_array_form_matches_nodes(case, seed):
    """indptr, members and cover hold what the MapperNode records list, the
    nodes and the graph's JSON document rebuild the same graph, the document
    with an edge's weight raised or the edge dropped is rejected, and
    node_means sums each node's values in its member order."""
    pts, e, threshold = case
    g = map_comp(PointCloud(pts), e, SingleLinkageClusterer(threshold))
    assert [nd.id for nd in g.nodes] == list(range(g.n_nodes))
    assert g.indptr.tolist() == [0, *np.cumsum([len(nd.members) for nd in g.nodes]).tolist()]
    assert g.members.tolist() == [i for nd in g.nodes for i in nd.members]
    assert g.cover.tolist() == [nd.cover_index for nd in g.nodes]
    assert graph_of([nd.members for nd in g.nodes], [nd.cover_index for nd in g.nodes],
                    g.edges) == g
    assert graph_from_json(graph_to_json(g)) == g
    doc = json.loads(graph_to_json(g))
    if doc["edges"]:
        first, *rest = doc["edges"]
        for edges in ([{**first, "weight": first["weight"] + 1}, *rest], rest):
            with pytest.raises(ValueError):
                graph_from_json(json.dumps({**doc, "edges": edges}))
    rng = np.random.default_rng(seed)
    for values in (rng.standard_normal(len(pts)), rng.standard_normal((len(pts), 3))):
        want = [np.add.reduceat(values[list(nd.members)], [0], axis=0)[0] / len(nd.members)
                for nd in g.nodes]
        assert np.array_equal(node_means(g, values),
                              np.reshape(want, (g.n_nodes, *values.shape[1:])))


def test_a_draw_builds_no_node_or_edge_objects(monkeypatch):
    """The per-draw path, the sweeps and both graph writers read the
    graph's arrays; the MapperNode records and the edge dict are built only
    when a caller reads ``nodes`` or ``edges``, once per graph."""
    builds = {"nodes": [], "edges": []}
    for name, log in builds.items():
        view = cached_property(lambda g, build=getattr(MapperGraph, name).func, log=log:
                               log.append(g) or build(g))
        view.__set_name__(MapperGraph, name)
        monkeypatch.setattr(MapperGraph, name, view)
    cloud, scheme, threshold = smooth_case(1)
    cl = SingleLinkageClusterer(threshold)
    epoch = LinkageEpoch(cloud, scheme.probs, cl)
    e = np.stack([sample_assignment(scheme, seed) for seed in range(3)])
    theta = np.array([0.6, 0.8, 0.0])
    fv = LinearFilter().evaluate(cloud, theta)
    for mode in ("extended", "regular"):
        loss_and_subgradient(cloud, e, LinearFilter(), theta, cl, mode, epoch, fv=fv)
    g = map_comp(cloud, e[0], cl, epoch)
    fg = map_pers_filtration(g, fv)
    extended_persistence(fg), regular_persistence(fg)
    graph_from_json(graph_to_json(g, fg.node_values))
    export_dot(g, fg.node_values)
    assert g.n_edges > 0 and builds == {"nodes": [], "edges": []}
    assert len(g.nodes) == g.n_nodes and len(g.edges) == g.n_edges
    assert g.nodes is g.nodes and g.edges is g.edges
    assert builds == {"nodes": [g], "edges": [g]}


def test_an_optimize_epoch_lists_no_members(monkeypatch):
    """An epoch's graphs hold their nodes as the epoch's units, and an
    optimize epoch reads only those: ``indptr`` and ``members`` are views
    listed on first read, which no optimize epoch reads."""
    listed = []
    for name in ("indptr", "members"):
        view = cached_property(lambda g, build=getattr(MapperGraph, name).func:
                               listed.append(g) or build(g))
        view.__set_name__(MapperGraph, name)
        monkeypatch.setattr(MapperGraph, name, view)
    cloud = generate_synthetic("y_shape", n=200, noise=0.02, seed=0)
    for mode in ("extended", "regular"):
        optimize(cloud, LinearFilter(), np.ones(3) / np.sqrt(3), SingleLinkageClusterer(0.2),
                 OptimConfig(epochs=5, mc_samples=4, mode=mode, seed=2))
    assert listed == []
    cloud, scheme, threshold = smooth_case(1)
    g = LinkageEpoch(cloud, scheme, SingleLinkageClusterer(threshold)).graph(
        sample_assignment(scheme, 0))
    assert g.members is g.members and g.indptr is g.indptr
    assert listed == [g, g]


def member_order_means(graph, values):
    """Each node's mean over its listed members, summed in member order, and
    each node's mean of |values|."""
    x, size = values.take(graph.members, axis=0), np.diff(graph.indptr)
    return ((np.add.reduceat(x, graph.indptr[:-1], axis=0).T / size).T,
            (np.add.reduceat(np.abs(x), graph.indptr[:-1], axis=0).T / size).T)


@pytest.mark.parametrize("case", range(12))
def test_epoch_node_means_lie_within_ulps_of_member_sums(case):
    """An epoch's draws sum each node unit by unit. A node of several units
    then lies within 4 ulps of its mean |value| of the sum over its listed
    members in member order; a node of one unit equals that sum bit for bit."""
    cloud, scheme, threshold = smooth_case(case)
    g = LinkageEpoch(cloud, scheme, SingleLinkageClusterer(threshold)).graph(
        np.stack([sample_assignment(scheme, 1000 * case + m) for m in range(6)]))
    one = np.diff(g._node_units[0]) == 1
    fv = LinearFilter().evaluate(cloud, np.random.default_rng(case).standard_normal(cloud.dim))
    for values in (fv.values, fv.jacobian):
        got = node_means(g, values)
        want, scale = member_order_means(g, values)
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)
        assert got[one].tobytes() == want[one].tobytes()
    if case == 1:
        assert not one.all()  # the draws have nodes of several units


@pytest.mark.parametrize("case", range(0, 12, 3))
def test_nodes_of_one_unit_keep_their_member_sums_bit_for_bit(case):
    """Graphs whose nodes are one unit each (a margin-free scheme's, a draw's
    without an epoch, one given by its members) give the member-order means
    bit for bit, a sum of -0.0 included."""
    cloud, scheme, threshold = smooth_case(case)
    cl = SingleLinkageClusterer(threshold)
    draw = sample_assignment(scheme, case)
    g = LinkageEpoch(cloud, scheme.probs == 1, cl).graph()
    graphs = [g, map_comp(cloud, draw, cl),
              graph_of([nd.members for nd in g.nodes], g.cover, g.edges)]
    rng = np.random.default_rng(case)
    values = np.where(rng.random(cloud.n) < 0.5, -0.0, rng.standard_normal(cloud.n))
    for graph in graphs:
        assert np.array_equal(graph._node_units[1], np.arange(graph.n_nodes))
        for v in (values, np.c_[values, -0.0 * values, rng.standard_normal(cloud.n)],
                  np.full(cloud.n, -0.0)):
            want, _ = member_order_means(graph, v)
            assert node_means(graph, v).tobytes() == want.tobytes()
    assert np.signbit(node_means(g, np.full(cloud.n, -0.0))).all()


def epoch_runs():
    """Schemes at each epoch's theta of two optimize runs: 40 epochs on a
    2000-point y-shape at M = 3, whose support never repeats, and 100 on a
    noisy circle, whose support repeats in most of its last 50, each with
    its own draw seeds; then a resolution sweep at one theta on an 800-point
    y-shape, whose epochs have more or fewer elements than the last."""
    def scheme(cloud, theta, resolution, config=OptimConfig()):
        fv = LinearFilter().evaluate(cloud, theta)
        cover = uniform_cover(fv.values, resolution, config.gain)
        return smooth_scheme(fv, cover, smoothing_width(fv, resolution, config.delta_rel))

    for cloud, threshold, resolution, epochs in [
            (generate_synthetic("y_shape", n=2000, noise=0.02, seed=3), 0.2, 10, 40),
            (generate_synthetic("circle", n=500, noise=0.02, seed=3), 0.1, 8, 100)]:
        config = OptimConfig(epochs=epochs, mc_samples=3, maximize=True, resolution=resolution,
                             seed=3)
        cl = SingleLinkageClusterer(threshold)
        theta0 = np.ones(cloud.dim) / np.sqrt(cloud.dim)
        _, trace = optimize(cloud, LinearFilter(), theta0, cl, config)
        yield cloud, cl, [(scheme(cloud, theta, resolution),
                           config.seed + 1 + k * config.mc_samples)
                          for k, theta in enumerate([theta0, *trace.thetas[:-1]])]
    cloud = generate_synthetic("y_shape", n=800, noise=0.02, seed=3)
    theta = np.ones(cloud.dim) / np.sqrt(cloud.dim)
    yield cloud, SingleLinkageClusterer(0.2), [
        (scheme(cloud, theta, r), 3 * k) for k, r in enumerate([10, 12, 10, 7, 7, 13, 13])]


@pytest.fixture
def builds(monkeypatch):
    """The sets ``mapper.cluster`` is called on, the elements of each margin
    grid and the elements each margin pass is asked to rebuild, in call
    order; an epoch that builds makes one margin pass, if an empty one."""
    log = {"cluster": [], "grid": [], "edges": []}
    real_cluster, real_grid, real_edges = mapper.cluster, mapper.Grid, LinkageEpoch._margin_edges

    def counted_cluster(clusterer, cloud, members):
        log["cluster"].append(members.tolist())
        return real_cluster(clusterer, cloud, members)

    def counted_grid(cells, idx, owner):
        log["grid"].append(np.unique(owner).tolist())
        return real_grid(cells, idx, owner)

    def counted_edges(epoch, rebuild, *entries):
        log["edges"].append(np.flatnonzero(rebuild).tolist())
        return real_edges(epoch, rebuild, *entries)

    monkeypatch.setattr(mapper, "cluster", counted_cluster)
    monkeypatch.setattr(mapper, "Grid", counted_grid)
    monkeypatch.setattr(LinkageEpoch, "_margin_edges", counted_edges)
    return log


def test_reused_elements_match_a_rebuild_over_whole_runs(builds):
    """Each epoch on one cloud reuses the elements whose point sets repeat;
    its graphs equal, draw by draw, those of an epoch on a fresh cloud."""
    for cloud, cl, schemes in epoch_runs():
        shared, calls, grids = PointCloud(cloud.points), 0, 0
        for scheme, seed in schemes:
            builds["cluster"].clear()
            builds["grid"].clear()
            epoch = LinkageEpoch(shared, scheme.probs, cl)
            calls += len(builds["cluster"])
            grids += sum(map(len, builds["grid"]))
            rebuilt = LinkageEpoch(PointCloud(cloud.points), scheme.probs, cl)
            for m in range(3):
                e = sample_assignment(scheme, seed + m)
                assert_same_graph(epoch.graph(e), rebuilt.graph(e))
        cores = sum(np.count_nonzero((s.probs == 1).any(axis=0)) for s, _ in schemes)
        margins = sum(np.count_nonzero(((s.probs > 0) & (s.probs < 1)).any(axis=0))
                      for s, _ in schemes)
        assert 0 < calls < cores and 0 < grids < margins  # some elements repeat, not all


def test_a_scheme_reused_over_whole_runs_equals_a_fresh_build(monkeypatch):
    """Every epoch of the optimize runs of ``epoch_runs`` gets the scheme a
    build from scratch gives, bit for bit, and the circle run, whose support
    settles, takes it from the last scheme's runs in most of its late epochs."""
    optimize_module = importlib.import_module("softmapper.optimize")
    real, reused = optimize_module._reuse, []

    def checked(prev, fv, cover, delta):
        scheme = real(prev, fv, cover, delta)
        want = smooth_scheme(fv, cover, delta)
        got = want if scheme is None else scheme
        assert got.shape == want.shape
        assert got.flat.tobytes() == want.flat.tobytes()
        assert got.values.tobytes() == want.values.tobytes()
        reused.append(scheme is not None)
        return scheme

    monkeypatch.setattr(optimize_module, "_reuse", checked)
    late = []
    for _, _, schemes in itertools.islice(epoch_runs(), 2):  # the optimize runs
        assert len(reused) == len(schemes)
        late.append(np.mean(reused[len(reused) // 2:]))
        reused.clear()
    assert late[1] > 0.5  # the circle run's share of late epochs that reuse


def rebuild_counts(builds, cloud, probs, cl):
    """The cluster sets and margin grids of an epoch of probs on the cloud,
    after checking its draws against an epoch on a fresh cloud."""
    builds["cluster"].clear()
    builds["grid"].clear()
    epoch = LinkageEpoch(cloud, probs, cl)
    counts = list(builds["cluster"]), list(builds["grid"])
    rebuilt = LinkageEpoch(PointCloud(cloud.points), probs, cl)
    for m in range(4):
        e = sample_assignment(AssignmentScheme(probs), m)
        assert_same_graph(epoch.graph(e), rebuilt.graph(e))
    return counts


def swap_point(probs, j, p):
    """probs with one entry p of column j moved to a point outside column
    j, so the column's set changes but keeps its size."""
    probs = probs.copy()
    probs[np.flatnonzero(probs[:, j] == p)[0], j] = 0
    probs[np.flatnonzero(probs[:, j] == 0)[-1], j] = p
    return probs


def test_only_changed_elements_are_rebuilt(builds):
    cloud, scheme, threshold = smooth_case(1)
    cloud, probs, cl = PointCloud(cloud.points), scheme.probs, SingleLinkageClusterer(threshold)
    core, margin = (probs == 1).any(axis=0), ((probs > 0) & (probs < 1)).any(axis=0)
    called, grids = rebuild_counts(builds, cloud, probs, cl)
    assert len(called) == np.count_nonzero(core)  # a fresh cloud: every core
    assert grids == [np.flatnonzero(margin).tolist()]
    assert rebuild_counts(builds, cloud, probs.copy(), cl) == ([], [])
    # one core set changed, at its size: one call, and a grid over that element
    j = int(np.flatnonzero(core & margin)[0])
    moved = swap_point(probs, j, 1.0)
    assert rebuild_counts(builds, cloud, moved, cl) == (
        [np.flatnonzero(moved[:, j] == 1).tolist()], [[j]])
    # one margin set changed, at its size: no call, and a grid over that element
    p = moved[(moved[:, j] > 0) & (moved[:, j] < 1), j][0]
    assert rebuild_counts(builds, cloud, swap_point(moved, j, p), cl) == ([], [[j]])


def test_kmeans_reuses_unchanged_columns(builds):
    cloud, scheme, _ = smooth_case(3)
    cloud, km = PointCloud(cloud.points), KMeansClusterer(3, seed=1)
    e = sample_assignment(scheme, 0) != 0
    called, grids = rebuild_counts(builds, cloud, e, km)
    assert len(called) == np.count_nonzero(e.any(axis=0)) and grids == []
    assert rebuild_counts(builds, cloud, e.copy(), km) == ([], [])
    j = int(np.flatnonzero(e.sum(axis=0) > 1)[0])
    moved = swap_point(e, j, True)
    assert rebuild_counts(builds, cloud, moved, km) == ([np.flatnonzero(moved[:, j]).tolist()], [])
    for m in range(3):
        d = sample_assignment(scheme, m + 1)
        assert_same_graph(map_comp(cloud, d, km), oracle_map_comp(cloud, d, km))


def assert_draws_match_a_fresh_cloud(epoch, cloud, probs, cl):
    """Four draws of the scheme probs have the graphs under the epoch that
    they have under an epoch on a fresh cloud."""
    fresh = LinkageEpoch(PointCloud(cloud.points), probs, cl)
    for seed in range(4):
        e = sample_assignment(AssignmentScheme(probs), seed)
        assert_same_graph(epoch.graph(e), fresh.graph(e))


def test_a_repeated_support_reuses_the_whole_epoch(builds):
    """An epoch whose scheme has the same nonzero entries, and the same ones
    equal to 1, as the last epoch on its cloud and clusterer neither
    clusters nor searches a margin grid, whatever its margin probabilities."""
    cloud, scheme, threshold = smooth_case(1)
    cloud, cl = PointCloud(cloud.points), SingleLinkageClusterer(threshold)
    margin = (scheme.probs > 0) & (scheme.probs < 1)
    assert margin.any()
    LinkageEpoch(cloud, scheme.probs, cl)
    assert builds["cluster"] and builds["edges"]
    probs = np.where(margin, scheme.probs / 2, scheme.probs)
    for log in builds.values():
        log.clear()
    epoch = LinkageEpoch(cloud, probs, cl)
    assert builds == {"cluster": [], "grid": [], "edges": []}
    assert_draws_match_a_fresh_cloud(epoch, cloud, probs, cl)


def test_another_support_clusterer_or_cloud_builds_anew(builds):
    """One entry flipped between core and margin, another element count,
    another clusterer or another cloud: the epoch is built, not reused."""
    cloud, scheme, threshold = smooth_case(1)
    cloud, cl, probs = PointCloud(cloud.points), SingleLinkageClusterer(threshold), scheme.probs
    to_margin, to_core = probs.copy(), probs.copy()
    to_margin.flat[np.flatnonzero(probs == 1)[0]] = 0.5
    to_core.flat[np.flatnonzero((probs > 0) & (probs < 1))[0]] = 1.0
    for other_cloud, other, other_cl in [
            (cloud, to_margin, cl), (cloud, to_core, cl),
            (cloud, np.pad(probs, ((0, 0), (0, 1))), cl),
            (cloud, probs, SingleLinkageClusterer(1.5 * threshold)),
            (PointCloud(cloud.points), probs, cl)]:
        LinkageEpoch(cloud, probs, cl)  # the memo of (cloud, cl) holds probs' support
        builds["edges"].clear()
        epoch = LinkageEpoch(other_cloud, other, other_cl)
        assert len(builds["edges"]) == 1
        assert_draws_match_a_fresh_cloud(epoch, other_cloud, other, other_cl)


def test_the_memo_is_read_only_and_dies_with_its_cloud():
    """The arrays a reused epoch shares cannot be written, and the memo
    holds no reference back to the cloud, so reference counting alone frees
    a dropped cloud."""
    cloud, scheme, threshold = smooth_case(1)
    cloud, cl = PointCloud(cloud.points), SingleLinkageClusterer(threshold)
    epoch = LinkageEpoch(cloud, scheme.probs, cl)
    memo = cloud._epochs[cl]
    assert memo.scheme is epoch.scheme and memo.scheme._runs is None  # built from a matrix
    again = LinkageEpoch(cloud, scheme, cl)
    assert all(getattr(again, name) is a for name, a in memo.state.items())
    # a reusing epoch's scheme, with the runs its build kept, replaces the last
    memo = cloud._epochs[cl]
    assert memo.scheme is scheme and last_scheme(cloud, cl) is scheme
    arrays = [memo.scheme.flat, memo.scheme.values, memo.scheme.margin, *memo.scheme._runs,
              *memo.state.values()]
    # only what graph(e) reads: a rebuild's other arrays die with it
    assert memo.state.keys() == {"_core_flat", "_margin_flat", "_margin_perm", "_margin_unit",
                                 "_unit_elem", "_unit_ptr", "_unit_pts", "_pairs", "_edges"}
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        epoch._edges[...] = 0
    ref = weakref.ref(cloud)
    gc.disable()
    try:
        del cloud, epoch, again
        assert ref() is None
    finally:
        gc.enable()
