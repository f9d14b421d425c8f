import numpy as np
import pytest
from scipy import sparse

from softmapper.clustering import (
    KMeansClusterer,
    SingleLinkageClusterer,
    cluster,
    merge_components,
    threshold_from_hausdorff,
)
from softmapper.data import PointCloud


@pytest.fixture
def line_cloud():
    return PointCloud(np.array([[0.0], [0.1], [10.0], [10.1]]))


def as_sets(parts):
    return {frozenset(p.tolist()) for p in parts}


def test_kmeans_separated_pairs(line_cloud):
    parts = cluster(KMeansClusterer(2, seed=3), line_cloud, [0, 1, 2, 3])
    assert as_sets(parts) == {frozenset({0, 1}), frozenset({2, 3})}


def test_single_linkage_separated_pairs(line_cloud):
    parts = cluster(SingleLinkageClusterer(0.5), line_cloud, [0, 1, 2, 3])
    assert as_sets(parts) == {frozenset({0, 1}), frozenset({2, 3})}


def test_singleton_member_set(line_cloud):
    for cl in (KMeansClusterer(4), SingleLinkageClusterer(0.5)):
        parts = cluster(cl, line_cloud, [2])
        assert as_sets(parts) == {frozenset({2})}


def test_empty_member_set_rejected(line_cloud):
    with pytest.raises(ValueError):
        cluster(SingleLinkageClusterer(0.5), line_cloud, [])


def test_threshold_below_coordinate_resolution_rejected(line_cloud):
    # cells of side t / 2 could not be told apart in floating point
    with pytest.raises(ValueError, match="too small"):
        cluster(SingleLinkageClusterer(1e-300), line_cloud, [0, 1, 2, 3])


def test_kmeans_more_clusters_than_points(line_cloud):
    parts = cluster(KMeansClusterer(10, seed=0), line_cloud, [0, 2, 3])
    assert len(parts) == 3
    assert all(len(p) == 1 for p in parts)


def test_partition_property(rng):
    cloud = PointCloud(rng.standard_normal((40, 3)))
    members = sorted(rng.choice(40, size=25, replace=False).tolist())
    for cl in (KMeansClusterer(4, seed=1), SingleLinkageClusterer(0.8)):
        parts = cluster(cl, cloud, members)
        flat = sorted(int(i) for p in parts for i in p)
        assert flat == members
        assert sum(len(p) for p in parts) == len(set(flat))


def test_kmeans_deterministic(rng):
    cloud = PointCloud(rng.standard_normal((30, 2)))
    a = cluster(KMeansClusterer(3, seed=7), cloud, range(30))
    b = cluster(KMeansClusterer(3, seed=7), cloud, range(30))
    assert as_sets(a) == as_sets(b)


def test_single_linkage_permutation_invariant(rng):
    pts = rng.standard_normal((25, 2))
    perm = rng.permutation(25)
    base = cluster(SingleLinkageClusterer(0.6), PointCloud(pts), range(25))
    permuted = cluster(SingleLinkageClusterer(0.6), PointCloud(pts[perm]), range(25))
    inv = np.argsort(perm)
    relabeled = {frozenset(int(inv[i]) for i in p) for p in base}
    assert as_sets(permuted) == {frozenset(int(i) for i in p) for p in relabeled}


def test_threshold_from_hausdorff():
    cloud = PointCloud([[0.0], [10.0]])
    cl1 = threshold_from_hausdorff(cloud, 0.5, 1.0, seed=0)
    assert cl1.threshold == 10.0
    cl2 = threshold_from_hausdorff(cloud, 0.5, 2.0, seed=0)
    assert cl2.threshold == 2 * cl1.threshold


def test_threshold_fraction_one_degenerate(rng):
    cloud = PointCloud(rng.standard_normal((10, 2)))
    with pytest.raises(ValueError):
        threshold_from_hausdorff(cloud, 1.0, 1.0, seed=0)


@pytest.mark.parametrize("trial", range(20))
def test_merge_components_matches_scipy(trial):
    rng = np.random.default_rng(trial)
    n = int(rng.integers(1, 300))
    m = int(rng.integers(0, 2 * n))
    i, j = rng.integers(0, n, m), rng.integers(0, n, m)
    if trial % 4 == 0:  # a long path in random vertex order
        perm = rng.permutation(n)
        i, j = perm[:-1], perm[1:]
    label = merge_components(np.arange(n), i, j)
    adj = sparse.coo_matrix((np.ones(i.size), (i, j)), shape=(n, n))
    _, ref = sparse.csgraph.connected_components(adj, directed=False)
    smallest = {}
    for v, c in enumerate(ref):
        smallest.setdefault(c, v)
    assert label.tolist() == [smallest[c] for c in ref]
    # merging in two batches gives the same labelling
    half = i.size // 2
    split = merge_components(merge_components(np.arange(n), i[:half], j[:half]),
                             i[half:], j[half:])
    assert split.tolist() == label.tolist()
