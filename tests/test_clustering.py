import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse

from softmapper import clustering
from softmapper.clustering import (
    CellIndex,
    KMeansClusterer,
    SingleLinkageClusterer,
    _grid_labels,
    cell_index,
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
    for members in ([0, 4], [-1, 0]):
        with pytest.raises(ValueError, match="member index out of range"):
            cluster(SingleLinkageClusterer(0.5), line_cloud, members)


def test_member_indices_must_be_one_dimensional_integers(line_cloud):
    """Fractional or 2-D member indices raise ValueError rather than being
    truncated or flattened, and a bool array is no integer array."""
    for cl in (KMeansClusterer(2), SingleLinkageClusterer(0.5)):
        for members in ([1.7, 2.2], np.array([1.0, 2.0]), [[0, 1], [2, 3]], np.eye(2, dtype=int),
                        np.array([True, False, True, True]), ["1", "2"]):
            with pytest.raises(ValueError, match="1-D integer array"):
                cluster(cl, line_cloud, members)
        for members in ([1, 2], range(1, 3), np.array([2, 1, 2], dtype=np.uint8)):
            assert as_sets(cluster(cl, line_cloud, members)) == {frozenset({1}), frozenset({2})}


def test_threshold_below_coordinate_resolution_rejected(line_cloud):
    # cells of side t / 2 could not be told apart in floating point
    with pytest.raises(ValueError, match="too small"):
        cluster(SingleLinkageClusterer(1e-300), line_cloud, [0, 1, 2, 3])


@pytest.mark.parametrize("n", [4, 128, 129, 300])
def test_resolution_rule_is_the_same_on_both_branches(n):
    # sets up to 128 points are linked by one cdist, larger ones on the grid;
    # either way a threshold below the resolution of the extent is rejected
    cloud = PointCloud(np.linspace(0, 1e6, n)[:, None])
    with pytest.raises(ValueError, match="too small"):
        cluster(SingleLinkageClusterer(1e-300), cloud, range(n))
    with pytest.raises(ValueError, match="too small"):
        _grid_labels(cell_index(cloud, 1e-300), np.arange(n))
    assert len(cluster(SingleLinkageClusterer(1e6), cloud, range(n))) == 1
    # the rule reads the cloud's extent: a narrow set of a wide cloud is rejected
    narrow = np.linspace(0, 1, n)[:, None]
    assert len(cluster(SingleLinkageClusterer(1e-6), PointCloud(narrow), range(n))) == n
    wide = PointCloud(np.concatenate([narrow, [[1e12]]]))
    with pytest.raises(ValueError, match="too small"):
        cluster(SingleLinkageClusterer(1e-6), wide, range(n))


@pytest.mark.parametrize("members", [[0], [0, 1]])
def test_extent_rule_holds_for_a_one_point_set(members):
    # the cloud spans too many cells of side 1e-6, however narrow the set
    wide = PointCloud(np.concatenate([np.linspace(0, 1, 5), [1e12]])[:, None])
    with pytest.raises(ValueError, match="too small"):
        cluster(SingleLinkageClusterer(1e-6), wide, members)


@pytest.mark.parametrize("threshold", [1.0, 1e300, 1e308])
def test_an_extent_past_the_largest_double_raises(threshold):
    """The extent overflows before any threshold is weighed, and says so
    rather than warn or call the threshold too small."""
    wide = PointCloud([[-1e308], [1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="extent of the points overflows"):
            cluster(SingleLinkageClusterer(threshold), wide, [0, 1])


@pytest.mark.parametrize("n", [2, 200])
@pytest.mark.parametrize("at, threshold, parts", [
    (1.0, 5e-324, None),  # the scaled threshold underflows to 0: too small
    (1.0, 1e-323, 1),
    (0.0, 5e-324, 1),  # the cell side underflows, but the points coincide
])
def test_an_underflowing_threshold_is_the_same_on_both_branches(n, at, threshold, parts):
    """Coincident points with a threshold at the bottom of the doubles: the
    all-pairs branch (n = 2) and the grid's (n = 200) agree, and nothing warns."""
    cloud = PointCloud(np.full((n, 2), at))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if parts is None:
            with pytest.raises(ValueError, match="too small"):
                cluster(SingleLinkageClusterer(threshold), cloud, range(n))
            with pytest.raises(ValueError, match="too small"):
                _grid_labels(cell_index(cloud, threshold), np.arange(n))
        else:
            assert len(cluster(SingleLinkageClusterer(threshold), cloud, range(n))) == parts
            assert np.all(_grid_labels(cell_index(cloud, threshold), np.arange(n)) == 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too small"):  # no point coincides
            cluster(SingleLinkageClusterer(threshold), PointCloud([[0.0], [1.0]]), [0, 1])


@pytest.mark.parametrize("n, threshold", [(50, 12.0), (400, 5.0)])
def test_scaling_by_a_power_of_two_keeps_the_partition(n, threshold):
    """Scaling a cloud and its threshold by 2**k, -1000 <= k <= 1000, changes
    no partition, on the all-pairs branch (n = 50) and the grid's (n = 400):
    the coordinates are multiples of 2**-6 below 2**6, so every scaling is
    exact, though the squares of the distances would overflow or underflow
    at most of these scales."""
    pts = np.random.default_rng(n).integers(-2 ** 12, 2 ** 12, (n, 2)) / 2 ** 6
    want = [p.tolist() for p in cluster(SingleLinkageClusterer(threshold), PointCloud(pts),
                                        range(n))]
    assert 1 < len(want) < n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-1000, 1001):
            parts = cluster(SingleLinkageClusterer(math.ldexp(threshold, k)),
                            PointCloud(np.ldexp(pts, k)), range(n))
            assert [p.tolist() for p in parts] == want, k
        # a threshold whose scaled value would overflow is capped, and links all
        parts = cluster(SingleLinkageClusterer(1.7e308), PointCloud(np.ldexp(pts, -1000)),
                        range(n))
        assert len(parts) == 1


def test_extent_rule_runs_once_per_cloud_and_threshold(monkeypatch):
    calls = []
    real = clustering._cells_across
    monkeypatch.setattr(clustering, "_cells_across", lambda *args: calls.append(1) or real(*args))
    rng = np.random.default_rng(8)
    cloud = PointCloud(rng.random((1000, 2)))
    cl = SingleLinkageClusterer(0.05)
    for _ in range(400):
        cluster(cl, cloud, rng.choice(1000, size=14, replace=False))
    assert len(calls) == 1


def test_binning_memory_is_bounded(rng):
    """At t = 2.3, about the 1% quantile of the pair distances, the 3000
    one-point cells of a 10-D Gaussian cloud give 46k cell pairs, whose
    centre differences held at once are 3.7 MB per copy."""
    cells = CellIndex(rng.standard_normal((3000, 10)), 2.3)
    tracemalloc.start()
    try:
        cells.bin()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cells.pair_cell.size > 40_000
    assert peak < 5e6


def test_kmeans_needs_one_cluster():
    with pytest.raises(ValueError, match="k must be >= 1"):
        KMeansClusterer(0)


@pytest.mark.parametrize("k", [2.5, np.float64(2.0), "2"])
def test_kmeans_k_must_be_an_integer(k):
    with pytest.raises(ValueError, match="k must be >= 1 and an integer"):
        KMeansClusterer(k)
    assert KMeansClusterer(np.int64(2)).k == 2


@pytest.mark.parametrize("seed", [-1, 1.0, "0"])
def test_kmeans_seed_must_be_a_nonnegative_integer(seed):
    # numpy's generators take no negative seed: reject it here, not in cluster
    with pytest.raises(ValueError, match="seed must be >= 0 and an integer"):
        KMeansClusterer(3, seed=seed)
    assert KMeansClusterer(3, seed=np.int64(0)).seed == 0


@pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), float("inf")])
def test_threshold_must_be_finite_and_positive(threshold):
    with pytest.raises(ValueError, match="threshold must be finite and > 0"):
        SingleLinkageClusterer(threshold)


def test_kmeans_more_clusters_than_points(line_cloud):
    parts = cluster(KMeansClusterer(10, seed=0), line_cloud, [0, 2, 3])
    assert len(parts) == 3
    assert all(len(p) == 1 for p in parts)
    # k-means++ runs out of distinct points: the later centers repeat chosen ones
    cloud = PointCloud([[1.0, 2.0]] * 4 + [[5.0, 5.0]])
    parts = cluster(KMeansClusterer(3, seed=0), cloud, [0, 1, 2, 3, 4])
    assert as_sets(parts) == {frozenset({0, 1, 2, 3}), frozenset({4})}


def test_partition_property(rng):
    cloud = PointCloud(rng.standard_normal((40, 3)))
    members = sorted(rng.choice(40, size=25, replace=False).tolist())
    # shuffled and repeated member inputs, of any integer dtype, mean the same set
    shuffled = rng.permutation(members + members[::3])
    for cl in (KMeansClusterer(4, seed=1), SingleLinkageClusterer(0.8)):
        parts = cluster(cl, cloud, members)
        flat = sorted(int(i) for p in parts for i in p)
        assert flat == members
        assert sum(len(p) for p in parts) == len(set(flat))
        assert all(np.all(p[1:] > p[:-1]) for p in parts)
        for same in (shuffled, shuffled.astype(np.int32), np.array(members, dtype=np.uint16)):
            assert [p.tolist() for p in cluster(cl, cloud, same)] == [p.tolist() for p in parts]


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
    with pytest.raises(ValueError, match="threshold must be finite and > 0, got inf"):
        threshold_from_hausdorff(cloud, 0.5, float("inf"), seed=0)
    for factor in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="factor must be > 0"):
            threshold_from_hausdorff(cloud, 0.5, factor, seed=0)


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
