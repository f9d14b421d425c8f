"""A stack of M draws goes through one ``map_comp`` call, one filtration,
one diagram and one subgradient pass; each draw must get, bit for bit, what
a call on that draw alone gives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import margin_draws
from softmapper import mapper
from softmapper.clustering import KMeansClusterer, SingleLinkageClusterer
from softmapper.cover import sample_assignment
from softmapper.data import PointCloud
from softmapper.filters import LinearFilter
from softmapper.mapper import LinkageEpoch, MapperGraph, map_comp
from softmapper.persistence import (
    _tops,
    extended_persistence,
    loss_and_subgradient,
    map_pers_filtration,
    regular_persistence,
)
from test_mapper_oracle import assert_same_graph, oracle_map_comp, smooth_case

DIAGRAM = {"extended": extended_persistence, "regular": regular_persistence}


def draw_of(graph, m):
    """Draw m's graph, cut out of a union, with its node ids from 0."""
    lo, hi = graph.draws[m], graph.draws[m + 1]
    start, stop = graph.indptr[lo], graph.indptr[hi]
    u, v, w = graph.links
    keep = (lo <= u) & (u < hi)
    return MapperGraph(graph.indptr[lo:hi + 1] - start, graph.members[start:stop],
                       graph.cover[lo:hi], np.stack([u[keep] - lo, v[keep] - lo, w[keep]]))


def bits(diagram, shift=0):
    """The diagram's points with their values as exact hex strings."""
    return [(p.cls, p.birth.hex(), p.death.hex(), p.birth_node - shift, p.death_node - shift)
            for p in diagram]


def assert_stack_matches_draws(cloud, e, theta, clusterer, scheme, mode):
    """Check every per-draw output of the stack e, passed as the scheme's
    ``MarginDraws`` if a scheme is given and as it is if not; return each
    draw's (nodes, edges)."""
    fam = LinearFilter()
    fv = fam.evaluate(cloud, theta)
    stack = e if scheme is None else margin_draws(scheme, e)
    union = map_comp(cloud, stack, clusterer)
    assert union.draws.size == len(e) + 1
    assert not any(np.searchsorted(union.draws, u, "right")
                   != np.searchsorted(union.draws, v, "right") for u, v in union.edges)
    diagram = DIAGRAM[mode](map_pers_filtration(union, fv))
    losses, grads = loss_and_subgradient(cloud, stack, fam, theta, clusterer, mode, fv=fv)
    assert losses.shape == (len(e),) and grads.shape == (len(e), cloud.dim)
    at = 0
    sizes = []
    for m, draw in enumerate(e):
        if scheme is not None:
            draw = margin_draws(scheme, draw)
        alone = map_comp(cloud, draw, clusterer)
        assert_same_graph(draw_of(union, m), alone)
        sizes.append((alone.n_nodes, alone.n_edges))
        want = bits(DIAGRAM[mode](map_pers_filtration(alone, fv)))
        assert bits(diagram[at:at + len(want)], union.draws[m]) == want  # draw by draw
        at += len(want)
        loss, grad = loss_and_subgradient(cloud, draw, fam, theta, clusterer, mode, fv=fv)
        if scheme is not None:  # a block of one draw gives one loss and one subgradient
            loss, grad = loss[0], grad[0]
        assert losses[m].hex() == loss.hex()
        assert grads[m].tobytes() == grad.tobytes()
    assert at == len(diagram)
    return sizes


@given(case=st.integers(0, 11), seed=st.integers(0, 10**6), m=st.integers(1, 5),
       mode=st.sampled_from(["extended", "regular"]),
       path=st.sampled_from(["epoch", "own scheme", "kmeans"]))
@settings(max_examples=40, deadline=None)
def test_a_stack_gives_each_draw_what_it_gives_alone(case, seed, m, mode, path):
    """Single linkage through the scheme's epoch (its ``MarginDraws``),
    single linkage with each draw its own scheme, and k-means, which has no
    epoch."""
    cloud, scheme, threshold = smooth_case(case)
    e = np.stack([sample_assignment(scheme, seed + k) for k in range(m)])
    theta = np.random.default_rng(seed).standard_normal(cloud.dim)
    if path == "kmeans":
        clusterer = KMeansClusterer(3, seed=case)
    else:
        clusterer = SingleLinkageClusterer(threshold)
    assert_stack_matches_draws(cloud, e, theta, clusterer, scheme if path == "epoch" else None,
                               mode)


@pytest.mark.parametrize("mode", ["extended", "regular"])
@pytest.mark.parametrize("case", [1, 6])
def test_draws_of_different_sizes(case, mode):
    cloud, scheme, threshold = smooth_case(case)
    cl = SingleLinkageClusterer(threshold)
    e = np.stack([sample_assignment(scheme, k) for k in range(8)])
    theta = np.random.default_rng(case).standard_normal(cloud.dim)
    sizes = assert_stack_matches_draws(cloud, e, theta, cl, scheme, mode)
    assert len({n for n, _ in sizes}) > 1 and len({k for _, k in sizes}) > 1


def test_a_kmeans_stack_clusters_what_its_draws_cluster_in_turn(monkeypatch):
    """Each draw's element takes the record of the draw before it, as a
    call per draw takes the last call's: three draws, two alike, cluster
    the sets of a call per draw, and the next epoch starts from the last."""
    calls, real = [], mapper.cluster
    monkeypatch.setattr(mapper, "cluster",
                        lambda cl, cloud, members: calls.append(members.tolist())
                        or real(cl, cloud, members))
    source, scheme, _ = smooth_case(3)
    km = KMeansClusterer(3, seed=1)
    e = np.stack([sample_assignment(scheme, k) for k in (0, 0, 1)])
    runs = []
    for stacked in (False, True):
        cloud = PointCloud(source.points)
        calls.clear()
        if stacked:
            map_comp(cloud, e, km)
        else:
            for draw in e:
                map_comp(cloud, draw, km)
        map_comp(cloud, e[-1], km)  # repeats the last draw: no call
        runs.append(list(calls))
    assert runs[0] == runs[1]
    assert len(runs[0]) < np.count_nonzero(e.any(axis=1))


def test_a_stack_of_one_is_the_draws_graph():
    cloud, scheme, threshold = smooth_case(3)
    cl = SingleLinkageClusterer(threshold)
    epoch = LinkageEpoch(cloud, scheme.probs, cl)
    e = sample_assignment(scheme, 5)
    want = oracle_map_comp(cloud, e, cl)
    assert_same_graph(epoch.graph(margin_draws(epoch.scheme, e[None])), want)
    assert_same_graph(map_comp(cloud, margin_draws(scheme, e), cl), want)
    assert np.array_equal(want.draws, [0, want.n_nodes])


def test_a_stack_with_a_foreign_matrix_is_rejected():
    """An epoch takes its draws only as a ``MarginDraws`` of its own scheme:
    a dense stack, of its draws or not, is rejected, as is a stack of schemes."""
    cloud, scheme, threshold = smooth_case(2)
    cl = SingleLinkageClusterer(threshold)
    epoch = LinkageEpoch(cloud, scheme.probs, cl)
    e = np.stack([sample_assignment(scheme, k) for k in range(4)])
    epoch.graph(margin_draws(epoch.scheme, e))
    extra = e.copy()
    extra[3][scheme.probs == 0] = 1  # assigns p = 0 entries in the last draw
    for bad in (e, extra, e[0], margin_draws(scheme, e)):
        with pytest.raises(ValueError, match="MarginDraws of the epoch's own scheme"):
            epoch.graph(bad)
    # an epoch serves one scheme: a stack of schemes is rejected
    with pytest.raises(ValueError, match="scheme must have .* rows and r columns"):
        LinkageEpoch(cloud, e[:2] != 0, cl)


@given(st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, np.inf, -np.inf, np.nan]),
                         max_size=5), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_each_draws_top_is_its_argmax(draws):
    """Ties go to the first node and a NaN beats every number, as in argmax."""
    values = np.array([x for d in draws for x in d], dtype=float)
    bounds = np.cumsum([0, *map(len, draws)])
    want = [lo + int(np.argmax(values[lo:hi])) for lo, hi in zip(bounds, bounds[1:])
            for _ in range(hi - lo)]
    assert _tops(values, bounds).tolist() == want
