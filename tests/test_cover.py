import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softmapper.cover import (
    AssignmentScheme,
    log_prob,
    sample_assignment,
    smooth_scheme,
    standard_scheme,
    uniform_cover,
)


def test_uniform_cover_r2():
    cover = uniform_cover([0.0, 1.0], 2, 0.3)
    L = 1 / 1.7
    assert np.allclose(cover.intervals, [[0, L], [1 - L, 1]], atol=1e-12)
    overlap = cover.intervals[0, 1] - cover.intervals[1, 0]
    assert overlap == pytest.approx(0.3 * L, rel=1e-12)


def test_uniform_cover_single_interval():
    cover = uniform_cover([2.0, 5.0], 1, 0.3)
    assert np.allclose(cover.intervals, [[2, 5]])


def test_uniform_cover_r25():
    cover = uniform_cover([0.0, 10.0], 25, 0.3)
    assert cover.resolution == 25
    lengths = cover.intervals[:, 1] - cover.intervals[:, 0]
    assert np.allclose(lengths, lengths[0], atol=1e-9 * lengths[0])
    overlaps = cover.intervals[:-1, 1] - cover.intervals[1:, 0]
    assert np.allclose(overlaps, 0.3 * lengths[0], atol=1e-9 * lengths[0])
    assert cover.intervals[0, 0] == 0.0 and cover.intervals[-1, 1] == 10.0


def test_uniform_cover_errors():
    with pytest.raises(ValueError):
        uniform_cover([0, 1], 0, 0.3)
    with pytest.raises(ValueError):
        uniform_cover([0, 1], 2, 1.2)
    with pytest.raises(ValueError):
        uniform_cover([1, 1], 2, 0.3)


def test_standard_scheme_overlap_membership():
    cover = uniform_cover([0.0, 1.0], 2, 0.3)
    probs = standard_scheme(np.array([0.5, 0.0]), cover).probs
    assert np.array_equal(probs[0], [1, 1])  # 0.5 sits in the overlap
    assert np.array_equal(probs[1], [1, 0])


def test_standard_scheme_right_endpoint():
    cover = uniform_cover(np.linspace(0, 1, 11), 3, 0.5)
    b0 = cover.intervals[0, 1]
    probs = standard_scheme(np.array([b0, 0.0, 1.0]), cover).probs
    assert probs[0, 0] == 1 and probs[0, 1] == 1  # closed intervals double-assign


def test_smooth_scheme_values():
    cover = uniform_cover([0.0, 1.0], 2, 0.3)
    a1 = cover.intervals[1, 0]
    delta = 0.05
    probs = smooth_scheme(np.array([a1, a1 - delta / 2, a1 - delta, 0.99]), cover, delta).probs
    assert probs[0, 1] == 1.0
    assert probs[1, 1] == pytest.approx(math.exp(-1 / 3), rel=1e-12)
    assert probs[2, 1] == 0.0
    assert probs[3, 1] == 1.0


def test_smooth_scheme_tiny_delta_matches_standard():
    rngv = np.random.default_rng(1).random(50)
    cover = uniform_cover(rngv, 4, 0.3)
    std = standard_scheme(rngv, cover).probs
    sm = smooth_scheme(rngv, cover, 1e-12).probs
    bounds = cover.intervals.ravel()
    far = np.array([np.abs(v - bounds).min() >= 1e-6 for v in rngv])
    assert np.array_equal(sm[far], std[far])


def test_smooth_scheme_requires_positive_delta():
    cover = uniform_cover([0.0, 1.0], 2, 0.3)
    with pytest.raises(ValueError):
        smooth_scheme(np.array([0.5]), cover, 0.0)


@given(st.floats(-0.2, 1.2), st.floats(1e-6, 0.3))
@settings(max_examples=200, deadline=None)
def test_smooth_scheme_bounded_and_monotone(v, delta):
    cover = uniform_cover([0.0, 1.0], 2, 0.3)
    q = smooth_scheme(np.array([v, v + 1e-5]), cover, delta).probs
    assert np.all(q >= 0) and np.all(q <= 1)
    a, b = cover.intervals[1]
    # nondecreasing on the left margin, nonincreasing on the right one
    if a - delta <= v and v + 1e-5 <= a:
        assert q[1, 1] >= q[0, 1]
    if b <= v and v + 1e-5 <= b + delta:
        assert q[1, 1] <= q[0, 1]


def test_smooth_pointwise_limit():
    cover = uniform_cover([0.0, 1.0], 3, 0.4)
    v = np.array([0.123, 0.456, 0.789, 0.505])
    std = standard_scheme(v, cover).probs
    prev_gap = None
    for delta in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        gap = np.abs(smooth_scheme(v, cover, delta).probs - std).max()
        if prev_gap is not None:
            assert gap <= prev_gap + 1e-15
        prev_gap = gap
    assert prev_gap == 0.0


def test_sample_standard_is_deterministic_indicator():
    cover = uniform_cover(np.linspace(0, 1, 9), 3, 0.3)
    scheme = standard_scheme(np.linspace(0, 1, 9), cover)
    for seed in (0, 1, 99):
        assert np.array_equal(sample_assignment(scheme, seed), scheme.probs.astype(np.uint8))


def test_sample_frequency():
    scheme = AssignmentScheme(np.full((1, 1), 0.5))
    draws = [sample_assignment(scheme, s)[0, 0] for s in range(10_000)]
    assert abs(np.mean(draws) - 0.5) < 0.02


def test_sample_zero_probs_and_seed_determinism(rng):
    zero = AssignmentScheme(np.zeros((3, 2)))
    assert not sample_assignment(zero, 5).any()
    scheme = AssignmentScheme(rng.random((6, 3)))
    assert np.array_equal(sample_assignment(scheme, 42), sample_assignment(scheme, 42))


def test_log_prob_standard():
    cover = uniform_cover(np.linspace(0, 1, 5), 2, 0.3)
    scheme = standard_scheme(np.linspace(0, 1, 5), cover)
    e = scheme.probs.astype(np.uint8)
    assert log_prob(scheme, e) == 0.0
    other = e.copy()
    other[0, 0] ^= 1
    assert log_prob(scheme, other) == -np.inf


def test_log_prob_bernoulli():
    scheme = AssignmentScheme(np.array([[0.25]]))
    assert log_prob(scheme, np.array([[1]])) == pytest.approx(math.log(0.25), rel=1e-12)
    assert log_prob(scheme, np.array([[0]])) == pytest.approx(math.log(0.75), rel=1e-12)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 3)])
def test_log_prob_sums_to_one(shape, rng):
    n, r = shape
    probs = rng.random((n, r))
    probs[0, 0] = 0.0  # include hard entries
    probs[-1, -1] = 1.0
    scheme = AssignmentScheme(probs)
    total = 0.0
    for bits in itertools.product([0, 1], repeat=n * r):
        e = np.array(bits, dtype=np.uint8).reshape(n, r)
        total += math.exp(log_prob(scheme, e))
    assert total == pytest.approx(1.0, abs=1e-9)
