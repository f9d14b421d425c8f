import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softmapper.cover import (
    AssignmentScheme,
    IntervalCover,
    _bump,
    log_prob,
    sample_assignment,
    smooth_scheme,
    standard_scheme,
    uniform_cover,
)


def reference_standard(v, cover):
    """The broadcast builder: compare every value with every endpoint."""
    a, b = cover.intervals[:, 0], cover.intervals[:, 1]
    probs = ((v[:, None] >= a[None, :]) & (v[:, None] <= b[None, :])).astype(float)
    if np.any(probs.sum(axis=1) == 0):
        bad = int(np.nonzero(probs.sum(axis=1) == 0)[0][0])
        raise ValueError(f"value {v[bad]} at index {bad} lies outside the cover")
    return probs


def reference_smooth(v, cover, delta):
    """The per-column builder: one pass over the values for each element."""
    a, b = cover.intervals[:, 0], cover.intervals[:, 1]
    probs = np.zeros((v.shape[0], cover.resolution))
    for j in range(cover.resolution):
        q = np.zeros_like(v)
        q[(v >= a[j]) & (v <= b[j])] = 1.0
        left = (v >= a[j] - delta) & (v < a[j])
        q[left] = _bump((a[j] - v[left]) / delta)
        right = (v > b[j]) & (v <= b[j] + delta)
        q[right] = _bump((v[right] - b[j]) / delta)
        probs[:, j] = q
    return probs


def test_uniform_cover_r2():
    cover = uniform_cover([0.0, 1.0], 2, 0.3)
    L = 1 / 1.7
    assert np.allclose(cover.intervals, [[0, L], [1 - L, 1]], atol=1e-12)
    overlap = cover.intervals[0, 1] - cover.intervals[1, 0]
    assert overlap == pytest.approx(0.3 * L, rel=1e-12)


def test_uniform_cover_single_interval():
    # one interval is exactly the range, and constant values get a unit interval
    assert uniform_cover([2.0, 5.0], 1, 0.3).intervals.tolist() == [[2.0, 5.0]]
    assert uniform_cover([0.1, 0.7, 0.3], 1, 0.9).intervals.tolist() == [[0.1, 0.7]]
    assert uniform_cover([3.0, 3.0], 1, 0.3).intervals.tolist() == [[3.0, 4.0]]


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


def test_uniform_cover_needs_an_integer_resolution():
    with pytest.raises(ValueError, match="integer"):
        uniform_cover([0.0, 1.0], 2.5, 0.3)
    with pytest.raises(ValueError, match="integer"):
        uniform_cover([0.0, 1.0], 3.0, 0.3)
    assert uniform_cover([0.0, 1.0], np.int64(3), 0.3).resolution == 3


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


def test_log_prob_is_exact_near_the_endpoints():
    assert log_prob(AssignmentScheme([[1e-20]]), np.array([[1]])) == math.log(1e-20)
    assert log_prob(AssignmentScheme([[1e-20]]), np.array([[0]])) == math.log1p(-1e-20)
    tiny = np.nextafter(0, 1)
    with np.errstate(all="raise"):
        assert log_prob(AssignmentScheme([[tiny]]), np.array([[1]])) == math.log(tiny)
        assert math.isfinite(log_prob(AssignmentScheme([[np.nextafter(1, 0)]]), np.array([[0]])))


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


def _outcome(build, *args):
    try:
        return build(*args)
    except ValueError as err:
        return str(err)


@given(
    st.integers(1, 60),
    st.sampled_from([0.05, 0.3, 0.5, 0.8]),
    st.sampled_from([1e-12, 1e-4, 0.02, 0.3, 3.0]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_schemes_match_reference_builders(r, gain, delta_rel, seed):
    rng = np.random.default_rng(seed)
    lo, hi = sorted(rng.uniform(-5, 5, 2))
    cover = uniform_cover([lo, hi], r, gain)
    delta = delta_rel * (hi - lo)
    a, b = cover.intervals[:, 0], cover.intervals[:, 1]
    edges = np.concatenate([a, b, a - delta, b + delta])
    v = np.concatenate([
        rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo), 30),
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
    ])
    rng.shuffle(v)
    smooth = smooth_scheme(v, cover, delta).probs
    assert np.array_equal(smooth, reference_smooth(v, cover, delta))
    inside = v[(v >= lo) & (v <= hi)]
    assert np.array_equal(standard_scheme(inside, cover).probs, reference_standard(inside, cover))
    expected = _outcome(reference_standard, v, cover)
    got = _outcome(lambda *args: standard_scheme(*args).probs, v, cover)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert np.array_equal(got, expected)


def test_standard_scheme_reports_first_value_outside():
    cover = uniform_cover([0.0, 1.0], 3, 0.3)
    with pytest.raises(ValueError, match=r"value 1\.5 at index 1 lies outside the cover"):
        standard_scheme(np.array([0.5, 1.5, -1.0]), cover)


@pytest.mark.parametrize("intervals, message", [
    ([[0, 1, 2]], "r x 2"), (np.zeros((0, 2)), "r x 2"), ([0, 1], "r x 2"),
    ([[1, 1]], "a_j < b_j"), ([[0, 1], [2, 1.5]], "a_j < b_j"),
    ([[0, 1], [1, 2]], "must overlap"),
])
def test_interval_cover_rejects_malformed_intervals(intervals, message):
    with pytest.raises(ValueError, match=message):
        IntervalCover(intervals)


def test_interval_cover_rejects_endpoints_out_of_order():
    with pytest.raises(ValueError, match="non-decreasing"):
        IntervalCover([[0, 3], [-1, 1]])
    with pytest.raises(ValueError, match="non-decreasing"):
        IntervalCover([[0, 3], [1, 2]])
    tied = IntervalCover([[0, 1], [0, 2], [1.5, 2]])
    assert np.array_equal(standard_scheme(np.array([0.0, 1.0, 2.0]), tied).probs,
                          [[1, 1, 0], [1, 1, 0], [0, 1, 1]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -5e-324, np.nextafter(1, 2)])
def test_assignment_scheme_rejects_probabilities_outside_unit_interval(bad):
    probs = np.full((2, 3), 0.5)
    probs[1, 2] = bad
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        AssignmentScheme(probs)


def test_scheme_and_draw_shapes_are_checked():
    with pytest.raises(ValueError, match="n x r matrix"):
        AssignmentScheme(np.full(3, 0.5))
    with pytest.raises(ValueError, match="shape mismatch"):
        log_prob(AssignmentScheme(np.full((3, 2), 0.5)), np.ones((2, 3)))


def test_assignment_scheme_accepts_empty_and_endpoints():
    assert AssignmentScheme(np.zeros((0, 3))).probs.shape == (0, 3)
    assert AssignmentScheme(np.array([[0.0, 1.0]])).probs.tolist() == [[0.0, 1.0]]
