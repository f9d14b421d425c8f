import dataclasses
import warnings
from functools import cached_property

import numpy as np
import pytest

from conftest import margin_draws
from softmapper.clustering import CellIndex, KMeansClusterer, SingleLinkageClusterer
from softmapper.data import PointCloud
from softmapper.filters import FixedFilter, LinearFilter
from softmapper.optimize import (
    OptimConfig,
    _scaled,
    _standard_error,
    direction_correlation,
    optimize,
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
from softmapper.persistence import loss_and_subgradient
from softmapper.synthetic import generate_synthetic


def _setup(n=40, seed=3):
    cloud = generate_synthetic("circle", n=n, noise=0.0, seed=seed)
    return cloud, LinearFilter(), SingleLinkageClusterer(0.8)


def test_config_validation():
    OptimConfig()
    with pytest.raises(ValueError):
        OptimConfig(epochs=0)
    with pytest.raises(ValueError):
        OptimConfig(mc_samples=0)
    with pytest.raises(ValueError):
        OptimConfig(step_size=-1.0)
    with pytest.raises(ValueError):
        OptimConfig(schedule="exponential")
    with pytest.raises(ValueError):
        OptimConfig(mode="mixed")
    with pytest.raises(ValueError):
        OptimConfig(scheme="logistic")
    with pytest.raises(ValueError):
        OptimConfig(gain=1.0)
    with pytest.raises(ValueError):
        OptimConfig(resolution=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        OptimConfig(seed=-3)


@pytest.mark.parametrize("name", ["epochs", "mc_samples", "resolution", "seed"])
def test_config_counts_must_be_integers(name):
    with pytest.raises(ValueError, match=f"{name} must be >= [01] and an integer"):
        OptimConfig(**{name: 2.5})
    assert getattr(OptimConfig(**{name: np.int64(2)}), name) == 2


def test_one_binning_per_cloud_and_threshold(monkeypatch):
    binned = []
    real = CellIndex.bin
    monkeypatch.setattr(CellIndex, "bin", lambda self: binned.append(self.threshold) or real(self))
    cloud = generate_synthetic("y_shape", n=300, noise=0.02, seed=0)
    smooth = OptimConfig(epochs=5, mc_samples=2, delta_rel=0.1, seed=1)
    for threshold in (0.2, 0.2, 0.3):
        optimize(cloud, LinearFilter(), np.ones(3), SingleLinkageClusterer(threshold), smooth)
    assert binned == [0.2, 0.3]
    standard = OptimConfig(epochs=2, mc_samples=2, scheme="standard")
    optimize(generate_synthetic("y_shape", n=300, noise=0.02, seed=0), LinearFilter(),
             np.ones(3), KMeansClusterer(3), standard)
    assert binned == [0.2, 0.3]


def test_learning_rate_schedules():
    c = OptimConfig(step_size=0.3, schedule="constant")
    assert c.learning_rate(0) == 0.3
    assert c.learning_rate(100) == 0.3
    r = OptimConfig(step_size=0.3, schedule="robbins_monro")
    assert r.learning_rate(0) == 0.3
    assert r.learning_rate(1) == pytest.approx(0.15)
    assert r.learning_rate(9) == pytest.approx(0.03)


def test_robbins_monro_divergent_sum_convergent_squares():
    # the 1/(1+i) schedule must satisfy the usual step-size conditions;
    # check the partial sums numerically
    i = np.arange(1_000_000)
    alpha = 1.0 / (1.0 + i)
    assert alpha.sum() > 14.0  # grows like log(n), unbounded
    assert np.sum(alpha**2) < np.pi**2 / 6 + 1e-9  # bounded by zeta(2)


def _first_epoch(cloud, fam, theta, cl, cfg):
    """The risk and its standard error at theta, from one epoch of optimize."""
    _, trace = optimize(cloud, fam, theta, cl, cfg)
    return trace.risks[0], trace.risk_ses[0]


def _epoch_draws(cloud, fam, theta, cfg, k=0):
    """The filter values at theta, and the draws epoch k of optimize makes
    there: one block over the scheme's margin entries, seeded [seed, k]."""
    fv = fam.evaluate(cloud, theta)
    delta = smoothing_width(fv, cfg.resolution, cfg.delta_rel)
    scheme = smooth_scheme(fv, uniform_cover(fv.values, cfg.resolution, cfg.gain), delta)
    return fv, MarginDraws(scheme, sample_assignment(margin_scheme(scheme, cfg.mc_samples),
                                                     [cfg.seed, k]))


def test_standard_scheme_risk_is_deterministic():
    cloud, fam, cl = _setup()
    cfg = OptimConfig(epochs=1, mc_samples=8, scheme="standard", seed=5, mode="extended")
    theta = np.array([1.0, 0.3])
    r1, s1 = _first_epoch(cloud, fam, theta, cl, cfg)
    r2, s2 = _first_epoch(cloud, fam, theta, cl, cfg)
    assert r1 == r2
    # standard scheme assignments are 0/1 probabilities: every sample is the
    # same assignment, so the Monte-Carlo spread collapses
    assert s1 == 0.0


def test_risk_seed_sensitivity():
    cloud, fam, cl = _setup()
    theta = np.array([1.0, 0.3])
    cfg_a = OptimConfig(epochs=1, mc_samples=6, scheme="smooth", delta_rel=0.2, seed=5)
    cfg_b = OptimConfig(epochs=1, mc_samples=6, scheme="smooth", delta_rel=0.2, seed=6)
    ra, _ = _first_epoch(cloud, fam, theta, cl, cfg_a)
    rb, _ = _first_epoch(cloud, fam, theta, cl, cfg_b)
    assert ra != rb


def test_risk_se_is_zero_when_the_losses_coincide():
    # np.std of these five equal losses is 1.1e-16, not 0
    cloud = generate_synthetic("y_shape", n=200, noise=0.02, seed=4)
    cfg = OptimConfig(epochs=1, mc_samples=5, scheme="standard")
    theta = np.array([0.3, -0.2, 0.9])
    _, se = _first_epoch(cloud, LinearFilter(), theta, SingleLinkageClusterer(0.2), cfg)
    assert se == 0.0


def test_risk_se_is_zero_for_one_sample():
    cloud, fam, cl = _setup()
    cfg = OptimConfig(epochs=3, mc_samples=1, delta_rel=0.2, seed=5)
    _, trace = optimize(cloud, fam, np.array([1.0, 0.3]), cl, cfg)
    assert trace.risk_ses == [0.0, 0.0, 0.0]


def test_risk_se_is_the_sample_standard_error():
    cloud, fam, cl = _setup()
    cfg = OptimConfig(epochs=1, mc_samples=6, delta_rel=0.2, seed=5)
    theta = np.array([1.0, 0.3])
    risk, se = _first_epoch(cloud, fam, theta, cl, cfg)
    # the losses of epoch 0's draws, each expanded to n x r and taken alone
    _, draws = _epoch_draws(cloud, fam, theta, cfg)
    losses = [loss_and_subgradient(cloud, e, fam, theta, cl, cfg.mode)[0]
              for e in draws.dense()]
    assert np.ptp(losses) > 0
    assert risk == np.mean(losses)
    assert se == pytest.approx(np.std(losses, ddof=1) / np.sqrt(6), rel=1e-12, abs=0)


def test_fixed_filter_keeps_its_risk():
    # a filter with no parameters: theta has size 0, and the epoch still
    # reports the risk and standard error that the fixed filter gives
    cloud = generate_synthetic("circle", n=60, noise=0.0, seed=0)
    fam = FixedFilter(cloud.points[:, 1])
    cfg = OptimConfig(epochs=2, delta_rel=0.2)
    cl = SingleLinkageClusterer(0.5)
    theta, trace = optimize(cloud, fam, np.zeros(0), cl, cfg)
    assert theta.shape == (0,)
    # epoch 0's draws, each expanded to n x r and passed back as a block of
    # one draw, one call each through the scheme's epoch
    fv, draws = _epoch_draws(cloud, fam, theta, cfg)
    losses = [loss_and_subgradient(cloud, margin_draws(draws.scheme, e), fam, theta, cl,
                                   cfg.mode, fv=fv)[0][0] for e in draws.dense()]
    assert np.ptp(losses) > 0
    assert trace.risks[0] == np.mean(losses)
    assert trace.risk_ses[0] == _standard_error(losses)
    assert trace.grad_norms == [0.0, 0.0]
    with pytest.raises(ValueError, match="parameter dimension"):
        optimize(cloud, fam, np.zeros(1), SingleLinkageClusterer(0.5), cfg)


def test_zero_step_size_keeps_theta():
    cloud, fam, cl = _setup()
    cfg = OptimConfig(epochs=3, mc_samples=1, step_size=0.0, seed=1)
    theta0 = np.array([0.7, 0.7])
    theta, trace = optimize(cloud, fam, theta0, cl, cfg)
    assert np.array_equal(theta, theta0)
    assert len(trace) == 3
    for t in trace.thetas:
        assert np.array_equal(t, theta0)


def test_optimize_deterministic():
    cloud, fam, cl = _setup()
    cfg = OptimConfig(epochs=4, mc_samples=3, step_size=0.05, seed=11)
    t1, tr1 = optimize(cloud, fam, np.array([1.0, 0.0]), cl, cfg)
    t2, tr2 = optimize(cloud, fam, np.array([1.0, 0.0]), cl, cfg)
    assert np.array_equal(t1, t2)
    assert tr1.risks == tr2.risks
    assert tr1.grad_norms == tr2.grad_norms
    for a, b in zip(tr1.thetas, tr2.thetas):
        assert np.array_equal(a, b)


def _record_seeds(monkeypatch) -> list:
    """The seeds of the generators made from here on."""
    seeds = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: seeds.append(seed) or real(seed))
    return seeds


def test_generators_are_made_only_for_the_draws(monkeypatch):
    """Epoch k's draws come from one generator seeded [seed, k], and a run
    makes no other generator."""
    cloud, fam, cl = _setup()
    seeds = _record_seeds(monkeypatch)
    optimize(cloud, fam, np.array([1.0, 0.0]), cl, OptimConfig(epochs=2, mc_samples=2, seed=11))
    assert seeds == [[11, 0], [11, 1]]


@pytest.mark.parametrize("clusterer", [SingleLinkageClusterer(0.8), KMeansClusterer(3, seed=7)])
def test_a_run_draws_only_the_margin(clusterer, monkeypatch):
    """An epoch reads no n x r ``probs`` of its scheme: it reads the M x m
    block of the margin probabilities, once, and draws it from one
    generator. k-means, which makes its own generators from its seed,
    clusters the dense draws expanded from that block."""
    cloud, fam, _ = _setup()
    read = []
    view = cached_property(lambda scheme, build=AssignmentScheme.probs.func:
                           read.append(scheme.shape) or build(scheme))
    view.__set_name__(AssignmentScheme, "probs")
    monkeypatch.setattr(AssignmentScheme, "probs", view)
    seeds = _record_seeds(monkeypatch)
    cfg = OptimConfig(epochs=3, mc_samples=4, delta_rel=0.2, seed=5)
    _, trace = optimize(cloud, fam, np.array([1.0, 0.3]), clusterer, cfg)
    # one M x m block per epoch (M = 4, n = 40), never the n x r scheme
    assert [M for M, _ in read] == [cfg.mc_samples] * cfg.epochs
    assert all(m > 0 for _, m in read)
    assert [s for s in seeds if not isinstance(s, int)] == [[5, 0], [5, 1], [5, 2]]
    assert {s for s in seeds if isinstance(s, int)} <= {7}
    assert max(trace.risk_ses) > 0  # the draws differ


def test_optimize_moves_theta():
    cloud, fam, cl = _setup()
    cfg = OptimConfig(epochs=5, mc_samples=2, step_size=0.1, seed=2)
    theta, trace = optimize(cloud, fam, np.array([1.0, 0.2]), cl, cfg)
    assert not np.array_equal(theta, [1.0, 0.2])
    assert len(trace) == 5
    assert all(s >= 0 for s in trace.seconds)


def test_maximize_flips_update_direction():
    cloud, fam, cl = _setup()
    base = dict(epochs=1, mc_samples=4, step_size=0.05, seed=7, delta_rel=0.2)
    theta0 = np.array([1.0, 0.4])
    t_min, _ = optimize(cloud, fam, theta0, cl, OptimConfig(**base))
    t_max, _ = optimize(cloud, fam, theta0, cl, OptimConfig(**base, maximize=True))
    # one epoch from the same start: the two updates are exact mirrors
    assert np.allclose(t_min - theta0, -(t_max - theta0), atol=1e-12)


def test_direction_correlation():
    assert direction_correlation([0, 0, 1], [0, 0, -2]) == pytest.approx(1.0)
    assert direction_correlation([1, 0, 0], [0, 1, 0]) == pytest.approx(0.0)
    assert direction_correlation([1, 1, 0], [1, 0, 0]) == pytest.approx(np.sqrt(0.5))
    with pytest.raises(ValueError):
        direction_correlation([0, 0, 0], [1, 0, 0])


def test_direction_correlation_at_any_scale():
    """The cosine is taken at exact power-of-two scales, so huge and tiny
    vectors give their directions' cosine with no warning, and a
    non-finite or all-zero vector raises ValueError."""
    for scale in (1e200, 1e-200, 1e308, 5e-324):
        assert direction_correlation([scale, scale], [1, 0]) == pytest.approx(np.sqrt(0.5),
                                                                             rel=1e-15)
        assert direction_correlation([scale, 0], [0, -scale]) == 0.0
    assert direction_correlation([1e-300, 1e-300, 0], [0, 1e300, 1e300]) == pytest.approx(0.5)
    for bad in ([np.nan, 1], [np.inf, 1], [-np.inf, 1], [0, 0], [-0.0, 0.0], []):
        for u, v in ((bad, [1, 0]), ([1, 0], bad)):
            with pytest.raises(ValueError, match="finite and nonzero"):
                direction_correlation(u, v)


def test_an_epoch_evaluates_the_filter_once(monkeypatch):
    cloud, fam, cl = _setup()
    calls = []
    evaluate = LinearFilter.evaluate
    monkeypatch.setattr(LinearFilter, "evaluate",
                        lambda self, c, t: calls.append(1) or evaluate(self, c, t))
    optimize(cloud, fam, np.array([1.0, 0.3]), cl,
             OptimConfig(epochs=3, mc_samples=4, delta_rel=0.2, seed=5))
    assert len(calls) == 3


def test_loss_and_subgradient_takes_the_epochs_filter_values():
    cloud, fam, cl = _setup()
    theta = np.array([1.0, 0.3])
    fv = fam.evaluate(cloud, theta)
    scheme = smooth_scheme(fv, uniform_cover(fv.values, 10, 0.3), 0.2)
    for m in range(4):
        e = sample_assignment(scheme, m)
        for mode in ("extended", "regular"):
            loss, grad = loss_and_subgradient(cloud, e, fam, theta, cl, mode)
            got_loss, got_grad = loss_and_subgradient(cloud, e, fam, theta, cl, mode, fv=fv)
            assert got_loss == loss and np.array_equal(got_grad, grad)
    short = LinearFilter().evaluate(PointCloud(cloud.points[:-1]), theta)
    with pytest.raises(ValueError, match="one value per point"):
        loss_and_subgradient(cloud, e, fam, theta, cl, fv=short)


def test_non_finite_losses_gradients_and_steps_raise():
    """A draw's loss and subgradient, an epoch's means of them and its step
    are each checked for overflow. With overflow warnings silenced, these
    checks are what stop each case; the filter values, cover and clustering
    stay finite in all of them."""
    clusterer = SingleLinkageClusterer(1e300)
    config = OptimConfig(epochs=1, mc_samples=2, mode="regular", scheme="standard",
                         resolution=1)
    with np.errstate(over="ignore"):
        # H0 losses 1.5e308 + 0.5e308: the draw's own sum overflows
        cloud = PointCloud([[0.0], [1e308], [1.5e308]])
        with pytest.raises(FloatingPointError, match="non-finite loss or subgradient"):
            loss_and_subgradient(cloud, np.ones((3, 1), dtype=np.uint8), LinearFilter(),
                                 np.array([1.0]), clusterer, "regular")
        # each draw's loss is 1.5e308, their mean overflows
        cloud = PointCloud([[0.0], [1.5e308]])
        with pytest.raises(FloatingPointError, match="epoch 0: non-finite risk or gradient"):
            optimize(cloud, LinearFilter(), [1.0], clusterer, config)
        # a gradient of -2 times a step of 1e308
        cloud = PointCloud([[0.0], [2.0]])
        config = dataclasses.replace(config, step_size=1e308)
        with pytest.raises(FloatingPointError,
                           match="epoch 0: the step made the parameters non-finite"):
            optimize(cloud, LinearFilter(), [1.0], SingleLinkageClusterer(1.0), config)


def test_overflow_raises_rather_than_warns():
    """Under warnings as errors, an overflow in a draw's subgradient or in an
    epoch's mean of losses still ends in FloatingPointError."""
    clusterer = SingleLinkageClusterer(1e300)
    config = OptimConfig(epochs=1, mc_samples=2, mode="regular", scheme="standard",
                         resolution=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the subgradient adds 1.5e308 + 0.5e308
        cloud = PointCloud([[0.0], [1e308], [1.5e308]])
        with pytest.raises(FloatingPointError, match="non-finite loss or subgradient"):
            loss_and_subgradient(cloud, np.ones((3, 1), dtype=np.uint8), LinearFilter(),
                                 np.array([1.0]), clusterer, "regular")
        # each draw's loss is 1.5e308, their mean overflows
        cloud = PointCloud([[0.0], [1.5e308]])
        with pytest.raises(FloatingPointError, match="epoch 0: non-finite risk or gradient"):
            optimize(cloud, LinearFilter(), [1.0], clusterer, config)
        # a gradient of -2 times a step of 1e308
        config = dataclasses.replace(config, step_size=1e308)
        with pytest.raises(FloatingPointError,
                           match="epoch 0: the step made the parameters non-finite"):
            optimize(PointCloud([[0.0], [2.0]]), LinearFilter(), [1.0],
                     SingleLinkageClusterer(1.0), config)


def test_a_gradient_whose_square_overflows_has_a_finite_norm():
    """The epoch's gradient norm is taken at an exact power-of-two scale, so
    it is finite wherever the gradient is, and is np.linalg.norm's own value
    wherever that does not overflow."""
    config = OptimConfig(epochs=1, mc_samples=2, mode="regular", scheme="standard",
                         resolution=1, step_size=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, trace = optimize(PointCloud([[0.0], [1e200]]), LinearFilter(), [1.0],
                            SingleLinkageClusterer(1e190), config)
        assert trace.grad_norms == [1e200]  # each draw's gradient is [1e200]
        assert _scaled(np.linalg.norm, np.array([1e200, -1e200])) == pytest.approx(
            np.sqrt(2) * 1e200, rel=1e-15)
    rng = np.random.default_rng(0)
    for size in (1, 2, 3, 7, 40):
        for scale in (1e-150, 1e-8, 1.0, 3.0, 1e8, 1e150):
            y = scale * rng.standard_normal(size)
            assert _scaled(np.linalg.norm, y) == np.linalg.norm(y)
