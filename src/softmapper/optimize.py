"""Stochastic subgradient descent over the filter parameters on a
Monte-Carlo estimate of the soft-Mapper risk.

Each epoch evaluates the filter once, rebuilds the interval cover and the
smoothing width from those values (their range moves with theta), draws M
independent assignments, records the mean loss and its standard error, and
takes one step along the mean subgradient. The draws differ only at the
scheme's m margin entries (0 < p < 1), so epoch k draws them as one M x m
block from one generator, ``sample_assignment(margin_scheme(scheme, M),
[config.seed, k])``, and single linkage never lists an n x r matrix; k-means
clusters each draw's n x r matrix, expanded from the same block. The block
goes, as one ``MarginDraws``, through one ``loss_and_subgradient`` call with
the epoch's filter values (its ``fv``): one ``map_comp`` builds the M graphs
as one disjoint union whose ``draws`` bounds give each draw's nodes, and one
filtration and one diagram of that union give each draw's loss and
subgradient. A draw's nodes are unions of the epoch's units (core clusters
and drawn margin points), so each unit's filter values and Jacobian rows are
summed once per epoch and each node adds up its units' sums; no draw lists
its members. Cover endpoints are treated as constants inside an epoch: they
enter through sampling only, not through the per-sample chain rule. An
overflow in an epoch's means or step raises FloatingPointError naming the
epoch; the recorded gradient norm is taken at an exact power-of-two scale,
so it is finite wherever the gradient is. The cloud keeps the previous
epoch's ``LinkageEpoch`` and scheme as a memo (see ``mapper.LinkageEpoch``),
which the next epoch's scheme build and clustering reuse where their inputs
repeat, with the results of a rebuild from scratch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .clustering import Clusterer
from .cover import (MarginDraws, _reuse, margin_scheme, sample_assignment, smooth_scheme,
                    smoothing_width, standard_scheme, uniform_cover)
from .data import PointCloud
from .mapper import last_scheme
from .persistence import loss_and_subgradient, raising


@dataclass(frozen=True)
class OptimConfig:
    """The settings of an ``optimize`` run; a value out of range raises
    ValueError. ``epochs``, ``mc_samples``, ``resolution`` and ``seed`` are
    integers (numpy integers included), the first three >= 1, ``seed`` >= 0."""

    epochs: int = 200
    mc_samples: int = 10
    step_size: float = 0.1
    schedule: str = "constant"  # constant | robbins_monro (alpha_i = a0/(1+i))
    seed: int = 0
    mode: str = "extended"  # regular | extended
    delta_rel: float = 1e-2  # smoothing width as a fraction of the filter range
    resolution: int = 10
    gain: float = 0.3
    maximize: bool = False
    scheme: str = "smooth"  # smooth | standard

    def __post_init__(self):
        for name, low in (("epochs", 1), ("mc_samples", 1), ("resolution", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < low:
                raise ValueError(f"{name} must be >= {low} and an integer, got {value!r}")
        if not 0 <= self.step_size < np.inf:
            raise ValueError("step_size must be finite and >= 0")
        if self.schedule not in ("constant", "robbins_monro"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.mode not in ("regular", "extended"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.scheme not in ("smooth", "standard"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0 < self.delta_rel < np.inf:
            raise ValueError("delta_rel must be finite and > 0")
        if not 0.0 < self.gain < 1.0:
            raise ValueError("gain must lie in (0, 1)")

    def learning_rate(self, epoch: int) -> float:
        if self.schedule == "constant":
            return self.step_size
        return self.step_size / (1.0 + epoch)


@dataclass
class Trace:
    """Per epoch: theta after the step; the risk, its SE and the gradient norm before it."""

    thetas: list[np.ndarray] = field(default_factory=list)
    risks: list[float] = field(default_factory=list)
    risk_ses: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

    def append(self, theta, risk, risk_se, grad_norm, secs):
        self.thetas.append(np.array(theta))
        self.risks.append(float(risk))
        self.risk_ses.append(float(risk_se))
        self.grad_norms.append(float(grad_norm))
        self.seconds.append(float(secs))

    def __len__(self):
        return len(self.risks)


def _build_scheme(fv, config: OptimConfig, last):
    """The epoch's scheme: ``last``'s entries with fresh probabilities if its
    support still holds (``cover._reuse``), else a build."""
    delta = smoothing_width(fv, config.resolution, config.delta_rel)
    cover = uniform_cover(fv.values, config.resolution, config.gain)
    standard = config.scheme == "standard"
    scheme = _reuse(last, fv, cover, 0.0 if standard else delta)
    if scheme is not None:
        return scheme
    return standard_scheme(fv, cover) if standard else smooth_scheme(fv, cover, delta)


@np.errstate(over="raise", invalid="raise")  # too long a step overflows the filter or the graph
def _sample_losses(cloud, filter_family, theta, clusterer, config, seed):
    fv = filter_family.evaluate(cloud, theta)
    scheme = _build_scheme(fv, config, last_scheme(cloud, clusterer))
    draws = MarginDraws(scheme, sample_assignment(margin_scheme(scheme, config.mc_samples), seed))
    losses, grads = loss_and_subgradient(cloud, draws, filter_family, theta, clusterer,
                                         config.mode, fv=fv)
    sign = -1.0 if config.maximize else 1.0
    return sign * losses, sign * grads


def _scaled(f, x) -> float:
    """f(x) for an f that scales with x, such as a norm, taken at x over the
    power of two that brings its largest entry into [1/2, 1), so the squares
    inside f cannot overflow. The scaling is exact: wherever f(x) neither
    overflows nor underflows, this is f(x) bit for bit."""
    exp = np.frexp(np.abs(x).max(initial=0.0))[1]
    return float(np.ldexp(f(np.ldexp(x, -exp)), exp))


def _standard_error(losses) -> float:
    """The M-sample standard error of the mean loss, exactly 0 when the losses
    coincide."""
    x = np.asarray(losses)
    if np.ptp(x) == 0:  # where np.std can round to 1e-16
        return 0.0
    return _scaled(lambda z: np.std(z, ddof=1) / np.sqrt(z.size), x)


def optimize(
    cloud: PointCloud,
    filter_family,
    theta0,
    clusterer: Clusterer,
    config: OptimConfig,
) -> tuple[np.ndarray, Trace]:
    """Run N epochs of M-sample stochastic subgradient descent from theta0.

    Epoch k draws its M samples as one block over its scheme's margin
    entries, from one generator seeded ``[config.seed, k]``:
    ``sample_assignment(margin_scheme(scheme, M), [config.seed, k])`` (see
    ``cover.MarginDraws``). Its node values and their gradients are summed
    unit by unit (see ``mapper.node_means``), so a node of several units can
    differ in its last bits from the sum over its members in member order.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    if theta.ndim != 1 or theta.size != filter_family.param_dim(cloud):
        raise ValueError("theta0 must be a vector of the filter family's parameter dimension")
    trace = Trace()
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        try:
            losses, grads = _sample_losses(
                cloud, filter_family, theta, clusterer, config, [config.seed, epoch]
            )
            # the losses and subgradients are finite, so only an overflow
            # makes their means or the step non-finite
            with raising("non-finite risk or gradient"):
                y, risk = np.mean(grads, axis=0), float(np.mean(losses))
            with raising("the step made the parameters non-finite"):
                theta = theta - config.learning_rate(epoch) * y
        except FloatingPointError as exc:
            raise FloatingPointError(f"epoch {epoch}: {exc}") from exc
        trace.append(theta, risk, _standard_error(losses), _scaled(np.linalg.norm, y),
                     time.perf_counter() - t0)
    return theta, trace


def _direction(x) -> np.ndarray:
    """The vector x over the power of two that brings its largest entry into
    [1/2, 1), an exact scaling; x with a non-finite entry or no nonzero one
    raises ValueError."""
    x = np.asarray(x, dtype=float)
    if not (np.all(np.isfinite(x)) and x.any()):
        raise ValueError("direction vectors must be finite and nonzero")
    return np.ldexp(x, -np.frexp(np.abs(x).max())[1])


def direction_correlation(u, v) -> float:
    """Absolute cosine similarity between two direction vectors. Each is
    first scaled by the power of two that brings its largest entry into
    [1/2, 1) (``_direction``), which is exact and leaves the cosine as it
    is, so huge or tiny vectors neither overflow nor underflow. A vector
    with a non-finite entry or no nonzero one raises ValueError."""
    u, v = _direction(u), _direction(v)
    return float(abs(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v)))
