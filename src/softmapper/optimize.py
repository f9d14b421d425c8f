"""Stochastic subgradient descent over the filter parameters on a
Monte-Carlo estimate of the soft-Mapper risk.

Each epoch evaluates the filter once, rebuilds the interval cover and the
smoothing width from those values (their range moves with theta), draws M
independent assignment matrices, records the mean loss and its standard
error, and takes one step along the mean subgradient. The M draws go, as one
stack, through one ``loss_and_subgradient`` call with the epoch's filter
values (its ``fv``): one ``map_comp`` builds their graphs as one disjoint
union whose ``draws`` bounds give each draw's nodes, and one filtration and
one diagram of that union give each draw's loss and subgradient. A draw's
nodes are unions of the epoch's units (core clusters and drawn margin
points), so each unit's filter values and Jacobian rows are summed once per
epoch and each node adds up its units' sums; no draw lists its members. Cover
endpoints are treated as constants inside an epoch: they enter through
sampling only, not through the per-sample chain rule. An overflow in an
epoch's means or step raises FloatingPointError; the recorded gradient norm
is taken at an exact power-of-two scale, so it is finite wherever the
gradient is. The cloud keeps one memo of the previous epoch's
``LinkageEpoch`` (see ``mapper.LinkageEpoch``). An epoch whose scheme has
the same support (the same nonzero entries, the same ones equal to 1) takes
that whole epoch and clusters nothing, as most epochs do once theta
settles; any other epoch clusters again only the cover elements whose point
sets differ from their record's. Either way the results are those of a
rebuild from scratch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .clustering import Clusterer, SingleLinkageClusterer
from .cover import sample_assignment, smooth_scheme, smoothing_width, standard_scheme, uniform_cover
from .data import PointCloud
from .mapper import LinkageEpoch
from .persistence import loss_and_subgradient, raising


@dataclass(frozen=True)
class OptimConfig:
    epochs: int = 200
    mc_samples: int = 10
    step_size: float = 0.1
    schedule: str = "constant"  # constant | robbins_monro (alpha_i = a0/(1+i))
    noise_std: float = 0.0
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
        if not 0 <= self.noise_std < np.inf:
            raise ValueError("noise_std must be finite and >= 0")
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


def _build_scheme(fv, config: OptimConfig):
    delta = smoothing_width(fv, config.resolution, config.delta_rel)
    cover = uniform_cover(fv.values, config.resolution, config.gain)
    if config.scheme == "standard":
        return standard_scheme(fv, cover)
    return smooth_scheme(fv, cover, delta)


@np.errstate(over="raise", invalid="raise")  # too long a step overflows the filter or the graph
def _sample_losses(cloud, filter_family, theta, clusterer, config, base_seed):
    fv = filter_family.evaluate(cloud, theta)
    scheme = _build_scheme(fv, config)
    # every sample shares the linkage clustering of the scheme's deterministic core
    epoch = (LinkageEpoch(cloud, scheme, clusterer)
             if isinstance(clusterer, SingleLinkageClusterer) else None)
    e = np.stack([sample_assignment(scheme, base_seed + m) for m in range(config.mc_samples)])
    losses, grads = loss_and_subgradient(cloud, e, filter_family, theta, clusterer,
                                         config.mode, epoch, fv=fv)
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

    Epoch k draws its samples with seeds ``config.seed + 1 + k * M`` onwards.
    Its node values and their gradients are summed unit by unit (see
    ``mapper.node_means``), so a node of several units can differ in its last
    bits from the sum over its members in member order.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    if theta.ndim != 1 or theta.size != filter_family.param_dim(cloud):
        raise ValueError("theta0 must be a vector of the filter family's parameter dimension")
    noise_rng = np.random.default_rng(config.seed) if config.noise_std > 0 else None
    trace = Trace()
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        base_seed = config.seed + 1 + epoch * config.mc_samples
        try:
            losses, grads = _sample_losses(
                cloud, filter_family, theta, clusterer, config, base_seed
            )
            # the losses and subgradients are finite, so only an overflow
            # makes their means or the step non-finite
            with raising("non-finite risk or gradient"):
                y, risk = np.mean(grads, axis=0), float(np.mean(losses))
            xi = (noise_rng.normal(0.0, config.noise_std, size=theta.shape)
                  if config.noise_std > 0 else 0.0)
            with raising("the step made the parameters non-finite"):
                theta = theta - config.learning_rate(epoch) * (y + xi)
        except FloatingPointError as exc:
            raise FloatingPointError(f"epoch {epoch}: {exc}") from exc
        trace.append(theta, risk, _standard_error(losses), _scaled(np.linalg.norm, y),
                     time.perf_counter() - t0)
    return theta, trace


def direction_correlation(u, v) -> float:
    """Absolute cosine similarity between two direction vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise ValueError("direction vectors must be nonzero")
    return float(abs(u @ v) / (nu * nv))
