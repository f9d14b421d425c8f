"""Monte-Carlo risk estimation and stochastic subgradient descent over the
filter parameters.

Each epoch rebuilds the interval cover and the smoothing width from the
current filter values (their range moves with theta), draws M independent
assignment matrices, averages the per-sample subgradients and takes one
descent step. Cover endpoints are treated as constants inside an epoch:
they enter through sampling only, not through the per-sample chain rule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .clustering import Clusterer, SingleLinkageClusterer
from .cover import sample_assignment, smooth_scheme, smoothing_width, standard_scheme, uniform_cover
from .data import PointCloud
from .mapper import LinkageEpoch
from .persistence import loss_and_subgradient


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
        if self.epochs < 1 or self.mc_samples < 1:
            raise ValueError("epochs and mc_samples must be >= 1")
        if not self.step_size >= 0:
            raise ValueError("step_size must be >= 0")
        if self.schedule not in ("constant", "robbins_monro"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if not self.noise_std >= 0:
            raise ValueError("noise_std must be >= 0")
        if self.mode not in ("regular", "extended"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.scheme not in ("smooth", "standard"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.delta_rel > 0:
            raise ValueError("delta_rel must be > 0")
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")
        if not 0.0 < self.gain < 1.0:
            raise ValueError("gain must lie in (0, 1)")

    def learning_rate(self, epoch: int) -> float:
        if self.schedule == "constant":
            return self.step_size
        return self.step_size / (1.0 + epoch)


@dataclass
class Trace:
    epochs: list[int] = field(default_factory=list)
    thetas: list[np.ndarray] = field(default_factory=list)
    risks: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

    def append(self, epoch, theta, risk, grad_norm, secs):
        self.epochs.append(epoch)
        self.thetas.append(np.array(theta))
        self.risks.append(float(risk))
        self.grad_norms.append(float(grad_norm))
        self.seconds.append(float(secs))

    def __len__(self):
        return len(self.epochs)


def _build_scheme(fv, config: OptimConfig):
    delta = smoothing_width(fv, config.resolution, config.delta_rel)
    cover = uniform_cover(fv.values, config.resolution, config.gain)
    if config.scheme == "standard":
        return standard_scheme(fv, cover)
    return smooth_scheme(fv, cover, delta)


def _sample_losses(cloud, filter_family, theta, clusterer, config, base_seed):
    with np.errstate(over="raise", invalid="raise"):  # too long a step overflows the filter
        fv = filter_family.evaluate(cloud, theta)
    scheme = _build_scheme(fv, config)
    # every sample shares the linkage clustering of the scheme's deterministic core
    epoch = (LinkageEpoch(cloud, scheme.probs, clusterer)
             if isinstance(clusterer, SingleLinkageClusterer) else None)
    sign = -1.0 if config.maximize else 1.0
    losses, grads = [], []
    for m in range(config.mc_samples):
        e = sample_assignment(scheme, base_seed + m)
        loss, grad = loss_and_subgradient(cloud, e, filter_family, theta, clusterer,
                                          config.mode, epoch)
        losses.append(sign * loss)
        grads.append(sign * grad)
    return losses, grads


def estimate_risk(
    cloud: PointCloud, filter_family, theta, clusterer: Clusterer, config: OptimConfig
) -> tuple[float, float]:
    """Monte-Carlo estimate of the conditional risk at theta.

    Returns the M-sample mean and its standard error (0 when M == 1 or
    all samples coincide).
    """
    losses, _ = _sample_losses(
        cloud, filter_family, np.asarray(theta, dtype=float), clusterer, config, config.seed + 1
    )
    mean = float(np.mean(losses))
    if len(losses) < 2:
        return mean, 0.0
    return mean, float(np.std(losses, ddof=1) / np.sqrt(len(losses)))


def optimize(
    cloud: PointCloud,
    filter_family,
    theta0,
    clusterer: Clusterer,
    config: OptimConfig,
) -> tuple[np.ndarray, Trace]:
    """Run N epochs of M-sample stochastic subgradient descent from theta0."""
    theta = np.asarray(theta0, dtype=float).copy()
    if theta.ndim != 1 or theta.size < 1:
        raise ValueError("theta0 must be a nonempty vector")
    if filter_family.param_dim(cloud) != theta.size:
        raise ValueError("filter family parameter dimension does not match theta0")
    noise_rng = np.random.default_rng(config.seed)
    trace = Trace()
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        base_seed = config.seed + 1 + epoch * config.mc_samples
        try:
            losses, grads = _sample_losses(
                cloud, filter_family, theta, clusterer, config, base_seed
            )
        except FloatingPointError as exc:
            raise FloatingPointError(f"epoch {epoch}: {exc}") from exc
        y = np.mean(grads, axis=0)
        risk = float(np.mean(losses))
        if not np.isfinite(risk) or not np.all(np.isfinite(y)):
            raise FloatingPointError(f"epoch {epoch}: non-finite risk or gradient")
        xi = noise_rng.normal(0.0, config.noise_std, size=theta.shape) if config.noise_std > 0 else 0.0
        theta = theta - config.learning_rate(epoch) * (y + xi)
        if not np.all(np.isfinite(theta)):
            raise FloatingPointError(f"epoch {epoch}: the step made the parameters non-finite")
        trace.append(epoch, theta, risk, float(np.linalg.norm(y)), time.perf_counter() - t0)
    return theta, trace


def direction_correlation(u, v) -> float:
    """Absolute cosine similarity between two direction vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise ValueError("direction vectors must be nonzero")
    return float(abs(u @ v) / (nu * nv))
