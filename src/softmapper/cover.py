"""Interval covers of the filter range and stochastic cover assignment schemes.

An assignment scheme is an n x r matrix of Bernoulli success probabilities;
sampling it yields a binary cover assignment matrix, one column per cover
element. All shipped schemes have conditionally independent coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PointCloud
from .filters import FilterValues

# Probabilities strictly inside (0,1) are clamped this far from the endpoints
# inside log_prob only; structural 0/1 entries stay hard (mismatch -> -inf).
_LOG_CLAMP = 1e-12


@dataclass(frozen=True)
class IntervalCover:
    """r equal-length closed intervals with fixed fractional overlap g."""

    intervals: np.ndarray  # r x 2, (a_j, b_j) rows in increasing order
    gain: float

    def __post_init__(self):
        iv = np.asarray(self.intervals, dtype=float)
        if iv.ndim != 2 or iv.shape[1] != 2 or iv.shape[0] < 1:
            raise ValueError("intervals must be an r x 2 array")
        if np.any(iv[:, 0] >= iv[:, 1]):
            raise ValueError("each interval needs a_j < b_j")
        if iv.shape[0] > 1 and np.any(iv[1:, 0] >= iv[:-1, 1]):
            raise ValueError("consecutive intervals must overlap")
        object.__setattr__(self, "intervals", iv)

    @property
    def resolution(self) -> int:
        return self.intervals.shape[0]

    @property
    def length(self) -> float:
        return float(self.intervals[0, 1] - self.intervals[0, 0])


@dataclass(frozen=True)
class AssignmentScheme:
    """Bernoulli success probabilities p_{i,j} for point i vs cover element j."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 2:
            raise ValueError("probs must be an n x r matrix")
        if np.any(p < 0) or np.any(p > 1) or not np.all(np.isfinite(p)):
            raise ValueError("probabilities must lie in [0,1]")
        object.__setattr__(self, "probs", p)


def uniform_cover(values, r: int, g: float) -> IntervalCover:
    """Cover [min, max] of the values with r equal intervals overlapping by g.

    The interval length L solves (r - (r-1) g) L = max - min, the unique
    uniform solution; consecutive intervals share a segment of length g*L.
    """
    values = np.asarray(values, dtype=float)
    if r < 1:
        raise ValueError("resolution r must be >= 1")
    if not (0 < g < 1):
        raise ValueError(f"gain must lie in (0,1), got {g}")
    lo, hi = float(values.min()), float(values.max())
    if r == 1:
        if hi <= lo:
            hi = lo + 1.0  # degenerate constant data: any covering interval works
        return IntervalCover(np.array([[lo, hi]]), g)
    if hi <= lo:
        raise ValueError("constant values cannot be covered with r > 1 intervals")
    length = (hi - lo) / (r - (r - 1) * g)
    step = length * (1 - g)
    a = lo + step * np.arange(r)
    iv = np.column_stack([a, a + length])
    iv[0, 0] = lo
    iv[-1, 1] = hi  # exact in real arithmetic; pin down rounding
    return IntervalCover(iv, g)


def _as_values(values) -> np.ndarray:
    if isinstance(values, FilterValues):
        return values.values
    return np.asarray(values, dtype=float)


def smoothing_width(values, resolution: int, delta_rel: float) -> float:
    """The smooth scheme's margin width: ``delta_rel`` times the range of the
    values, or ``delta_rel`` itself when they are constant.

    Raises FloatingPointError for constant values and ``resolution`` > 1,
    since no cover of more than one interval fits a single value.
    """
    v = _as_values(values)
    span = float(v.max() - v.min())
    if span == 0 and resolution > 1:
        raise FloatingPointError(f"the filter is constant, so {resolution} intervals"
                                 " cannot cover its range")
    return delta_rel * span if span > 0 else delta_rel


def standard_scheme(values, cover: IntervalCover) -> AssignmentScheme:
    """Degenerate scheme: p_{i,j} = 1 iff the value lies in the closed interval j."""
    v = _as_values(values)
    a = cover.intervals[:, 0]
    b = cover.intervals[:, 1]
    probs = ((v[:, None] >= a[None, :]) & (v[:, None] <= b[None, :])).astype(float)
    if np.any(probs.sum(axis=1) == 0):
        bad = int(np.nonzero(probs.sum(axis=1) == 0)[0][0])
        raise ValueError(f"value {v[bad]} at index {bad} lies outside the cover")
    return AssignmentScheme(probs)


def _bump(t: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1 - t^2)) on |t| < 1, extended by 0 at |t| >= 1."""
    out = np.zeros_like(t)
    inside = np.abs(t) < 1
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def smooth_scheme(values, cover: IntervalCover, delta: float) -> AssignmentScheme:
    """Smooth relaxation of the standard scheme.

    p_{i,j} is 1 on [a_j, b_j], falls off as a smooth bump over a margin of
    width delta on each side, and is 0 beyond the margin.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    v = _as_values(values)
    a = cover.intervals[:, 0]
    b = cover.intervals[:, 1]
    probs = np.zeros((v.shape[0], cover.resolution))
    for j in range(cover.resolution):
        q = np.zeros_like(v)
        q[(v >= a[j]) & (v <= b[j])] = 1.0
        left = (v >= a[j] - delta) & (v < a[j])
        q[left] = _bump((a[j] - v[left]) / delta)
        right = (v > b[j]) & (v <= b[j] + delta)
        q[right] = _bump((v[right] - b[j]) / delta)
        probs[:, j] = q
    return AssignmentScheme(probs)


def gaussian_scheme(cloud: PointCloud, centers, covariances) -> AssignmentScheme:
    """Filterless scheme: p_{i,j} = exp(-(x_i - c_j)^T Sigma_j^{-1} (x_i - c_j))."""
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[1] != cloud.dim:
        raise ValueError("centers must be an r x p matrix")
    r = centers.shape[0]
    if len(covariances) != r:
        raise ValueError("need one covariance per center")
    probs = np.zeros((cloud.n, r))
    for j in range(r):
        sig = np.asarray(covariances[j], dtype=float)
        if sig.shape != (cloud.dim, cloud.dim) or not np.allclose(sig, sig.T):
            raise ValueError(f"covariance {j} is not a symmetric p x p matrix")
        try:
            chol = np.linalg.cholesky(sig)
        except np.linalg.LinAlgError:
            raise ValueError(f"covariance {j} is not positive definite") from None
        diff = cloud.points - centers[j]
        z = np.linalg.solve(chol, diff.T)
        probs[:, j] = np.exp(-(z * z).sum(axis=0))
    return AssignmentScheme(probs)


def sample_assignment(scheme: AssignmentScheme, seed: int) -> np.ndarray:
    """Draw one binary assignment matrix; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    u = rng.random(scheme.probs.shape)
    return (u < scheme.probs).astype(np.uint8)


def log_prob(scheme: AssignmentScheme, e: np.ndarray) -> float:
    """Log-probability of the binary matrix e under the scheme (may be -inf).

    Entries with probability exactly 0 or 1 are treated as hard constraints;
    interior probabilities are clamped away from the endpoints so Monte-Carlo
    diagnostics stay finite.
    """
    p = scheme.probs
    e = np.asarray(e)
    if e.shape != p.shape:
        raise ValueError(f"shape mismatch: e {e.shape} vs probs {p.shape}")
    eb = e.astype(bool)
    if np.any(eb & (p == 0)) or np.any(~eb & (p == 1)):
        return float("-inf")
    interior = (p > 0) & (p < 1)
    pc = np.clip(p[interior], _LOG_CLAMP, 1 - _LOG_CLAMP)
    ei = eb[interior]
    return float(np.sum(np.where(ei, np.log(pc), np.log1p(-pc))))
