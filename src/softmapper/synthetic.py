"""Synthetic desk-scale point clouds with analytically known optimal
filter directions, used as stand-ins for mesh datasets."""

from __future__ import annotations

from numbers import Integral

import numpy as np

from .data import PointCloud

_SQRT2_2 = np.sqrt(2.0) / 2.0

# plane_with_leg geometry: four legs of this length hang from the square's
# corners. The legs carry a small mass fraction so PCA's top components stay
# in-plane, while the summed leg persistence still dominates the square's
# in-plane extent, making the perpendicular direction persistence-optimal.
_LEG_LENGTH = 1.4
_LEG_FRACTION = 0.16


def _even(n):
    return (np.arange(n) + 0.5) / n


def _circle(n, rng):
    ang = 2 * np.pi * _even(n)
    return np.column_stack([np.cos(ang), np.sin(ang)])


def _cylinder(n, rng):
    # golden-angle spiral for even surface coverage
    ang = 2 * np.pi * ((np.arange(n) * 0.618034) % 1.0)
    z = 4 * _even(n)
    return np.column_stack([np.cos(ang), np.sin(ang), z])


def _y_shape(n, rng):
    # trunk [origin, e_z], two unit branches splaying at +-45 deg in xz
    seg = np.arange(n) % 3
    pts = np.zeros((n, 3))
    for s, (sx, z0, sz) in enumerate(
        ((0.0, 0.0, 1.0), (_SQRT2_2, 1.0, _SQRT2_2), (-_SQRT2_2, 1.0, _SQRT2_2))
    ):
        m = seg == s
        t = _even(int(m.sum()))
        pts[m, 0] = sx * t
        pts[m, 2] = z0 + sz * t
    return pts


def _plane_with_leg(n, rng):
    if n < 17:
        raise ValueError("plane_with_leg needs n >= 17 points (four 4-point legs and a"
                         f" plane), got {n}")
    n_leg = max(4, round(_LEG_FRACTION * n / 4))
    n_plane = n - 4 * n_leg
    plane = np.zeros((n_plane, 3))
    plane[:, 0] = rng.random(n_plane)
    plane[:, 1] = rng.random(n_plane)
    parts = [plane]
    for cx, cy in ((0, 0), (0, 1), (1, 0), (1, 1)):
        leg = np.zeros((n_leg, 3))
        leg[:, 0] = cx
        leg[:, 1] = cy
        leg[:, 2] = -_LEG_LENGTH * _even(n_leg)
        parts.append(leg)
    return np.vstack(parts)


_GENERATORS = {
    "circle": _circle,
    "cylinder": _cylinder,
    "y_shape": _y_shape,
    "plane_with_leg": _plane_with_leg,
}


def generate_synthetic(name: str, n: int, noise: float = 0.0, seed: int = 0) -> PointCloud:
    """Generate one of the named shapes with optional Gaussian jitter.

    Raises ValueError unless 0 <= noise < inf, and FloatingPointError when
    the jitter overflows.
    """
    if name not in _GENERATORS:
        raise ValueError(f"unknown shape {name!r}; choose from {sorted(_GENERATORS)}")
    if not isinstance(n, Integral) or n < 10:
        raise ValueError(f"need an integer n >= 10 points, got {n!r}")
    if not 0 <= noise < np.inf:
        raise ValueError("noise must be finite and >= 0")
    rng = np.random.default_rng(seed)
    pts = _GENERATORS[name](n, rng)
    if noise > 0:
        try:
            with np.errstate(over="raise"):
                pts = pts + noise * rng.standard_normal(pts.shape)
        except FloatingPointError:
            raise FloatingPointError(f"noise {noise!r} overflows the jitter") from None
    return PointCloud(pts)
