"""Parameterized scalar filter families with exact Jacobians."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PointCloud


@dataclass(frozen=True)
class FilterValues:
    """Filter values per point plus the Jacobian of values w.r.t. parameters.

    ``values`` has length n; ``jacobian`` is n x s where s is the parameter
    dimension (s = 0 for non-optimizable filters).
    """

    values: np.ndarray
    jacobian: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        j = np.asarray(self.jacobian, dtype=float)
        if v.ndim != 1 or j.ndim != 2 or j.shape[0] != v.shape[0]:
            raise ValueError(f"inconsistent shapes: values {v.shape}, jacobian {j.shape}")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(j))):
            raise ValueError("non-finite filter values or jacobian")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "jacobian", j)

    @property
    def n_params(self) -> int:
        return self.jacobian.shape[1]


class LinearFilter:
    """x -> <x, theta>; the Jacobian row for point i is x_i itself."""

    def param_dim(self, cloud: PointCloud) -> int:
        return cloud.dim

    def evaluate(self, cloud: PointCloud, theta: np.ndarray) -> FilterValues:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (cloud.dim,):
            raise ValueError(
                f"parameter dimension {theta.shape} does not match cloud dimension {cloud.dim}"
            )
        if not np.all(np.isfinite(theta)):
            raise ValueError("non-finite parameters")
        return FilterValues(cloud.points @ theta, cloud.points)


class FixedFilter:
    """A frozen scalar function given by precomputed per-point values (s = 0)."""

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or not np.all(np.isfinite(values)):
            raise ValueError("fixed filter values must be a finite 1-d vector")
        self._values = values

    def param_dim(self, cloud: PointCloud) -> int:
        return 0

    def evaluate(self, cloud: PointCloud, theta: np.ndarray = None) -> FilterValues:
        if self._values.shape[0] != cloud.n:
            raise ValueError("fixed filter length does not match cloud size")
        return FilterValues(self._values, np.zeros((cloud.n, 0)))


def diagonal_init(p: int) -> np.ndarray:
    """Unit-norm diagonal direction (1/sqrt(p), ..., 1/sqrt(p))."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return np.full(p, 1.0 / np.sqrt(p))
