import numpy as np
import pytest

from softmapper.data import PointCloud
from softmapper.filters import FilterValues, FixedFilter, LinearFilter, diagonal_init


def test_linear_projection():
    cloud = PointCloud([[1.0, 2.0, 3.0]])
    fv = LinearFilter().evaluate(cloud, [0.0, 0.0, 1.0])
    assert fv.values[0] == 3.0
    assert np.array_equal(fv.jacobian, [[1.0, 2.0, 3.0]])
    assert fv.jacobian is cloud.points  # read-only, so shared rather than copied


def test_linear_zero_theta(rng):
    cloud = PointCloud(rng.standard_normal((6, 4)))
    assert np.all(LinearFilter().evaluate(cloud, np.zeros(4)).values == 0)


def test_linear_dimension_mismatch():
    with pytest.raises(ValueError):
        LinearFilter().evaluate(PointCloud([[1.0, 2.0]]), [1.0, 2.0, 3.0])
    for theta in ([np.nan, 1.0], [np.inf, 1.0]):
        with pytest.raises(ValueError, match="non-finite parameters"):
            LinearFilter().evaluate(PointCloud([[1.0, 2.0]]), theta)


def test_linear_jacobian_finite_differences(rng):
    cloud = PointCloud(rng.standard_normal((5, 3)))
    theta = rng.standard_normal(3)
    fv = LinearFilter().evaluate(cloud, theta)
    for k in range(3):
        h = 1e-6 * (1 + abs(theta[k]))
        tp, tm = theta.copy(), theta.copy()
        tp[k] += h
        tm[k] -= h
        fd = (LinearFilter().evaluate(cloud, tp).values
              - LinearFilter().evaluate(cloud, tm).values) / (2 * h)
        assert np.allclose(fv.jacobian[:, k], fd, rtol=1e-6, atol=1e-9)


def test_linear_homogeneity(rng):
    cloud = PointCloud(rng.standard_normal((10, 3)))
    theta = rng.standard_normal(3)
    base = LinearFilter().evaluate(cloud, theta).values
    for lam in (-2.0, 0.5, 3.0):
        scaled = LinearFilter().evaluate(cloud, lam * theta).values
        assert np.allclose(scaled, lam * base, rtol=1e-12, atol=1e-12)


def test_fixed_filter():
    cloud = PointCloud([[0.0], [1.0], [2.0]])
    fv = FixedFilter([0.0, 1.0, 2.0]).evaluate(cloud)
    assert fv.n_params == 0
    assert fv.jacobian.shape == (3, 0)
    assert np.array_equal(fv.values, [0, 1, 2])


def test_fixed_filter_rejects_nan():
    with pytest.raises(ValueError):
        FixedFilter([0.0, np.nan])
    with pytest.raises(ValueError, match="length does not match"):
        FixedFilter([0.0, 1.0]).evaluate(PointCloud([[0.0], [1.0], [2.0]]))


@pytest.mark.parametrize("values, jacobian, message", [
    ([0.0, 1.0], np.zeros((3, 1)), "inconsistent shapes"),
    ([[0.0, 1.0]], np.zeros((1, 1)), "inconsistent shapes"),
    ([0.0, 1.0], np.zeros(2), "inconsistent shapes"),
    ([0.0, np.nan], np.zeros((2, 1)), "non-finite"),
    ([0.0, 1.0], [[0.0], [np.inf]], "non-finite"),
])
def test_filter_values_are_checked(values, jacobian, message):
    with pytest.raises(ValueError, match=message):
        FilterValues(values, jacobian)


def test_diagonal_init():
    assert np.allclose(diagonal_init(3), [0.5774, 0.5774, 0.5774], atol=1e-4)
    assert np.array_equal(diagonal_init(1), [1.0])
    assert abs(np.linalg.norm(diagonal_init(4)) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        diagonal_init(0)
