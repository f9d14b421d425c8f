import numpy as np
import pytest

from softmapper.synthetic import generate_synthetic


def test_unknown_shape_and_bad_args():
    with pytest.raises(ValueError):
        generate_synthetic("torus", n=100)
    with pytest.raises(ValueError):
        generate_synthetic("circle", n=5)
    for noise in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="noise must be finite and >= 0"):
            generate_synthetic("circle", n=100, noise=noise)
    with pytest.raises(FloatingPointError, match="overflows the jitter"):  # finite noise
        generate_synthetic("circle", n=50, noise=1e308)
    for n in (10, 12, 15, 16):  # four 4-point legs leave no plane point
        with pytest.raises(ValueError, match="n >= 17"):
            generate_synthetic("plane_with_leg", n=n)


@pytest.mark.parametrize("name", ["circle", "cylinder", "y_shape", "plane_with_leg"])
def test_point_count_must_be_an_integer(name):
    with pytest.raises(ValueError, match="integer"):
        generate_synthetic(name, n=20.5)
    assert generate_synthetic(name, n=np.int64(20)).n == 20


def test_shapes_have_declared_dimensions():
    for name, dim in [("circle", 2), ("cylinder", 3), ("y_shape", 3), ("plane_with_leg", 3)]:
        for n in (17, 50):
            cloud = generate_synthetic(name, n=n, noise=0.0, seed=0)
            assert cloud.points.shape == (n, dim)
            assert np.all(np.isfinite(cloud.points))


def test_circle_radius_one_without_noise():
    cloud = generate_synthetic("circle", n=200, noise=0.0, seed=1)
    radii = np.linalg.norm(cloud.points, axis=1)
    assert np.allclose(radii, 1.0, atol=1e-12)


def test_cylinder_extent():
    cloud = generate_synthetic("cylinder", n=400, noise=0.0, seed=1)
    xy = np.linalg.norm(cloud.points[:, :2], axis=1)
    assert np.allclose(xy, 1.0, atol=1e-12)
    z = cloud.points[:, 2]
    assert z.min() >= 0.0 and z.max() <= 4.0
    assert z.max() - z.min() > 3.5


def test_y_shape_geometry():
    cloud = generate_synthetic("y_shape", n=300, noise=0.0, seed=1)
    z = cloud.points[:, 2]
    assert z.min() >= 0.0
    # branch tips sit at 1 + sqrt(2)/2 above the trunk base
    assert z.max() == pytest.approx(1.0 + np.sqrt(2) / 2, abs=0.02)
    assert np.allclose(cloud.points[:, 1], 0.0)
    # symmetric pair of branches in x
    assert abs(cloud.points[:, 0].max() + cloud.points[:, 0].min()) < 0.05


def test_plane_with_leg_pca_plane():
    cloud = generate_synthetic("plane_with_leg", n=1000, noise=0.0, seed=3)
    x = cloud.points - cloud.points.mean(axis=0)
    # oracle: eigendecomposition of the sample covariance
    evals, evecs = np.linalg.eigh(x.T @ x / len(x))
    top_two = evecs[:, 2:]  # ascending order from eigh
    # the dominant plane is xy: both leading PCs are (numerically) in-plane
    assert np.all(np.abs(top_two[2, :]) < 0.3)
    # legs extend below the plane
    assert cloud.points[:, 2].min() < -1.0
    assert cloud.points[:, 2].max() <= 0.0


def test_noise_scale_and_determinism():
    a = generate_synthetic("circle", n=100, noise=0.05, seed=9)
    b = generate_synthetic("circle", n=100, noise=0.05, seed=9)
    assert np.array_equal(a.points, b.points)
    c = generate_synthetic("circle", n=100, noise=0.05, seed=10)
    assert not np.array_equal(a.points, c.points)
    clean = generate_synthetic("circle", n=100, noise=0.0, seed=9)
    dev = np.abs(np.linalg.norm(a.points, axis=1) - 1.0)
    assert dev.max() < 0.3
    assert not np.array_equal(a.points, clean.points)
