"""Inputs at the ends of the doubles, under warnings as errors: coordinates
and theta up to +-1e308 (subnormals included) and linkage thresholds from
5e-324 to 1e308. Each call either raises ValueError or FloatingPointError
or returns a finite result, and the CLI exits 0, 1 or 2, never with a
warning or a traceback."""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from softmapper.cli import main
from softmapper.clustering import SingleLinkageClusterer, cluster
from softmapper.data import PointCloud
from softmapper.filters import LinearFilter
from softmapper.optimize import OptimConfig, optimize
from softmapper.persistence import loss_and_subgradient

BIG = 1e308
# magnitudes spread evenly over the binary exponents, from the subnormals up
magnitudes = st.builds(lambda m, e: min(math.ldexp(m, e), BIG),
                       st.floats(0.5, 1, exclude_max=True), st.integers(-1074, 1024))
coords = st.one_of(st.just(0.0), st.sampled_from([BIG, -BIG, 5e-324, -5e-324]),
                   magnitudes, magnitudes.map(lambda x: -x))
thresholds = st.one_of(st.sampled_from([5e-324, BIG]), magnitudes.map(lambda x: max(x, 5e-324)))


@st.composite
def clouds(draw, max_points=8):
    """Small 2-D clouds, sometimes tiled to 140 points so that ``cluster``
    takes its grid branch; tiling repeats points, so many coincide."""
    pts = np.array(draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=max_points)))
    if draw(st.booleans()):
        pts = np.tile(pts, (-(-140 // len(pts)), 1))[:140]
    return pts


def _quietly(call):
    """call() under warnings as errors; None when it raises one of the
    errors the library documents."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except (ValueError, FloatingPointError):
            return None


@given(clouds(), thresholds)
@settings(max_examples=150, deadline=None)
def test_cluster(pts, threshold):
    parts = _quietly(lambda: cluster(SingleLinkageClusterer(threshold), PointCloud(pts),
                                     range(len(pts))))
    if parts is not None:
        assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(len(pts)))


@given(clouds(), st.tuples(coords, coords), thresholds, st.data())
@settings(max_examples=100, deadline=None)
def test_loss_and_subgradient(pts, theta, threshold, data):
    e = np.array(data.draw(st.lists(st.sampled_from([[1, 0], [0, 1], [1, 1]]),
                                    min_size=len(pts), max_size=len(pts))), dtype=np.uint8)
    out = _quietly(lambda: loss_and_subgradient(PointCloud(pts), e, LinearFilter(),
                                                np.array(theta), SingleLinkageClusterer(threshold)))
    if out is not None:
        assert math.isfinite(out[0]) and np.all(np.isfinite(out[1]))


@given(clouds(max_points=5), st.tuples(coords, coords), thresholds,
       st.sampled_from([0.0, 0.1, 1e300]), st.sampled_from(["smooth", "standard"]))
@settings(max_examples=60, deadline=None)
def test_optimize(pts, theta, threshold, step_size, scheme):
    config = OptimConfig(epochs=2, mc_samples=2, step_size=step_size, resolution=3,
                         scheme=scheme, maximize=True)
    out = _quietly(lambda: optimize(PointCloud(pts), LinearFilter(), np.array(theta),
                                    SingleLinkageClusterer(threshold), config))
    if out is not None:
        theta_n, trace = out
        assert np.all(np.isfinite(theta_n))
        for series in (trace.risks, trace.risk_ses, trace.grad_norms):
            assert np.all(np.isfinite(series))


@given(clouds(max_points=5), st.tuples(coords, coords), thresholds, st.booleans())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_build(pts, theta, threshold, sample):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pts.csv"
        path.write_text("\n".join(",".join(map(repr, row)) for row in pts.tolist()) + "\n")
        argv = ["build", "--input", str(path), "--theta", ",".join(map(repr, theta)),
                "--resolution", "3", "--threshold", repr(threshold),
                "--out-dir", str(Path(tmp) / "out"), *(["--sample"] if sample else [])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) in (0, 1, 2)
