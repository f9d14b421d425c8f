"""Print the sha256 of the theta, risk and risk-SE trajectories of six
optimize runs, and of the files four ``softmapper build`` runs write, so that
two checkouts can be compared for bit-identity:

- the README library quick-start configuration (600-point y-shape, M = 10),
  cut to 50 epochs;
- a 10k-point y-shape at M = 2 for 20 epochs;
- the README configuration in regular mode, 30 epochs, where each draw's
  essential points pair with that draw's own global maximum;
- the README configuration for 600 epochs, long enough for theta to settle:
  over half its epochs repeat the previous epoch's scheme support and so
  reuse that whole ``LinkageEpoch``, which no shorter run here does;
- a 300-point y-shape clustered by 3-means on the smooth scheme, 10 epochs
  at M = 3, whose draws are the margin blocks expanded to n x r matrices;
- the README configuration on the standard scheme for 200 epochs, most
  of whose last 50 schemes are checked against the previous epoch's runs
  at width 0 and taken from them;
- a build of the benchmark's circle-build configuration (4000-point circle,
  coordinate filter, 400 intervals, linkage threshold 0.05);
- a sampled build of a 600-point y-shape;
- the benchmark's circle-build operation: ``build --input`` on a CSV of the
  4000-point circle turned by a seeded phase, written with ``repr``;
- ``build --input --has-header`` on a 200-point y-shape CSV with a
  byte-order mark, blank lines before its header, whitespace-only lines
  among its rows and CRLF line ends.

Next to each optimize run's digests it prints the final theta and the last
risk to 10 significant digits, so a change whose digests move shows whether
it moved only the last bits.

Run from a checkout: ``PYTHONPATH=src python tests/trajectory_digest.py``.
pytest does not collect this file.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from softmapper import (
    KMeansClusterer,
    LinearFilter,
    OptimConfig,
    SingleLinkageClusterer,
    diagonal_init,
    generate_synthetic,
    optimize,
)
from softmapper.cli import main as cli_main

LINKAGE = SingleLinkageClusterer(0.2)
RUNS = {
    "readme-600": (600, LINKAGE, OptimConfig(epochs=50, mc_samples=10, step_size=0.1,
                                             mode="extended", maximize=True, seed=0)),
    "yshape-10k": (10_000, LINKAGE, OptimConfig(epochs=20, mc_samples=2, step_size=0.1,
                                                mode="extended", maximize=True, seed=0)),
    "regular-600": (600, LINKAGE, OptimConfig(epochs=30, mc_samples=10, step_size=0.1,
                                              mode="regular", maximize=True, seed=0)),
    "steady-600": (600, LINKAGE, OptimConfig(epochs=600, mc_samples=10, step_size=0.1,
                                             mode="extended", maximize=True, seed=0)),
    "kmeans-300": (300, KMeansClusterer(3), OptimConfig(epochs=10, mc_samples=3, step_size=0.1,
                                                        mode="extended", maximize=True,
                                                        scheme="smooth", seed=0)),
    "standard-600": (600, LINKAGE, OptimConfig(epochs=200, mc_samples=10, step_size=0.1,
                                               mode="extended", maximize=True,
                                               scheme="standard", seed=0)),
}
BUILDS = {
    "circle-build": ["--shape", "circle", "--n", "4000", "--filter", "coord",
                     "--resolution", "400", "--threshold", "0.05"],
    "yshape-sampled": ["--shape", "y_shape", "--n", "600", "--noise", "0.02",
                       "--threshold", "0.2", "--sample", "--seed", "3"],
}
BUILD_FILES = ("mapper.json", "mapper.dot", "diagram.csv")


def circle_csv() -> str:
    """The unit circle of circle-build, turned by the phase of the benchmark's
    seed 1, build 0, one point per line as ``repr`` writes it."""
    phase = 2 * np.pi * np.random.default_rng([1, 0]).random()
    rot = np.array([[np.cos(phase), -np.sin(phase)], [np.sin(phase), np.cos(phase)]])
    points = generate_synthetic("circle", n=4000).points @ rot.T
    return "\n".join(",".join(repr(x) for x in row) for row in points.tolist()) + "\n"


def messy_csv() -> str:
    """A 200-point y-shape behind a byte-order mark, two blank lines and a
    header, with a whitespace-only line after every 7th row, cells padded
    with spaces and tabs, and CRLF line ends."""
    points = generate_synthetic("y_shape", n=200, noise=0.02, seed=5).points.tolist()
    lines = ["", "  ", "x,y,z"]
    for k, row in enumerate(points):
        lines.append(" , ".join(repr(x) for x in row) if k % 2 else "\t" + ",".join(map(repr, row)))
        if k % 7 == 6:
            lines.append(" \t ")
    return "\ufeff" + "\r\n".join(lines) + "\r\n"


CSV_BUILDS = {
    "circle-build-csv": (circle_csv, ["--filter", "coord", "--resolution", "400", "--gain", "0.3",
                                      "--clusterer", "linkage", "--threshold", "0.05"]),
    "messy-csv": (messy_csv, ["--has-header", "--resolution", "8", "--threshold", "0.2"]),
}


def digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def main():
    for name, (n, clusterer, config) in RUNS.items():
        cloud = generate_synthetic("y_shape", n=n, noise=0.02, seed=0)
        _, trace = optimize(cloud, LinearFilter(), diagonal_init(3), clusterer, config)
        for field in ("thetas", "risks", "risk_ses"):
            print(f"{name} {field} {digest(getattr(trace, field))}")
        print(f"{name} final theta", *(f"{x:.10g}" for x in trace.thetas[-1]))
        print(f"{name} last risk {trace.risks[-1]:.10g}")
    for name, argv in BUILDS.items():
        build(name, argv)
    for name, (text, argv) in CSV_BUILDS.items():
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{name}.csv"
            path.write_bytes(text().encode("utf-8"))
            build(name, ["--input", str(path), *argv])


def build(name: str, argv: list[str]) -> None:
    with tempfile.TemporaryDirectory() as out:
        if cli_main(["build", *argv, "--out-dir", out]) != 0:
            raise SystemExit(f"{name}: softmapper build failed")
        for file in BUILD_FILES:
            print(name, file, hashlib.sha256((Path(out) / file).read_bytes()).hexdigest())


if __name__ == "__main__":
    main()
