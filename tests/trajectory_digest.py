"""Print the sha256 of the theta, risk and risk-SE trajectories of two
optimize runs, so that two checkouts can be compared for bit-identity:

- the README library quick-start configuration (600-point y-shape, M = 10),
  cut to 50 epochs;
- a 10k-point y-shape at M = 2 for 20 epochs.

Run from a checkout: ``PYTHONPATH=src python tests/trajectory_digest.py``.
pytest does not collect this file.
"""

import hashlib

import numpy as np

from softmapper import (
    LinearFilter,
    OptimConfig,
    SingleLinkageClusterer,
    diagonal_init,
    generate_synthetic,
    optimize,
)

RUNS = {
    "readme-600": (600, OptimConfig(epochs=50, mc_samples=10, step_size=0.1,
                                    mode="extended", maximize=True, seed=0)),
    "yshape-10k": (10_000, OptimConfig(epochs=20, mc_samples=2, step_size=0.1,
                                       mode="extended", maximize=True, seed=0)),
}


def digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def main():
    for name, (n, config) in RUNS.items():
        cloud = generate_synthetic("y_shape", n=n, noise=0.02, seed=0)
        _, trace = optimize(cloud, LinearFilter(), diagonal_init(3),
                            SingleLinkageClusterer(0.2), config)
        for field in ("thetas", "risks", "risk_ses"):
            print(f"{name} {field} {digest(getattr(trace, field))}")


if __name__ == "__main__":
    main()
