"""A fixed reference computation that measures the host's current speed.

On a shared VM the host's speed drifts by tens of percent over minutes, and
the drift moves every time the benchmark takes, CPU time too. The run
therefore times a reference kernel between operations and reports its gated
times scaled to the speed at which the kernel takes its nominal time:

    scaled = measured * nominal / kernel time measured around it

The kernels use only Python, numpy and scipy, never softmapper, so a change
to the program cannot move them. Each follows the bottleneck of the
workloads that use it, because the host's drift slows cache-resident,
interpreter-bound code and memory-bound code by different amounts:

- ``mixed``: a dense ``cdist`` with connected components, pure-Python
  union-find over an edge list (nerve and persistence) and many small
  ``cdist`` + connected-components calls (clustering of small supports);
- ``large``: ``cdist`` + connected components on 2000 points, whose 32 MB
  distance matrix does not fit in the cache, as when clustering the
  ~3000-point supports of the y-shape at n=10k.

Their inputs are fixed and do not depend on the benchmark seed. Import this
module only after ``env.bootstrap()``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

# CPU seconds of one pass of each kernel on a quiet 2-vCPU x86_64 VM (Intel
# Xeon, Python 3.11, numpy 2.4, scipy 1.17). Only their being constant
# matters: they set the speed that scaled times refer to.
NOMINAL_S = {"mixed": 0.015, "large": 0.035}
REPS = 5  # least passes per block; the block's figure is their median


def _components(pts: np.ndarray, radius: float) -> int:
    return connected_components(sparse.csr_matrix(cdist(pts, pts) <= radius),
                                directed=False)[0]


class Reference:
    def __init__(self, kind: str = "mixed"):
        self.kind = kind
        self.nominal_s = NOMINAL_S[kind]
        rng = np.random.default_rng(20240220)
        if kind == "large":
            self.dense = rng.random((2000, 3))
        else:
            self.dense = rng.random((900, 3))
            self.small = [rng.random((60, 3)) * 0.6 for _ in range(20)]
            self.n_items = 3000
            self.edges = rng.integers(0, self.n_items, size=(6000, 2)).tolist()
        self.expected = self.run_once()

    def run_once(self) -> tuple[int, ...]:
        if self.kind == "large":
            return (_components(self.dense, 0.1),)
        n_dense = _components(self.dense, 0.08)
        n_small = sum(_components(pts, 0.2) for pts in self.small)

        parent = list(range(self.n_items))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        n_uf = self.n_items
        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                n_uf -= 1
        return n_dense, n_small, n_uf

    def block(self, min_s: float = 0.0) -> float:
        """Median CPU seconds of one pass, over at least ``REPS`` passes and
        at least ``min_s`` CPU seconds."""
        times = []
        while len(times) < REPS or sum(times) < min_s:
            start = time.process_time()
            out = self.run_once()
            times.append(time.process_time() - start)
            if out != self.expected:
                raise RuntimeError(f"reference kernel gave {out}, expected {self.expected}")
        return statistics.median(times)
