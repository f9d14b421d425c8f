"""The benchmark's workloads.

Each workload makes its inputs from the benchmark seed, runs one operation
at a time in a closed loop (the next starts when the previous one ends) and
checks every operation's output outside the timed region. Import this
module only after ``env.bootstrap()``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import softmapper as sm
from softmapper.export import graph_from_json

# ``softmapper.optimize`` as a package attribute is the function, not the module.
opt_mod = importlib.import_module("softmapper.optimize")
cli_mod = importlib.import_module("softmapper.cli")
synth_mod = importlib.import_module("softmapper.synthetic")

TRUNK = np.array([0.0, 0.0, 1.0])
YSHAPE_NOISE = 0.02
GAIN = 0.3
DELTA_REL = 1e-2


class CheckError(Exception):
    """An operation returned, but its output is wrong."""


@dataclass(frozen=True)
class Spec:
    n: int
    resolution: int
    threshold: float
    min_ops: int  # always run; the y-shape direction_corr is taken after this many epochs
    mc_samples: int = 0  # Monte-Carlo samples per epoch; 0 for the build workload
    setup_repeats: int = 7  # fresh processes whose set-up time gives setup_s
    reference: str = "mixed"  # the reference.py kernel that scales its times


WORKLOADS = {
    # README/paper configuration: many small cluster calls (~60-point supports)
    "yshape-600": Spec(n=600, resolution=10, threshold=0.2,
                       min_ops=10, mc_samples=10),
    # ~3000-point supports: dense cdist and O(support^2) memory dominate
    "yshape-10k": Spec(n=10_000, resolution=10, threshold=0.2,
                       min_ops=4, mc_samples=2, reference="large"),
    # deterministic standard scheme, ~800-node graph: nerve and persistence carry the load
    "circle-build": Spec(n=4000, resolution=400, threshold=0.05, min_ops=3),
}
# Tiny sizes that run in seconds, for the benchmark's own tests.
SMOKE = {
    "yshape-600": replace(WORKLOADS["yshape-600"], n=150, min_ops=3, mc_samples=3,
                          setup_repeats=1),
    "yshape-10k": replace(WORKLOADS["yshape-10k"], n=300, min_ops=2, mc_samples=1,
                          setup_repeats=1),
    "circle-build": replace(WORKLOADS["circle-build"], n=400, resolution=40, min_ops=2,
                            setup_repeats=1),
}


def yshape_cloud(n: int, seed: int):
    return synth_mod.generate_synthetic("y_shape", n=n, noise=YSHAPE_NOISE, seed=seed)


def smooth_assignment(cloud, theta, resolution: int, sample_seed: int) -> np.ndarray:
    """One draw of the smooth scheme the optimizer samples from at theta."""
    fv = sm.LinearFilter().evaluate(cloud, theta)
    cover = sm.uniform_cover(fv.values, resolution, GAIN)
    span = float(fv.values.max() - fv.values.min())
    return sm.sample_assignment(sm.smooth_scheme(fv, cover, DELTA_REL * span), sample_seed)


def rotated_circle(base: np.ndarray, phase: float) -> np.ndarray:
    rot = np.array([[np.cos(phase), -np.sin(phase)], [np.sin(phase), np.cos(phase)]])
    return base @ rot.T


def circle_phase(seed: int, k: int) -> float:
    return float(2 * np.pi * np.random.default_rng([seed, k]).random())


def write_csv(path: Path, points: np.ndarray) -> None:
    """One point per line, written with repr so the loader reads the exact floats."""
    path.write_text("\n".join(",".join(repr(x) for x in row) for row in points.tolist()) + "\n")


def build_argv(spec: Spec, csv_path: Path, out_dir: Path) -> list[str]:
    return ["build", "--input", str(csv_path), "--filter", "coord",
            "--resolution", str(spec.resolution), "--gain", repr(GAIN),
            "--clusterer", "linkage", "--threshold", repr(spec.threshold),
            "--out-dir", str(out_dir)]


def betti1(graph) -> int:
    """Cycle rank E - V + components, from the graph alone."""
    parent = list(range(graph.n_nodes))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    components = graph.n_nodes
    for u, v in graph.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return graph.n_edges - graph.n_nodes + components


def read_diagram_csv(text: str) -> list[list]:
    """Rows of diagram.csv as [class, birth, death, birth_node, death_node]."""
    rows = []
    for line in text.splitlines()[1:]:
        cls, b, d, bn, dn = line.split(",")
        rows.append([cls, float(b), float(d), int(bn), None if dn == "" else int(dn)])
    return rows


class OptimizeWorkload:
    """One operation is one epoch of the library optimizer on a noisy Y-shape.

    Epoch k uses the sample seeds that epoch k of one long ``optimize`` run
    would, so the theta trajectory depends on the seed and k only.
    """

    layers = ("synthetic", "filters", "cover", "clustering", "mapper", "persistence", "optimize")

    def __init__(self, spec: Spec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.cloud = yshape_cloud(spec.n, seed)
        self.clusterer = sm.SingleLinkageClusterer(spec.threshold)
        self.theta = sm.diagonal_init(self.cloud.dim)
        self.direction_corr = None

    def prepare(self, k: int) -> None:
        pass

    def run(self, k: int):
        m = self.spec.mc_samples
        config = sm.OptimConfig(
            epochs=1, mc_samples=m, step_size=0.1, mode="extended", maximize=True,
            scheme="smooth", resolution=self.spec.resolution, gain=GAIN,
            delta_rel=DELTA_REL, seed=self.seed * 1_000_000 + k * m,
        )
        theta, trace = opt_mod.optimize(self.cloud, sm.LinearFilter(), self.theta,
                                        self.clusterer, config)
        self.theta = theta
        return trace

    def check(self, k: int, trace) -> None:
        if len(trace) != 1 or not np.isfinite(trace.risks[0]):
            raise CheckError(f"epoch {k}: bad trace (risks {trace.risks})")
        if not np.all(np.isfinite(self.theta)):
            raise CheckError(f"epoch {k}: non-finite theta {self.theta}")
        if k + 1 == self.spec.min_ops:
            self.direction_corr = opt_mod.direction_correlation(self.theta, TRUNK)

    def finish(self) -> list[str]:
        """Result-quality check: the epochs turned theta toward the trunk."""
        if self.direction_corr is None:
            return [f"fewer than {self.spec.min_ops} epochs ran"]
        start = opt_mod.direction_correlation(sm.diagonal_init(self.cloud.dim), TRUNK)
        if not self.direction_corr > start:
            return [f"direction_corr {self.direction_corr} after {self.spec.min_ops} epochs"
                    f" is not above its start {start}"]
        return []


class BuildWorkload:
    """One operation is ``softmapper build`` on a fresh CSV file.

    Input k is a noise-free unit circle turned by a phase drawn from the seed
    and k, so no two builds share inputs. Writing it is untimed.
    """

    layers = ("synthetic", "data", "filters", "cover", "clustering", "mapper", "persistence",
              "export", "cli")
    direction_corr = None

    def __init__(self, spec: Spec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.out_dir = workdir / "out"
        self.base = synth_mod.generate_synthetic("circle", n=spec.n).points
        self.prepare(0)

    def input_path(self, k: int) -> Path:
        return self.workdir / f"circle-{k}.csv"

    def prepare(self, k: int) -> None:
        path = self.input_path(k)
        if not path.exists():
            write_csv(path, rotated_circle(self.base, circle_phase(self.seed, k)))

    def run(self, k: int) -> int:
        return cli_mod.main(build_argv(self.spec, self.input_path(k), self.out_dir))

    def check(self, k: int, rc: int) -> None:
        self.input_path(k).unlink()
        if rc != 0:
            raise CheckError(f"build {k}: exit code {rc}")
        graph = graph_from_json((self.out_dir / "mapper.json").read_text())
        covered = set().union(*(nd.members for nd in graph.nodes))
        if covered != set(range(self.spec.n)):
            raise CheckError(f"build {k}: nodes cover {len(covered)} of {self.spec.n} points")
        if betti1(graph) != 1:
            raise CheckError(f"build {k}: graph has cycle rank {betti1(graph)}, expected 1")
        rows = read_diagram_csv((self.out_dir / "diagram.csv").read_text())
        classes = sorted(r[0] for r in rows if r[0] in ("Ext0", "Ext1"))
        if classes != ["Ext0", "Ext1"]:
            raise CheckError(f"build {k}: diagram classes {classes}, expected one Ext0, one Ext1")
        ext0 = next(r for r in rows if r[0] == "Ext0")
        if not (ext0[1] < -0.9 and ext0[2] > 0.9):
            raise CheckError(f"build {k}: Ext0 point {ext0[1:3]} does not span the circle")
        if not (self.out_dir / "mapper.dot").read_text().startswith("graph mapper {"):
            raise CheckError(f"build {k}: mapper.dot is not a DOT graph")

    def finish(self) -> list[str]:
        return []


def make(spec: Spec, seed: int, workdir: Path):
    cls = OptimizeWorkload if spec.mc_samples else BuildWorkload
    return cls(spec, seed, workdir)
