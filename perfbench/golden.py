"""Golden outputs of the pure functions on fixed inputs, one set per workload.

The inputs do not depend on the benchmark seed. Graphs from ``map_comp``
must match exactly (by digest); diagrams from ``extended_persistence`` and
the values of ``loss_and_subgradient`` must match within ``TOL``. The
circle-build cases also run ``softmapper build`` and read its ``mapper.json``
and ``diagram.csv`` back against the same golden values. The theta
trajectory is deliberately not pinned.

Regenerate golden.json (only when an output is meant to change):

    python3 perfbench/golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
TOL = 1e-9

# Fixed inputs; the theta values are arbitrary non-degenerate directions.
CASES = {
    "yshape-600": [{"n": 600, "cloud_seed": 101, "theta": [0.57735, 0.57735, 0.57735],
                    "sample_seed": 7},
                   {"n": 600, "cloud_seed": 102, "theta": [0.3, -0.2, 0.9], "sample_seed": 8}],
    "yshape-10k": [{"n": 10_000, "cloud_seed": 103, "theta": [0.1, -0.1, 0.99],
                    "sample_seed": 9}],
    "circle-build": [{"n": 4000, "resolution": 400, "threshold": 0.05, "phase_seed": 104}],
}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def graph_digest(graph) -> str:
    nodes = [[nd.id, nd.cover_index, list(nd.members)] for nd in graph.nodes]
    return _sha([nodes, sorted([u, v, w] for (u, v), w in graph.edges.items())])


def diagram_rows(diagram) -> list[list]:
    return [[p.cls, p.birth, p.death, p.birth_node, p.death_node] for p in diagram]


def _compute_case(workload: str, case: dict, workdir: Path) -> dict:
    # imported here: numpy must load after env.bootstrap() has pinned the threads
    import numpy as np
    import softmapper as sm
    import workloads as wl

    if workload == "circle-build":
        base = wl.synth_mod.generate_synthetic("circle", n=case["n"]).points
        cloud = sm.PointCloud(wl.rotated_circle(base, wl.circle_phase(case["phase_seed"], 0)))
        family, theta = sm.FixedFilter(cloud.points[:, -1]), np.zeros(0)
        fv = family.evaluate(cloud, theta)
        cover = sm.uniform_cover(fv.values, case["resolution"], wl.GAIN)
        e = sm.standard_scheme(fv, cover).probs.astype(np.uint8)
        clusterer = sm.SingleLinkageClusterer(case["threshold"])
    else:
        cloud = wl.yshape_cloud(case["n"], case["cloud_seed"])
        family, theta = sm.LinearFilter(), np.array(case["theta"])
        fv = family.evaluate(cloud, theta)
        e = wl.smooth_assignment(cloud, theta, wl.WORKLOADS[workload].resolution,
                                 case["sample_seed"])
        clusterer = sm.SingleLinkageClusterer(wl.WORKLOADS[workload].threshold)
    graph = sm.map_comp(cloud, e, clusterer)
    diagram = sm.extended_persistence(sm.map_pers_filtration(graph, fv))
    loss, grad = sm.loss_and_subgradient(cloud, e, family, theta, clusterer, "extended")
    out = {
        "cloud_sha256": hashlib.sha256(cloud.points.tobytes()).hexdigest(),
        "graph_sha256": graph_digest(graph),
        "nodes": graph.n_nodes,
        "edges": graph.n_edges,
        "diagram": diagram_rows(diagram),
        "loss": loss,
        "grad": [float(g) for g in grad],
    }
    if workload == "circle-build":
        csv_path, out_dir = workdir / "golden-circle.csv", workdir / "golden-out"
        wl.write_csv(csv_path, cloud.points)
        spec = wl.Spec(n=case["n"], resolution=case["resolution"],
                       threshold=case["threshold"], min_ops=1)
        rc = wl.cli_mod.main(wl.build_argv(spec, csv_path, out_dir))
        if rc != 0:
            raise RuntimeError(f"softmapper build exited {rc}")
        out["cli_graph_sha256"] = graph_digest(
            wl.graph_from_json((out_dir / "mapper.json").read_text()))
        out["cli_diagram"] = wl.read_diagram_csv((out_dir / "diagram.csv").read_text())
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _diagram_mismatch(got: list, want: list) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} diagram points, golden has {len(want)}"
    for g, w in zip(got, want):
        if (g[0], g[3], g[4]) != (w[0], w[3], w[4]) or not (_close(g[1], w[1])
                                                             and _close(g[2], w[2])):
            return f"diagram point {g} differs from golden {w}"
    return None


def compare(got: dict, want: dict) -> list[str]:
    """Mismatches between a computed case and its golden record."""
    errors = []
    for key in ("cloud_sha256", "graph_sha256", "nodes", "edges"):
        if got[key] != want[key]:
            errors.append(f"{key}: {got[key]} != golden {want[key]}")
    if "cli_graph_sha256" in got and got["cli_graph_sha256"] != want["graph_sha256"]:
        errors.append("mapper.json graph differs from the golden map_comp graph")
    for key in ("diagram", "cli_diagram"):
        if key in got:
            msg = _diagram_mismatch(got[key], want["diagram"])
            if msg:
                errors.append(f"{key}: {msg}")
    if not _close(got["loss"], want["loss"]):
        errors.append(f"loss {got['loss']!r} != golden {want['loss']!r}")
    if len(got["grad"]) != len(want["grad"]) or not all(
            _close(g, w) for g, w in zip(got["grad"], want["grad"])):
        errors.append(f"subgradient {got['grad']} != golden {want['grad']}")
    return errors


def check(workload: str, workdir: Path) -> list[list[str]]:
    """One list of mismatches per golden case of the workload (empty = pass)."""
    golden = json.loads(GOLDEN_PATH.read_text())[workload]
    results = []
    for case, want in zip(CASES[workload], golden, strict=True):
        try:
            results.append(compare(_compute_case(workload, case, workdir), want))
        except Exception as exc:  # a raising pure function is a failed case, not a crash
            results.append([f"{type(exc).__name__}: {exc}"])
    return results


def write(workdir: Path) -> None:
    doc = {w: [_compute_case(w, c, workdir) for c in cases] for w, cases in CASES.items()}
    for records in doc.values():
        for rec in records:
            cli = {k: rec.pop(k) for k in ("cli_graph_sha256", "cli_diagram") if k in rec}
            errors = compare({**rec, **cli}, rec)
            if errors:
                raise RuntimeError(f"inconsistent golden case: {errors}")
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    import shutil
    import tempfile

    import env

    root = env.bootstrap()
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 perfbench/golden.py --write")
    (root / ".perfbench").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=root / ".perfbench"))
    try:
        write(tmp)
    finally:
        shutil.rmtree(tmp)
    print(f"wrote {GOLDEN_PATH}")
