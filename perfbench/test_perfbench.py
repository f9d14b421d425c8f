"""Tests of the benchmark itself, on the smoke sizes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import env  # noqa: E402

env.bootstrap()

import golden  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import softmapper as sm  # noqa: E402

BENCHMARK = json.loads((env.ROOT / "BENCHMARK.json").read_text())


def _run(*argv, cwd=env.ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_all_smoke_reports_declared_metrics_and_repeats(tmp_path):
    out = tmp_path / "results.json"
    proc = _run("--all", "--smoke", "--seed", "5", "--seconds", "0.3", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    results = json.loads(out.read_text())
    assert set(results["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for name, res in results["workloads"].items():
        assert res["determinism_problems"] == [], name
        assert {k: m["unit"] for k, m in res["untraced"]["metrics"].items()} == e2e
        for traced in res["traced"]:
            assert {k: m["unit"] for k, m in traced["metrics"].items()} == layer
            shares = sum(m["value"] for k, m in traced["metrics"].items()
                         if k.endswith("_share") and k != "mapper.map_comp_share")
            assert shares == pytest.approx(1.0)
        assert res["untraced"]["report"]["failed_ops_ratio"] == 0
    # the last line of each workload run is the JSON result
    results_lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    assert len(results_lines) == 9
    assert all(set(json.loads(ln)) == {"correct", "attempted", "failed", "metrics"}
               for ln in results_lines)


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "yshape-600",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", ["yshape-600", "circle-build"])
def test_golden_cases_pass(workload, tmp_path):
    assert golden.check(workload, tmp_path) == [[] for _ in golden.CASES[workload]]


def test_golden_compare_flags_changes():
    want = json.loads(golden.GOLDEN_PATH.read_text())["yshape-600"][1]
    assert golden.compare(dict(want), want) == []
    assert golden.compare({**want, "loss": want["loss"] + 1e-6}, want)
    assert golden.compare({**want, "graph_sha256": "0"}, want)
    moved = [list(p) for p in want["diagram"]]
    moved[-1][2] += 1e-6
    assert golden.compare({**want, "diagram": moved}, want)
    assert golden.compare({**want, "cli_diagram": moved}, want)


def test_spans_add_up_and_patches_are_restored():
    cloud = workloads.yshape_cloud(150, seed=0)
    theta = sm.diagonal_init(3)
    e = workloads.smooth_assignment(cloud, theta, 10, sample_seed=1)
    pers = sys.modules["softmapper.persistence"]
    originals = (pers.map_comp, sm.LinearFilter.evaluate)
    tracer = spans.Tracer()
    with tracer.patched():
        root = tracer.wrap("bench.op", pers.loss_and_subgradient)
        root(cloud, e, sm.LinearFilter(), theta, sm.SingleLinkageClusterer(0.2))
    assert (pers.map_comp, sm.LinearFilter.evaluate) == originals
    summary = spans.summarize(tracer.spans)
    assert summary["root"]["self_sum_s"] == pytest.approx(summary["root"]["duration_s"],
                                                          abs=1e-9)
    assert summary["clustering.cluster"]["calls"] == np.count_nonzero(e.any(axis=0))
    assert summary["mapper.map_comp"]["calls"] == 1
    assert summary["filters.evaluate"]["calls"] == 1
    assert summary["persistence.diagram"]["simplices"] == 1 + 2 * (
        summary["mapper.map_comp"]["nodes"] + summary["mapper.map_comp"]["edges"])


def test_tail_percentile_keeps_ten_samples_above():
    assert run.tail([1.0] * 10) == (None, None)
    pct, value = run.tail([float(i) for i in range(100)])
    assert pct == 90 and 89 <= value <= 90
    assert run.tail([float(i) for i in range(11)])[0] == 9


def test_scaled_times_use_the_reference_blocks_on_either_side():
    nominal = 0.01
    blocks = [(0, nominal), (2, 2 * nominal), (3, 4 * nominal)]
    # ops 0 and 1 lie between the first two blocks, op 2 between the last two
    scaled = run.scaled_times([1.5, 3.0, 3.0], [0, 1, 2], blocks, nominal)
    assert scaled == pytest.approx([1.0, 2.0, 1.0])


@pytest.mark.parametrize("kind", ["mixed", "large"])
def test_reference_kernel_repeats(kind):
    import reference

    ref = reference.Reference(kind)
    assert ref.run_once() == ref.expected
    assert ref.block() > 0
