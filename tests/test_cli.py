import json

import numpy as np
import pytest

from softmapper.cli import main
from softmapper.export import graph_from_json


def _components(graph):
    ids = [nd.id for nd in graph.nodes]
    parent = {i: i for i in ids}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in graph.edges:
        parent[find(u)] = find(v)
    groups = {}
    for i in ids:
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _betti1(path):
    graph = graph_from_json(path.read_text())
    return len(graph.edges) - graph.n_nodes + len(_components(graph))


def test_build_circle_recovers_loop(tmp_path):
    rc = main([
        "build", "--shape", "circle", "--n", "200", "--seed", "1",
        "--filter", "linear", "--theta", "1,0",
        "--resolution", "8", "--gain", "0.35",
        "--clusterer", "linkage", "--threshold", "0.8",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    for name in ("mapper.json", "mapper.dot", "diagram.csv", "summary.json"):
        assert (tmp_path / name).exists()
    assert _betti1(tmp_path / "mapper.json") == 1
    diagram = (tmp_path / "diagram.csv").read_text()
    assert "Ext1" in diagram
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["seed"] == 1
    assert len(summary["config_hash"]) == 16


def test_build_is_reproducible(tmp_path):
    argv = [
        "build", "--shape", "circle", "--n", "120", "--noise", "0.02", "--seed", "4",
        "--clusterer", "linkage", "--threshold", "0.8", "--sample",
    ]
    main(argv + ["--out-dir", str(tmp_path / "a")])
    main(argv + ["--out-dir", str(tmp_path / "b")])
    # the output directory is no result, so the config hash ignores it too
    for name in ("mapper.json", "mapper.dot", "diagram.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_build_from_csv_and_coord_filter(tmp_path):
    src = tmp_path / "pts.csv"
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((60, 3))
    src.write_text("\n".join(",".join(map(str, row)) for row in pts) + "\n")
    rc = main([
        "build", "--input", str(src), "--filter", "coord", "--coord", "2",
        "--clusterer", "linkage", "--threshold", "2.0",
        "--mode", "regular", "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 0
    assert (tmp_path / "out" / "diagram.csv").read_text().count("Ext") == 0


def test_optimize_zero_step_keeps_theta(tmp_path):
    rc = main([
        "optimize", "--shape", "circle", "--n", "60",
        "--theta", "0.6,0.8", "--epochs", "1", "--mc-samples", "1",
        "--step-size", "0", "--clusterer", "linkage", "--threshold", "0.8",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    theta = json.loads((tmp_path / "theta_final.json").read_text())["theta"]
    assert theta == [0.6, 0.8]
    for name in ("trace.csv", "curve.svg", "summary.json"):
        assert (tmp_path / name).exists()
    assert (tmp_path / "initial" / "mapper.json").exists()
    assert (tmp_path / "final" / "mapper.json").exists()


def test_optimize_reference_correlation(tmp_path):
    rc = main([
        "optimize", "--shape", "circle", "--n", "60",
        "--theta", "0,1", "--epochs", "1", "--mc-samples", "1",
        "--step-size", "0", "--clusterer", "linkage", "--threshold", "0.8",
        "--reference-direction", "0,-2", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["reference_correlation"] == pytest.approx(1.0)


@pytest.mark.parametrize("config_flag", [["--config", "{}"], ["--config={}"]],
                         ids=["separate", "equals"])
def test_config_file_defaults_and_override(tmp_path, config_flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threshold": 0.8, "n": 80, "shape": "circle"}))
    rc = main([
        "build", *(t.format(cfg) for t in config_flag), "--n", "100",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 0
    graph = graph_from_json((tmp_path / "out" / "mapper.json").read_text())
    members = {i for nd in graph.nodes for i in nd.members}
    assert max(members) == 99  # the flag overrides the config value 80


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    rc = main(["build", "--config", str(cfg), "--shape", "circle"])
    assert rc == 1
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize("config", [{"epochs": 2.5}, {"maximize": 1}, {"scheme": "rough"},
                                    {"theta": [1, 0]}])
def test_config_values_are_checked_like_flags(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main(["optimize", "--config", str(cfg), "--shape", "circle", "--threshold", "0.8",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "error: " in capsys.readouterr().err


_OPTIMIZE = ["optimize", "--maximize", "--epochs", "3"]


@pytest.mark.parametrize("flags", [
    _OPTIMIZE + ["--step-size", "1e308"],  # the second epoch's filter values overflow
    _OPTIMIZE + ["--theta", "0,0,0"],  # a constant filter: its range cannot be covered
    ["build", "--theta", "0,0,0"],
    ["build", "--theta", "1e308,1e308,1e308"],  # the filter values overflow
])
def test_numeric_failures_exit_two(tmp_path, capsys, flags):
    rc = main(flags + ["--shape", "y_shape", "--n", "200", "--threshold", "0.2",
                       "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ")
    assert ("epoch " in err) == (flags[0] == "optimize")


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["build"]) == 1  # no dataset
    assert main(["build", "--shape", "hexagon"]) == 1
    assert main(["build", "--shape", "circle", "--input", "x.csv"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["build", "--shape", "circle", "--clusterer", "linkage",
                 "--out-dir", str(tmp_path)]) == 1  # linkage without threshold
    # NaN passes a "<= 0" or "< 0" check
    assert main(["build", "--shape", "circle", "--n", "200", "--filter", "coord",
                 "--threshold", "0.5", "--sample", "--delta-rel", "nan",
                 "--out-dir", str(tmp_path)]) == 1
    for delta_rel in ["nan", "0", "-1"]:  # the standard scheme checks it too
        assert main(["build", "--shape", "circle", "--n", "200", "--filter", "coord",
                     "--threshold", "0.5", "--delta-rel", delta_rel,
                     "--out-dir", str(tmp_path)]) == 1
    assert main(["synth", "--shape", "circle", "--noise", "nan",
                 "--out", str(tmp_path / "cloud.csv")]) == 1
    optimize = ["optimize", "--shape", "circle", "--n", "60", "--theta", "0.6,0.8",
                "--epochs", "1", "--mc-samples", "1", "--threshold", "0.8"]
    assert main(optimize + ["--noise-std", "nan", "--out-dir", str(tmp_path)]) == 1
    for ref in ["1,2,3", "0,0", "nan,1"]:  # checked before the first epoch
        out = tmp_path / f"ref {ref}"
        assert main(optimize + ["--reference-direction", ref, "--out-dir", str(out)]) == 1
        assert not (out / "trace.csv").exists()
    capsys.readouterr()


def test_missing_input_file(tmp_path, capsys):
    rc = main(["build", "--input", str(tmp_path / "nope.csv"),
               "--clusterer", "linkage", "--threshold", "1.0"])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_optimize_rejects_fixed_filter(capsys):
    rc = main(["optimize", "--shape", "circle", "--filter", "coord",
               "--clusterer", "linkage", "--threshold", "0.8"])
    assert rc == 1
    assert "no parameters" in capsys.readouterr().err


def test_synth_and_export_round_trip(tmp_path):
    out_csv = tmp_path / "cloud.csv"
    assert main(["synth", "--shape", "y_shape", "--n", "50", "--out", str(out_csv)]) == 0
    rows = out_csv.read_text().strip().split("\n")
    assert len(rows) == 50
    assert all(len(r.split(",")) == 3 for r in rows)

    build_dir = tmp_path / "build"
    main(["build", "--input", str(out_csv), "--clusterer", "linkage",
          "--threshold", "0.5", "--out-dir", str(build_dir)])
    dot = tmp_path / "re.dot"
    assert main(["export", "--graph", str(build_dir / "mapper.json"),
                 "--out", str(dot)]) == 0
    assert dot.read_text().startswith("graph mapper {")


def test_export_missing_graph(tmp_path, capsys):
    assert main(["export", "--graph", str(tmp_path / "g.json"),
                 "--out", str(tmp_path / "g.dot")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("doc", ["{}", "[1]", '{"nodes": [1], "edges": []}'])
def test_export_rejects_a_document_that_is_not_a_graph(tmp_path, capsys, doc):
    graph = tmp_path / "g.json"
    graph.write_text(doc)
    assert main(["export", "--graph", str(graph), "--out", str(tmp_path / "g.dot")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "g.dot").exists()


def test_kmeans_clusterer_path(tmp_path):
    rc = main([
        "build", "--shape", "cylinder", "--n", "150", "--seed", "2",
        "--clusterer", "kmeans", "--k", "2", "--filter", "coord",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    graph = graph_from_json((tmp_path / "mapper.json").read_text())
    assert graph.n_nodes > 0


def test_threshold_factor_path(tmp_path):
    rc = main([
        "build", "--shape", "circle", "--n", "100", "--seed", "0",
        "--clusterer", "linkage", "--threshold-factor", "3.0",
        "--subsample-fraction", "0.3", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
