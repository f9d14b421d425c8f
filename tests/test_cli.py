import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from conftest import n_components
from softmapper import cli
from softmapper.cli import build_parser, main
from softmapper.cover import AssignmentScheme
from softmapper.export import graph_from_json
from softmapper.optimize import OptimConfig
from softmapper.synthetic import generate_synthetic


def _betti1(path):
    graph = graph_from_json(path.read_text())
    return len(graph.edges) - graph.n_nodes + n_components(graph)


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


def test_a_standard_build_never_fills_the_dense_scheme(tmp_path, monkeypatch):
    """The benchmark's circle build (n = 4000, r = 400) reads its scheme as
    entries only; a sampled build reads the dense view once, to compare it
    with its uniforms."""
    built = []
    dense = AssignmentScheme.probs.func
    spy = functools.cached_property(lambda s: built.append(s.shape) or dense(s))
    spy.__set_name__(AssignmentScheme, "probs")
    monkeypatch.setattr(AssignmentScheme, "probs", spy)
    argv = ["build", "--shape", "circle", "--n", "4000", "--filter", "coord",
            "--resolution", "400", "--gain", "0.3", "--clusterer", "linkage",
            "--threshold", "0.05", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert built == []
    assert main(argv + ["--sample"]) == 0
    assert built == [(4000, 400)]


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
    rng = np.random.default_rng(0)
    rows = "\n".join(" ".join(map(str, row)) for row in rng.standard_normal((60, 3)))
    (tmp_path / "pts.csv").write_text(rows.replace(" ", ",") + "\n")
    (tmp_path / "pts.off").write_text(f"OFF\n60 0 0\n{rows}\n")
    for fmt in ("csv", "off"):
        rc = main([
            "build", "--input", str(tmp_path / f"pts.{fmt}"), "--format", fmt,
            "--filter", "coord", "--coord", "2", "--clusterer", "linkage", "--threshold", "2.0",
            "--mode", "regular", "--out-dir", str(tmp_path / fmt),
        ])
        assert rc == 0
    assert (tmp_path / "csv" / "diagram.csv").read_text().count("Ext") == 0
    # the same points read from an OFF mesh give the same graph and diagram
    for file in ("mapper.json", "mapper.dot", "diagram.csv"):
        assert (tmp_path / "off" / file).read_bytes() == (tmp_path / "csv" / file).read_bytes()


def test_build_reads_a_csv_with_a_byte_order_mark(tmp_path):
    text = "".join(f"{math.cos(a)!r},{math.sin(a)!r}\n" for a in np.linspace(0, 6, 80).tolist())
    (tmp_path / "plain.csv").write_text(text)
    (tmp_path / "bom.csv").write_text(text, encoding="utf-8-sig")
    for name in ("plain", "bom"):
        assert main(["build", "--input", str(tmp_path / f"{name}.csv"), "--threshold", "0.5",
                     "--out-dir", str(tmp_path / name)]) == 0
    for file in ("mapper.json", "mapper.dot", "diagram.csv"):
        assert (tmp_path / "bom" / file).read_bytes() == (tmp_path / "plain" / file).read_bytes()


def test_optimize_is_reproducible(tmp_path):
    argv = ["optimize", "--shape", "y_shape", "--n", "200", "--noise", "0.02", "--seed", "3",
            "--threshold", "0.2", "--maximize", "--epochs", "3", "--mc-samples", "3",
            "--delta-rel", "0.1"]
    assert main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
    # a switch set in a config file acts as the flag, and the hash ignores the config path
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"maximize": True}))
    argv.remove("--maximize")
    assert main(argv + ["--config", str(cfg), "--out-dir", str(tmp_path / "b")]) == 0
    files = {out: sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
             for out in (tmp_path / "a", tmp_path / "b")}
    names = files[tmp_path / "a"]
    assert names == files[tmp_path / "b"] and len(names) == 10  # 4 files, initial/ and final/
    for name in names:
        a, b = (tmp_path / "a" / name).read_bytes(), (tmp_path / "b" / name).read_bytes()
        if name.name == "trace.csv":  # all but the wall-clock seconds, its last column
            a, b = ([line.rsplit(b",", 1)[0] for line in t.splitlines()] for t in (a, b))
        assert a == b, name


def test_optimize_at_a_huge_theta_writes_finite_outputs(tmp_path, capsys):
    # losses near -2e200: their squares overflow, and risk + 1 == risk
    rc = main(["optimize", "--maximize", "--epochs", "1", "--theta", "1e200,1e200,1e200",
               "--shape", "y_shape", "--n", "200", "--threshold", "0.2",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert "nan" not in (tmp_path / "curve.svg").read_text()
    row = (tmp_path / "trace.csv").read_text().splitlines()[1].split(",")
    risk, risk_se = float(row[1]), float(row[2])
    assert risk < -1e200 and 0 < risk_se < -risk


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


@pytest.mark.parametrize("ref", ["1e200,1e200", "1e-200,1e-200", "1e308,-1e308"])
def test_reference_directions_of_any_scale(tmp_path, ref):
    """A reference direction is checked and used at its exact power-of-two
    scale, so huge and tiny ones give the correlation of their direction."""
    rc = main([
        "optimize", "--shape", "circle", "--n", "60",
        "--theta", "0,1", "--epochs", "1", "--mc-samples", "1",
        "--step-size", "0", "--clusterer", "linkage", "--threshold", "0.8",
        "--reference-direction", ref, "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["reference_correlation"] == pytest.approx(math.sqrt(0.5), rel=1e-15)


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


def test_config_defaults_last_one_call(tmp_path, monkeypatch, capsys):
    """The process keeps one parser; a --config call parses with a fresh one,
    so its defaults do not reach the calls after it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"resolution": 7, "threshold": 0.8}))
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "build", lambda args: seen.append(args) or 0)
    assert main(["build", "--config", str(cfg)]) == 0
    assert main(["build"]) == 0
    assert (seen[0].resolution, seen[0].threshold) == (7, 0.8)
    assert (seen[1].resolution, seen[1].threshold) == (10, None)
    assert cli._parser() is cli._parser()
    for _ in range(2):  # a parse that exits leaves the shared parser usable
        assert main(["build", "--resolution", "x"]) == 1
        assert main(["--version"]) == 0
        assert main(["build", "--help"]) == 0
    capsys.readouterr()


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    rc = main(["build", "--config", str(cfg), "--shape", "circle"])
    assert rc == 1
    assert "bogus_key" in capsys.readouterr().err


def test_optimize_takes_no_noise(tmp_path, capsys):
    """The step is the plain subgradient step: neither a --noise-std flag nor
    a noise_std config key exists."""
    out = tmp_path / "out"
    argv = ["optimize", "--shape", "circle", "--n", "60", "--theta", "0.6,0.8", "--epochs", "1",
            "--mc-samples", "1", "--threshold", "0.8", "--out-dir", str(out)]
    assert main(argv + ["--noise-std", "0.01"]) == 1
    assert "--noise-std" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise_std": 0.01}))
    assert main(argv + ["--config", str(cfg)]) == 1
    assert "noise_std" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [{"epochs": 2.5}, {"maximize": 1}, {"scheme": "rough"},
                                    {"theta": [1, 0]}, ["epochs", 2]])
def test_config_values_are_checked_like_flags(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main(["optimize", "--config", str(cfg), "--shape", "circle", "--threshold", "0.8",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: " in err
    assert ("must hold a JSON object" in err) == isinstance(config, list)


_OPTIMIZE = ["optimize", "--maximize", "--epochs", "3"]


@pytest.mark.parametrize("flags", [
    _OPTIMIZE + ["--step-size", "1e308"],  # the second epoch's filter values overflow
    _OPTIMIZE + ["--theta", "0,0,0"],  # a constant filter: its range cannot be covered
    ["build", "--theta", "0,0,0"],
    ["build", "--theta", "1e308,1e308,1e308"],  # the filter values overflow
    ["build", "--theta", "1.5e308,0,0"],  # the filter's range overflows
    _OPTIMIZE + ["--theta", "1.5e308,0,0"],
    ["build", "--sample", "--delta-rel", "1.7e308"],  # the smoothing width overflows
    _OPTIMIZE + ["--delta-rel", "1.7e308"],
    ["build", "--theta", "0,0,1e308"],  # the node means overflow, the filter's range does not
    _OPTIMIZE + ["--theta", "0,0,1e-310", "--delta-rel", "1e-20"],  # the width underflows
    ["build", "--sample", "--theta", "0,0,1e-310", "--delta-rel", "1e-20"],
    _OPTIMIZE + ["--theta", "0,0,1e-323", "--delta-rel", "0.5"],  # too narrow for 10
    ["build", "--theta", "0,0,1e-323", "--delta-rel", "0.5"],
])
def test_numeric_failures_exit_two(tmp_path, capsys, flags):
    rc = main(flags + ["--shape", "y_shape", "--n", "200", "--threshold", "0.2",
                       "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert ("epoch " in err) == (flags[0] == "optimize")
    for name in ("mapper.json", "diagram.csv", "trace.csv"):
        assert not (tmp_path / name).exists()


def test_overflowing_noise_exits_two(tmp_path, capsys):
    out = tmp_path / "cloud.csv"
    assert main(["synth", "--shape", "circle", "--n", "50", "--noise", "1e308",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "numeric failure: noise 1e+308 overflows the jitter\n"
    assert not out.exists()


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)"),
     "out of memory: Unable to allocate 745. GiB for an array with shape (100000000000,)\n"),
    (MemoryError(), "out of memory\n"),
])
def test_running_out_of_memory_exits_two(tmp_path, capsys, monkeypatch, exc, message):
    """As ``synth --n 100000000000`` would, without allocating anything."""
    def synth(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "synth", synth)
    assert main(["synth", "--shape", "circle", "--n", "100000000000",
                 "--out", str(tmp_path / "cloud.csv")]) == 2
    assert capsys.readouterr().err == message


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["build"]) == 1  # no dataset
    assert main(["build", "--shape", "hexagon"]) == 1
    assert main(["build", "--shape", "circle", "--input", "x.csv"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["build", "--shape", "circle", "--clusterer", "linkage",
                 "--out-dir", str(tmp_path)]) == 1  # linkage without threshold
    assert main(["build", "--shape", "circle", "--n", "100", "--filter", "coord", "--coord", "-7",
                 "--threshold", "0.5", "--out-dir", str(tmp_path)]) == 1  # only -1 means the last
    # NaN passes a "<= 0" or "< 0" check, inf a "> 0" or ">= 0" one
    for delta_rel in ["nan", "inf"]:
        assert main(["build", "--shape", "circle", "--n", "200", "--filter", "coord",
                     "--threshold", "0.5", "--sample", "--delta-rel", delta_rel,
                     "--out-dir", str(tmp_path)]) == 1
    for delta_rel in ["nan", "inf", "0", "-1"]:  # the standard scheme checks it too
        assert main(["build", "--shape", "circle", "--n", "200", "--filter", "coord",
                     "--threshold", "0.5", "--delta-rel", delta_rel,
                     "--out-dir", str(tmp_path)]) == 1
    for noise in ["nan", "inf"]:  # inf passes a ">= 0" check
        assert main(["synth", "--shape", "circle", "--n", "50", "--noise", noise,
                     "--out", str(tmp_path / "cloud.csv")]) == 1
    assert main(["synth", "--shape", "plane_with_leg", "--n", "12",
                 "--out", str(tmp_path / "cloud.csv")]) == 1
    optimize = ["optimize", "--shape", "circle", "--n", "60", "--theta", "0.6,0.8",
                "--epochs", "1", "--mc-samples", "1", "--threshold", "0.8"]
    for flag, value in [("--step-size", "inf"), ("--delta-rel", "inf")]:
        out = tmp_path / f"optimize {flag} {value}"
        assert main(optimize + [flag, value, "--out-dir", str(out)]) == 1
        assert not out.exists()
    for ref in ["1,2,3", "0,0", "nan,1", "inf,1", "0,-0"]:  # checked before the first epoch
        out = tmp_path / f"ref {ref}"
        assert main(optimize + ["--reference-direction", ref, "--out-dir", str(out)]) == 1
        assert not (out / "trace.csv").exists()
    for flag in ["--threshold", "--threshold-factor"]:  # inf passes a "<= 0" check
        out = tmp_path / f"build {flag}"
        assert main(["build", "--shape", "y_shape", "--n", "200", "--threshold", "0.5",
                     flag, "inf", "--out-dir", str(out)]) == 1
        assert not out.exists()
        out = tmp_path / f"optimize {flag}"
        assert main(optimize + [flag, "inf", "--out-dir", str(out)]) == 1
        assert not (out / "trace.csv").exists()
    for argv in [["synth", "--shape", "circle", "--seed", "-1",
                  "--out", str(tmp_path / "cloud.csv")],
                 ["build", "--shape", "circle", "--n", "100", "--seed", "-1",
                  "--threshold", "0.5", "--out-dir", str(tmp_path / "seed")],
                 ["build", "--shape", "circle", "--n", "100", "--seed", "abc",
                  "--threshold", "0.5", "--out-dir", str(tmp_path / "seed")],
                 optimize + ["--seed", "-1", "--out-dir", str(tmp_path / "seed")]]:
        capsys.readouterr()
        assert main(argv) == 1
        assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "cloud.csv").exists() and not (tmp_path / "seed").exists()
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"seed": -1}))
    capsys.readouterr()
    assert main(["build", "--config", str(config), "--shape", "circle", "--n", "100",
                 "--threshold", "0.5", "--out-dir", str(tmp_path / "seed")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "seed" in err
    capsys.readouterr()
    # operating-system errors end in one error line, not a traceback
    a_file = tmp_path / "a file"
    a_file.write_text("")
    build = ["build", "--shape", "circle", "--n", "200", "--filter", "coord",
             "--threshold", "0.5"]
    for argv in [build + ["--out-dir", str(a_file)],
                 ["synth", "--shape", "circle", "--out", str(tmp_path / "missing" / "x.csv")],
                 ["export", "--graph", str(tmp_path), "--out", str(tmp_path / "g.dot")],
                 ["build", "--input", str(tmp_path), "--threshold", "0.5",
                  "--out-dir", str(tmp_path / "out")]]:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_deeply_nested_json_exits_one(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    for argv in [["export", "--graph", str(deep), "--out", str(tmp_path / "g.dot")],
                 ["build", "--config", str(deep), "--shape", "circle"]]:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_missing_input_file(tmp_path, capsys):
    rc = main(["build", "--input", str(tmp_path / "nope.csv"),
               "--clusterer", "linkage", "--threshold", "1.0"])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_every_optim_config_field_is_an_optimize_flag(monkeypatch):
    _, commands = build_parser()
    dests = {action.dest for action in commands["optimize"]._actions}
    assert {f.name for f in dataclasses.fields(OptimConfig)} <= dests

    # the flags' defaults are the library's: optimize given only its inputs
    # runs OptimConfig(), and build shares the cover, mode and seed defaults
    class Stop(Exception):
        pass

    configs = []

    def record(cloud, fam, theta0, clusterer, config):
        configs.append(config)
        raise Stop

    monkeypatch.setattr(cli, "optimize", record)
    with pytest.raises(Stop):
        main(["optimize", "--shape", "circle", "--threshold", "0.5"])
    assert configs == [OptimConfig()]
    build = commands["build"].parse_args([])
    for name in ("resolution", "gain", "delta_rel", "mode", "seed"):
        assert getattr(build, name) == getattr(OptimConfig(), name), name


def test_optimize_rejects_fixed_filter(capsys):
    rc = main(["optimize", "--shape", "circle", "--filter", "coord",
               "--clusterer", "linkage", "--threshold", "0.8"])
    assert rc == 1
    assert "no parameters" in capsys.readouterr().err


def test_synth_and_export_round_trip(tmp_path):
    out_csv = tmp_path / "cloud.csv"
    assert main(["synth", "--shape", "y_shape", "--n", "50", "--out", str(out_csv)]) == 0
    rows = out_csv.read_text().strip().split("\n")
    points = generate_synthetic("y_shape", 50, 0.0, 0).points
    assert rows == [",".join(repr(float(x)) for x in row) for row in points]

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


def _graph_doc(nodes, edges=(), cover_index=1):
    """A graph document of (id, members) nodes and (source, target, weight) edges."""
    return json.dumps({
        "nodes": [{"id": i, "cover_index": cover_index, "members": m} for i, m in nodes],
        "edges": [{"source": u, "target": v, "weight": w} for u, v, w in edges]})


@pytest.mark.parametrize("doc", [
    "{}", "[1]", '{"nodes": [1], "edges": []}',
    _graph_doc([(0, [0, 1]), (5, [2, 3, 4])]),  # ids are not 0..K-1
    _graph_doc([(0, [0, 1]), (0, [1, 2])]),  # a repeated id
    _graph_doc([(0, "ab")]),
    _graph_doc([(0, [0, -1])]),
    _graph_doc([(0, [0, 1.5])]),
    _graph_doc([(0, [0, 1])], cover_index=1.5),
    _graph_doc([(0, [0, 1]), (1, [1, 2])], [(0, 0, 1)]),  # a loop
    _graph_doc([(0, [0, 1]), (1, [1, 2])], [(0, 2, 1)]),  # an unknown endpoint
    _graph_doc([(0, [0, 1]), (1, [1, 2])], [(0, 1, 0)]),  # a weight below 1
    _graph_doc([(0, [0, 1]), (1, [1, 2])], [(0, 1, 1.5)]),
    _graph_doc([(0, [0, 2 ** 63])]),  # past the largest index
    _graph_doc([(0, [0, 1])], cover_index=2 ** 63),
    _graph_doc([(0, [])]),  # a node with no members
    _graph_doc([(False, [3, 1, 1])]),  # a bool id and members out of order
    _graph_doc([(0, [1, 0])]),
    _graph_doc([(0, [0, 1]), (1, [5])], [(0, 1, 7)]),  # an edge between disjoint nodes
    _graph_doc([(0, [0, 1]), (1, [1, 2])]),  # no edge between nodes sharing a point
    _graph_doc([(0, [0, 1]), (1, [1, 2])], [(0, 1, 0), (1, 0, 1)]),  # a repeated edge
    _graph_doc([(0, [0, 1]), (1, [1, 2])], [(0, 1, True)]),  # a bool weight
    # nodes and edges that are empty but not lists
    '{"nodes": [], "edges": ""}', '{"nodes": [], "edges": {}}', '{"nodes": "", "edges": []}',
    _graph_doc([(0, [0, 1])]).replace('"edges": []', '"edges": {}'),
])
def test_export_rejects_a_document_that_is_not_a_graph(tmp_path, capsys, doc):
    graph = tmp_path / "g.json"
    graph.write_text(doc)
    assert main(["export", "--graph", str(graph), "--out", str(tmp_path / "g.dot")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "g.dot").exists()


def test_threshold_past_the_extent(tmp_path):
    """1e200 links every pair; the margin grid must not overflow on it."""
    assert main(["optimize", "--shape", "y_shape", "--n", "200", "--threshold", "1e200",
                 "--epochs", "1", "--mc-samples", "1", "--out-dir", str(tmp_path)]) == 0


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
