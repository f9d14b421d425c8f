"""Command-line interface: build Mapper graphs, optimize filters, generate
synthetic shapes and export graphs.

Exit codes: 0 success, 1 usage/config error, 2 runtime/numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import KMeansClusterer, SingleLinkageClusterer, threshold_from_hausdorff
from .cover import sample_assignment, smooth_scheme, smoothing_width, standard_scheme, uniform_cover
from .data import FormatError, PointCloud, load_csv, load_off_vertices
from .export import (
    diagram_to_csv,
    export_dot,
    graph_from_json,
    graph_to_json,
    learning_curve_svg,
    trace_to_csv,
)
from .filters import FixedFilter, LinearFilter, diagonal_init
from .mapper import map_comp
from .optimize import OptimConfig, direction_correlation, optimize
from .persistence import extended_persistence, map_pers_filtration, regular_persistence
from .synthetic import generate_synthetic


class ConfigError(ValueError):
    pass


def _seed(text: str) -> int:
    """A --seed value: an integer >= 0, as numpy's generators take."""
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")


def _add_dataset_args(p):
    p.add_argument("--input", help="path to a point cloud file")
    p.add_argument("--format", choices=["csv", "off"], default="csv")
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--shape", choices=["circle", "cylinder", "y_shape", "plane_with_leg"],
                   help="synthetic generator (alternative to --input)")
    p.add_argument("--n", type=int, default=600)
    p.add_argument("--noise", type=float, default=0.0)


def _add_filter_args(p):
    p.add_argument("--filter", choices=["linear", "coord"], default="linear")
    p.add_argument("--theta", help="comma-separated initial parameters (default: diagonal)")
    p.add_argument("--coord", type=int, default=-1,
                   help="coordinate index for the fixed 'coord' filter (default: last)")


def _add_cover_args(p):
    p.add_argument("--resolution", type=int, default=10)
    p.add_argument("--gain", type=float, default=0.3)
    p.add_argument("--delta-rel", type=float, default=1e-2)


def _add_cluster_args(p):
    p.add_argument("--clusterer", choices=["kmeans", "linkage"], default="linkage")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--threshold", type=float)
    p.add_argument("--threshold-factor", type=float,
                   help="set the linkage threshold to factor * subsample Hausdorff distance")
    p.add_argument("--subsample-fraction", type=float, default=1 / 3)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name."""
    top = argparse.ArgumentParser(prog="softmapper")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    commands = {}

    for name in ("build", "optimize"):
        p = commands[name] = sub.add_parser(name)
        p.add_argument("--config", help="JSON file with defaults for any flag")
        _add_dataset_args(p)
        _add_filter_args(p)
        _add_cover_args(p)
        _add_cluster_args(p)
        p.add_argument("--mode", choices=["regular", "extended"], default="extended")
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--out-dir", default=".")
        if name == "build":
            p.add_argument("--sample", action="store_true",
                           help="sample the smooth scheme instead of the standard assignment")
        else:
            p.add_argument("--epochs", type=int, default=200)
            p.add_argument("--mc-samples", type=int, default=10)
            p.add_argument("--step-size", type=float, default=0.1)
            p.add_argument("--schedule", choices=["constant", "robbins_monro"], default="constant")
            p.add_argument("--noise-std", type=float, default=0.0)
            p.add_argument("--maximize", action="store_true")
            p.add_argument("--scheme", choices=["smooth", "standard"], default="smooth")
            p.add_argument("--reference-direction",
                           help="comma-separated direction to correlate theta_N against")

    p = commands["synth"] = sub.add_parser("synth")
    p.add_argument("--shape", required=True,
                   choices=["circle", "cylinder", "y_shape", "plane_with_leg"])
    p.add_argument("--n", type=int, default=600)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)

    p = commands["export"] = sub.add_parser("export")
    p.add_argument("--graph", required=True, help="mapper.json produced by build")
    p.add_argument("--out", required=True, help="output DOT path")
    return top, commands


def _read_config(path) -> dict:
    """The JSON object in the config file at ``path``."""
    try:
        with open(path) as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return values


def _config_value(action, key, value):
    """A config value checked and converted as argparse checks and converts
    the same flag given on the command line."""
    if action.nargs == 0:  # an on/off switch
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")
        return value
    if not isinstance(value, (str, int, float)) or isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be a string or a number, got {value!r}")
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        value = action.type(text) if action.type else text
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        raise ConfigError(f"config key {key!r}: invalid value {text}") from None
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
    return value


def _apply_config(commands, values) -> None:
    """Make config values the defaults of every subcommand that has the flag;
    flags on the command line override them."""
    known = set()
    for p in commands.values():
        defaults = {}
        for action in p._actions:
            if action.dest in values:
                defaults[action.dest] = _config_value(action, action.dest, values[action.dest])
            known.add(action.dest)
        p.set_defaults(**defaults)
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")


def _load_cloud(args) -> PointCloud:
    if args.shape and args.input:
        raise ConfigError("give either --input or --shape, not both")
    if args.shape:
        return generate_synthetic(args.shape, args.n, args.noise, args.seed)
    if not args.input:
        raise ConfigError("one of --input or --shape is required")
    if not Path(args.input).exists():
        raise ConfigError(f"input file not found: {args.input}")
    if args.format == "off":
        return load_off_vertices(args.input)
    return load_csv(args.input, has_header=args.has_header)


def _parse_vector(text, p):
    vec = np.array([float(t) for t in text.split(",")])
    if vec.size != p:
        raise ConfigError(f"expected {p} components, got {vec.size}")
    return vec


def _make_filter(args, cloud):
    if args.filter == "coord":
        idx = cloud.dim - 1 if args.coord == -1 else args.coord
        if not 0 <= idx < cloud.dim:
            raise ConfigError(f"coordinate index {idx} out of range for p={cloud.dim}")
        return FixedFilter(cloud.points[:, idx]), np.zeros(0)
    theta = _parse_vector(args.theta, cloud.dim) if args.theta else diagonal_init(cloud.dim)
    return LinearFilter(), theta


def _make_clusterer(args, cloud):
    if args.clusterer == "kmeans":
        return KMeansClusterer(args.k, seed=args.seed)
    if args.threshold_factor is not None:
        return threshold_from_hausdorff(cloud, args.subsample_fraction,
                                        args.threshold_factor, args.seed)
    if args.threshold is None:
        raise ConfigError("linkage clusterer needs --threshold or --threshold-factor")
    return SingleLinkageClusterer(args.threshold)


# Where the outputs go and where the defaults came from change no result.
_NOT_HASHED = ("config", "out_dir")


def _config_hash(args) -> str:
    """A digest of the settings that affect the results."""
    doc = {k: v for k, v in vars(args).items() if k not in _NOT_HASHED}
    return hashlib.sha256(json.dumps(doc, sort_keys=True, default=str).encode()).hexdigest()[:16]


def _write_build_outputs(out_dir: Path, cloud, fam, theta, clusterer, args, sampled_seed=None):
    with np.errstate(over="raise", invalid="raise"):  # a huge theta overflows the filter or graph
        fv = fam.evaluate(cloud, theta)
        delta = smoothing_width(fv, args.resolution, args.delta_rel)
        cover = uniform_cover(fv.values, args.resolution, args.gain)
        if sampled_seed is not None:
            e = sample_assignment(smooth_scheme(fv, cover, delta), sampled_seed)
            graph = map_comp(cloud, e, clusterer)
        else:
            graph = map_comp(cloud, standard_scheme(fv, cover), clusterer)  # its own draw
        fg = map_pers_filtration(graph, fv)
        diagram = extended_persistence(fg) if args.mode == "extended" else regular_persistence(fg)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "mapper.json").write_text(graph_to_json(graph, fg.node_values))
    (out_dir / "mapper.dot").write_text(export_dot(graph, fg.node_values))
    (out_dir / "diagram.csv").write_text(diagram_to_csv(diagram))
    return graph, diagram


def cmd_build(args) -> int:
    cloud = _load_cloud(args)
    fam, theta = _make_filter(args, cloud)
    clusterer = _make_clusterer(args, cloud)
    out_dir = Path(args.out_dir)
    seed = args.seed if args.sample else None
    _write_build_outputs(out_dir, cloud, fam, theta, clusterer, args, sampled_seed=seed)
    summary = {"seed": args.seed, "config_hash": _config_hash(args), "version": __version__}
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_optimize(args) -> int:
    cloud = _load_cloud(args)
    fam, theta0 = _make_filter(args, cloud)
    if theta0.size == 0:
        raise ConfigError("the 'coord' filter has no parameters to optimize")
    ref = None
    if args.reference_direction:
        ref = _parse_vector(args.reference_direction, cloud.dim)
        if not 0 < np.linalg.norm(ref) < np.inf:
            raise ConfigError("--reference-direction must be finite and nonzero")
    clusterer = _make_clusterer(args, cloud)
    # every OptimConfig field has a flag of the same dest
    config = OptimConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(OptimConfig)})
    theta_n, trace = optimize(cloud, fam, theta0, clusterer, config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trace.csv").write_text(trace_to_csv(trace))
    (out_dir / "curve.svg").write_text(learning_curve_svg(trace))
    (out_dir / "theta_final.json").write_text(
        json.dumps({"theta": [float(x) for x in theta_n]}, indent=2) + "\n"
    )
    _write_build_outputs(out_dir / "initial", cloud, fam, theta0, clusterer, args)
    _write_build_outputs(out_dir / "final", cloud, fam, theta_n, clusterer, args)
    summary = {
        "seed": args.seed,
        "config_hash": _config_hash(args),
        "version": __version__,
        "final_risk": trace.risks[-1],
        "theta_final": [float(x) for x in theta_n],
    }
    if ref is not None:
        summary["reference_correlation"] = direction_correlation(theta_n, ref)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_synth(args) -> int:
    cloud = generate_synthetic(args.shape, args.n, args.noise, args.seed)
    lines = [",".join(map(repr, row)) for row in cloud.points.tolist()]
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def cmd_export(args) -> int:
    if not Path(args.graph).exists():
        raise ConfigError(f"graph file not found: {args.graph}")
    graph = graph_from_json(Path(args.graph).read_text())
    colors = graph.sizes.astype(float)
    Path(args.out).write_text(export_dot(graph, colors))
    return 0


_COMMANDS = {"build": cmd_build, "optimize": cmd_optimize, "synth": cmd_synth, "export": cmd_export}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser with the built-in defaults, built on first use;
    nothing may change its defaults."""
    return build_parser()[0]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        try:
            args = parser.parse_args(argv)
            if getattr(args, "config", None) is not None:
                # its values become the defaults of a parser of this call's own
                parser, commands = build_parser()
                _apply_config(commands, _read_config(args.config))
                args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse printed the help, the version or a usage error
            return 0 if exc.code in (0, None) else 1
        return _COMMANDS[args.command](args)
    except (ConfigError, FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"out of memory: {exc}" if str(exc) else "out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
