#!/usr/bin/env python3
"""softmapper benchmark.

One workload, run for --seconds; the last line of standard output is the
JSON result:

    python3 perfbench/run.py --workload yshape-600 --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run. Every workload, each in its own process, untraced and then
traced twice (a determinism check), with a summary table and a results file:

    python3 perfbench/run.py --all --seed 1 --seconds 20

--smoke shrinks every input to a few hundred points. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import env

WALL_CAP_S = 120.0  # stop the loop here even if min_ops is not reached
SELF_SUM_TOL_S = 1e-9
REF_EVERY_S = 0.5  # CPU seconds of operations between two reference blocks
REF_SHARE = 0.1  # a block lasts at least this share of the operation time before it

# Gated metrics of the untraced run, each reported by every workload. The two
# times are CPU seconds scaled to the reference kernel's nominal speed (see
# reference.py); the raw wall and CPU figures are printed but not gated,
# because the host's speed drifts by more than the largest allowed bound.
END_TO_END = {"setup_s": "s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}

# (metric, span name, "total" or "self" seconds); each is reported per
# operation as <metric>_s and as a share of operation time as <metric>_share.
# The "self" rows partition the operation, so their shares add up to 1.
LAYER_TIMES = [
    ("clustering.cluster", "clustering.cluster", "self"),
    ("mapper.map_comp", "mapper.map_comp", "total"),
    ("mapper.nerve", "mapper.map_comp", "self"),
    ("persistence.filtration", "persistence.filtration", "self"),
    ("persistence.diagram", "persistence.diagram", "self"),
    ("persistence.loss_grad_self", "persistence.loss_grad", "self"),
    ("cover.scheme", "cover.scheme", "self"),
    ("cover.sample", "cover.sample", "self"),
    ("filters.evaluate", "filters.evaluate", "self"),
    ("optimize.epoch_self", "optimize.epoch", "self"),
    ("data.load", "data.load", "self"),
    ("export.write", "export.write", "self"),
    ("cli.self", "cli.main", "self"),
]
# (metric, unit, span name, count key), reported per operation.
LAYER_COUNTS = [
    ("clustering.calls", "count", "clustering.cluster", "calls"),
    ("clustering.points", "count", "clustering.cluster", "points"),
    ("clustering.cdist_bytes", "bytes", "clustering.cluster", "cdist_bytes"),
    ("clustering.clusters", "count", "clustering.cluster", "clusters"),
    ("mapper.nodes", "count", "mapper.map_comp", "nodes"),
    ("mapper.edges", "count", "mapper.map_comp", "edges"),
    ("mapper.pair_checks", "count", "mapper.map_comp", "pair_checks"),
    ("persistence.simplices", "count", "persistence.diagram", "simplices"),
    ("persistence.diagram_points", "count", "persistence.diagram", "diagram_points"),
    ("optimize.samples", "count", "persistence.loss_grad", "calls"),
    ("export.bytes", "bytes", "export.write", "bytes"),
]
# Counts that must repeat exactly, operation by operation, for one seed.
DETERMINISTIC = ("clustering.calls", "clustering.cdist_bytes", "mapper.nodes", "mapper.edges",
                 "mapper.pair_checks", "persistence.simplices")


def per_layer_units() -> dict[str, str]:
    units = {}
    for base, _, _ in LAYER_TIMES:
        units[f"{base}_s"] = "s"
        units[f"{base}_share"] = "frac"
    units.update({name: unit for name, unit, _, _ in LAYER_COUNTS})
    units.update({"cover.margin_point_frac": "frac", "synthetic.generate_s": "s",
                  "trace.overhead_frac": "frac", "trace.failed_spans": "count"})
    return units


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(), "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in env.THREAD_VARS},
    }


def tail(times: list[float]) -> tuple[int | None, float | None]:
    """Highest whole percentile with at least ten samples above it, and its value."""
    n = len(times)
    if n <= 10:
        return None, None
    pct = math.floor(100 * (n - 10) / n)
    return pct, statistics.quantiles(times, n=100, method="inclusive")[pct - 1]


def op_counts(summary: dict) -> dict[str, int]:
    return {name: summary.get(span, {}).get(key, 0)
            for name, _, span, key in LAYER_COUNTS}


def layer_metrics(summaries: list[dict], setup_spans, untraced: list[float],
                  traced: list[float]) -> dict[str, float]:
    """Per-layer values from the span summaries of the traced operations."""
    n_ops = len(summaries)
    op_total = sum(s["root"]["duration_s"] for s in summaries)
    values = {}
    for base, span, kind in LAYER_TIMES:
        secs = sum(s.get(span, {}).get(f"{kind}_s", 0.0) for s in summaries)
        values[f"{base}_s"] = secs / n_ops
        values[f"{base}_share"] = secs / op_total
    for name, _, span, key in LAYER_COUNTS:
        values[name] = sum(s.get(span, {}).get(key, 0) for s in summaries) / n_ops
    scheme = [s.get("cover.scheme", {}) for s in summaries]
    points = sum(s.get("scheme_points", 0) for s in scheme)
    values["cover.margin_point_frac"] = (
        sum(s.get("margin_points", 0) for s in scheme) / points if points else 0.0)
    values["synthetic.generate_s"] = sum(
        s.duration for s in setup_spans if s.name == "synthetic.generate")
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    values["trace.failed_spans"] = sum(
        agg["failed"] for s in summaries for name, agg in s.items() if name != "root")
    return values


def probe_setup(args) -> tuple[float, float]:
    """Wall and CPU seconds from starting a fresh process to its inputs being ready."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    said = line.split()
    if rc != 0 or len(said) != 2 or said[0] != "ready":
        raise RuntimeError(f"set-up probe failed (exit {rc}, said {line.strip()!r})")
    return ready - start, float(said[1])


def scaled_times(op_cpu: list[float], op_index: list[int],
                 blocks: list[tuple[int, float]], nominal_s: float) -> list[float]:
    """Each operation's CPU time at the reference kernel's nominal speed.

    ``blocks`` holds (operations run before the block, kernel seconds), in
    order; operation k is scaled by the mean of the last block before it and
    the first block after it.
    """
    starts = [b[0] for b in blocks]
    out = []
    for k, secs in zip(op_index, op_cpu):
        before = blocks[bisect.bisect_right(starts, k) - 1][1]
        after = blocks[bisect.bisect_right(starts, k)][1]
        out.append(secs * nominal_s / ((before + after) / 2))
    return out


def workdir_for(name: str) -> Path:
    return env.ROOT / ".perfbench" / f"work-{name}-{os.getpid()}"


def run_probe(args, spec) -> int:
    import workloads

    workdir = workdir_for(args.workload)
    workdir.mkdir(parents=True)
    try:
        workloads.make(spec, args.seed, workdir)
        print(f"ready {time.process_time()!r}", flush=True)
    finally:
        shutil.rmtree(workdir)
    return 0


def _timed(fn, k):
    """(result, exception, seconds) of one operation."""
    start = time.perf_counter()
    try:
        return fn(k), None, time.perf_counter() - start
    except Exception as err:  # a raising operation is a failed one, not a crash
        return None, err, time.perf_counter() - start


def run_workload(args, spec) -> int:
    import golden
    import reference
    import spans
    import workloads

    trace = args.trace == 1
    workdir = workdir_for(args.workload)
    workdir.mkdir(parents=True)
    errors: list[str] = []
    attempted = failed = 0
    try:
        # a reference block before and after each set-up probe scales it
        ref = reference.Reference(spec.reference)
        probes, setup_blocks = [], [(0, ref.block())]
        for i in range(spec.setup_repeats):
            probes.append(probe_setup(args))
            setup_blocks.append((i + 1, ref.block()))
        setup_wall_s = statistics.median(p[0] for p in probes)
        setup_cpu_s = statistics.median(p[1] for p in probes)
        setup_s = statistics.median(scaled_times(
            [p[1] for p in probes], range(len(probes)), setup_blocks, ref.nominal_s))
        tracer = spans.Tracer()
        if trace:
            with tracer.patched():
                wl = workloads.make(spec, args.seed, workdir)
        else:
            wl = workloads.make(spec, args.seed, workdir)
        setup_spans = tracer.spans
        if not args.smoke:  # golden inputs are full size; smoke runs skip them
            for i, mismatches in enumerate(golden.check(args.workload, workdir)):
                attempted += 1
                if mismatches:
                    failed += 1
                    errors.append(f"golden case {i}: {'; '.join(mismatches)}")

        untraced, traced, summaries, counts = [], [], [], {}
        op_cpu, op_index, blocks, since_ref = [], [], [(0, ref.block())], 0.0
        busy, k, wall0 = 0.0, 0, time.perf_counter()
        while ((time.perf_counter() - wall0 < args.seconds or k < spec.min_ops)
               and time.perf_counter() - wall0 < WALL_CAP_S):
            wl.prepare(k)
            traced_op = trace and k % 2 == 1
            tracer.reset()
            cpu0 = time.process_time()
            with tracer.patched() if traced_op else nullcontext():
                result, err, secs = _timed(wl.run, k)
            cpu = time.process_time() - cpu0
            if err is None:
                try:
                    wl.check(k, result)
                except Exception as exc:  # a wrong output is a failed operation
                    err = exc
            if err is not None:
                failed += 1
                errors.append(f"operation {k}: {type(err).__name__}: {err}")
            attempted += 1
            busy += secs
            (traced if traced_op else untraced).append(secs)
            if not traced_op:
                op_cpu.append(cpu)
                op_index.append(k)
            if traced_op:
                summary = spans.summarize(tracer.spans)
                root = summary["root"]
                if abs(root["self_sum_s"] - root["duration_s"]) > SELF_SUM_TOL_S:
                    errors.append(f"operation {k}: layer self times do not add up")
                summaries.append(summary)
                counts[k] = op_counts(summary)
            k += 1
            since_ref += cpu
            if since_ref >= REF_EVERY_S:
                blocks.append((k, ref.block(REF_SHARE * since_ref)))
                since_ref = 0.0
        if blocks[-1][0] != k:
            blocks.append((k, ref.block()))
        wall = time.perf_counter() - wall0
        errors += wl.finish()
    finally:
        shutil.rmtree(workdir)

    ref_s = statistics.median(b[1] for b in blocks)
    report = {"setup_s": setup_s,
              "setup_wall_s": setup_wall_s, "setup_cpu_s": setup_cpu_s,
              "ref_block_s": ref_s, "host_speed": ref.nominal_s / ref_s,
              "ops": len(untraced), "busy_s": busy, "wall_s": wall,
              "op_cpu_s": op_cpu, "ref_blocks": blocks, "setup_probes": probes,
              "setup_ref_blocks": setup_blocks}
    if untraced:
        p50 = statistics.median(untraced)
        pct, tail_s = tail(untraced)
        report.update({"ops_per_s": len(untraced) / sum(untraced), "op_s_p50": p50,
                       "op_s_tail": tail_s, "tail_percentile": pct,
                       "op_cpu_ms_p50": 1000 * statistics.median(op_cpu),
                       "op_ms_p50": 1000 * statistics.median(
                           scaled_times(op_cpu, op_index, blocks, ref.nominal_s))})
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["failed_ops_ratio"] = failed / attempted if attempted else 1.0
    report["direction_corr"] = wl.direction_corr
    metrics = {}
    if trace:
        seen = {spans.layer(name) for s in summaries for name in s if name != "root"}
        seen |= {spans.layer(s.name) for s in setup_spans}
        missing = [layer for layer in wl.layers if layer not in seen]
        if missing:
            errors.append(f"no spans recorded for layers {missing}")
        if summaries and untraced:
            units = per_layer_units()
            values = layer_metrics(summaries, setup_spans, untraced, traced)
            metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        else:
            errors.append("the traced run needs at least one traced and one untraced operation")
    elif untraced:
        metrics = {name: {"value": report[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        errors.append("no operation ran")

    _print_report(args, spec, report, metrics if trace else {})
    for err in errors:
        print(f"ERROR {err}")
    correct = not errors and failed == 0
    if args.detail:
        Path(args.detail).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "environment": environment(),
            "report": report, "metrics": metrics, "errors": errors,
            "per_op_counts": {str(k): v for k, v in counts.items()},
        }, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _report_rows(spec, report) -> list[tuple[str, float | None, str]]:
    """Every named end-to-end metric of a run, with its unit."""
    unit = "epoch" if spec.mc_samples else "build"
    rows = [("setup_s (scaled CPU)", report["setup_s"], "s"),
            ("setup wall / CPU", report["setup_wall_s"], f"s / {report['setup_cpu_s']:.6g} s"),
            ("host_speed (nominal / reference block)", report["host_speed"], "x")]
    if "ops_per_s" in report:
        rows.append(("op_ms_p50 (scaled CPU)", report["op_ms_p50"], "ms"))
        rows.append(("op_cpu_ms_p50 (raw CPU)", report["op_cpu_ms_p50"], "ms"))
        rate = report["ops_per_s"]
        rows.append(("ops_per_s (wall)", rate, "1/s"))
        if spec.mc_samples:
            rows.append(("samples_per_s", rate * spec.mc_samples, "1/s"))
        else:
            rows.append(("builds_per_s", rate, "1/s"))
        rows.append((f"{unit}_s_p50", report["op_s_p50"], "s"))
        pct, n = report["tail_percentile"], report["ops"]
        rows.append((f"{unit}_s_tail (p{pct}, n={n})" if pct else
                     f"{unit}_s_tail (n={n}: too few for a tail)", report["op_s_tail"], "s"))
    rows.append(("peak_rss_mb", report["peak_rss_mb"], "MB"))
    if spec.mc_samples:
        rows.append((f"direction_corr (after {spec.min_ops} epochs)",
                     report["direction_corr"], "|cos|"))
    rows.append(("failed_ops_ratio", report["failed_ops_ratio"], "1"))
    rows.append(("run length", report["busy_s"], f"s busy, {report['wall_s']:.2f} s wall,"
                 f" {report['ops']} untraced {unit}s"))
    return rows


def _print_rows(rows, indent="") -> None:
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{indent}{name:<42} {shown:>12} {unit}")


def _print_report(args, spec, report, layer_metrics) -> None:
    """Human-readable lines before the JSON result."""
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds}"
          f" trace {args.trace}{' smoke' if args.smoke else ''}")
    print("# environment " + json.dumps(environment(), sort_keys=True))
    _print_rows(_report_rows(spec, report)
                + [(name, m["value"], m["unit"]) for name, m in layer_metrics.items()])


def run_all(args, specs: dict) -> int:
    out = Path(args.out or env.ROOT / ".perfbench" / f"results-seed{args.seed}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    results = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
               "environment": environment(), "workloads": {}}
    ok = True
    for name in specs:
        runs = []
        for i, trace in enumerate((0, 1, 1)):
            detail = out.with_name(f"{out.stem}-{name}-{i}.json")
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace), "--detail", str(detail)]
            proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                                  capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            ok &= proc.returncode == 0
            if not detail.exists():
                ok = False
                break
            runs.append(json.loads(detail.read_text()))
            detail.unlink()
        if len(runs) < 3:
            results["workloads"][name] = {"error": "a run did not finish"}
            continue
        problems = determinism_problems(runs[1], runs[2])
        if runs[0]["report"]["direction_corr"] != runs[1]["report"]["direction_corr"]:
            problems.append("direction_corr differs between the untraced and traced runs")
        ok &= not problems
        results["workloads"][name] = {"untraced": runs[0], "traced": runs[1:],
                                      "determinism_problems": problems}
    out.write_text(json.dumps(results, indent=1) + "\n")
    _print_summary(results, specs)
    print(f"results written to {out}")
    return 0 if ok else 1


def determinism_problems(a: dict, b: dict) -> list[str]:
    """Differences between two traced runs of one workload and seed."""
    problems = []
    common = sorted(set(a["per_op_counts"]) & set(b["per_op_counts"]), key=int)
    if not common:
        problems.append("no traced operation in common")
    for k in common:
        for name in DETERMINISTIC:
            if a["per_op_counts"][k][name] != b["per_op_counts"][k][name]:
                problems.append(f"operation {k}: {name} {a['per_op_counts'][k][name]}"
                                f" != {b['per_op_counts'][k][name]}")
    corr_a, corr_b = a["report"]["direction_corr"], b["report"]["direction_corr"]
    if corr_a != corr_b:  # JSON keeps every digit of a float, so this is bit for bit
        problems.append(f"direction_corr {corr_a!r} != {corr_b!r}")
    return problems


def _print_summary(results: dict, specs: dict) -> None:
    print("\n== summary (seed {seed}, {seconds} s per run) ==".format(**results))
    for name, res in results["workloads"].items():
        if "error" in res:
            print(f"{name}: {res['error']}")
            continue
        print(f"{name}:")
        _print_rows(_report_rows(specs[name], res["untraced"]["report"]), indent="  ")
        traced = res["traced"][0]["metrics"]
        shares = {m[:-len("_share")]: v["value"] for m, v in traced.items()
                  if m.endswith("_share") and m != "mapper.map_comp_share" and v["value"] > 0}
        print("  self-time shares: " + ", ".join(
            f"{m} {v:.1%}" for m, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        problems = res["determinism_problems"]
        print(f"  trace overhead {traced['trace.overhead_frac']['value']:+.2%}; determinism: "
              + ("; ".join(problems) if problems else "ok"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--all", action="store_true", help="run every workload, then summarize")
    parser.add_argument("--out", help="results file of --all")
    parser.add_argument("--detail", help="write the run's full record to this JSON file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    env.bootstrap()
    import workloads

    specs = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    if args.all:
        return run_all(args, specs)
    if args.workload not in specs:
        parser.error(f"--workload must be one of {sorted(specs)}")
    if args.setup_probe:
        return run_probe(args, specs[args.workload])
    return run_workload(args, specs[args.workload])


if __name__ == "__main__":
    sys.exit(main())
