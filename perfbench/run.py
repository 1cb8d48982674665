#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload paper_fig5 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` times passes of the workload for ``--seconds`` and reports
the end-to-end metrics of ``BENCHMARK.json``. ``--trace 1`` makes one
untraced pass, one pass under cProfile and one pass with an ``Obs``
attached, and reports the per-layer metrics. Either way the output
checks run, a readable summary goes to stdout, and the last stdout line
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 5
#: the e2e metrics whose value comes from the first pass's simulation.
SIM_E2E = ("p50_us", "p99_us", "goodput_kps")
#: per-workload lines of the readable summary beyond BENCHMARK.json's
#: end-to-end metrics: (name, unit).
SUMMARY_EXTRA = {
    "paper_fig5": [("fig5_err_pthreads_pct", "%"), ("fig5_err_hyperq_pct", "%"),
                   ("fig5_err_gemtc_pct", "%"), ("fig5.geomean_pthreads", "x"),
                   ("fig5.geomean_hyperq", "x"), ("fig5.geomean_gemtc", "x")],
    "serve_ladder": [("p99_us_low", "us"), ("p99_us_over", "us"),
                     ("drop_pct_over", "%")],
    "fleet_lossy": [],
}


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def require_source() -> None:
    """Make ``repro`` importable from the checkout, or stop."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no simulator source under {src}")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        sys.exit(f"perfbench: no BENCHMARK.json in {ROOT}")
    sys.path[:0] = [src, ROOT]


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter until it has imported
    everything and built the workload's inputs."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--probe-setup"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def timed_passes(workload, tracer, seconds: float) -> list:
    """Whole passes for about ``seconds``: at least one, and another only
    while one more of the last pass's length still fits."""
    results = []
    start = time.perf_counter()
    while (not results or time.perf_counter() - start
           + results[-1].wall_s <= seconds):
        gc.collect()
        results.append(workload.run_pass(tracer))
    return results


def pass_throughput(passes: list) -> float:
    """Tasks of one pass over the host time of a typical pass: each
    timed call's median over the passes, summed. A slow spell of the
    host then spoils one sample of a few calls, not a whole pass."""
    calls = passes[0].cells_s
    typical = sum(statistics.median(p.cells_s[k] for p in passes)
                  for k in calls)
    return statistics.median(p.completed for p in passes) / typical


def untraced_run(wl, args, tracer) -> tuple:
    """End-to-end metrics of timed passes; returns (metrics, summary,
    checks, attempted, failed)."""
    from perfbench.workloads import check_repeat
    setup = [probe_setup(args.workload, args.seed)
             for _ in range(SETUP_PROBES)]
    checks = []
    attempted = failed = 0
    if wl.name == "fleet_lossy":
        checks += wl.run_reference(tracer)
        attempted += wl.attempted_per_pass
    passes = timed_passes(wl, tracer, args.seconds)
    for p in passes:
        checks += p.checks
        attempted += p.attempted
        failed += p.failed
    checks.append(check_repeat("same outcome every pass",
                               [p.digest for p in passes]))
    first = passes[0].sim
    metrics = {
        "setup_s": statistics.median(setup),
        "tasks_per_s": pass_throughput(passes),
        "peak_rss_mb": peak_rss_mb(wl.name == "fleet_lossy"),
    }
    for name in SIM_E2E:
        if name in first:
            metrics[name] = first[name]
    summary = dict(first)
    summary["passes"] = [round(p.wall_s, 3) for p in passes]
    return metrics, summary, checks, attempted, failed


def traced_run(wl, args, run_id: str) -> tuple:
    """Per-layer metrics: one untraced pass, one profiled pass and one
    counting pass; returns (metrics, checks, attempted, failed, tracer)."""
    from perfbench.tracing import LAYERS, LayerProfile, Tracer
    from perfbench.workloads import WORKLOADS

    tracer = Tracer(run_id)
    checks = []
    if wl.name == "fleet_lossy":
        checks += wl.run_reference(tracer)
    gc.collect()
    base = wl.run_pass(tracer)
    checks += base.checks

    profile = tracer.profile = LayerProfile()
    if wl.name == "fleet_lossy":
        profile.disable_after_fork()
    with tracer.span("setup", group="setup"):
        wp = WORKLOADS[wl.name](args.seed)
    if wl.name == "fleet_lossy":
        checks += wp.run_reference(tracer)
    gc.collect()
    prof_pass = wp.run_pass(tracer)
    checks += prof_pass.checks
    tracer.profile = None

    counts, count_checks = wl.count_metrics(base, tracer)
    checks += count_checks

    out = {k: v for k, v in base.sim.items() if k not in SIM_E2E}
    out.update({k: v for k, v in counts.items() if not k.startswith("_")})
    if wl.name == "fleet_lossy":
        layer_groups, ns_groups = ["setup", "inproc"], ["inproc"]
        ns_wall, events = wl.reference_s, counts["_events"]
        out["trace.overhead_ratio"] = wp.reference_s / wl.reference_s
        out["cluster.inproc_s"] = wl.reference_s
        out["cluster.pool_speedup"] = wl.reference_s / base.wall_s
        out["cluster.host_ms_per_epoch"] = (base.wall_s * 1e3
                                            / base.sim["cluster.epochs"])
        out["cluster.wait_s"] = profile.function_cum_s(
            ["pool"], "multiprocessing/connection.py", ("wait",))
        out["cluster.pickle_s"] = (
            profile.function_cum_s(["pool"], "multiprocessing/reduction.py",
                                   ("dumps",))
            + profile.builtin_cum_s(["pool"], "_pickle.loads"))
    else:
        layer_groups = None
        out["trace.overhead_ratio"] = prof_pass.wall_s / base.wall_s
        if wl.name == "paper_fig5":
            for cell, secs in base.cells_s.items():
                key = f"runtime.{cell.split('/')[1]}_s"
                out[key] = out.get(key, 0.0) + secs
            ns_groups, ns_wall = ["pagoda"], out["runtime.pagoda_s"]
        else:
            for step, secs in base.cells_s.items():
                out[f"step.{step}_s"] = secs
            ns_groups = list(base.cells_s)
            ns_wall = sum(base.cells_s.values())
        events = counts["_events"]
    layers = profile.layer_self_s(layer_groups)
    for layer in LAYERS + ("sim.ps", "other"):
        out[f"{layer}.self_s"] = layers[layer]
    scoped = profile.layer_self_s(ns_groups)
    total = sum(v for k, v in scoped.items() if k != "sim.ps")
    out["sim.ns_per_event"] = (scoped["sim"] / total * ns_wall * 1e9 / events
                               if total and events else 0.0)
    attempted = base.attempted + prof_pass.attempted
    failed = base.failed + prof_pass.failed
    return out, checks, attempted, failed, tracer


def print_checks(checks: list) -> None:
    """One line per distinct check, with how many of its runs passed."""
    by_name: dict = {}
    for c in checks:
        by_name.setdefault(c.name, []).append(c)
    for name, runs in by_name.items():
        bad = [c for c in runs if not c.ok]
        verdict = "ok" if not bad else "FAILED " + bad[0].detail
        print(f"  check {name}: {verdict} "
              f"({len(runs) - len(bad)}/{len(runs)} passed)")


def emit(names_units: list, values: dict) -> dict:
    """The result's metrics object, in BENCHMARK.json order."""
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in names_units}


def run_one(args) -> int:
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    bench = load_benchmark()
    run_id = f"{args.workload}-s{args.seed}-{uuid.uuid4().hex[:8]}"
    wl = WORKLOADS[args.workload](args.seed)
    if args.trace:
        values, checks, attempted, failed, tracer = traced_run(wl, args,
                                                               run_id)
        section = "per_layer"
        unknown = set(values) - {m["name"] for m in bench["per_layer"]}
        unknown -= {n for n, _ in SUMMARY_EXTRA[args.workload]}
        if unknown:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: "
                               f"{sorted(unknown)}")
    else:
        tracer = Tracer(run_id)
        values, summary, checks, attempted, failed = untraced_run(
            wl, args, tracer)
        section = "end_to_end"
    failed += sum(1 for c in checks if not c.ok)
    values["failed_pct"] = 100.0 * failed / attempted

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"run={run_id}")
    print_checks(checks)
    lines = [(m["name"], m["unit"]) for m in bench[section]]
    if not args.trace:
        lines += [("failed_pct", "%")] + SUMMARY_EXTRA[args.workload]
        values.update({n: summary[n] for n, _ in SUMMARY_EXTRA[args.workload]
                       if n in summary})
        print(f"  pass host seconds {summary['passes']}")
    for name, unit in lines:
        if name in values:
            print(f"  {name:<32} {values[name]:>14.6g} {unit}")
    if args.trace:
        path = os.path.join(HERE, "out", f"spans-{run_id}.json")
        tracer.write(path)
        print(f"  spans written to {os.path.relpath(path, ROOT)}")

    correct = all(c.ok for c in checks) and failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": emit(lines[:len(bench[section])], values)}
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload of BENCHMARK.json in turn, each in its own process."""
    bench = load_benchmark()
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in bench["workloads"]:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             w["name"], "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False}
        code = code or proc.returncode or (0 if result["correct"] else 1)
        merged["correct"] = merged["correct"] and result.get("correct", False)
        merged["attempted"] += result.get("attempted", 0)
        merged["failed"] += result.get("failed", 0)
        for name, row in result.get("metrics", {}).items():
            merged["metrics"][f"{w['name']}.{name}"] = row
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="paper_fig5, serve_ladder, fleet_lossy or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_source()
    if args.workload == "all":
        return run_all(args)
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.probe_setup:
        WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
