"""Fig. 7 — Computation time with different thread counts per task.

Paper setup: 32K tasks, threads per task swept over 32-512, the work
per task held constant, **no shared memory** in any version (GeMTC
lacks it), and only compute time compared (copies excluded).

Shapes to reproduce: Pagoda beats HyperQ and GeMTC on all
configurations — geometric mean **2.29x over HyperQ and 2.26x over
GeMTC at 128 threads** — and Pagoda's edge over HyperQ narrows as
threads per task grow (underutilization becomes less severe).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench.harness import (
    default_num_tasks,
    geometric_mean,
    make_tasks,
    run_tasks,
    strip_shared_mem,
)
from repro.bench.reporting import format_table, paper_vs_measured

WORKLOADS = ["mb", "fb", "bf", "conv", "dct", "mm", "slud", "3des", "mpe"]
RUNTIMES = ["hyperq", "gemtc", "pagoda"]
THREAD_COUNTS = [32, 64, 128, 256, 512]
PAPER_AT_128 = {"hyperq": 2.29, "gemtc": 2.26}


def run(num_tasks: Optional[int] = None, seed: int = 0,
        thread_counts: Optional[List[int]] = None) -> Dict:
    """Execute the experiment; returns its structured results."""
    thread_counts = thread_counts or THREAD_COUNTS
    times: Dict[str, Dict[str, Dict[int, float]]] = {}
    for workload in WORKLOADS:
        n = num_tasks if num_tasks is not None else default_num_tasks(workload)
        times[workload] = {rt: {} for rt in RUNTIMES}
        for threads in thread_counts:
            # "No shared memory was used in either of the program
            # versions because GeMTC does not support it" (§6.3)
            tasks = strip_shared_mem(make_tasks(workload, n, threads, seed))
            for runtime in RUNTIMES:
                if workload == "slud" and runtime == "gemtc":
                    continue
                # compute time only: copies disabled (Fig. 7 method)
                stats = run_tasks(tasks, runtime, copies=False)
                times[workload][runtime][threads] = stats.makespan
    geomeans_128 = {}
    for runtime in ("hyperq", "gemtc"):
        ratios = [
            per_rt[runtime][128] / per_rt["pagoda"][128]
            for per_rt in times.values() if runtime in per_rt and
            128 in per_rt.get(runtime, {})
        ]
        geomeans_128[runtime] = geometric_mean(ratios)
    return {"thread_counts": thread_counts, "times": times,
            "geomeans_128": geomeans_128}


def report(results: Dict) -> str:
    """Render the experiment's paper-vs-measured text report."""
    counts = results["thread_counts"]
    sections = []
    for workload, per_rt in results["times"].items():
        rows = []
        for runtime in RUNTIMES:
            if not per_rt.get(runtime):
                continue
            rows.append([runtime] + [
                round(per_rt[runtime][t] / 1e6, 3) for t in counts
                if t in per_rt[runtime]
            ])
        sections.append(format_table(
            ["runtime"] + [f"{t}thr" for t in counts], rows,
            title=f"FIG7 [{workload}]: compute time (ms), work/task constant",
        ))
    comparison = paper_vs_measured(
        "\nFIG7 headline: Pagoda compute speedup at 128 threads/task",
        [
            {"vs": rt, "paper": PAPER_AT_128[rt],
             "measured": round(results["geomeans_128"][rt], 2)}
            for rt in PAPER_AT_128
        ],
        keys=["vs"],
    )
    sections.append(comparison)
    # the trend the paper highlights: the advantage narrows with
    # threads per task
    trend = []
    for threads in counts:
        ratios = [
            per_rt["hyperq"][threads] / per_rt["pagoda"][threads]
            for per_rt in results["times"].values()
            if threads in per_rt.get("hyperq", {})
        ]
        trend.append(f"{threads}thr: {geometric_mean(ratios):.2f}x")
    sections.append(
        "FIG7 trend (Pagoda-over-HyperQ geomean by thread count; the "
        "paper reports it decreasing): " + ", ".join(trend)
    )
    return "\n\n".join(sections)
