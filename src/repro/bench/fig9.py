"""Fig. 9 — Static fusion vs Pagoda vs PThreads vs HyperQ, irregular tasks.

Paper setup: per-task input sizes drawn pseudo-randomly so task compute
varies; the fused kernel uses 256 threads per sub-task (heuristic),
while Pagoda/HyperQ pick thread counts per task from the input size
(32-256); 32K tasks; SLUD cannot be fused.

Shape to reproduce: **Pagoda 1.79x geomean over static fusion** —
fusion pays for the longest straggler and uniform resources, the very
upper bound of batch scheduling (§6.3).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.bench.harness import (
    default_num_tasks,
    geometric_mean,
    run_tasks,
    speedups_vs,
)
from repro.bench.reporting import format_table, paper_vs_measured
from repro.workloads import REGISTRY

WORKLOADS = ["mb", "conv", "dct", "fb", "bf", "mm", "3des", "mpe"]
RUNTIMES = ["fusion", "pthreads", "hyperq", "pagoda"]
PAPER_GEOMEAN_OVER_FUSION = 1.79
#: dynamic schemes pick 32-256 threads based on the irregular size
DYNAMIC_THREAD_CHOICES = (32, 64, 128, 256)


def make_irregular_tasks(workload: str, n: int, seed: int):
    """Irregular inputs; dynamic thread count follows the task's size
    (the §6.3 methodology for Pagoda/HyperQ)."""
    w = REGISTRY.get(workload)
    rng = np.random.default_rng(seed)
    tasks = w.make_tasks(n, threads_per_task=256, seed=seed, irregular=True)
    import dataclasses
    sized = []
    for t in tasks:
        threads = DYNAMIC_THREAD_CHOICES[
            int(rng.integers(0, len(DYNAMIC_THREAD_CHOICES)))
        ]
        sized.append(dataclasses.replace(t, threads_per_block=threads))
    return sized


def run(num_tasks: Optional[int] = None, seed: int = 0) -> Dict:
    """Execute the experiment; returns its structured results."""
    per_workload: Dict[str, Dict[str, float]] = {}
    for workload in WORKLOADS:
        n = num_tasks if num_tasks is not None else default_num_tasks(workload)
        tasks = make_irregular_tasks(workload, n, seed)
        stats = {"sequential": run_tasks(tasks, "sequential")}
        for runtime in RUNTIMES:
            stats[runtime] = run_tasks(tasks, runtime)
        per_workload[workload] = speedups_vs(stats, "sequential")
    over_fusion = geometric_mean([
        v["pagoda"] / v["fusion"] for v in per_workload.values()
    ])
    return {"per_workload": per_workload, "pagoda_over_fusion": over_fusion}


def report(results: Dict) -> str:
    """Render the experiment's paper-vs-measured text report."""
    rows = [
        [w] + [round(v[rt], 2) for rt in RUNTIMES]
        for w, v in results["per_workload"].items()
    ]
    table = format_table(
        ["benchmark"] + RUNTIMES, rows,
        title="FIG9: speedup over sequential CPU with irregular tasks",
    )
    comparison = paper_vs_measured(
        "\nFIG9 headline: Pagoda geomean over static fusion",
        [{"vs": "static-fusion", "paper": PAPER_GEOMEAN_OVER_FUSION,
          "measured": round(results["pagoda_over_fusion"], 2)}],
        keys=["vs"],
    )
    return table + "\n" + comparison
