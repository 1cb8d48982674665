"""Common experiment harness: runtime registry, scaling, speedups.

Every figure/table module builds on :func:`run_benchmark`, which routes
one (workload, runtime, task-count, threads) cell to the right runner
with consistent settings, so cross-runtime comparisons are always
apples-to-apples.

Scale: the paper uses 32K tasks (273K for SLUD).  Full scale takes
minutes per cell in a pure-Python simulator, so the default is a
scaled-down task count with identical per-task geometry; set
``PAGODA_FULL=1`` to reproduce at paper scale.  Weak-scaling results
(Fig. 6) show the comparison shape is stable in task count.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Dict, List, Optional

from repro.baselines import (
    GemtcConfig,
    HyperQConfig,
    run_gemtc,
    run_hyperq,
    run_static_fusion,
)
from repro.core import PagodaConfig, run_pagoda
from repro.cpu import run_pthreads, run_sequential
from repro.tasks import RunStats, TaskSpec
from repro.workloads import REGISTRY

#: paper-scale task counts (§6.2)
FULL_TASKS = 32 * 1024
FULL_TASKS_SLUD = 273 * 1024
#: scaled-down defaults for CI-speed runs
DEFAULT_TASKS = 768

#: CPU core count of the PThreads baseline (two 10-core Xeons, §6.1)
PTHREADS_CORES = 20


def full_scale() -> bool:
    """True when PAGODA_FULL requests paper-scale runs."""
    return os.environ.get("PAGODA_FULL", "") not in ("", "0")


def default_num_tasks(workload: str = "") -> int:
    """Default task count for one experiment cell."""
    if full_scale():
        return FULL_TASKS_SLUD if workload == "slud" else FULL_TASKS
    return DEFAULT_TASKS


def make_tasks(workload: str, num_tasks: Optional[int] = None,
               threads: Optional[int] = None, seed: int = 0,
               irregular: bool = False) -> List[TaskSpec]:
    """Build a workload's task list at harness scale."""
    n = num_tasks if num_tasks is not None else default_num_tasks(workload)
    return REGISTRY.get(workload).make_tasks(
        n, threads_per_task=threads, seed=seed, irregular=irregular
    )


# -- runtime registry -----------------------------------------------------------

def _run_pagoda(tasks, copies=True, **kw):
    return run_pagoda(tasks, config=PagodaConfig(
        copy_inputs=copies, copy_outputs=copies))


def _run_pagoda_batching(tasks, copies=True, **kw):
    batch = kw.get("batch_size", 384)
    return run_pagoda(tasks, config=PagodaConfig(
        copy_inputs=copies, copy_outputs=copies, batch_size=batch))


def _run_hyperq(tasks, copies=True, **kw):
    return run_hyperq(tasks, config=HyperQConfig(
        copy_inputs=copies, copy_outputs=copies))


def _run_gemtc(tasks, copies=True, **kw):
    worker_threads = max(t.threads_per_block for t in tasks)
    return run_gemtc(tasks, config=GemtcConfig(
        worker_threads=max(64, worker_threads),
        batch_size=kw.get("batch_size"),
        copy_inputs=copies, copy_outputs=copies))


def _run_fusion(tasks, copies=True, **kw):
    fused_threads = kw.get("fused_threads", 256)
    return run_static_fusion(tasks, fused_threads=fused_threads,
                             copy_inputs=copies, copy_outputs=copies)


def _run_pthreads(tasks, copies=True, **kw):
    return run_pthreads(tasks, num_cores=PTHREADS_CORES)


def _run_sequential(tasks, copies=True, **kw):
    return run_sequential(tasks)


RUNTIMES: Dict[str, Callable[..., RunStats]] = {
    "pagoda": _run_pagoda,
    "pagoda-batching": _run_pagoda_batching,
    "hyperq": _run_hyperq,
    "gemtc": _run_gemtc,
    "fusion": _run_fusion,
    "pthreads": _run_pthreads,
    "sequential": _run_sequential,
}

#: runtimes that cannot run shared-memory tasks (GeMTC, §7) — the
#: harness strips the shared-memory request, exactly as the paper's
#: evaluation did ("The GeMTC versions do not use shared memory").
STRIPS_SHARED_MEM = {"gemtc"}


def strip_shared_mem(tasks: List[TaskSpec]) -> List[TaskSpec]:
    """Copies of tasks with shared-memory requests removed."""
    import dataclasses
    return [
        dataclasses.replace(t, shared_mem_bytes=0) if t.shared_mem_bytes else t
        for t in tasks
    ]


def run_benchmark(workload: str, runtime: str,
                  num_tasks: Optional[int] = None,
                  threads: Optional[int] = None,
                  seed: int = 0, irregular: bool = False,
                  copies: bool = True, **kw) -> RunStats:
    """Run one experiment cell and return its RunStats."""
    tasks = make_tasks(workload, num_tasks, threads, seed, irregular)
    return run_tasks(tasks, runtime, copies=copies, **kw)


def run_tasks(tasks: List[TaskSpec], runtime: str, copies: bool = True,
              **kw) -> RunStats:
    """Run a prepared task list under a named runtime."""
    runner = RUNTIMES.get(runtime)
    if runner is None:
        raise KeyError(f"unknown runtime {runtime!r}; have {sorted(RUNTIMES)}")
    if runtime in STRIPS_SHARED_MEM:
        tasks = strip_shared_mem(tasks)
    return runner(tasks, copies=copies, **kw)


def copy_fraction(stats: RunStats) -> float:
    """Table 3's "% time spent in data copy", profiler style.

    nvprof-style accounting: total copy-engine busy time over total
    busy time (copies + per-kernel execution durations), matching how
    the paper's 'data copy vs computation' split sums to 100 % even
    though copies overlap kernels on the wall clock.
    """
    kernel_busy = sum(r.exec_time for r in stats.results)
    denom = stats.copy_time + kernel_busy
    if denom <= 0:
        return 0.0
    return stats.copy_time / denom


def speedups_vs(stats: Dict[str, RunStats], baseline: str) -> Dict[str, float]:
    """Speedup of every runtime over ``baseline`` (same workload)."""
    base = stats[baseline]
    return {
        name: s.speedup_over(base) if name != baseline else 1.0
        for name, s in stats.items()
    }


def geometric_mean(values: List[float]) -> float:
    """Geometric mean; the paper's summary statistic for speedups."""
    if not values:
        raise ValueError("empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def geomean_speedup(per_workload: Dict[str, Dict[str, float]],
                    runtime: str) -> float:
    """Geometric mean of one runtime's speedups across workloads."""
    return geometric_mean([v[runtime] for v in per_workload.values()])
